import tracemalloc

import numpy as np
import pytest

from compset import (
    InsufficientData,
    InvalidInput,
    PrimitiveBank,
    build_replaced,
    extend_bank,
    hard_nearest_replace,
    init_primitive_bank,
    kmeans_centers,
)
from compset.numkit import _BLOCK_BYTES
from util import (
    attention_oracle,
    hard_nearest_replace_oracle,
    kmeans_centers_oracle,
    replaced_block_oracle,
)


def replace_one(bank, class_id, donors, gamma):
    """One class's replaced block and attention, through build_replaced."""
    rb = build_replaced(bank, {class_id: list(donors)}, gamma, classes=[class_id])
    return rb.Z_hat[0], rb.attention[0]


def small_bank(n_classes=3, n_primitives=4, d=5, seed=0, sigma=1.0):
    return init_primitive_bank(
        list(range(n_classes)), n_primitives, d, scheme="gaussian", seed=seed, sigma=sigma
    )


class TestBankInvariants:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidInput):
            PrimitiveBank([1, 1], np.zeros((2, 2, 3)), np.zeros(2, dtype=bool))

    def test_rejects_unsorted_ids(self):
        with pytest.raises(InvalidInput):
            PrimitiveBank([2, 1], np.zeros((2, 2, 3)), np.zeros(2, dtype=bool))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidInput):
            PrimitiveBank([0], np.zeros((2, 2, 3)), np.zeros(2, dtype=bool))

    def test_block_lookup(self):
        bank = small_bank()
        np.testing.assert_array_equal(bank.block(1), bank.Z[1])
        with pytest.raises(InvalidInput):
            bank.block(99)

    def test_copy_is_independent(self):
        bank = small_bank()
        dup = bank.copy()
        dup.Z[0, 0, 0] += 1.0
        dup.frozen[0] = True
        assert bank.Z[0, 0, 0] != dup.Z[0, 0, 0]
        assert not bank.frozen[0]


class TestKmeans:
    def test_exactly_k_distinct_points(self):
        rng = np.random.default_rng(0)
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        centers = kmeans_centers(pts, 3, rng)
        got = {tuple(row) for row in centers}
        want = {tuple(row) for row in pts}
        assert got == want

    def test_separated_pairs_give_midpoints(self):
        rng = np.random.default_rng(1)
        anchors = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        eps = np.array([1.0, 0.0])
        pts = np.concatenate([anchors - eps, anchors + eps])
        centers = kmeans_centers(pts, 4, rng)
        got = sorted(map(tuple, centers))
        want = sorted(map(tuple, anchors))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_row_order_invariance(self):
        rng_pts = np.random.default_rng(2)
        pts = rng_pts.standard_normal((20, 3))
        a = kmeans_centers(pts, 4, np.random.default_rng(7))
        b = kmeans_centers(pts[rng_pts.permutation(20)], 4, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            kmeans_centers(np.zeros((2, 3)), 5, np.random.default_rng(0))

    def test_centers_partition_objective_sane(self):
        # every center is the mean of its assignees; objective never increases
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 4))
        centers = kmeans_centers(pts, 5, np.random.default_rng(0))
        dist = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        for j in range(5):
            sel = assign == j
            if sel.any():
                np.testing.assert_allclose(centers[j], pts[sel].mean(axis=0), atol=1e-9)


class TestInitBank:
    def test_gaussian_deterministic(self):
        a = small_bank(seed=11)
        b = small_bank(seed=11)
        np.testing.assert_array_equal(a.Z, b.Z)
        assert a.class_ids == b.class_ids

    def test_gaussian_per_class_stable_across_rosters(self):
        # a class's block depends on (seed, class id), not on its roster neighbors
        lone = init_primitive_bank([7], 3, 4, scheme="gaussian", seed=5, sigma=0.2)
        grouped = init_primitive_bank([2, 7, 9], 3, 4, scheme="gaussian", seed=5, sigma=0.2)
        np.testing.assert_array_equal(lone.block(7), grouped.block(7))

    def test_fresh_blocks_unfrozen(self):
        assert not small_bank().frozen.any()

    def test_kmeans_scheme(self):
        from compset.seeding import substream

        rng = np.random.default_rng(4)
        patches = {0: rng.standard_normal((12, 5)), 1: rng.standard_normal((9, 5))}
        bank = init_primitive_bank([0, 1], 3, 5, scheme="kmeans", seed=0, patches_by_class=patches)
        want0 = kmeans_centers(patches[0], 3, substream(0, "init-kmeans", 0))
        np.testing.assert_array_equal(bank.block(0), want0)

    def test_kmeans_needs_patches(self):
        with pytest.raises(InvalidInput):
            init_primitive_bank([0], 2, 3, scheme="kmeans", seed=0)
        with pytest.raises(InsufficientData):
            init_primitive_bank(
                [0], 5, 3, scheme="kmeans", seed=0, patches_by_class={0: np.zeros((2, 3))}
            )

    def test_rejects_bad_shapes_and_schemes(self):
        with pytest.raises(InvalidInput):
            init_primitive_bank([], 2, 3)
        with pytest.raises(InvalidInput):
            init_primitive_bank([0], 0, 3)
        with pytest.raises(InvalidInput):
            init_primitive_bank([0], 2, 1)
        with pytest.raises(InvalidInput):
            init_primitive_bank([0], 2, 3, scheme="pca")
        with pytest.raises(InvalidInput):
            init_primitive_bank([0, 0], 2, 3)


class TestExtendBank:
    def test_zero_new_classes_keeps_blocks(self):
        bank = small_bank()
        out = extend_bank(bank, [])
        np.testing.assert_array_equal(out.Z, bank.Z)
        assert out.class_ids == bank.class_ids
        assert out.frozen.all()

    def test_old_blocks_bit_identical_and_frozen(self):
        bank = small_bank(n_classes=3, n_primitives=2, d=4)
        rng = np.random.default_rng(5)
        patches = {3: rng.standard_normal((10, 4)), 4: rng.standard_normal((10, 4))}
        out = extend_bank(bank, [3, 4], patches_by_class=patches, scheme="kmeans", seed=0)
        assert out.class_ids == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(out.Z[:3], bank.Z)
        assert out.frozen[:3].all()
        assert not out.frozen[3:].any()

    def test_duplicate_class_rejected(self):
        bank = small_bank()
        with pytest.raises(InvalidInput):
            extend_bank(bank, [1], scheme="gaussian")

    def test_new_ids_must_follow_existing(self):
        bank = init_primitive_bank([5, 6], 2, 3, scheme="gaussian", seed=0)
        with pytest.raises(InvalidInput):
            extend_bank(bank, [4], scheme="gaussian")

    def test_shot_order_invariance(self):
        # 5 shots x 16 patches pooled to 80 rows; permuting shots changes nothing
        bank = small_bank(n_classes=2, n_primitives=4, d=6)
        rng = np.random.default_rng(6)
        shots = [rng.standard_normal((16, 6)) for _ in range(5)]
        pool_a = np.concatenate(shots, axis=0)
        pool_b = np.concatenate([shots[i] for i in (3, 0, 4, 2, 1)], axis=0)
        assert pool_a.shape == (80, 6)
        out_a = extend_bank(bank, [2], patches_by_class={2: pool_a}, scheme="kmeans", seed=9)
        out_b = extend_bank(bank, [2], patches_by_class={2: pool_b}, scheme="kmeans", seed=9)
        np.testing.assert_array_equal(out_a.block(2), out_b.block(2))


class TestAttentionReplace:
    def test_single_donor_primitive_any_gamma(self):
        bank = PrimitiveBank(
            [0, 1],
            np.stack([np.full((1, 3), 2.0), np.full((1, 3), -1.0)]),
            np.zeros(2, dtype=bool),
        )
        for gamma in (0.1, 1.0, 64.0):
            z_hat, att = replace_one(bank, 0, [1], gamma)
            np.testing.assert_allclose(z_hat, bank.block(1), atol=1e-15)
            np.testing.assert_allclose(att, [[1.0]], atol=1e-15)

    def test_hand_values_gamma_one(self):
        z = np.zeros((3, 1, 2))
        z[1, 0] = [1.0, 0.0]
        z[2, 0] = [3.0, 0.0]
        bank = PrimitiveBank([0, 1, 2], z, np.zeros(3, dtype=bool))
        z_hat, att = replace_one(bank, 0, [1, 2], 1.0)
        np.testing.assert_allclose(att, [[0.999665, 0.000335]], atol=1e-6)
        np.testing.assert_allclose(z_hat, [[1.000670, 0.0]], atol=1e-6)

    def test_hand_values_sharp(self):
        z = np.zeros((3, 1, 2))
        z[1, 0] = [1.0, 0.0]
        z[2, 0] = [3.0, 0.0]
        bank = PrimitiveBank([0, 1, 2], z, np.zeros(3, dtype=bool))
        z_hat, _ = replace_one(bank, 0, [1, 2], 64.0)
        np.testing.assert_allclose(z_hat, [[1.0, 0.0]], atol=1e-9)

    def test_rows_are_probability_vectors(self):
        bank = small_bank(n_classes=4, n_primitives=3, d=5)
        _, att = replace_one(bank, 2, [0, 1, 3], 8.0)
        assert att.shape == (3, 9)
        assert np.all(att >= 0.0)
        np.testing.assert_allclose(att.sum(axis=1), np.ones(3), atol=1e-9)

    def test_matches_oracle(self):
        bank = small_bank(n_classes=3, n_primitives=4, d=6, seed=3)
        donors = np.concatenate([bank.Z[0], bank.Z[2]], axis=0)
        for gamma in (0.5, 4.0, 16.0):
            z_hat, att = replace_one(bank, 1, [0, 2], gamma)
            want_att = np.stack([attention_oracle(row, donors, gamma) for row in bank.Z[1]])
            np.testing.assert_allclose(att, want_att, atol=1e-12)
            np.testing.assert_allclose(z_hat, replaced_block_oracle(bank.Z[1], donors, gamma), atol=1e-12)

    def test_sharpness_bound(self):
        # gamma=64 with squared-distance gaps >= 0.5 pins the nearest donor
        rng = np.random.default_rng(8)
        for _ in range(25):
            targets = rng.standard_normal((3, 4))
            donors = rng.standard_normal((6, 4))
            d2 = ((targets[:, None, :] - donors[None, :, :]) ** 2).sum(axis=2)
            best = d2.min(axis=1)
            gaps = np.sort(d2, axis=1)[:, 1] - best
            if np.any(gaps < 0.5):
                continue
            z = np.zeros((3, 3, 4))
            z[0] = targets
            z[1] = donors[:3]
            z[2] = donors[3:]
            bank = PrimitiveBank([0, 1, 2], z, np.zeros(3, dtype=bool))
            z_hat, _ = replace_one(bank, 0, [1, 2], 64.0)
            nearest = donors[d2.argmin(axis=1)]
            assert np.max(np.abs(z_hat - nearest)) <= 1e-6

    def test_translation_equivariance(self):
        bank = small_bank(n_classes=3, n_primitives=2, d=4, seed=10)
        shift = np.array([0.3, -1.2, 4.0, 0.05])
        shifted = PrimitiveBank(list(bank.class_ids), bank.Z + shift, bank.frozen.copy())
        z_a, att_a = replace_one(bank, 0, [1, 2], 8.0)
        z_b, att_b = replace_one(shifted, 0, [1, 2], 8.0)
        np.testing.assert_allclose(z_b, z_a + shift, atol=1e-9)
        np.testing.assert_allclose(att_b, att_a, atol=1e-12)

    def test_errors(self):
        bank = small_bank()
        with pytest.raises(InvalidInput):
            replace_one(bank, 0, [], 1.0)
        with pytest.raises(InvalidInput):
            replace_one(bank, 0, [0, 1], 1.0)
        with pytest.raises(InvalidInput):
            replace_one(bank, 0, [1], 0.0)
        with pytest.raises(InvalidInput):
            replace_one(bank, 0, [1, 1], 1.0)

    def test_build_replaced_matches_single(self):
        bank = small_bank(n_classes=4, n_primitives=3, d=5, seed=12)
        donor_map = {c: [d for d in range(4) if d != c] for c in range(4)}
        rb = build_replaced(bank, donor_map, 4.0)
        for c in range(4):
            z_hat, att = replace_one(bank, c, donor_map[c], 4.0)
            np.testing.assert_allclose(rb.block(c), z_hat, atol=1e-12)
            np.testing.assert_allclose(rb.attention[c], att, atol=1e-12)

    def test_build_replaced_donor_rows_index_bank(self):
        bank = small_bank(n_classes=3, n_primitives=2, d=4, seed=13)
        rb = build_replaced(bank, {0: [1, 2], 1: [0, 2], 2: [0, 1]}, 2.0)
        flat = bank.Z.reshape(-1, 4)
        for i, c in enumerate(rb.class_ids):
            donors = flat[rb.donor_rows[i]]
            np.testing.assert_allclose(rb.attention[i] @ donors, rb.Z_hat[i], atol=1e-12)

    def test_build_replaced_rejects_duplicate_donors(self):
        bank = small_bank(n_classes=3, n_primitives=2, d=4, seed=14)
        with pytest.raises(InvalidInput, match="duplicate"):
            build_replaced(bank, {0: [1, 2], 1: [0, 0], 2: [0, 1]}, 2.0)

    def test_build_replaced_rejects_unregistered_donor(self):
        bank = small_bank(n_classes=3, n_primitives=2, d=4, seed=15)
        with pytest.raises(InvalidInput, match="not registered"):
            build_replaced(bank, {0: [1, 9], 1: [0, 2], 2: [0, 1]}, 2.0)


class TestHardNearestReplace:
    def test_ratio_zero_is_noop(self):
        bank = small_bank(n_classes=4)
        out = hard_nearest_replace(bank, [2, 3], [0, 1], 0.0, seed=0)
        np.testing.assert_array_equal(out.Z, bank.Z)

    def test_ratio_one_single_donor_primitive(self):
        z = np.zeros((2, 3, 4))
        z[0] = 7.0  # donor class: every primitive identical
        z[1] = np.random.default_rng(0).standard_normal((3, 4))
        bank = PrimitiveBank([0, 1], z, np.zeros(2, dtype=bool))
        out = hard_nearest_replace(bank, [1], [0], 1.0, seed=0)
        np.testing.assert_array_equal(out.Z[1], np.full((3, 4), 7.0))

    def test_half_ratio_counts_and_membership(self):
        bank = small_bank(n_classes=5, n_primitives=4, d=6, seed=14)
        targets, donors = [3, 4], [0, 1, 2]
        out = hard_nearest_replace(bank, targets, donors, 0.5, seed=1)
        pool = {tuple(row) for c in donors for row in bank.block(c)}
        for c in targets:
            changed = [
                p
                for p in range(4)
                if not np.array_equal(out.block(c)[p], bank.block(c)[p])
            ]
            assert len(changed) == 2
            for p in changed:
                assert tuple(out.block(c)[p]) in pool

    def test_never_invents_values(self):
        bank = small_bank(n_classes=4, n_primitives=5, d=3, seed=15)
        out = hard_nearest_replace(bank, [2, 3], [0, 1], 0.7, seed=2)
        pool = {tuple(row) for c in (0, 1) for row in bank.block(c)}
        for c in (2, 3):
            orig = bank.block(c)
            for p in range(5):
                row = out.block(c)[p]
                assert np.array_equal(row, orig[p]) or tuple(row) in pool

    def test_replacement_is_nearest_with_low_index_ties(self):
        z = np.zeros((2, 2, 2))
        z[0, 0] = [1.0, 0.0]
        z[0, 1] = [1.0, 0.0]  # duplicate donor row: tie must pick index 0
        z[1, 0] = [0.9, 0.0]
        z[1, 1] = [10.0, 0.0]
        bank = PrimitiveBank([0, 1], z, np.zeros(2, dtype=bool))
        out = hard_nearest_replace(bank, [1], [0], 1.0, seed=0)
        np.testing.assert_array_equal(out.Z[1], [[1.0, 0.0], [1.0, 0.0]])

    def test_deterministic_given_seed(self):
        bank = small_bank(n_classes=4, n_primitives=6, d=4, seed=16)
        a = hard_nearest_replace(bank, [2, 3], [0, 1], 0.5, seed=3)
        b = hard_nearest_replace(bank, [2, 3], [0, 1], 0.5, seed=3)
        np.testing.assert_array_equal(a.Z, b.Z)

    def test_errors(self):
        bank = small_bank()
        with pytest.raises(InvalidInput):
            hard_nearest_replace(bank, [1], [], 0.5)
        with pytest.raises(InvalidInput):
            hard_nearest_replace(bank, [1], [1, 2], 0.5)
        with pytest.raises(InvalidInput):
            hard_nearest_replace(bank, [1], [0], 1.5)

    def test_input_bank_untouched(self):
        bank = small_bank(n_classes=3, n_primitives=4)
        before = bank.Z.copy()
        hard_nearest_replace(bank, [2], [0, 1], 1.0, seed=4)
        np.testing.assert_array_equal(bank.Z, before)


def _pools(rng):
    """Point pools that stress the exact search: random rows, duplicated
    rows and exactly equidistant grid points, and a +1e6 common offset
    under which the GEMM form cancels to a few bits."""
    out = []
    for _ in range(6):
        out.append(rng.standard_normal((int(rng.integers(2, 120)), int(rng.integers(2, 40)))))
    grid = rng.integers(-2, 3, (60, 3)).astype(float)  # many exact ties
    out.append(grid)
    out.append(np.repeat(rng.standard_normal((5, 4)), 7, axis=0))
    out.append(rng.standard_normal((80, 16)) + 1e6)
    out.append(0.1 * grid + 1e6)  # near-ties the GEMM form rounds apart
    return out


class TestNearestSearchesMatchBruteForce:
    """k-means and hard replacement search in the GEMM form; their results
    must equal the brute-force searches of tests/util.py byte for byte."""

    def test_kmeans_centers(self):
        rng = np.random.default_rng(30)
        for t, pts in enumerate(_pools(rng)):
            for k in sorted({1, 3, min(16, len(pts))}):
                got = kmeans_centers(pts, k, np.random.default_rng(t))
                want = kmeans_centers_oracle(pts, k, np.random.default_rng(t))
                assert got.tobytes() == want.tobytes(), (t, k)

    def test_kmeans_one_row_pool(self):
        pts = np.array([[3.0, -1.0, 2.0]])
        got = kmeans_centers(pts, 1, np.random.default_rng(0))
        assert got.tobytes() == kmeans_centers_oracle(pts, 1, np.random.default_rng(0)).tobytes()

    def test_kmeans_empty_cluster_takes_the_farthest_point(self):
        # 4 distinct points, 3 of them stacked: a cluster empties and is
        # refilled from the exact per-point minimum distances
        pts = np.array([[0.0, 0.0]] * 6 + [[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        for seed in range(6):
            got = kmeans_centers(pts, 4, np.random.default_rng(seed))
            want = kmeans_centers_oracle(pts, 4, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ratio", [0.3, 0.5, 1.0])
    def test_hard_nearest_replace(self, ratio):
        rng = np.random.default_rng(31)
        for t, pool in enumerate(_pools(rng)):
            npr = 4
            cnum = len(pool) // npr
            if cnum < 2:
                continue
            z = pool[: cnum * npr].reshape(cnum, npr, -1)
            bank = PrimitiveBank(list(range(cnum)), z, np.zeros(cnum, dtype=bool))
            donors = list(range(max(1, cnum // 3)))
            targets = list(range(len(donors), cnum))
            got = hard_nearest_replace(bank, targets, donors, ratio, seed=t)
            want = hard_nearest_replace_oracle(bank, targets, donors, ratio, seed=t)
            assert got.Z.tobytes() == want.Z.tobytes(), t

    def test_equidistant_donors_go_to_the_lowest_index(self):
        # every target row is exactly 1 from four donor rows
        z = np.zeros((3, 4, 2))
        z[0] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        z[1] = [[0.0, -1.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        z[2] = 0.0
        bank = PrimitiveBank([0, 1, 2], z + 1e6, np.zeros(3, dtype=bool))
        got = hard_nearest_replace(bank, [2], [0, 1], 1.0, seed=0)
        np.testing.assert_array_equal(got.Z[2], np.full((4, 2), [1.0, 0.0]) + 1e6)

    def test_one_row_donor_pool(self):
        rng = np.random.default_rng(32)
        bank = PrimitiveBank([0, 1, 2], rng.standard_normal((3, 1, 5)), np.zeros(3, dtype=bool))
        got = hard_nearest_replace(bank, [1, 2], [0], 1.0, seed=1)
        np.testing.assert_array_equal(got.Z[1:], np.broadcast_to(bank.Z[0], (2, 1, 5)))

    def test_wide_replacement_stays_within_the_byte_budget(self):
        # 800 target classes x 8 picks against a 3200 x 512 donor pool: the
        # brute-force table would hold 6400 x 3200 floats (156 MiB)
        rng = np.random.default_rng(33)
        bank = PrimitiveBank(list(range(1000)), rng.standard_normal((1000, 16, 512)),
                             np.zeros(1000, dtype=bool))
        donors, targets = list(range(200)), list(range(200, 1000))
        tracemalloc.start()
        try:
            got = hard_nearest_replace(bank, targets, donors, 0.5, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 6400 * 512 * 8  # the picked rows and the rows copied in
        pool = 3200 * 512 * 8
        assert peak < bank.Z.nbytes + 2 * rows + pool + 3 * _BLOCK_BYTES
        # the picks of a class come from its own substream, so a few
        # classes replaced alone by the brute-force loop must agree
        few = targets[:: 100]
        want = hard_nearest_replace_oracle(bank, few, donors, 0.5, seed=2)
        assert got.Z[few].tobytes() == want.Z[few].tobytes()
