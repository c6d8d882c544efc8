import tracemalloc

import numpy as np
import pytest

from compset import (
    DegenerateInput,
    DegenerateSet,
    InvalidInput,
    NumericalFailure,
    allmatch_similarity,
    cka_rc,
    composition_scores_stack,
    linear_cka,
    patch_importance,
    power_transform,
)
from compset.cka import (
    _gram_form,
    _gram_numerators,
    center_stack,
    cosine_scores_stack,
    edited_scores,
    power_transform_stack,
    prepare_maps,
)
from compset.numkit import _BLOCK_BYTES
from util import (
    center_rows,
    central_diff_grad,
    center_oracle,
    cka_oracle,
    cka_rc_oracle,
    composition_scores_gram_one_block,
    composition_scores_unchunked,
    cosine_oracle,
    match_weights,
    patch_importance_oracle,
    power_oracle,
    random_pair,
)


class TestCenterRows:
    def test_hand_values(self):
        np.testing.assert_allclose(
            center_rows([[1.0, 0.0], [0.0, 1.0]]), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )
        np.testing.assert_allclose(
            center_rows([[1.0, 0.0, 0.0]]), [[2 / 3, -1 / 3, -1 / 3]], atol=1e-15
        )

    def test_constant_row_to_zero(self):
        out = center_rows([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(out[0], np.zeros(3))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 7))
        once = center_rows(m)
        np.testing.assert_allclose(center_rows(once), once, atol=1e-14)

    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(2, 12))))
            np.testing.assert_allclose(center_rows(m), center_oracle(m), atol=1e-12)

    def test_single_channel_rejected(self):
        with pytest.raises(DegenerateInput):
            center_rows([[1.0], [2.0]])


class TestLinearCka:
    def test_hand_value_rank_one(self):
        assert abs(linear_cka([[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0]]) - 1.0) <= 1e-12

    def test_hand_value_orthogonal_axes(self):
        assert abs(linear_cka([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]) - 0.25) <= 1e-12

    def test_identity_suite_small(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, z = random_pair(rng)
            v = linear_cka(x, z)
            assert 0.0 <= v <= 1.0
            assert abs(v - linear_cka(z, x)) <= 1e-12
            assert abs(linear_cka(x, x) - 1.0) <= 1e-12
            np.testing.assert_allclose(v, cka_oracle(x, z), atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        x, z = random_pair(rng, n=5, big_n=3, d=8)
        v = linear_cka(x, z)
        assert abs(linear_cka(2.5 * x, z) - v) <= 1e-9
        assert abs(linear_cka(x, 0.03 * z) - v) <= 1e-9

    def test_orthogonal_patch_mixing_invariance(self):
        rng = np.random.default_rng(7)
        x, z = random_pair(rng, n=6, big_n=4, d=9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert abs(linear_cka(q @ x, z) - linear_cka(x, z)) <= 1e-9

    def test_joint_channel_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x, z = random_pair(rng, n=4, big_n=3, d=10)
        perm = rng.permutation(10)
        assert abs(linear_cka(x[:, perm], z[:, perm]) - linear_cka(x, z)) <= 1e-12

    def test_per_row_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x, z = random_pair(rng)
            v = linear_cka(x, z)
            x_shift = x + rng.standard_normal((x.shape[0], 1)) * 10.0
            z_shift = z + rng.standard_normal((z.shape[0], 1)) * 10.0
            assert abs(linear_cka(x_shift, z) - v) <= 1e-9
            assert abs(linear_cka(x_shift, z_shift) - v) <= 1e-9

    def test_degenerate_and_invalid(self):
        with pytest.raises(DegenerateSet):
            linear_cka([[1.0, 1.0]], [[1.0, 2.0]])  # X centers to zero
        with pytest.raises(DegenerateSet):
            linear_cka([[1.0, 2.0]], [[3.0, 3.0]])
        with pytest.raises(InvalidInput):
            linear_cka([[1.0, 2.0]], [[1.0, 2.0, 3.0]])
        with pytest.raises(DegenerateInput):
            linear_cka([[1.0]], [[2.0]])


class TestPowerTransform:
    def test_identity_at_one(self):
        m = np.array([[1.0, -2.0], [0.0, 3.0]])
        np.testing.assert_array_equal(power_transform(m, 1.0), m)

    def test_square_roots(self):
        np.testing.assert_allclose(power_transform([[4.0, 0.25]], 0.5), [[2.0, 0.5]], atol=1e-15)

    def test_sign_preserving(self):
        np.testing.assert_allclose(power_transform([[-4.0]], 0.5), [[-2.0]], atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 5))
        for alpha in (0.3, 0.5, 0.8, 1.0):
            np.testing.assert_allclose(power_transform(m, alpha), power_oracle(m, alpha), atol=1e-12)

    def test_stack_bit_equal_to_sign_times_power(self):
        rng = np.random.default_rng(10)
        x3 = rng.standard_normal((4, 6, 8))
        x3[0, 0, :3] = [-0.0, 0.0, -1e-310]
        for alpha in (0.3, 0.8):
            want = np.sign(x3) * np.abs(x3) ** alpha
            assert power_transform_stack(x3, alpha).tobytes() == want.tobytes()

    def test_alpha_range_enforced(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInput):
                power_transform([[1.0, 2.0]], alpha)


def pair_score(x, z, alpha):
    """One (sample, class) composition score through the batched kernel."""
    return float(composition_scores_stack(np.asarray(x)[None], np.asarray(z)[None], alpha)[0, 0])


class TestCompositionScore:
    def test_alpha_one_is_plain_cka(self):
        rng = np.random.default_rng(10)
        x, z = random_pair(rng, n=5, big_n=4, d=6)
        assert pair_score(x, z, alpha=1.0) == pytest.approx(linear_cka(x, z), abs=1e-15)

    def test_binary_entries_unchanged_by_alpha(self):
        x = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        z = np.array([[1.0, 2.0, 3.0]])
        assert pair_score(x, z, alpha=0.5) == pytest.approx(
            pair_score(x, z, alpha=1.0), abs=1e-15
        )

    def test_hand_value_after_transform(self):
        assert abs(pair_score([[4.0, 0.0], [0.0, 4.0]], [[2.0, 0.0]], alpha=0.5) - 1.0) <= 1e-12

    def test_scale_compensation_identity(self):
        # scaling X by c^(1/alpha) multiplies the transformed map by c, which CKA ignores
        rng = np.random.default_rng(11)
        x, z = random_pair(rng, n=4, big_n=3, d=7)
        alpha, c = 0.8, 3.7
        a = pair_score(x, z, alpha=alpha)
        b = pair_score(c ** (1 / alpha) * x, z, alpha=alpha)
        assert abs(a - b) <= 1e-9


class TestDecomposition:
    def test_match_weight_hand_value(self):
        w = match_weights([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(w, [[-0.75]], atol=1e-12)

    def test_weights_reconstruct_score(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x, z = random_pair(rng)
            w = match_weights(x, z)
            dots = center_oracle(x) @ center_oracle(z).T
            assert abs((w * dots).sum() - linear_cka(x, z)) <= 1e-9

    def test_orthogonal_after_centering_gives_zero_weights(self):
        x = np.array([[1.0, 0.0, -1.0]])
        z = np.array([[1.0, -2.0, 1.0]])  # centered stays itself, orthogonal to x
        np.testing.assert_allclose(match_weights(x, z), np.zeros((1, 1)), atol=1e-15)

    def test_self_case_sums_to_one(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 8))
        w = match_weights(x, x)
        dots = center_oracle(x) @ center_oracle(x).T
        assert abs((w * dots).sum() - 1.0) <= 1e-12

    def test_importance_sums_to_score(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x, z = random_pair(rng)
            imp = patch_importance(x, z)
            assert np.all(imp >= 0.0)
            assert abs(imp.sum() - linear_cka(x, z)) <= 1e-9

    def test_single_patch_importance_is_score(self):
        imp = patch_importance([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(imp, [0.25], atol=1e-12)

    def test_orthogonal_patch_contributes_zero(self):
        z = np.array([[2.0, 0.0, -2.0]])
        x = np.array([[2.0, 0.0, -2.0], [1.0, -2.0, 1.0]])  # second row orthogonal to z after centering
        imp = patch_importance(x, z)
        assert imp[1] == pytest.approx(0.0, abs=1e-15)


class TestImportanceStack:
    """patch_importance over a stack of (map, block) pairs in one call."""

    @pytest.mark.parametrize("alpha", [1.0, 0.8])
    @pytest.mark.parametrize("n, big_n, d", [(4, 3, 9), (12, 5, 6), (7, 11, 8)])
    def test_matches_the_per_pair_oracle(self, n, big_n, d, alpha):
        rng = np.random.default_rng([27, n, big_n, d])
        x3 = rng.standard_normal((6, n, d))
        zs = rng.standard_normal((6, big_n, d))
        got = patch_importance(power_transform_stack(x3, alpha), zs)
        assert got.shape == (6, n)
        for b in range(6):
            want = patch_importance_oracle(power_oracle(x3[b], alpha), zs[b])
            np.testing.assert_allclose(got[b], want, rtol=1e-14, atol=0.0)

    def test_one_pair_is_a_stack_of_one(self):
        rng = np.random.default_rng(28)
        x, z = random_pair(rng, n=5, big_n=3, d=7)
        assert patch_importance(x, z).tobytes() == patch_importance(x[None], z[None])[0].tobytes()

    def test_empty_stack(self):
        assert patch_importance(np.zeros((0, 3, 4)), np.zeros((0, 2, 4))).shape == (0, 3)

    def test_bad_stacks_rejected(self):
        x3, zs = np.ones((2, 3, 4)), np.ones((2, 2, 4))
        for x, z in [(x3, zs[:1]), (x3, zs[0]), (x3[0], zs), (x3, zs[:, :, :3])]:
            with pytest.raises(InvalidInput):
                patch_importance(x, z)
        bad = np.array(x3)
        bad[1, 0, 0] = np.nan
        with pytest.raises(InvalidInput, match="non-finite"):
            patch_importance(bad, zs)

    def test_constant_sets_name_their_index(self):
        rng = np.random.default_rng(29)
        x3 = rng.standard_normal((3, 4, 5))
        zs = rng.standard_normal((3, 2, 5))
        with pytest.raises(DegenerateSet, match="map 2"):
            patch_importance(np.concatenate([x3[:2], np.ones((1, 4, 5))]), zs)
        with pytest.raises(DegenerateSet, match="block 1"):
            patch_importance(x3, np.concatenate([zs[:1], np.ones((2, 2, 5))]))
        with pytest.raises(DegenerateSet):
            patch_importance(np.ones((4, 5)), zs[0])

    def test_overflow_raises(self):
        # one finite 1e200 entry overflows its map's Gram: importances were
        # once NaN or 0 without an error
        rng = np.random.default_rng(30)
        x3 = rng.standard_normal((3, 4, 5))
        zs = rng.standard_normal((3, 2, 5))
        x3[1, 2, 3] = 1e200
        with pytest.raises(NumericalFailure, match="overflow"):
            patch_importance(x3, zs)
        with pytest.raises(NumericalFailure, match="overflow"):
            patch_importance(x3[1], zs[1])


class TestAllMatch:
    def test_hand_values(self):
        x = [[1.0, 0.0], [0.0, 1.0]]
        z = [[1.0, 0.0]]
        assert allmatch_similarity(x, z, "mean") == pytest.approx(0.5, abs=1e-12)
        assert allmatch_similarity(x, z, "max") == pytest.approx(0.5, abs=1e-12)

    def test_identical_single_rows(self):
        row = [[0.3, -0.7, 2.0]]
        assert allmatch_similarity(row, row, "mean") == pytest.approx(1.0, abs=1e-12)
        assert allmatch_similarity(row, row, "max") == pytest.approx(1.0, abs=1e-12)

    def test_mean_mode_factorization(self):
        # average pairwise cosine == dot of the averaged unit rows
        rng = np.random.default_rng(16)
        for _ in range(100):
            x, z = random_pair(rng)
            naive = np.mean(
                [
                    (xi @ zk) / (np.linalg.norm(xi) * np.linalg.norm(zk))
                    for xi in x
                    for zk in z
                ]
            )
            xu = x / np.linalg.norm(x, axis=1, keepdims=True)
            zu = z / np.linalg.norm(z, axis=1, keepdims=True)
            factored = xu.mean(axis=0) @ zu.mean(axis=0)
            got = allmatch_similarity(x, z, "mean")
            assert abs(got - naive) <= 1e-9
            assert abs(got - factored) <= 1e-9

    def test_max_mode_matches_naive(self):
        rng = np.random.default_rng(17)
        x, z = random_pair(rng, n=6, big_n=5, d=4)
        cos = np.array([[(xi @ zk) / (np.linalg.norm(xi) * np.linalg.norm(zk)) for zk in z] for xi in x])
        assert allmatch_similarity(x, z, "max") == pytest.approx(cos.max(axis=1).mean(), abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInput):
            allmatch_similarity([[0.0, 0.0]], [[1.0, 0.0]])

    def test_bad_mode(self):
        with pytest.raises(InvalidInput):
            allmatch_similarity([[1.0, 0.0]], [[1.0, 0.0]], mode="sum")


class TestCkaRc:
    def test_self_and_scale(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((6, 4))
        assert cka_rc(a, a) == pytest.approx(1.0, abs=1e-12)
        assert cka_rc(a, 3.0 * a) == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_oracle_and_sign_flip(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = a[:, :1]
        v = cka_rc(a, b)
        assert v == pytest.approx(cka_rc_oracle(a, b), abs=1e-12)
        assert cka_rc(a, -b) == pytest.approx(v, abs=1e-12)

    def test_orthogonal_right_multiplication_invariance(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((7, 3))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert cka_rc(a @ q, b) == pytest.approx(cka_rc(a, b), abs=1e-12)

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            nb = int(rng.integers(2, 12))
            a = rng.standard_normal((nb, int(rng.integers(1, 9))))
            b = rng.standard_normal((nb, int(rng.integers(1, 9))))
            np.testing.assert_allclose(cka_rc(a, b), np.clip(cka_rc_oracle(a, b), 0, 1), atol=1e-9)

    def test_transposed_maps_reduce_to_linear_cka(self):
        # comparing X^T and Z^T as "representations" over the channel batch
        rng = np.random.default_rng(21)
        x, z = random_pair(rng, n=5, big_n=4, d=9)
        assert cka_rc(x.T, z.T) == pytest.approx(linear_cka(x, z), abs=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidInput):
            cka_rc([[1.0, 0.0]], [[1.0, 0.0]])  # b < 2
        with pytest.raises(InvalidInput):
            cka_rc(np.eye(3), np.eye(4))
        with pytest.raises(DegenerateSet):
            cka_rc(np.ones((3, 2)), np.eye(3))  # constant representation

    def test_is_linear_cka_of_the_transposes_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            nb = int(rng.integers(2, 40))
            a = rng.standard_normal((nb, int(rng.integers(1, 9))))
            b = rng.standard_normal((nb, int(rng.integers(1, 9))))
            assert cka_rc(a, b) == linear_cka(a.T, b.T)

    def test_memory_does_not_grow_with_the_batch(self):
        # the feature-space form needs O(p q + (p + q) b) memory; a b x b
        # Gram alone would take 32 MB at b = 2000
        rng = np.random.default_rng(24)
        a = rng.standard_normal((2000, 8))
        b = np.tanh(a @ rng.standard_normal((8, 8)))
        tracemalloc.start()
        try:
            value = cka_rc(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(cka_rc_oracle(a, b), abs=1e-9)
        assert peak < 4 * 2**20


class TestBatchedScores:
    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(22)
        x3 = rng.standard_normal((6, 5, 7))
        zs = rng.standard_normal((4, 3, 7))
        for alpha in (0.5, 1.0):
            got = composition_scores_stack(x3, zs, alpha)
            for b in range(6):
                for k in range(4):
                    want = cka_oracle(power_oracle(x3[b], alpha), zs[k])
                    assert got[b, k] == pytest.approx(want, abs=1e-12)

    def test_zero_policy(self):
        x3 = np.stack([np.ones((2, 3)), np.arange(6.0).reshape(2, 3)])  # first map degenerate
        zs = np.arange(12.0).reshape(2, 2, 3)
        with pytest.raises(DegenerateSet):
            composition_scores_stack(x3, zs, 1.0)
        out = composition_scores_stack(x3, zs, 1.0, on_degenerate="zero")
        np.testing.assert_array_equal(out[0], np.zeros(2))
        assert np.all(out[1] > 0.0)

    def test_vjp_matches_central_differences(self):
        rng = np.random.default_rng(25)
        x3 = rng.standard_normal((3, 4, 5))
        zs = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((3, 2))
        scores, vjp = composition_scores_stack(x3, zs, 0.8, _with_vjp=True)
        np.testing.assert_array_equal(scores, composition_scores_stack(x3, zs, 0.8))

        def loss(theta):
            return float((w * composition_scores_stack(x3, theta.reshape(zs.shape), 0.8)).sum())

        want = central_diff_grad(loss, zs.ravel()).reshape(zs.shape)
        np.testing.assert_allclose(vjp(w), want, atol=1e-7)

    def test_vjp_passes_nothing_through_degenerate_pairs(self):
        rng = np.random.default_rng(26)
        x3 = rng.standard_normal((2, 3, 4))
        x3[0] = 1.0  # map 0 centers to zero
        zs = rng.standard_normal((2, 2, 4))
        zs[1] = 2.0  # block 1 centers to zero
        scores, vjp = composition_scores_stack(x3, zs, 1.0, on_degenerate="zero", _with_vjp=True)
        g = vjp(np.ones_like(scores))
        np.testing.assert_array_equal(g[1], np.zeros((2, 4)))
        alone = composition_scores_stack(x3[1:], zs[:1], 1.0, _with_vjp=True)[1]
        np.testing.assert_allclose(g[0], alone(np.ones((1, 1)))[0], atol=1e-15)


def peak_bytes(rng, zs, bsz, n):
    """Peak traced bytes of scoring bsz random (n, d) maps against zs."""
    x3 = rng.standard_normal((bsz, n, zs.shape[2]))
    tracemalloc.start()
    try:
        composition_scores_stack(x3, zs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScoresInBlocks:
    """The forward product is taken in blocks of maps x classes under the
    byte budget; the scores must equal the one-product form bit for bit."""

    @pytest.mark.parametrize(
        "maps, bank",
        [
            # the benchmark's d = 512 shapes, where the rule keeps the product
            # form; the batch is cut where the one-product oracle would need
            # hundreds of MB, but still spans many blocks
            ((9, 64, 512), (1000, 16)),  # eval-wide: 9 maps x 227 classes a block
            ((100, 64, 512), (100, 16)),  # reference size: 22 maps x 93 classes
        ],
    )
    def test_bit_equal_to_one_product(self, maps, bank):
        rng = np.random.default_rng(40)
        x3 = np.abs(rng.standard_normal(maps))
        zs = rng.standard_normal(bank + (maps[2],))
        b, n, d = maps
        assert b * n * bank[0] * bank[1] * 8 > 2 * _BLOCK_BYTES
        assert not _gram_form(maps, bank + (d,))
        got = composition_scores_stack(x3, zs, 0.5)
        assert got.tobytes() == composition_scores_unchunked(x3, zs, 0.5).tobytes()

    def test_memory_stays_flat_as_the_batch_grows(self):
        # one 8 x 64 map's product against 600 classes is 614 KB, so even 32
        # maps span two blocks; 600 class Grams of 64 x 64 exceed one block,
        # so the product form runs
        rng = np.random.default_rng(41)
        zs = rng.standard_normal((600, 16, 64))
        assert 32 * 8 * 600 * 16 * 8 > _BLOCK_BYTES
        assert not _gram_form((32, 8, 64), zs.shape) and not _gram_form((256, 8, 64), zs.shape)
        small, large = peak_bytes(rng, zs, 32, 8), peak_bytes(rng, zs, 256, 8)
        assert large < 1.25 * small
        assert large < 2 * _BLOCK_BYTES

    def test_vjp_scores_equal_the_blocked_forward(self):
        # 30 maps of 64 x 512 against 100 classes: two blocks of maps, and
        # the rule keeps the product form
        rng = np.random.default_rng(42)
        x3 = rng.standard_normal((30, 64, 512))
        zs = rng.standard_normal((100, 16, 512))
        assert not _gram_form(x3.shape, zs.shape)
        scores, _ = composition_scores_stack(x3, zs, 1.0, _with_vjp=True)
        assert scores.tobytes() == composition_scores_stack(x3, zs, 1.0).tobytes()

    def test_overflow_raises(self):
        rng = np.random.default_rng(43)
        x3 = rng.standard_normal((3, 4, 5))
        zs = rng.standard_normal((2, 3, 5))
        x3[1, 2, 3] = 1e200  # finite, but its Gram overflows
        with pytest.raises(NumericalFailure):
            composition_scores_stack(x3, zs)
        with pytest.raises(NumericalFailure):
            composition_scores_stack(x3[:1], zs * 1e200)


class TestGramForm:
    """Gradient-free calls score <Xc^T Xc, Zc^T Zc>_F when the class Grams
    fit one block and the form needs fewer multiply-adds."""

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    @pytest.mark.parametrize(
        "maps, bank",
        [
            ((100, 8, 16), (40, 16, 16)),  # n < d
            ((100, 40, 16), (40, 16, 16)),  # n > d
        ],
    )
    def test_agrees_with_the_product(self, maps, bank, alpha):
        rng = np.random.default_rng(44)
        x3 = np.abs(rng.standard_normal(maps))
        zs = rng.standard_normal(bank)
        assert _gram_form(maps, bank)
        got = composition_scores_stack(x3, zs, alpha)
        np.testing.assert_allclose(got, composition_scores_unchunked(x3, zs, alpha), rtol=1e-13, atol=0.0)

    def test_blocks_bit_equal_to_one_block(self):
        # sessions-long evaluation: 3000 maps of 16 x 32 against 60 classes;
        # a block holds 2048 map Grams of 32 x 32
        rng = np.random.default_rng(45)
        x3 = np.abs(rng.standard_normal((3000, 16, 32)))
        zs = rng.standard_normal((60, 16, 32))
        assert _gram_form(x3.shape, zs.shape)
        assert 3000 * 8 * 32 * 32 > _BLOCK_BYTES
        got = composition_scores_stack(x3, zs, 0.8)
        assert got.tobytes() == composition_scores_gram_one_block(x3, zs, 0.8).tobytes()

    def test_memory_stays_flat_as_the_batch_grows(self):
        # a block holds 512 map Grams of 64 x 64, so 1024 and 2048 maps span
        # 2 and 4 blocks; all 2048 map Grams would take 64 MB
        rng = np.random.default_rng(41)
        zs = rng.standard_normal((50, 64, 64))
        assert 1024 * 8 * 64 * 64 >= 2 * _BLOCK_BYTES
        assert _gram_form((1024, 4, 64), zs.shape) and _gram_form((2048, 4, 64), zs.shape)
        small, large = peak_bytes(rng, zs, 1024, 4), peak_bytes(rng, zs, 2048, 4)
        assert large < 1.25 * small
        assert large < 2 * _BLOCK_BYTES

    def test_vjp_scores_agree_with_the_forward(self):
        # the vjp keeps the product form; the forward takes the Gram form
        rng = np.random.default_rng(42)
        x3 = rng.standard_normal((300, 16, 32))
        zs = rng.standard_normal((60, 16, 32))
        assert _gram_form(x3.shape, zs.shape)
        scores, _ = composition_scores_stack(x3, zs, 1.0, _with_vjp=True)
        np.testing.assert_allclose(scores, composition_scores_stack(x3, zs, 1.0), rtol=1e-13, atol=0.0)

    def test_numerators_never_round_below_zero(self):
        # maps and blocks in orthogonal channel subspaces: every numerator is
        # 0 up to rounding, and the Gram inner products round to both signs
        rng = np.random.default_rng(46)
        q = np.linalg.qr(center_stack(rng.standard_normal((1, 16, 16)))[0].T)[0]
        xc = center_stack(rng.standard_normal((20, 8, 4)) @ q[:, :4].T)
        zc = center_stack(rng.standard_normal((10, 16, 4)) @ q[:, 4:8].T)
        gx = (xc.transpose(0, 2, 1) @ xc).reshape(20, -1)
        gz = (zc.transpose(0, 2, 1) @ zc).reshape(10, -1)
        assert (gx @ gz.T < 0.0).any()
        num = _gram_numerators(xc, zc)
        assert num.min() >= 0.0
        assert num.max() < 1e-12
        assert composition_scores_stack(xc, zc).min() >= 0.0

    def test_overflow_raises(self):
        rng = np.random.default_rng(47)
        x3 = rng.standard_normal((100, 8, 16))
        zs = rng.standard_normal((40, 16, 16))
        assert _gram_form(x3.shape, zs.shape)
        x3[7, 2, 3] = 1e200  # finite, but its Gram overflows
        with pytest.raises(NumericalFailure):
            composition_scores_stack(x3, zs)
        with pytest.raises(NumericalFailure):
            composition_scores_stack(x3[:1], zs * 1e200)

    def test_degenerate_map_or_block(self):
        rng = np.random.default_rng(48)
        x3 = rng.standard_normal((100, 8, 16))
        zs = rng.standard_normal((40, 16, 16))
        x3[5] = 3.0  # map 5 centers to zero
        assert _gram_form(x3.shape, zs.shape)
        with pytest.raises(DegenerateSet, match="map 5 "):
            composition_scores_stack(x3, zs)
        got = composition_scores_stack(x3, zs, on_degenerate="zero")
        np.testing.assert_array_equal(got[5], np.zeros(40))
        assert (np.delete(got, 5, axis=0) > 0.0).all()
        zs[9] = -1.0  # block 9 centers to zero
        with pytest.raises(DegenerateSet, match="class block 9 ") as info:
            composition_scores_stack(x3[6:], zs)
        assert info.value.class_id == 9
        got = composition_scores_stack(x3, zs, on_degenerate="zero")
        np.testing.assert_array_equal(got[:, 9], np.zeros(100))

    def test_empty_batch_or_bank(self):
        rng = np.random.default_rng(49)
        x3 = rng.standard_normal((100, 8, 16))
        zs = rng.standard_normal((40, 16, 16))
        assert composition_scores_stack(x3[:0], zs).shape == (0, 40)
        assert composition_scores_stack(x3, zs[:0]).shape == (100, 0)
        xc, zc = center_stack(x3), center_stack(zs)
        assert _gram_numerators(xc[:0], zc).shape == (0, 40)
        np.testing.assert_array_equal(_gram_numerators(xc, zc[:0]), np.zeros((100, 0)))

    @pytest.mark.parametrize(
        "maps, bank, gram",
        [
            ((3000, 16, 32), (60, 16, 32), True),  # sessions-long evaluation
            ((3000, 4, 32), (60, 16, 32), True),  # its importance filter, keep 4
            ((3000, 1, 32), (60, 16, 32), False),  # keep 1
            ((1500, 16, 32), (30, 16, 32), True),  # pipeline-default evaluation
            ((25, 16, 32), (55, 16, 32), True),  # incremental fixed columns
            ((100, 64, 512), (1000, 16, 512), False),  # eval-wide
            ((100, 64, 512), (100, 16, 512), False),  # reference size
            # cka_rc is one pair of (features, batch) sets
            ((1, 512, 3000), (1, 256, 3000), False),  # eval-wide's generated pair
            ((1, 32, 1500), (1, 30, 1500), False),  # pipeline-default's
            ((1, 32, 3000), (1, 60, 3000), False),  # sessions-long's
        ],
    )
    def test_rule_routes_the_benchmark_shapes(self, maps, bank, gram):
        assert _gram_form(maps, bank) == gram

    @pytest.mark.parametrize(
        "maps, bank",
        [
            ((64, 16, 32), (20, 16, 32)),  # a base-training minibatch
            ((25, 16, 32), (55, 16, 32)),  # a late incremental session
        ],
    )
    def test_vjp_calls_keep_the_product(self, maps, bank):
        rng = np.random.default_rng(50)
        x3 = np.abs(rng.standard_normal(maps))
        zs = rng.standard_normal(bank)
        assert _gram_form(maps, bank)
        scores, _ = composition_scores_stack(x3, zs, 0.8, _with_vjp=True)
        assert scores.tobytes() == composition_scores_unchunked(x3, zs, 0.8).tobytes()


class TestCosineScores:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(27)
        x3 = rng.standard_normal((4, 5, 6))
        zs = rng.standard_normal((3, 2, 6))
        mean = cosine_scores_stack(x3, zs, "mean")
        best = cosine_scores_stack(x3, zs, "max")
        for b in range(4):
            for k in range(3):
                cos = np.array([[cosine_oracle(x, z) for z in zs[k]] for x in x3[b]])
                assert mean[b, k] == pytest.approx(cos.mean(), abs=1e-12)
                assert best[b, k] == pytest.approx(cos.max(axis=1).mean(), abs=1e-12)

    def test_one_pair_is_allmatch_similarity(self):
        rng = np.random.default_rng(28)
        x, z = random_pair(rng, n=5, big_n=3, d=7)
        for mode in ("mean", "max"):
            got = cosine_scores_stack(x[None], z[None], mode)[0, 0]
            assert allmatch_similarity(x, z, mode) == got

    def test_zero_rows_count_as_cosine_zero(self):
        x3 = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        zs = np.array([[[1.0, 0.0]]])
        np.testing.assert_array_equal(cosine_scores_stack(x3, zs, "mean"), [[0.5]])
        np.testing.assert_array_equal(cosine_scores_stack(x3, zs, "max"), [[0.5]])

    def test_bad_mode(self):
        with pytest.raises(InvalidInput):
            cosine_scores_stack(np.ones((1, 1, 2)), np.ones((1, 1, 2)), "sum")


class TestPreparedMaps:
    """A stack prepared once scores as the raw stack does, bit for bit."""

    @pytest.mark.parametrize("maps, bank", [((40, 16, 32), (20, 16, 32)), ((9, 64, 512), (30, 16, 512))])
    def test_scores_equal_the_raw_stack(self, maps, bank):
        rng = np.random.default_rng(60)
        x3 = rng.standard_normal(maps)
        zs = rng.standard_normal(bank)
        prep = prepare_maps(x3, 0.8)
        assert prep.shape == maps and len(prep) == maps[0]
        want = composition_scores_stack(x3, zs, 0.8)
        assert composition_scores_stack(prep, zs, 0.8).tobytes() == want.tobytes()
        got, _ = composition_scores_stack(prep, zs, 0.8, _with_vjp=True)
        assert got.tobytes() == composition_scores_stack(x3, zs, 0.8, _with_vjp=True)[0].tobytes()

    def test_kept_patches_equal_preparing_them(self):
        rng = np.random.default_rng(61)
        x3 = rng.standard_normal((30, 16, 32))
        prep = prepare_maps(x3, 0.8)
        sel = np.sort(np.argsort(rng.standard_normal((30, 16)), axis=1)[:, :5], axis=1)
        got = prep.keep_patches(sel)
        want = prepare_maps(np.take_along_axis(x3, sel[:, :, None], axis=1), 0.8)
        assert got.Xc.tobytes() == want.Xc.tobytes() and got.a.tobytes() == want.a.tobytes()

    @pytest.mark.parametrize("maps", [(1000, 16, 32), (48, 64, 512)])
    def test_row_slices_equal_preparing_them(self, maps):
        # a base fit slices its prepared training stack into minibatches:
        # shuffled 64-row batches, the short last one, and a batch of one
        rng = np.random.default_rng(64)
        x3 = rng.standard_normal(maps)
        prep = prepare_maps(x3, 0.8)
        order = rng.permutation(maps[0])
        batches = [order[lo : lo + 64] for lo in range(0, maps[0], 64)] + [order[-1:]]
        assert len(batches[-2]) < 64
        for idx in batches:
            want = prepare_maps(x3[idx], 0.8)
            assert prep.Xc[idx].tobytes() == want.Xc.tobytes()
            assert prep.a[idx].tobytes() == want.a.tobytes()

    def test_importances_equal_the_transformed_stack(self):
        rng = np.random.default_rng(62)
        x3 = rng.standard_normal((6, 7, 9))
        zs = rng.standard_normal((6, 4, 9))
        want = patch_importance(power_transform_stack(x3, 0.5), zs)
        assert patch_importance(prepare_maps(x3, 0.5), zs).tobytes() == want.tobytes()

    def test_alpha_must_match(self):
        prep = prepare_maps(np.ones((2, 3, 4)) + np.arange(4), 0.8)
        with pytest.raises(InvalidInput, match="alpha"):
            composition_scores_stack(prep, np.ones((1, 2, 4)) + np.arange(4), 1.0)

    def test_bad_stacks_rejected(self):
        with pytest.raises(InvalidInput):
            prepare_maps(np.ones((3, 4)))
        with pytest.raises(DegenerateInput):
            prepare_maps(np.ones((2, 3, 1)))
        with pytest.raises(InvalidInput, match="alpha"):
            prepare_maps(np.ones((2, 3, 4)), 0.0)

    def test_overflow_raises_when_scored(self):
        rng = np.random.default_rng(63)
        x3 = rng.standard_normal((3, 4, 5))
        x3[1, 2, 3] = 1e200
        prep = prepare_maps(x3)
        with pytest.raises(NumericalFailure):
            composition_scores_stack(prep, rng.standard_normal((2, 3, 5)))
        with pytest.raises(NumericalFailure):
            patch_importance(prep, rng.standard_normal((3, 3, 5)))


def edited_copies(zs, new_rows, edits):
    """Every edited copy of zs, written out whole."""
    out = [zs]
    for rows, which in edits:
        z = zs.copy()
        z.reshape(-1, zs.shape[2])[rows] = new_rows[which]
        out.append(z)
    return out


def random_edits(rng, zs, counts, n_new):
    """Edits that each write ``counts[e]`` distinct rows of zs with rows of
    one shared set of ``n_new`` replacement rows, as hard replacement
    copies donor rows (so a replacement row can serve many rows)."""
    flat = len(zs) * zs.shape[1]
    return [(rng.choice(flat, size=k, replace=False), rng.integers(n_new, size=k)) for k in counts]


class TestEditedScores:
    """Scores of a bank and its row-edited copies from one table of row
    contributions, where the kernel would take the product form."""

    def test_agrees_with_the_kernel_per_copy(self):
        rng = np.random.default_rng(64)
        x3 = np.abs(rng.standard_normal((70, 4, 64)))
        zs = rng.standard_normal((50, 2, 64))
        assert not _gram_form(x3.shape, zs.shape)
        new_rows = rng.standard_normal((12, 64))
        edits = random_edits(rng, zs, [5, 30, 100], len(new_rows))
        got = edited_scores(prepare_maps(x3, 0.8), zs, new_rows, edits)
        assert got.shape == (4, 70, 50)
        for g, z in zip(got, edited_copies(zs, new_rows, edits)):
            want = composition_scores_stack(x3, z, 0.8)
            np.testing.assert_allclose(g, want, rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(np.argmax(g, axis=1), np.argmax(want, axis=1))

    def test_table_spans_blocks_of_maps_and_rows(self):
        # 60 maps of 64 patches: 22 maps a block; 1200 + 40 table rows of
        # 512 channels: a few GEMMs of rows per block
        rng = np.random.default_rng(65)
        x3 = rng.standard_normal((60, 64, 512))
        zs = rng.standard_normal((75, 16, 512))
        new_rows = rng.standard_normal((40, 512))
        edits = random_edits(rng, zs, [75, 600], len(new_rows))
        got = edited_scores(prepare_maps(x3), zs, new_rows, edits)
        for g, z in zip(got, edited_copies(zs, new_rows, edits)):
            np.testing.assert_allclose(g, composition_scores_stack(x3, z), rtol=1e-13, atol=0.0)

    def test_no_edits_and_empty_batch(self):
        rng = np.random.default_rng(66)
        x3 = rng.standard_normal((5, 4, 64))
        zs = rng.standard_normal((3, 2, 64))
        got = edited_scores(prepare_maps(x3), zs, np.empty((0, 64)), [])
        np.testing.assert_allclose(got[0], composition_scores_stack(x3, zs), rtol=1e-13, atol=0.0)
        edits = [(np.array([1]), np.array([0]))]
        assert edited_scores(prepare_maps(x3[:0]), zs, zs[0, :1], edits).shape == (2, 0, 3)

    def test_degenerate_copy_block_or_map(self):
        rng = np.random.default_rng(67)
        x3 = rng.standard_normal((8, 4, 64))
        zs = rng.standard_normal((6, 2, 64))
        x3[2] = 1.5  # map 2 centres to zero
        const = np.full((1, 64), -2.0)
        edits = [(np.array([6, 7]), np.array([0, 0]))]  # block 3 of the copy centres to zero
        got = edited_scores(prepare_maps(x3), zs, const, edits)
        np.testing.assert_array_equal(got[:, 2], 0.0)
        np.testing.assert_array_equal(got[1][:, 3], 0.0)
        assert (np.delete(got[0], 2, axis=0) > 0.0).all()
        assert (np.delete(np.delete(got[1], 2, axis=0), 3, axis=1) > 0.0).all()

    def test_overflow_raises(self):
        rng = np.random.default_rng(68)
        x3 = rng.standard_normal((4, 4, 64))
        zs = rng.standard_normal((3, 2, 64))
        edits = [(np.array([0]), np.array([0]))]
        x3[1, 2, 3] = 1e200
        with pytest.raises(NumericalFailure):
            edited_scores(prepare_maps(x3), zs, zs[2, :1], edits)
        with pytest.raises(NumericalFailure):
            edited_scores(prepare_maps(x3[2:]), zs, 1e200 * zs[2, :1], edits)

    def test_memory_stays_flat_as_the_batch_grows(self):
        # beyond the prepared maps the peak holds one GEMM buffer, one block
        # of the table and one copy's gathered rows
        rng = np.random.default_rng(69)
        zs = rng.standard_normal((300, 16, 512))
        new_rows = rng.standard_normal((200, 512))
        edits = random_edits(rng, zs, [300, 2400], len(new_rows))

        def peak(bsz):
            prep = prepare_maps(rng.standard_normal((bsz, 64, 512)))
            tracemalloc.start()
            try:
                edited_scores(prep, zs, new_rows, edits)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(30), peak(120)
        assert large < 1.25 * small
        assert large < 2 * _BLOCK_BYTES
