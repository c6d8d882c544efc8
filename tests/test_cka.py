import tracemalloc

import numpy as np
import pytest

from compset import (
    DegenerateInput,
    DegenerateSet,
    InvalidInput,
    NumericalFailure,
    allmatch_similarity,
    center_rows,
    central_diff_grad,
    cka_rc,
    composition_scores_stack,
    linear_cka,
    match_weights,
    patch_importance,
    power_transform,
)
from compset.cka import cosine_scores_stack
from compset.numkit import _BLOCK_BYTES
from util import (
    center_oracle,
    cka_oracle,
    cka_rc_oracle,
    composition_scores_unchunked,
    cosine_oracle,
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


class TestScoresInBlocks:
    """The forward product is taken in blocks of maps x classes under the
    byte budget; the scores must equal the one-product form bit for bit."""

    @pytest.mark.parametrize(
        "maps, bank",
        [
            # the benchmark's shapes; the batch is cut where the one-product
            # oracle would need hundreds of MB, but still spans many blocks
            ((9, 64, 512), (1000, 16)),  # eval-wide: 9 maps x 227 classes a block
            ((100, 64, 512), (100, 16)),  # reference size: 22 maps x 93 classes
            ((700, 16, 32), (60, 16)),  # sessions-long: 90 maps x 60 classes
        ],
    )
    def test_bit_equal_to_one_product(self, maps, bank):
        rng = np.random.default_rng(40)
        x3 = np.abs(rng.standard_normal(maps))
        zs = rng.standard_normal(bank + (maps[2],))
        b, n, _ = maps
        assert b * n * bank[0] * bank[1] * 8 > 2 * _BLOCK_BYTES
        got = composition_scores_stack(x3, zs, 0.5)
        assert got.tobytes() == composition_scores_unchunked(x3, zs, 0.5).tobytes()

    def test_memory_stays_flat_as_the_batch_grows(self):
        # one map's product is 1 MB; 256 maps in one product would take 256 MB
        rng = np.random.default_rng(41)
        zs = rng.standard_normal((500, 16, 32))

        def peak(bsz):
            x3 = rng.standard_normal((bsz, 16, 32))
            tracemalloc.start()
            try:
                composition_scores_stack(x3, zs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(32), peak(256)
        assert 32 * 16 * 500 * 16 * 8 > _BLOCK_BYTES
        assert large < 1.25 * small
        assert large < 2 * _BLOCK_BYTES

    def test_vjp_scores_equal_the_blocked_forward(self):
        rng = np.random.default_rng(42)
        x3 = rng.standard_normal((300, 16, 32))
        zs = rng.standard_normal((60, 16, 32))
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
