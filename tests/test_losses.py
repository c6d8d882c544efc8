import zlib
from dataclasses import replace

import numpy as np
import pytest

from compset import (
    ClassifierWeights,
    DegenerateInput,
    DegenerateSet,
    FeatureBatch,
    FixedColumns,
    Grads,
    Hyperparams,
    InvalidInput,
    PrimitiveBank,
    build_replaced,
    fixed_columns,
    total_loss_and_grad,
    train_base,
)
from compset.losses import _replacement_backward
from compset.seeding import seed_sequence
from util import (
    central_diff_grad,
    cka_oracle,
    cosine_oracle,
    pack_params,
    power_oracle,
    random_batch,
    random_model,
    softmax_ce_oracle,
    total_loss_and_grad_unsplit,
    unpack_params,
)


def full_donor_map(class_ids):
    return {c: [d for d in class_ids if d != c] for c in class_ids}


def one_sample(x, label):
    x = np.asarray(x, dtype=np.float64)
    return FeatureBatch(X=x[None], labels=[label], sessions=[0], sample_ids=["x"])


def cls_loss(x, label, weights, tau=16.0):
    """Cosine-head cross entropy of one sample: the total with both
    composition heads off (the bank only registers the classes)."""
    ids = list(weights.class_ids)
    bank = PrimitiveBank(ids, np.zeros((len(ids), 1, weights.W.shape[1])), np.zeros(len(ids), bool))
    hp = Hyperparams(tau=tau, lambda1=0.0, lambda2=0.0)
    return total_loss_and_grad(one_sample(x, label), bank, weights, {}, hp)[0]


def cmp_loss(x, label, bank, tau=16.0, alpha=1.0):
    """Composition-score cross entropy of one sample over every class: the
    total with only the composition head on."""
    ids = list(bank.class_ids)
    weights = ClassifierWeights(ids, np.ones((len(ids), bank.channels)), np.zeros(len(ids), bool))
    hp = Hyperparams(tau=tau, alpha=alpha, lambda1=1.0, lambda2=0.0)
    return total_loss_and_grad(one_sample(x, label), bank, weights, {}, hp, include_cls=False)[0]


def rcmp_loss(x, label, bank, donor_map, tau=16.0, alpha=1.0, gamma=64.0):
    """Cross entropy of one sample's scores on attention-replaced sets: the
    total with only the replaced-composition head on."""
    ids = list(bank.class_ids)
    weights = ClassifierWeights(ids, np.ones((len(ids), bank.channels)), np.zeros(len(ids), bool))
    hp = Hyperparams(tau=tau, alpha=alpha, gamma=gamma, lambda1=0.0, lambda2=1.0)
    return total_loss_and_grad(
        one_sample(x, label), bank, weights, donor_map, hp, include_cls=False
    )[0]


class TestHyperparams:
    def test_defaults_validate(self):
        Hyperparams().validate()

    def test_rejections(self):
        bad = [
            dict(tau=0.0),
            dict(alpha=0.0),
            dict(alpha=1.2),
            dict(gamma=-1.0),
            dict(lambda1=-0.1),
            dict(lambda2=-0.1),
            dict(lr=0.0),
            dict(momentum=1.0),
            dict(momentum=-0.1),
            dict(base_epochs=0),
            dict(inc_epochs=0),
            dict(batch_size=0),
            dict(n_primitives=0),
            dict(init_scheme="xavier"),
        ]
        for kwargs in bad:
            with pytest.raises(InvalidInput):
                Hyperparams(**kwargs).validate()


class TestSeeds:
    @pytest.mark.parametrize("seed", [2**32, -1, 2**40])
    def test_seed_outside_32_bits_rejected(self, seed):
        with pytest.raises(InvalidInput, match="seed"):
            seed_sequence(seed, "shuffle")
        rng = np.random.default_rng(0)
        batch = random_batch(rng, n_classes=3, batch=6, patches=5)
        with pytest.raises(InvalidInput, match="seed"):
            train_base(batch, Hyperparams(seed=seed, n_primitives=2, base_epochs=1))

    def test_non_integer_seed_rejected(self):
        with pytest.raises(InvalidInput, match="integer"):
            seed_sequence(1.5)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
    def test_valid_seeds_keep_their_streams(self, seed):
        want = np.random.SeedSequence([seed, zlib.crc32(b"init-kmeans"), zlib.crc32(b"3")])
        got = seed_sequence(seed, "init-kmeans", 3)
        assert got.generate_state(4).tolist() == want.generate_state(4).tolist()


class TestClassifierWeights:
    def test_rejects_mismatch(self):
        with pytest.raises(InvalidInput):
            ClassifierWeights([0, 1], np.zeros((3, 4)), np.zeros(3, bool))
        with pytest.raises(InvalidInput):
            ClassifierWeights([1, 0], np.zeros((2, 4)), np.zeros(2, bool))
        with pytest.raises(InvalidInput):
            ClassifierWeights([0, 0], np.zeros((2, 4)), np.zeros(2, bool))


class TestLossCls:
    def test_identical_rows_give_log_k(self):
        for k in (2, 4, 7):
            weights = ClassifierWeights(
                list(range(k)), np.tile([1.0, 2.0, 0.5], (k, 1)), np.zeros(k, bool)
            )
            got = cls_loss([[0.3, -0.2, 1.0]], 0, weights, tau=16.0)
            assert got == pytest.approx(np.log(k), abs=1e-12)

    def test_hand_logits(self):
        # cosines (ln 2, 0) at tau=1: loss = -ln(2/3)
        c = np.log(2.0)
        w = np.array([[c, np.sqrt(1 - c * c)], [0.0, 1.0]])
        weights = ClassifierWeights([0, 1], w, np.zeros(2, bool))
        want = -np.log(2.0 / 3.0)
        assert cls_loss([[1.0, 0.0]], 0, weights, tau=1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.405465, abs=1e-6)

    def test_aligned_row_large_tau(self):
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        weights = ClassifierWeights([0, 1, 2], w, np.zeros(3, bool))
        assert cls_loss([[2.0, 0.0, 0.0]], 0, weights, tau=64.0) <= 1e-12

    def test_mean_patch_feature(self):
        # two patches averaging to the first axis
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        weights = ClassifierWeights([0, 1], w, np.zeros(2, bool))
        x = [[2.0, 1.0], [0.0, -1.0]]  # mean [1, 0]
        assert cls_loss(x, 0, weights, tau=32.0) <= 1e-12

    def test_degenerate_inputs(self):
        weights = ClassifierWeights([0, 1], np.eye(2), np.zeros(2, bool))
        with pytest.raises(DegenerateInput):
            cls_loss(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0, weights)
        weights_zero = ClassifierWeights([0, 1], np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2, bool))
        with pytest.raises(DegenerateInput):
            cls_loss(np.array([[1.0, 0.0]]), 0, weights_zero)

    def test_unknown_label(self):
        weights = ClassifierWeights([0, 1], np.eye(2), np.zeros(2, bool))
        with pytest.raises(InvalidInput):
            cls_loss(np.array([[1.0, 0.0]]), 9, weights)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k, d, n = int(rng.integers(2, 6)), int(rng.integers(2, 8)), int(rng.integers(1, 6))
            w = rng.standard_normal((k, d))
            x = rng.standard_normal((n, d))
            label = int(rng.integers(k))
            tau = float(rng.uniform(0.5, 20))
            f = x.mean(axis=0)
            logits = tau * np.array([cosine_oracle(f, w[c]) for c in range(k)])
            want = softmax_ce_oracle(logits, label)
            weights = ClassifierWeights(list(range(k)), w, np.zeros(k, bool))
            got = cls_loss(x, label, weights, tau=tau)
            assert got == pytest.approx(want, abs=1e-10)


class TestLossCmp:
    def test_identical_blocks_give_log_k(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((3, 4))
        for k in (2, 3, 5):
            bank = PrimitiveBank(list(range(k)), np.tile(block, (k, 1, 1)), np.zeros(k, bool))
            got = cmp_loss(rng.standard_normal((4, 4)), 1, bank, tau=8.0, alpha=1.0)
            assert got == pytest.approx(np.log(k), abs=1e-12)

    def test_hand_scores_one_zero(self):
        # true class scores 1 (same rows), other scores 0 (orthogonal after centering)
        x = np.array([[1.0, 0.0, -1.0]])
        z = np.stack([x, np.array([[1.0, -2.0, 1.0]])])
        bank = PrimitiveBank([0, 1], z, np.zeros(2, bool))
        want = np.log(1.0 + np.exp(-1.0))
        got = cmp_loss(x, 0, bank, tau=1.0, alpha=1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.313262, abs=1e-6)

    def test_true_block_large_tau(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5))
        other = rng.standard_normal((3, 5))
        bank = PrimitiveBank([0, 1], np.stack([x, other]), np.zeros(2, bool))
        assert cmp_loss(x, 0, bank, tau=256.0, alpha=1.0) <= 1e-6

    def test_degenerate_block_names_class(self):
        z = np.stack([np.ones((2, 3)), np.arange(6.0).reshape(2, 3)])
        bank = PrimitiveBank([4, 7], z, np.zeros(2, bool))
        with pytest.raises(DegenerateSet) as err:
            cmp_loss(np.array([[1.0, 2.0, 4.0]]), 4, bank)
        assert err.value.class_id == 4

    def test_registration_order_invariance(self):
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((3, 2, 4))
        x = rng.standard_normal((3, 4))
        a = PrimitiveBank([0, 1, 2], blocks, np.zeros(3, bool))
        perm = [2, 0, 1]  # block j of b is block perm[j] of a
        b = PrimitiveBank([0, 1, 2], blocks[perm], np.zeros(3, bool))
        la = cmp_loss(x, 1, a, tau=8.0, alpha=0.8)
        lb = cmp_loss(x, perm.index(1), b, tau=8.0, alpha=0.8)
        assert la == pytest.approx(lb, abs=1e-12)

    def test_scale_invariance_alpha_one(self):
        rng = np.random.default_rng(4)
        bank, _ = random_model(rng)
        x = rng.standard_normal((4, 6))
        a = cmp_loss(x, 0, bank, tau=4.0, alpha=1.0)
        b = cmp_loss(3.7 * x, 0, bank, tau=4.0, alpha=1.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_scale_reparameterization_below_one(self):
        rng = np.random.default_rng(5)
        bank, _ = random_model(rng)
        x = rng.standard_normal((4, 6))
        alpha, c = 0.5, 2.0
        a = cmp_loss(x, 0, bank, tau=4.0, alpha=alpha)
        b = cmp_loss(c ** (1 / alpha) * x, 0, bank, tau=4.0, alpha=alpha)
        assert a == pytest.approx(b, abs=1e-9)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            bank, _ = random_model(rng, n_classes=k, n_primitives=3, channels=5)
            x = rng.standard_normal((4, 5))
            label = int(rng.integers(k))
            tau, alpha = float(rng.uniform(0.5, 12)), float(rng.choice([0.5, 0.8, 1.0]))
            xt = power_oracle(x, alpha)
            logits = tau * np.array([cka_oracle(xt, bank.Z[c]) for c in range(k)])
            want = softmax_ce_oracle(logits, label)
            got = cmp_loss(x, label, bank, tau=tau, alpha=alpha)
            assert got == pytest.approx(want, abs=1e-10)


def rotation_bank():
    """Three classes sharing rows pairwise, so each block's rows all appear
    among the other two blocks; sharp replacement reconstructs every block."""
    p = np.array([4.0, 0.0, 0.0, 1.0])
    q = np.array([0.0, 4.0, 0.0, 1.0])
    r = np.array([0.0, 0.0, 4.0, 1.0])
    z = np.stack([np.stack([p, q]), np.stack([q, r]), np.stack([r, p])])
    return PrimitiveBank([0, 1, 2], z, np.zeros(3, bool))


class TestLossRcmp:
    def test_exact_reconstruction_equals_cmp(self):
        bank = rotation_bank()
        donor_map = full_donor_map([0, 1, 2])
        rng = np.random.default_rng(7)
        for label in (0, 1, 2):
            x = np.abs(rng.standard_normal((5, 4)))
            a = cmp_loss(x, label, bank, tau=8.0, alpha=0.8)
            b = rcmp_loss(x, label, bank, donor_map, tau=8.0, alpha=0.8, gamma=64.0)
            assert b == pytest.approx(a, abs=1e-9)

    def test_single_donor_row_collapses_to_log_k(self):
        # one primitive per class; class 0 and 1 share it, so every replaced
        # block is that same single row
        p = np.array([1.0, 2.0, 3.0])
        q = np.array([-1.0, 0.5, 0.0])
        z = np.stack([p[None, :], p[None, :], q[None, :]])
        bank = PrimitiveBank([0, 1, 2], z, np.zeros(3, bool))
        donor_map = {0: [1], 1: [0], 2: [0]}
        x = np.array([[0.3, 1.0, -0.2], [1.5, 0.1, 0.9]])
        got = rcmp_loss(x, 0, bank, donor_map, tau=8.0, alpha=1.0, gamma=4.0)
        assert got == pytest.approx(np.log(3.0), abs=1e-12)

    def test_true_class_reconstructed_others_scrambled(self):
        # donors reconstruct class 0 exactly; classes 1 and 2 get pulled to
        # far-away rows, so a class-0-like sample is classified more sharply
        p = np.array([4.0, 0.0, 0.0, 1.0])
        q = np.array([0.0, 4.0, 0.0, 1.0])
        far1 = np.array([50.0, 60.0, -40.0, 3.0])
        far2 = np.array([-45.0, 55.0, 35.0, -2.0])
        z = np.stack(
            [np.stack([p, q]), np.stack([p, far1]), np.stack([q, far2])]
        )
        bank = PrimitiveBank([0, 1, 2], z, np.zeros(3, bool))
        donor_map = full_donor_map([0, 1, 2])
        x = np.abs(np.random.default_rng(8).standard_normal((4, 4))) + np.stack([p, q, p, q])
        got = rcmp_loss(x, 0, bank, donor_map, tau=8.0, alpha=1.0, gamma=64.0)
        assert got < np.log(3.0) - 1e-3

    def test_empty_donor_pool(self):
        bank = rotation_bank()
        with pytest.raises(InvalidInput):
            rcmp_loss(np.ones((2, 4)) + np.eye(2, 4), 0, bank, {0: [1], 1: [0], 2: []})

    def test_rebuilt_from_current_bank(self):
        # mutating a donor block changes the loss on the next call; the
        # perturbation must move a single channel, since constant row shifts
        # vanish under centering
        bank = rotation_bank()
        donor_map = full_donor_map([0, 1, 2])
        x = np.abs(np.random.default_rng(9).standard_normal((3, 4)))
        before = rcmp_loss(x, 0, bank, donor_map, tau=8.0, alpha=1.0, gamma=4.0)
        bank.Z[1, 0, 0] += 0.9
        after = rcmp_loss(x, 0, bank, donor_map, tau=8.0, alpha=1.0, gamma=4.0)
        assert before != after


class TestTotalLossAndGrad:
    def test_lambda_zero_decouples(self):
        rng = np.random.default_rng(10)
        bank, weights = random_model(rng)
        batch = random_batch(rng)
        hp = Hyperparams(tau=8.0, lambda1=0.0, lambda2=0.0)
        total, grads = total_loss_and_grad(batch, bank, weights, full_donor_map([0, 1, 2]), hp)
        singles = [
            cls_loss(batch.X[i], int(batch.labels[i]), weights, tau=8.0)
            for i in range(len(batch.X))
        ]
        assert total == pytest.approx(np.mean(singles), abs=1e-12)
        assert np.all(grads.dZ == 0.0)

    def test_batch_mean_of_per_sample_terms(self):
        rng = np.random.default_rng(11)
        bank, weights = random_model(rng)
        batch = random_batch(rng)
        donor_map = full_donor_map([0, 1, 2])
        hp = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0, lambda1=2.0, lambda2=2.0)
        total, _ = total_loss_and_grad(batch, bank, weights, donor_map, hp)
        singles = []
        for i in range(len(batch.X)):
            x, label = batch.X[i], int(batch.labels[i])
            singles.append(
                cls_loss(x, label, weights, tau=8.0)
                + 2.0 * cmp_loss(x, label, bank, tau=8.0, alpha=0.8)
                + 2.0 * rcmp_loss(x, label, bank, donor_map, tau=8.0, alpha=0.8, gamma=4.0)
            )
        assert total == pytest.approx(np.mean(singles), abs=1e-10)

    def test_frozen_gradients_exactly_zero(self):
        rng = np.random.default_rng(12)
        bank, weights = random_model(rng, n_classes=4)
        bank.frozen[:] = [True, True, False, True]
        weights.frozen[:] = [True, False, True, True]
        batch = random_batch(rng, n_classes=4)
        hp = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0)
        _, grads = total_loss_and_grad(batch, bank, weights, full_donor_map(range(4)), hp)
        assert np.all(grads.dZ[[0, 1, 3]] == 0.0)
        assert np.all(grads.dW[[0, 2, 3]] == 0.0)
        assert np.any(grads.dZ[2] != 0.0)
        assert np.any(grads.dW[1] != 0.0)

    def test_single_unfrozen_block(self):
        rng = np.random.default_rng(13)
        bank, weights = random_model(rng)
        batch = random_batch(rng, batch=1)
        hp = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0)
        tz = np.array([False, True, False])
        tw = np.zeros(3, bool)
        _, grads = total_loss_and_grad(
            batch, bank, weights, full_donor_map([0, 1, 2]), hp, trainable_z=tz, trainable_w=tw
        )
        assert np.any(grads.dZ[1] != 0.0)
        assert np.all(grads.dZ[[0, 2]] == 0.0)
        assert np.all(grads.dW == 0.0)

    def test_nothing_to_train_rejected(self):
        rng = np.random.default_rng(14)
        bank, weights = random_model(rng)
        bank.frozen[:] = True
        weights.frozen[:] = True
        batch = random_batch(rng)
        with pytest.raises(InvalidInput):
            total_loss_and_grad(batch, bank, weights, full_donor_map([0, 1, 2]), Hyperparams())

    def test_include_cls_false_drops_w(self):
        rng = np.random.default_rng(15)
        bank, weights = random_model(rng)
        batch = random_batch(rng)
        donor_map = full_donor_map([0, 1, 2])
        hp = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0, lambda1=2.0, lambda2=2.0)
        total, grads = total_loss_and_grad(batch, bank, weights, donor_map, hp, include_cls=False)
        singles = []
        for i in range(len(batch.X)):
            x, label = batch.X[i], int(batch.labels[i])
            singles.append(
                2.0 * cmp_loss(x, label, bank, tau=8.0, alpha=0.8)
                + 2.0 * rcmp_loss(x, label, bank, donor_map, tau=8.0, alpha=0.8, gamma=4.0)
            )
        assert total == pytest.approx(np.mean(singles), abs=1e-10)
        assert np.all(grads.dW == 0.0)

    def _fd_check(self, seed, hp, batch_size=4, n_classes=3, n_primitives=2, channels=5, patches=4):
        rng = np.random.default_rng(seed)
        bank, weights = random_model(rng, n_classes, n_primitives, channels)
        batch = random_batch(rng, n_classes, batch_size, patches, channels)
        donor_map = full_donor_map(range(n_classes))

        def objective(theta):
            w, z = unpack_params(theta, weights.W.shape, bank.Z.shape)
            wobj = ClassifierWeights(list(weights.class_ids), w, weights.frozen)
            bobj = PrimitiveBank(list(bank.class_ids), z, bank.frozen)
            val, _ = total_loss_and_grad(batch, bobj, wobj, donor_map, hp)
            return val

        _, grads = total_loss_and_grad(batch, bank, weights, donor_map, hp)
        analytic = pack_params(grads.dW, grads.dZ)
        fd = central_diff_grad(objective, pack_params(weights.W, bank.Z))
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
        return float(rel.max())

    def test_spot_finite_difference(self):
        hp = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0, lambda1=2.0, lambda2=2.0)
        assert self._fd_check(16, hp) <= 1e-4

    def test_stop_attention_grad_is_partial_gradient(self):
        # the stopped gradient must match finite differences of the loss with
        # the attention weights held fixed at their current values
        rng = np.random.default_rng(17)
        bank, weights = random_model(rng, 3, 2, 5)
        batch = random_batch(rng, 3, 3, 4, 5)
        donor_map = full_donor_map([0, 1, 2])
        hp = Hyperparams(
            tau=8.0, alpha=0.8, gamma=4.0, lambda1=0.0, lambda2=1.0, stop_attention_grad=True
        )
        rb0 = build_replaced(bank, donor_map, hp.gamma)

        from compset.cka import composition_scores_stack
        from compset.losses import _ce_rows
        from compset.numkit import _positions

        label_idx = _positions(bank.class_ids, batch.labels, "labels")

        def frozen_att_objective(theta):
            _, z = unpack_params(theta, weights.W.shape, bank.Z.shape)
            flat = z.reshape(-1, z.shape[2])
            z_hat = np.stack(
                [rb0.attention[i] @ flat[rb0.donor_rows[i]] for i in range(3)]
            )
            scores = composition_scores_stack(np.asarray(batch.X), z_hat, hp.alpha)
            loss, _ = _ce_rows(hp.tau * scores, label_idx)
            return hp.lambda2 * loss

        _, grads = total_loss_and_grad(batch, bank, weights, donor_map, hp)
        fd = central_diff_grad(frozen_att_objective, pack_params(weights.W, bank.Z))
        _, fd_z = unpack_params(fd, weights.W.shape, bank.Z.shape)
        rel = np.abs(grads.dZ - fd_z) / np.maximum(np.abs(fd_z), 1e-8)
        assert rel.max() <= 1e-4

    def test_stop_flag_changes_gradient_not_loss(self):
        rng = np.random.default_rng(18)
        bank, weights = random_model(rng, 3, 2, 5)
        batch = random_batch(rng, 3, 3, 4, 5)
        donor_map = full_donor_map([0, 1, 2])
        base = dict(tau=8.0, alpha=0.8, gamma=4.0, lambda1=0.0, lambda2=1.0)
        l_full, g_full = total_loss_and_grad(
            batch, bank, weights, donor_map, Hyperparams(**base)
        )
        l_stop, g_stop = total_loss_and_grad(
            batch, bank, weights, donor_map, Hyperparams(**base, stop_attention_grad=True)
        )
        assert l_full == pytest.approx(l_stop, abs=1e-12)
        assert np.any(g_full.dZ != g_stop.dZ)

    def test_registry_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        bank, _ = random_model(rng, 3)
        _, weights = random_model(rng, 4)
        batch = random_batch(rng, 3)
        with pytest.raises(InvalidInput):
            total_loss_and_grad(batch, bank, weights, full_donor_map([0, 1, 2]), Hyperparams())

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(20)
        bank, weights = random_model(rng, 3)
        full = random_batch(rng, 3)
        empty = FeatureBatch(
            X=np.empty((0,) + full.X.shape[1:]),
            labels=np.empty(0, dtype=np.int64),
            sessions=np.empty(0, dtype=np.int64),
            sample_ids=[],
        )
        with pytest.raises(InvalidInput, match="empty"):
            total_loss_and_grad(empty, bank, weights, full_donor_map([0, 1, 2]), Hyperparams())


def _split_case(seed=30):
    """Five classes, blocks 1 and 3 trainable; class 2 is frozen but has the
    trainable donor 1, so it is fixed in the composition head and live in
    the replaced head.  Classes 0 and 4 are fixed in both."""
    rng = np.random.default_rng(seed)
    bank, weights = random_model(rng, n_classes=5)
    bank.frozen[:] = [True, False, True, False, True]
    weights.frozen[:] = [True, False, True, True, False]
    batch = random_batch(rng, n_classes=5, batch=6)
    donors = {0: [2, 4], 1: [0, 2], 2: [1, 4], 3: [0, 4], 4: [0, 2]}
    return batch, bank, weights, donors


def _same_bits(a, b):
    loss_a, g_a = a
    loss_b, g_b = b
    assert np.float64(loss_a).tobytes() == np.float64(loss_b).tobytes()
    assert g_a.dW.tobytes() == g_b.dW.tobytes()
    assert g_a.dZ.tobytes() == g_b.dZ.tobytes()


class TestFixedColumns:
    HP = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0)

    def test_live_columns(self):
        batch, bank, _, donors = _split_case()
        fixed = fixed_columns(batch, bank, donors, self.HP)
        assert isinstance(fixed, FixedColumns)
        assert fixed.live_rcmp.tolist() == [False, True, True, True, False]
        assert fixed.cmp.shape == (6, 3)
        assert fixed.rcmp.shape == (6, 2)

    @pytest.mark.parametrize("stop", [False, True])
    def test_non_prefix_mask_matches_unsplit_bit_for_bit(self, stop):
        batch, bank, weights, donors = _split_case()
        hp = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0, stop_attention_grad=stop)
        split = total_loss_and_grad(batch, bank, weights, donors, hp)
        _same_bits(split, total_loss_and_grad_unsplit(batch, bank, weights, donors, hp))
        handed = total_loss_and_grad(
            batch, bank, weights, donors, hp, fixed=fixed_columns(batch, bank, donors, hp)
        )
        _same_bits(split, handed)
        assert np.any(split[1].dZ[1] != 0.0) and np.all(split[1].dZ[[0, 2, 4]] == 0.0)

    def test_single_live_column_agrees_to_rounding(self):
        # one live column is scored as a (B, 1) slice, which NumPy reduces in
        # another order than a column of the full matrix: the split agrees
        # with the unsplit arithmetic to rounding, not always bit for bit
        rng = np.random.default_rng(12)
        bank, weights = random_model(rng, n_classes=4)
        bank.frozen[:] = [True, True, False, True]
        weights.frozen[:] = [True, False, True, True]
        batch = random_batch(rng, n_classes=4)
        donors = full_donor_map(range(4))
        loss, g = total_loss_and_grad(batch, bank, weights, donors, self.HP)
        want_loss, want = total_loss_and_grad_unsplit(batch, bank, weights, donors, self.HP)
        assert loss == pytest.approx(want_loss, rel=1e-13)
        np.testing.assert_allclose(g.dZ, want.dZ, rtol=1e-11, atol=1e-14)
        assert g.dW.tobytes() == want.dW.tobytes()

    def test_every_column_fixed_still_scores_the_loss(self):
        batch, bank, weights, donors = _split_case()
        hp = self.HP
        tz = np.zeros(5, dtype=bool)
        loss, g = total_loss_and_grad(batch, bank, weights, donors, hp, trainable_z=tz)
        want, _ = total_loss_and_grad_unsplit(batch, bank, weights, donors, hp, trainable_z=tz)
        assert loss == want
        assert np.all(g.dZ == 0.0)

    def test_head_with_zero_weight_is_not_scored(self):
        batch, bank, _, donors = _split_case()
        fixed = fixed_columns(batch, bank, donors, Hyperparams(lambda1=0.0))
        assert fixed.cmp is None and fixed.rcmp is not None

    def test_cache_from_another_batch_rejected(self):
        batch, bank, weights, donors = _split_case()
        other = random_batch(np.random.default_rng(31), n_classes=5, batch=6)
        fixed = fixed_columns(other, bank, donors, self.HP)
        with pytest.raises(InvalidInput, match="fixed columns"):
            total_loss_and_grad(batch, bank, weights, donors, self.HP, fixed=fixed)

    @pytest.mark.parametrize("change", ["mask", "frozen block", "donors", "alpha", "lambda1"])
    def test_cache_from_other_settings_rejected(self, change):
        batch, bank, weights, donors = _split_case()
        hp = Hyperparams(tau=8.0, alpha=0.8, gamma=4.0, lambda1=0.0)
        fixed = fixed_columns(batch, bank, donors, hp)
        kwargs = {}
        if change == "mask":
            kwargs["trainable_z"] = np.array([True, True, False, False, False])
        elif change == "frozen block":
            bank.Z[0, 0, 0] += 1.0
        elif change == "donors":
            donors = {**donors, 0: [4]}
        else:
            hp = replace(hp, **({"alpha": 0.7} if change == "alpha" else {"lambda1": 2.0}))
        with pytest.raises(InvalidInput, match="fixed columns"):
            total_loss_and_grad(batch, bank, weights, donors, hp, fixed=fixed, **kwargs)

    def test_trainable_block_may_move(self):
        # only the fixed columns are cached: a trained block changing is fine
        batch, bank, weights, donors = _split_case()
        fixed = fixed_columns(batch, bank, donors, self.HP)
        bank.Z[1] += 0.25
        _same_bits(
            total_loss_and_grad(batch, bank, weights, donors, self.HP, fixed=fixed),
            total_loss_and_grad(batch, bank, weights, donors, self.HP),
        )
