"""Tests for the optimizer step, session training, and checkpoints."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from compset import (
    BadMagic,
    DegenerateInput,
    Hyperparams,
    InvalidInput,
    SynthConfig,
    load_checkpoint,
    save_checkpoint,
    synth_generate,
    train_base,
    train_incremental,
)
from compset.data import FeatureBatch
from compset.protocol import score_matrix
from compset.training import (
    _mean_feature_rows,
    donor_map_for,
    donor_map_of,
    sgd_step,
)
from util import total_loss_and_grad_unsplit, train_incremental_oracle

TRAIN_CFG = SynthConfig(
    pool_size=20,
    primitives_per_class=3,
    shared_patches=6,
    distractor_patches=2,
    noise_sigma=0.1,
    channels=16,
    base_classes=4,
    incremental_sessions=2,
    classes_per_session=2,
    shots=3,
    test_per_class=5,
    train_per_base_class=20,
    seed=0,
)
TRAIN_HP = Hyperparams(n_primitives=6, base_epochs=40, inc_epochs=25, batch_size=16, seed=0)


@pytest.fixture(scope="module")
def ds():
    return synth_generate(TRAIN_CFG)


@pytest.fixture(scope="module")
def base_state(ds):
    return train_base(ds.train[0], TRAIN_HP)


@pytest.fixture(scope="module")
def full_state(base_state, ds):
    mid = train_incremental(base_state, ds.train[1])
    return train_incremental(mid, ds.train[2])


class TestDonorMap:
    def test_excludes_self_keeps_other_base_classes(self):
        got = donor_map_for([0, 1, 2], [0, 1, 2, 5])
        assert got == {0: [1, 2], 1: [0, 2], 2: [0, 1], 5: [0, 1, 2]}

    def test_novel_class_gets_every_base_donor(self):
        got = donor_map_for([3, 7], [9])
        assert got == {9: [3, 7]}

    def test_state_wrapper_matches_manual_call(self, full_state):
        got = donor_map_of(full_state)
        want = donor_map_for(full_state.base_class_ids, full_state.bank.class_ids)
        assert got == want
        assert set(got) == set(full_state.bank.class_ids)


class TestSgdStep:
    def test_two_unit_gradient_steps_hand_value(self):
        theta = np.zeros(1)
        v = np.zeros(1)
        theta, v = sgd_step(theta, np.ones(1), v, lr=0.1, momentum=0.9)
        assert abs(theta[0] - (-0.1)) < 1e-12
        assert abs(v[0] - 1.0) < 1e-12
        theta, v = sgd_step(theta, np.ones(1), v, lr=0.1, momentum=0.9)
        assert abs(v[0] - 1.9) < 1e-12
        assert abs(theta[0] - (-0.29)) < 1e-12

    def test_zero_momentum_is_plain_gradient_descent(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((3, 4))
        grad = rng.standard_normal((3, 4))
        got, v = sgd_step(theta, grad, np.zeros_like(theta), lr=0.05, momentum=0.0)
        np.testing.assert_array_equal(got, theta - 0.05 * grad)
        np.testing.assert_array_equal(v, grad)

    def test_zero_gradient_decays_velocity(self):
        theta = np.array([1.0, 2.0])
        v = np.array([4.0, -2.0])
        got, v2 = sgd_step(theta, np.zeros(2), v, lr=0.1, momentum=0.5)
        np.testing.assert_array_equal(v2, 0.5 * v)
        np.testing.assert_array_equal(got, theta - 0.1 * 0.5 * v)

    def test_masked_entries_keep_exact_bits(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal((5, 3))
        grad = rng.standard_normal((5, 3))
        v = rng.standard_normal((5, 3))
        mask = np.array([True, False, True, False, False])
        got_t, got_v = sgd_step(theta, grad, v, lr=0.2, momentum=0.9, mask=mask)
        np.testing.assert_array_equal(got_t[~mask], theta[~mask])
        np.testing.assert_array_equal(got_v[~mask], v[~mask])
        dense_t, dense_v = sgd_step(theta[mask], grad[mask], v[mask], lr=0.2, momentum=0.9)
        np.testing.assert_array_equal(got_t[mask], dense_t)
        np.testing.assert_array_equal(got_v[mask], dense_v)

    def test_many_steps_match_recurrence_oracle(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(4)
        v = np.zeros(4)
        want_t = theta.copy()
        want_v = v.copy()
        for _ in range(20):
            g = rng.standard_normal(4)
            theta, v = sgd_step(theta, g, v, lr=0.03, momentum=0.7)
            want_v = 0.7 * want_v + g
            want_t = want_t - 0.03 * want_v
        np.testing.assert_allclose(theta, want_t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v, want_v, rtol=0, atol=1e-12)

    def test_inputs_are_not_mutated(self):
        theta = np.ones(3)
        v = np.ones(3)
        sgd_step(theta, np.ones(3), v, lr=0.1, momentum=0.9, mask=np.array([True, False, True]))
        np.testing.assert_array_equal(theta, np.ones(3))
        np.testing.assert_array_equal(v, np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            sgd_step(np.ones(3), np.ones(4), np.ones(3), lr=0.1, momentum=0.9)

    @pytest.mark.parametrize("lr,momentum", [(0.0, 0.9), (-0.1, 0.9), (0.1, 1.0), (0.1, -0.1)])
    def test_bad_optimizer_settings_rejected(self, lr, momentum):
        with pytest.raises(InvalidInput):
            sgd_step(np.ones(2), np.ones(2), np.ones(2), lr=lr, momentum=momentum)


class TestMeanFeatureRows:
    def test_hand_value_two_classes(self):
        X3 = np.array(
            [
                [[2.0, 0.0], [0.0, 0.0]],
                [[0.0, 4.0], [0.0, 0.0]],
            ]
        )
        rows = _mean_feature_rows(X3, np.array([0, 1]), [0, 1])
        np.testing.assert_allclose(rows, np.eye(2), rtol=0, atol=1e-12)

    def test_matches_normalized_mean_oracle(self):
        rng = np.random.default_rng(3)
        X3 = rng.standard_normal((10, 4, 6))
        labels = rng.integers(0, 3, size=10)
        labels[:3] = [0, 1, 2]
        rows = _mean_feature_rows(X3, labels, [0, 1, 2])
        f = X3.mean(axis=1)
        fh = f / np.linalg.norm(f, axis=1, keepdims=True)
        for i, c in enumerate([0, 1, 2]):
            np.testing.assert_allclose(rows[i], fh[labels == c].mean(axis=0), rtol=0, atol=1e-12)

    def test_zero_mean_patch_feature_rejected(self):
        X3 = np.array([[[1.0, 1.0], [-1.0, -1.0]], [[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(DegenerateInput):
            _mean_feature_rows(X3, np.array([0, 1]), [0, 1])

    def test_cancelling_class_direction_rejected(self):
        X3 = np.array(
            [
                [[1.0, 0.0]],
                [[-1.0, 0.0]],
                [[0.0, 1.0]],
            ]
        )
        with pytest.raises(DegenerateInput):
            _mean_feature_rows(X3, np.array([0, 0, 1]), [0, 1])


def _train_accuracy(state, batch, head="composition"):
    scores = score_matrix(state, batch.X, head)
    cols = {c: i for i, c in enumerate(state.bank.class_ids)}
    want = np.array([cols[int(c)] for c in batch.labels])
    return float(np.mean(np.argmax(scores, axis=1) == want))


class TestTrainBase:
    def test_registers_every_class_frozen(self, base_state, ds):
        assert base_state.bank.class_ids == [0, 1, 2, 3]
        assert base_state.weights.class_ids == [0, 1, 2, 3]
        assert base_state.bank.frozen.all()
        assert base_state.weights.frozen.all()
        assert base_state.sessions_seen == 1
        assert base_state.class_sessions == {0: 0, 1: 0, 2: 0, 3: 0}
        assert base_state.bank.Z.shape == (4, TRAIN_HP.n_primitives, TRAIN_CFG.channels)
        assert base_state.weights.W.shape == (4, TRAIN_CFG.channels)

    def test_loss_history_spans_epochs_and_decreases(self, base_state):
        hist = base_state.loss_history[0]
        assert len(hist) == TRAIN_HP.base_epochs
        assert hist[-1] < 0.5 * hist[0]

    def test_fits_the_training_set(self, base_state, ds):
        assert _train_accuracy(base_state, ds.train[0]) >= 0.9

    def test_same_seed_is_bit_identical(self, base_state, ds):
        again = train_base(ds.train[0], TRAIN_HP)
        assert again.bank.Z.tobytes() == base_state.bank.Z.tobytes()
        assert again.weights.W.tobytes() == base_state.weights.W.tobytes()
        assert again.loss_history == base_state.loss_history

    def test_different_seed_diverges(self, base_state, ds):
        other = train_base(ds.train[0], replace(TRAIN_HP, seed=1))
        assert other.bank.Z.tobytes() != base_state.bank.Z.tobytes()

    def test_single_class_batch_rejected(self, ds):
        batch = ds.train[0]
        only = np.flatnonzero(batch.labels == 0)
        with pytest.raises(InvalidInput):
            train_base(batch.subset(only), TRAIN_HP)

    def test_empty_batch_rejected(self):
        empty = FeatureBatch(
            X=np.empty((0, 3, 4)), labels=np.empty(0, dtype=int), sessions=np.empty(0, dtype=int), sample_ids=[]
        )
        with pytest.raises(InvalidInput):
            train_base(empty, TRAIN_HP)

    def test_invalid_hyperparams_rejected(self, ds):
        with pytest.raises(InvalidInput):
            train_base(ds.train[0], replace(TRAIN_HP, tau=0.0))

    def test_vanishing_lr_leaves_parameters_at_initialization(self, ds):
        # lr must be positive, so probe the no-learning limit with a step
        # size far below half an ulp of any parameter: updates round away
        # and the trained state is bit-identical to the initialization.
        hp = replace(TRAIN_HP, lr=1e-300, base_epochs=1)
        state = train_base(ds.train[0], hp)
        X3 = np.asarray(ds.train[0].X, dtype=np.float64)
        init_w = _mean_feature_rows(X3, ds.train[0].labels, [0, 1, 2, 3])
        assert state.weights.W.tobytes() == init_w.tobytes()
        fresh = train_base(ds.train[0], replace(hp, base_epochs=3))
        assert fresh.bank.Z.tobytes() == state.bank.Z.tobytes()


class TestTrainIncremental:
    def test_base_blocks_come_back_bit_identical(self, base_state, ds):
        after = train_incremental(base_state, ds.train[1])
        k = base_state.bank.n_classes
        assert after.bank.Z[:k].tobytes() == base_state.bank.Z.tobytes()
        assert after.weights.W[:k].tobytes() == base_state.weights.W.tobytes()

    def test_two_sessions_preserve_all_earlier_blocks(self, base_state, full_state, ds):
        mid = train_incremental(base_state, ds.train[1])
        k0 = base_state.bank.n_classes
        k1 = mid.bank.n_classes
        assert full_state.bank.Z[:k0].tobytes() == base_state.bank.Z.tobytes()
        assert full_state.bank.Z[:k1].tobytes() == mid.bank.Z.tobytes()
        assert full_state.weights.W[:k1].tobytes() == mid.weights.W.tobytes()

    def test_input_state_is_not_mutated(self, base_state, ds):
        z_before = base_state.bank.Z.tobytes()
        w_before = base_state.weights.W.tobytes()
        train_incremental(base_state, ds.train[1])
        assert base_state.bank.Z.tobytes() == z_before
        assert base_state.weights.W.tobytes() == w_before
        assert base_state.bank.class_ids == [0, 1, 2, 3]

    def test_bookkeeping_after_two_sessions(self, full_state):
        assert full_state.sessions_seen == 3
        assert full_state.bank.class_ids == list(range(8))
        assert full_state.classes_of_session(1) == [4, 5]
        assert full_state.classes_of_session(2) == [6, 7]
        assert sorted(full_state.loss_history) == [0, 1, 2]
        assert len(full_state.loss_history[1]) == TRAIN_HP.inc_epochs
        assert full_state.bank.frozen.all()
        assert full_state.weights.frozen.all()

    def test_incremental_loss_decreases(self, base_state, ds):
        after = train_incremental(base_state, ds.train[1])
        hist = after.loss_history[1]
        assert hist[-1] < hist[0]

    def test_novel_classes_are_learned(self, full_state, ds):
        assert _train_accuracy(full_state, ds.train[1]) >= 0.9
        assert _train_accuracy(full_state, ds.train[2]) >= 0.9

    def test_determinism_across_sessions(self, full_state, base_state, ds):
        again = train_incremental(train_incremental(base_state, ds.train[1]), ds.train[2])
        assert again.bank.Z.tobytes() == full_state.bank.Z.tobytes()
        assert again.weights.W.tobytes() == full_state.weights.W.tobytes()

    def test_frozen_classifier_rows_keep_init_when_disabled(self, base_state, ds):
        hp = replace(TRAIN_HP, train_cls_in_incremental=False)
        after = train_incremental(base_state, ds.train[1], hp)
        X3 = np.asarray(ds.train[1].X, dtype=np.float64)
        init = _mean_feature_rows(X3, ds.train[1].labels, [4, 5])
        assert after.weights.W[4:].tobytes() == init.tobytes()

    def test_reregistering_a_class_rejected(self, base_state, ds):
        with pytest.raises(InvalidInput, match="already registered"):
            train_incremental(base_state, ds.train[0])

    def test_channel_mismatch_rejected(self, base_state):
        bad = FeatureBatch(
            X=np.ones((2, 3, TRAIN_CFG.channels + 1)),
            labels=[90, 91],
            sessions=[1, 1],
            sample_ids=["a", "b"],
        )
        with pytest.raises(InvalidInput):
            train_incremental(base_state, bad)

    def test_empty_shots_rejected(self, base_state):
        empty = FeatureBatch(
            X=np.empty((0, 3, TRAIN_CFG.channels)),
            labels=np.empty(0, dtype=int),
            sessions=np.empty(0, dtype=int),
            sample_ids=[],
        )
        with pytest.raises(InvalidInput):
            train_incremental(base_state, empty)

    def test_vanishing_lr_keeps_new_blocks_at_initialization(self, base_state, ds):
        # the no-learning limit again: epochs run but every update rounds
        # away, so new rows equal their mean-feature initialization
        hp = replace(TRAIN_HP, lr=1e-300, inc_epochs=2)
        after = train_incremental(base_state, ds.train[1], hp)
        X3 = np.asarray(ds.train[1].X, dtype=np.float64)
        init_rows = _mean_feature_rows(X3, ds.train[1].labels, [4, 5])
        assert after.weights.W[4:].tobytes() == init_rows.tobytes()
        again = train_incremental(base_state, ds.train[1], replace(hp, inc_epochs=7))
        assert again.bank.Z.tobytes() == after.bank.Z.tobytes()


class TestFixedColumnCache:
    """train_incremental scores the frozen classes' columns once per session;
    the loop that rescores them every epoch must give the same bits."""

    @pytest.mark.parametrize(
        "change",
        [
            {},
            {"stop_attention_grad": True},
            {"lambda1": 0.0},
            {"lambda2": 0.0},
            {"train_cls_in_incremental": False},
        ],
        ids=["defaults", "stop_attention_grad", "lambda1_0", "lambda2_0", "no_cls"],
    )
    def test_matches_uncached_loop_bit_for_bit(self, base_state, ds, change):
        hp = replace(TRAIN_HP, inc_epochs=6, **change)
        mid = train_incremental(base_state, ds.train[1], hp)
        for state, shots in ((base_state, ds.train[1]), (mid, ds.train[2])):
            after = train_incremental(state, shots, hp)
            Z, W, history = train_incremental_oracle(state, shots, hp)
            assert after.bank.Z.tobytes() == Z.tobytes()
            assert after.weights.W.tobytes() == W.tobytes()
            assert after.loss_history[state.sessions_seen] == history

    def test_matches_unsplit_loop_at_this_shape(self, base_state, ds):
        # two new classes of six primitives: every column slice is reduced
        # as the whole matrix is, so the split changes no bit here
        hp = replace(TRAIN_HP, inc_epochs=6)
        after = train_incremental(base_state, ds.train[1], hp)
        Z, W, history = train_incremental_oracle(
            base_state, ds.train[1], hp, loss_and_grad=total_loss_and_grad_unsplit
        )
        assert after.bank.Z.tobytes() == Z.tobytes()
        assert after.weights.W.tobytes() == W.tobytes()
        assert after.loss_history[1] == history


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, full_state, tmp_path):
        save_checkpoint(full_state, tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.bank.Z.tobytes() == full_state.bank.Z.tobytes()
        assert back.weights.W.tobytes() == full_state.weights.W.tobytes()
        assert back.bank.class_ids == full_state.bank.class_ids
        np.testing.assert_array_equal(back.bank.frozen, full_state.bank.frozen)
        np.testing.assert_array_equal(back.weights.frozen, full_state.weights.frozen)
        assert asdict(back.hp) == asdict(full_state.hp)
        assert back.sessions_seen == full_state.sessions_seen
        assert back.class_sessions == full_state.class_sessions
        assert back.loss_history == full_state.loss_history

    def test_saving_twice_is_byte_identical(self, full_state, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_checkpoint(full_state, a)
        save_checkpoint(full_state, b)
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_loaded_state_trains_identically(self, base_state, ds, tmp_path):
        save_checkpoint(base_state, tmp_path)
        direct = train_incremental(base_state, ds.train[1])
        resumed = train_incremental(load_checkpoint(tmp_path), ds.train[1])
        assert resumed.bank.Z.tobytes() == direct.bank.Z.tobytes()
        assert resumed.weights.W.tobytes() == direct.weights.W.tobytes()

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_checkpoint(tmp_path)

    def test_wrong_format_rejected(self, full_state, tmp_path):
        spath = save_checkpoint(full_state, tmp_path)
        doc = json.loads(spath.read_text())
        doc["format"] = "other"
        spath.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput):
            load_checkpoint(tmp_path)

    def test_wrong_version_rejected(self, full_state, tmp_path):
        spath = save_checkpoint(full_state, tmp_path)
        doc = json.loads(spath.read_text())
        doc["version"] = 2
        spath.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput):
            load_checkpoint(tmp_path)

    def test_unknown_hyperparam_rejected(self, full_state, tmp_path):
        spath = save_checkpoint(full_state, tmp_path)
        doc = json.loads(spath.read_text())
        doc["hyperparams"]["mystery"] = 1
        spath.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput, match="mystery"):
            load_checkpoint(tmp_path)

    def test_class_table_mismatch_rejected(self, full_state, tmp_path):
        spath = save_checkpoint(full_state, tmp_path)
        doc = json.loads(spath.read_text())
        del doc["class_sessions"]["0"]
        spath.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput):
            load_checkpoint(tmp_path)

    def test_corrupt_bank_tensor_surfaces_container_error(self, full_state, tmp_path):
        save_checkpoint(full_state, tmp_path)
        (tmp_path / "bank.ckat").write_bytes(b"junk data")
        with pytest.raises(BadMagic):
            load_checkpoint(tmp_path)

    def test_corrupt_state_json_rejected(self, full_state, tmp_path):
        spath = save_checkpoint(full_state, tmp_path)
        spath.write_text(spath.read_text()[:-10])
        with pytest.raises(InvalidInput, match="not valid JSON"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize(
        "key",
        ["hyperparams", "class_ids", "frozen_z", "frozen_w", "sessions_seen", "class_sessions", "loss_history"],
    )
    def test_missing_required_checkpoint_key_rejected(self, full_state, tmp_path, key):
        spath = save_checkpoint(full_state, tmp_path)
        doc = json.loads(spath.read_text())
        del doc[key]
        spath.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput, match=key):
            load_checkpoint(tmp_path)
