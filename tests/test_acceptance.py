"""Acceptance suite: one test per shipped guarantee.

Each test restates a guarantee of the package (sizes, tolerance and time
budget included) and verifies it exactly as stated.  Trained-model checks
reuse the session-scoped default runs from conftest; the trailing class
pins the measured numbers of those runs so silent drift fails loudly.
"""

import json
import time
from itertools import product

import numpy as np
import pytest

from compset import (
    BadMagic,
    BadVersion,
    ClassifierWeights,
    FeatureBatch,
    Hyperparams,
    ModelState,
    PrimitiveBank,
    SynthConfig,
    TruncatedPayload,
    UnknownDtype,
    allmatch_similarity,
    build_replaced,
    evaluate_sessions,
    importance_filter_eval,
    linear_cka,
    patch_importance,
    performance_drop,
    read_tensor,
    score_matrix,
    synth_generate,
    total_loss_and_grad,
    train_base,
    train_incremental,
    write_tensor,
)
from compset.cli import main
from util import center_rows, central_diff_grad, match_weights, pack_params, random_pair, unpack_params

PAIR_SEED = 20260819
N_PAIRS = 1000

MICRO = {
    "synth": {
        "pool_size": 20,
        "primitives_per_class": 3,
        "shared_patches": 6,
        "distractor_patches": 2,
        "noise_sigma": 0.1,
        "channels": 16,
        "base_classes": 4,
        "incremental_sessions": 2,
        "classes_per_session": 2,
        "shots": 3,
        "test_per_class": 5,
        "train_per_base_class": 20,
        "seed": 0,
    },
    "hyperparams": {
        "n_primitives": 6,
        "base_epochs": 40,
        "inc_epochs": 25,
        "batch_size": 16,
        "seed": 0,
    },
}


def iter_pairs():
    """The fixed corpus of 1000 random (X, Z) pairs, n in [1,64],
    N in [1,16], d in [2,128]."""
    rng = np.random.default_rng(PAIR_SEED)
    for _ in range(N_PAIRS):
        yield random_pair(rng)


class TestSimilarityContract:
    def test_similarity_identity_suite_thousand_pairs(self):
        # range, symmetry, self-similarity, scale invariance (1e-12),
        # orthogonal patch mixing (1e-9), joint channel permutation
        # (1e-12), in under 10 seconds
        extra = np.random.default_rng(PAIR_SEED + 1)
        t0 = time.perf_counter()
        for x, z in iter_pairs():
            v = linear_cka(x, z)
            assert 0.0 <= v <= 1.0
            assert abs(linear_cka(z, x) - v) <= 1e-12
            assert abs(linear_cka(x, x) - 1.0) <= 1e-12
            assert abs(linear_cka(3.7 * x, z) - v) <= 1e-12 * v
            assert abs(linear_cka(x, -0.25 * z) - v) <= 1e-12 * v
            q, _ = np.linalg.qr(extra.standard_normal((x.shape[0], x.shape[0])))
            assert abs(linear_cka(q @ x, z) - v) <= 1e-9
            perm = extra.permutation(x.shape[1])
            assert abs(linear_cka(x[:, perm], z[:, perm]) - v) <= 1e-12
        assert time.perf_counter() - t0 < 10.0

    def test_decomposition_sums_reproduce_similarity(self):
        # patch importances and weighted centered dot products both sum
        # back to the similarity value, within 1e-9 on the same pairs
        for x, z in iter_pairs():
            v = linear_cka(x, z)
            assert abs(float(patch_importance(x, z).sum()) - v) <= 1e-9
            w = match_weights(x, z)
            dots = center_rows(x) @ center_rows(z).T
            assert abs(float((w * dots).sum()) - v) <= 1e-9

    def test_similarity_hand_values(self):
        assert abs(linear_cka([[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0]]) - 1.0) <= 1e-12
        assert abs(linear_cka([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]) - 0.25) <= 1e-12

    def test_mean_allmatch_equals_normalized_mean_dot(self):
        # the average of all pairwise cosines factorizes into the dot
        # product of the two averaged row-normalized sets, within 1e-9
        for x, z in iter_pairs():
            xu = x / np.linalg.norm(x, axis=1, keepdims=True)
            zu = z / np.linalg.norm(z, axis=1, keepdims=True)
            want = float(xu.mean(axis=0) @ zu.mean(axis=0))
            assert abs(allmatch_similarity(x, z, mode="mean") - want) <= 1e-9


def gradient_instance(rng, n_classes=3, n_primitives=2, channels=5, patches=4, batch=2):
    """A small trainable model plus batch for gradient checking.

    Primitive rows cluster around one direction and classifier rows around
    another so the softmax logit spreads stay moderate at every grid
    temperature; central differences at eps=1e-5 then resolve every
    coordinate well above double-precision roundoff.  Saturated-softmax
    regimes are covered separately by the exact sharp-attention test.
    """
    ids = list(range(n_classes))
    z_base = rng.standard_normal((1, 1, channels))
    bank = PrimitiveBank(
        ids,
        z_base + 0.1 * rng.standard_normal((n_classes, n_primitives, channels)),
        np.zeros(n_classes, bool),
    )
    w_base = rng.standard_normal(channels)
    weights = ClassifierWeights(
        ids, w_base + 0.3 * rng.standard_normal((n_classes, channels)), np.zeros(n_classes, bool)
    )
    x = np.abs(rng.standard_normal((batch, patches, channels)))
    batch_ = FeatureBatch(
        X=x,
        labels=rng.integers(0, n_classes, batch),
        sessions=np.zeros(batch, dtype=int),
        sample_ids=[f"r{i}" for i in range(batch)],
    )
    return bank, weights, batch_


class TestGradientContract:
    def test_analytic_gradients_match_central_differences(self):
        # classifier, composition and replacement losses plus their
        # weighted total, on 100 seeded instances cycling through
        # alpha in {0.5,0.8,1.0} x tau in {1,8,16} x gamma in {1,16,64};
        # max relative error 1e-4 at eps=1e-5, in under 60 seconds
        combos = list(product((0.5, 0.8, 1.0), (1.0, 8.0, 16.0), (1.0, 16.0, 64.0)))
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(100):
            alpha, tau, gamma = combos[i % len(combos)]
            rng = np.random.default_rng(5000 + i)
            bank, weights, batch = gradient_instance(rng)
            donor_map = {c: [d for d in bank.class_ids if d != c] for c in bank.class_ids}
            parts = [
                (True, 0.0, 0.0),  # classifier loss alone
                (False, 1.0, 0.0),  # composition loss alone
                (False, 0.0, 1.0),  # replacement loss alone
                (True, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
            ]
            for include_cls, l1, l2 in parts:
                hp = Hyperparams(tau=tau, alpha=alpha, gamma=gamma, lambda1=l1, lambda2=l2)

                def objective(theta):
                    w, zz = unpack_params(theta, weights.W.shape, bank.Z.shape)
                    val, _ = total_loss_and_grad(
                        batch,
                        PrimitiveBank(list(bank.class_ids), zz, bank.frozen),
                        ClassifierWeights(list(weights.class_ids), w, weights.frozen),
                        donor_map,
                        hp,
                        include_cls=include_cls,
                    )
                    return val

                _, grads = total_loss_and_grad(
                    batch, bank, weights, donor_map, hp, include_cls=include_cls
                )
                analytic = pack_params(grads.dW, grads.dZ)
                fd = central_diff_grad(objective, pack_params(weights.W, bank.Z), eps=1e-5)
                rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
                worst = max(worst, float(rel.max()))
        assert worst <= 1e-4
        assert time.perf_counter() - t0 < 60.0


class TestReplacementContract:
    def test_sharp_attention_snaps_to_nearest_donor(self):
        # at gamma=64, whenever every donor is at least 0.5 squared
        # distance behind the nearest one, the replacement equals the
        # nearest donor row to 1e-6
        rng = np.random.default_rng(77)
        for trial in range(50):
            d = int(rng.integers(4, 17))
            if trial % 2 == 0:
                # one primitive per class; donors on orthogonal spokes with
                # the runner-up a hair over 0.5 squared distance behind, so
                # the premise survives rounding at the boundary
                t = rng.standard_normal(d)
                u, _ = np.linalg.qr(rng.standard_normal((d, 3)))
                r0 = float(rng.uniform(0.25, 1.0))
                gap = 0.5 + 1e-6
                radii = np.sqrt([r0, r0 + gap, r0 + gap + float(rng.uniform(0.0, 3.0))])
                rows = t[None, :] + radii[:, None] * u.T
                z = np.stack([t[None, :]] + [rows[k][None, :] for k in range(3)])
            else:
                # two primitives per class; donors far apart, each target
                # dropped near a distinct donor
                donors = 6.0 * rng.standard_normal((3, 2, d))
                pick = rng.permutation(6)[:2]
                flat = donors.reshape(6, d)
                targets = flat[pick] + 0.1 * rng.standard_normal((2, d))
                z = np.concatenate([targets[None, :, :], donors])
            bank = PrimitiveBank([0, 1, 2, 3], z, np.zeros(4, bool))
            donor_rows = z[1:].reshape(-1, z.shape[2])
            rb = build_replaced(bank, {0: [1, 2, 3]}, 64.0, classes=[0])
            z_hat, att = rb.Z_hat[0], rb.attention[0]
            for j in range(z.shape[1]):
                sq = ((donor_rows - z[0, j]) ** 2).sum(axis=1)
                order = np.sort(sq)
                assert order[1] - order[0] >= 0.5  # the premise holds
                nearest = donor_rows[int(np.argmin(sq))]
                assert np.max(np.abs(z_hat[j] - nearest)) <= 1e-6
                assert abs(float(att[j].sum()) - 1.0) <= 1e-9


class TestDeterminismContract:
    def test_freezing_and_same_seed_byte_identity(self, tmp_path):
        # prior-session parameters survive later sessions bit-for-bit,
        # and a same-seed rerun reproduces every artifact
        # byte-identically (provenance differs only in its timestamp)
        ds = synth_generate(SynthConfig(**MICRO["synth"]))
        hp = Hyperparams(**MICRO["hyperparams"])
        base = train_base(ds.train[0], hp)
        s1 = train_incremental(base, ds.train[1])
        s2 = train_incremental(s1, ds.train[2])
        nb = base.bank.n_classes
        n1 = s1.bank.n_classes
        assert s1.bank.Z[:nb].tobytes() == base.bank.Z.tobytes()
        assert s1.weights.W[:nb].tobytes() == base.weights.W.tobytes()
        assert s2.bank.Z[:nb].tobytes() == base.bank.Z.tobytes()
        assert s2.bank.Z[nb:n1].tobytes() == s1.bank.Z[nb:n1].tobytes()
        assert s2.weights.W[:n1].tobytes() == s1.weights.W.tobytes()

        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(MICRO))
        dirs = {name: tmp_path / name for name in ("data", "ck0", "ck1", "ck2", "rep")}

        def pipeline():
            steps = [
                ["gen", "--config", str(cfg), "--out", str(dirs["data"])],
                ["train-base", "--config", str(cfg), "--data", str(dirs["data"]),
                 "--out", str(dirs["ck0"])],
                ["train-inc", "--ckpt", str(dirs["ck0"]), "--data", str(dirs["data"]),
                 "--out", str(dirs["ck1"])],
                ["train-inc", "--ckpt", str(dirs["ck1"]), "--data", str(dirs["data"]),
                 "--out", str(dirs["ck2"])],
                ["eval", "--ckpt", str(dirs["ck2"]), "--data", str(dirs["data"]),
                 "--out", str(dirs["rep"])],
            ]
            for argv in steps:
                assert main(argv) == 0

        pipeline()
        first = {p: p.read_bytes() for d in dirs.values() for p in sorted(d.iterdir())}
        pipeline()
        assert set(first) == {p for d in dirs.values() for p in d.iterdir()}
        for p, before in first.items():
            after = p.read_bytes()
            if p.name == "provenance.json":
                a, b = json.loads(before), json.loads(after)
                a.pop("timestamp")
                b.pop("timestamp")
                assert a == b, p
            else:
                assert after == before, p


class TestEndToEndContract:
    def test_composition_head_beats_baseline_by_five_points(self, default_runs):
        # default synthetic task, three seeds, under five minutes in
        # total: final-session overall accuracy of the composition head
        # exceeds the mean-feature baseline head by 5+ points on average
        t0 = time.perf_counter()
        gaps = []
        trained = 0.0
        for run in default_runs.values():
            comp = evaluate_sessions(run["state"], run["ds"].test, "composition")
            base = evaluate_sessions(run["state"], run["ds"].test, "baseline")
            gaps.append(comp.sessions[-1].overall - base.sessions[-1].overall)
            trained += run["pipeline_seconds"]
        assert float(np.mean(gaps)) >= 5.0
        assert trained + (time.perf_counter() - t0) < 300.0

    def test_replacement_loss_preserves_retention_under_reuse(self, retention_by_seed):
        # replacing half of each class's primitives by their hard nearest
        # donors: the model trained with the replacement loss retains at
        # least as much accuracy on average as the one trained without it
        with_loss = np.mean(list(retention_by_seed["with_replacement_loss"].values()))
        without = np.mean(list(retention_by_seed["without_replacement_loss"].values()))
        assert float(with_loss) >= float(without)

    def test_importance_ranking_separates_shared_from_distractors(self, auc_by_seed):
        # per-sample AUC of importance over ground-truth shared patches
        # versus distractors, averaged over test samples and seeds
        assert float(np.mean(list(auc_by_seed.values()))) >= 0.8


class TestMetricContract:
    def test_session_drop_reference_curves(self):
        # two reference session-accuracy curves with known drops
        curve_a = [82.78, 77.82, 73.70, 70.57, 68.26, 65.11, 62.19, 60.12, 59.00]
        curve_b = [79.57, 76.07, 72.94, 69.82, 67.80, 65.56, 63.94, 62.59, 60.62, 60.34, 59.58]
        assert performance_drop(curve_a) == 23.78
        assert performance_drop(curve_b) == 19.99

    def test_scoring_throughput_reference_sizes(self):
        # 100 maps of 64 patches x 512 channels against 100 classes of 16
        # primitives: scoring plus argmax completes in at most 1 s median
        rng = np.random.default_rng(3)
        c, n, d = 100, 16, 512
        ids = list(range(c))
        state = ModelState(
            bank=PrimitiveBank(ids, rng.standard_normal((c, n, d)), np.ones(c, bool)),
            weights=ClassifierWeights(ids, rng.standard_normal((c, d)), np.ones(c, bool)),
            hp=Hyperparams(),
            sessions_seen=1,
            class_sessions={i: 0 for i in ids},
            loss_history={},
        )
        maps = rng.standard_normal((100, 64, d))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            score_matrix(state, maps, "composition").argmax(axis=1)
            times.append(time.perf_counter() - t0)
        assert float(np.median(times)) <= 1.0


GOLDEN_FILE = bytes.fromhex(
    "434b4154"  # magic
    "01000000"  # version 1
    "01000000"  # dtype float32
    "02000000"  # ndim 2
    "01000000"  # dim 1
    "02000000"  # dim 2
    "0000803f"  # 1.0
    "00000040"  # 2.0
)


class TestTensorFormatContract:
    def test_tensor_container_golden_roundtrip_and_errors(self, tmp_path):
        # documented 1x2 float32 example byte-for-byte, 100 random
        # round trips bit-exact, and every corruption class raised
        p = tmp_path / "golden.ckat"
        write_tensor(p, np.array([[1.0, 2.0]], dtype=np.float32))
        assert p.read_bytes() == GOLDEN_FILE
        back = read_tensor(p)
        assert back.dtype == np.float32 and back.shape == (1, 2)
        assert np.array_equal(back, [[1.0, 2.0]])

        rng = np.random.default_rng(9)
        for i in range(100):
            dtype = np.float32 if i % 2 == 0 else np.float64
            shape = tuple(int(rng.integers(1, 7)) for _ in range(1 + i % 3))
            arr = rng.standard_normal(shape).astype(dtype)
            f = tmp_path / f"t{i}.ckat"
            write_tensor(f, arr)
            got = read_tensor(f)
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()

        good = tmp_path / "good.ckat"
        write_tensor(good, np.array([1.0, 2.0, 3.0]))
        raw = good.read_bytes()
        cases = [
            (b"XKAT" + raw[4:], BadMagic),
            (raw[:4] + (2).to_bytes(4, "little") + raw[8:], BadVersion),
            (raw[:-4], TruncatedPayload),
            (raw[:8] + (9).to_bytes(4, "little") + raw[12:], UnknownDtype),
        ]
        for k, (blob, err) in enumerate(cases):
            bad = tmp_path / f"bad{k}.ckat"
            bad.write_bytes(blob)
            with pytest.raises(err):
                read_tensor(bad)


class TestTrainedDefaults:
    """Regression pins: the measured numbers of the default runs.

    These are not contractual bounds; they freeze the observed values so
    any change to data generation, training or scoring shows up here
    before it shows up as a drifting benchmark.
    """

    def test_final_session_accuracy_pins(self, default_runs):
        comp_want = {0: 90.20, 1: 88.00, 2: 89.20}
        base_want = {0: 16.27, 1: 16.53, 2: 17.27}
        for seed, run in default_runs.items():
            comp = evaluate_sessions(run["state"], run["ds"].test, "composition")
            base = evaluate_sessions(run["state"], run["ds"].test, "baseline")
            assert round(comp.sessions[-1].overall, 2) == comp_want[seed]
            assert round(base.sessions[-1].overall, 2) == base_want[seed]

    def test_base_training_fit_pins(self, default_runs):
        want = {0: 99.7, 1: 99.6, 2: 99.4}
        for seed, run in default_runs.items():
            tr = run["ds"].train[0]
            state = run["state"]
            nb = len(state.classes_of_session(0))
            ids = np.array(state.bank.class_ids[:nb])
            scores = score_matrix(state, tr.X, "composition")[:, :nb]
            acc = 100.0 * float(np.mean(ids[scores.argmax(axis=1)] == tr.labels))
            assert acc >= 95.0
            assert round(acc, 1) == want[seed]

    def test_reuse_retention_pins(self, retention_by_seed):
        with_want = {0: 98.94, 1: 93.28, 2: 94.15}
        without_want = {0: 98.31, 1: 93.38, 2: 89.96}
        for seed, got in retention_by_seed["with_replacement_loss"].items():
            assert round(got, 2) == with_want[seed]
        for seed, got in retention_by_seed["without_replacement_loss"].items():
            assert round(got, 2) == without_want[seed]

    def test_importance_auc_pins(self, auc_by_seed):
        want = {0: 0.9445, 1: 0.9382, 2: 0.9620}
        for seed, got in auc_by_seed.items():
            assert round(got, 4) == want[seed]

    def test_patch_filter_accuracy_pins(self, default_runs):
        run = default_runs[0]
        full = FeatureBatch.concat([run["ds"].test[k] for k in sorted(run["ds"].test)])
        got = importance_filter_eval(run["state"], full, [1, 4, 8, 16])
        correct = {1: 557, 4: 1041, 8: 1295, 16: 1353}
        assert set(got) == set(correct)
        for k, c in correct.items():
            assert abs(got[k] - 100.0 * c / len(full)) <= 1e-9
