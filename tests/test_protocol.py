"""Tests for session evaluation, ablation tooling, and the benchmark."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from compset import (
    DegenerateInput,
    FeatureBatch,
    Hyperparams,
    InvalidInput,
    NumericalFailure,
    SynthConfig,
    evaluate_sessions,
    importance_filter_eval,
    linear_cka,
    performance_drop,
    power_transform,
    primitive_count_sweep,
    retrieval_export,
    reuse_retention_eval,
    run_sessions,
    score_matrix,
    synth_generate,
    throughput_bench,
    train_base,
    train_incremental,
)
from compset.losses import ClassifierWeights
from compset.primitives import PrimitiveBank
from compset.protocol import (
    HEADS,
    SessionSchedule,
    schedule_of,
    sweep_table,
)
from compset.training import ModelState

CFG = SynthConfig(
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
HP = Hyperparams(n_primitives=6, base_epochs=40, inc_epochs=25, batch_size=16, seed=0)


@pytest.fixture(scope="module")
def ds():
    return synth_generate(CFG)


@pytest.fixture(scope="module")
def state(ds):
    return run_sessions(ds, HP)


def _empty_like(batch: FeatureBatch) -> FeatureBatch:
    return FeatureBatch(
        X=np.empty((0,) + batch.X.shape[1:]),
        labels=np.empty(0, dtype=np.int64),
        sessions=np.empty(0, dtype=np.int64),
        sample_ids=[],
    )


def perfect_state(duplicate_first_two=False):
    """Three classes of two orthogonal one-hot primitives each.

    Binary entries survive the power transform unchanged, so a map equal to
    its class block scores 1.0 on that class and 0.0 on every other one.
    """
    d = 8
    Z = np.zeros((3, 2, d))
    for c in range(3):
        Z[c, 0, 2 * c] = 1.0
        Z[c, 1, 2 * c + 1] = 1.0
    if duplicate_first_two:
        Z[1] = Z[0]
    bank = PrimitiveBank([0, 1, 2], Z, np.ones(3, dtype=bool))
    weights = ClassifierWeights([0, 1, 2], Z.mean(axis=1), np.ones(3, dtype=bool))
    return ModelState(
        bank=bank,
        weights=weights,
        hp=Hyperparams(),
        sessions_seen=2,
        class_sessions={0: 0, 1: 0, 2: 1},
        loss_history={0: [], 1: []},
    )


def perfect_tests(st):
    Z = st.bank.Z
    base = FeatureBatch(
        X=np.stack([Z[0], Z[1]]),
        labels=[0, 1],
        sessions=[0, 0],
        sample_ids=["b0", "b1"],
    )
    novel = FeatureBatch(X=Z[2][None], labels=[2], sessions=[1], sample_ids=["n0"])
    return {0: base, 1: novel}


class TestSessionSchedule:
    def test_valid_layout(self):
        s = SessionSchedule([0, 1, 2], [[3, 4], [5]], shots=5)
        s.validate()
        assert s.n_sessions == 3

    def test_schedule_of_dataset(self, ds):
        s = schedule_of(ds)
        assert s.base_classes == [0, 1, 2, 3]
        assert s.incremental_classes == [[4, 5], [6, 7]]
        assert s.shots == CFG.shots

    @pytest.mark.parametrize(
        "base,inc,shots",
        [
            ([], [[1]], 1),
            ([0, 1], [[]], 1),
            ([0, 0], [[1]], 1),
            ([0, 1], [[1]], 1),
            ([0, 1], [[2], [2]], 1),
            ([0, 1], [[2]], 0),
        ],
    )
    def test_rejections(self, base, inc, shots):
        with pytest.raises(InvalidInput):
            SessionSchedule(base, inc, shots).validate()


class TestPerformanceDrop:
    def test_published_style_curves(self):
        assert performance_drop([82.78, 77.80, 73.59, 69.95, 66.31, 62.77, 59.00]) == 23.78
        assert performance_drop([79.57, 73.72, 69.61, 66.09, 62.73, 61.04, 59.58]) == 19.99

    def test_constant_curve_is_zero(self):
        assert performance_drop([70.0, 70.0, 70.0]) == 0.0

    def test_single_session_is_zero(self):
        assert performance_drop([55.5]) == 0.0

    def test_improving_curve_goes_negative(self):
        assert performance_drop([50.0, 60.0]) == -10.0

    def test_rounds_to_two_decimals(self):
        assert performance_drop([2.0 / 3.0 * 100.0, 0.0]) == 66.67

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            performance_drop([])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            performance_drop([80.0, np.nan])


class TestScoreMatrix:
    def test_shape(self, state, ds):
        scores = score_matrix(state, ds.test[0].X)
        assert scores.shape == (len(ds.test[0]), state.bank.n_classes)

    def test_composition_column_matches_pairwise_score(self, state, ds):
        X3 = ds.test[1].X[:3]
        scores = score_matrix(state, X3, "composition")
        for i in range(3):
            for j in (0, 5, 7):
                want = linear_cka(power_transform(X3[i], state.hp.alpha), state.bank.Z[j])
                assert abs(scores[i, j] - want) < 1e-12

    def test_baseline_is_cosine_of_mean_feature(self, state, ds):
        X3 = ds.test[0].X[:4]
        scores = score_matrix(state, X3, "baseline")
        for i in range(4):
            f = X3[i].mean(axis=0)
            f = f / np.linalg.norm(f)
            for j in range(state.bank.n_classes):
                w = state.weights.W[j] / np.linalg.norm(state.weights.W[j])
                assert abs(scores[i, j] - float(f @ w)) < 1e-12

    def test_allmatch_is_mean_pairwise_cosine(self, state, ds):
        X3 = ds.test[0].X[:2]
        scores = score_matrix(state, X3, "allmatch")
        for i in range(2):
            for j in range(state.bank.n_classes):
                vals = []
                for x in X3[i]:
                    for z in state.bank.Z[j]:
                        vals.append(
                            float(x @ z) / (np.linalg.norm(x) * np.linalg.norm(z))
                        )
                assert abs(scores[i, j] - np.mean(vals)) < 1e-12

    def test_maxmatch_is_mean_best_cosine(self, state, ds):
        X3 = ds.test[0].X[:2]
        scores = score_matrix(state, X3, "maxmatch")
        for i in range(2):
            for j in range(state.bank.n_classes):
                per_patch = []
                for x in X3[i]:
                    best = max(
                        float(x @ z) / (np.linalg.norm(x) * np.linalg.norm(z))
                        for z in state.bank.Z[j]
                    )
                    per_patch.append(best)
                assert abs(scores[i, j] - np.mean(per_patch)) < 1e-12

    def test_zero_map_is_safe_for_cosine_heads(self, state):
        X3 = np.zeros((1, 3, CFG.channels))
        for head in ("baseline", "allmatch", "maxmatch"):
            scores = score_matrix(state, X3, head)
            assert np.all(np.isfinite(scores))

    def test_unknown_head_rejected(self, state, ds):
        with pytest.raises(InvalidInput):
            score_matrix(state, ds.test[0].X, "mystery")


class TestEvaluateSessions:
    def test_perfectly_separable_state_scores_100(self):
        st = perfect_state()
        rep = evaluate_sessions(st, perfect_tests(st))
        assert rep.overall_curve() == [100.0, 100.0]
        assert [s.base for s in rep.sessions] == [100.0, 100.0]
        assert rep.sessions[0].novel is None
        assert rep.sessions[1].novel == 100.0
        assert rep.performance_drop == 0.0
        assert rep.sessions[0].n_candidates == 2
        assert rep.sessions[1].n_candidates == 3

    def test_argmax_ties_resolve_to_lowest_class_id(self):
        st = perfect_state(duplicate_first_two=True)
        rep = evaluate_sessions(st, perfect_tests(st))
        conf = rep.sessions[0].confusion
        assert conf[0] == {0: 1}
        assert conf[1] == {0: 1}

    def test_matches_per_session_rescoring_oracle(self, state, ds):
        rep = evaluate_sessions(state, ds.test)
        ids = np.array(state.bank.class_ids)
        session_of = np.array([state.class_sessions[c] for c in state.bank.class_ids])
        for k in range(state.sessions_seen):
            batch = FeatureBatch.concat([ds.test[j] for j in range(k + 1)])
            cand = np.flatnonzero(session_of <= k)
            scores = score_matrix(state, batch.X)[:, cand]
            pred = ids[cand][np.argmax(scores, axis=1)]
            overall = 100.0 * float(np.mean(pred == batch.labels))
            assert abs(rep.sessions[k].overall - overall) < 1e-9
            is_base = np.array([state.class_sessions[int(c)] == 0 for c in batch.labels])
            base = 100.0 * float(np.mean((pred == batch.labels)[is_base]))
            assert abs(rep.sessions[k].base - base) < 1e-9
            if k >= 1:
                ncand = cand[session_of[cand] >= 1]
                nsc = score_matrix(state, batch.X[~is_base])[:, ncand]
                npred = ids[ncand][np.argmax(nsc, axis=1)]
                novel = 100.0 * float(np.mean(npred == batch.labels[~is_base]))
                assert abs(rep.sessions[k].novel - novel) < 1e-9

    def test_sample_counts_accumulate(self, state, ds):
        rep = evaluate_sessions(state, ds.test)
        sizes = [len(ds.test[k]) for k in range(3)]
        assert [s.n_samples for s in rep.sessions] == [
            sizes[0],
            sizes[0] + sizes[1],
            sizes[0] + sizes[1] + sizes[2],
        ]
        assert [s.n_candidates for s in rep.sessions] == [4, 6, 8]

    def test_confusion_rows_sum_to_class_counts(self, state, ds):
        rep = evaluate_sessions(state, ds.test)
        last = rep.sessions[-1]
        full = FeatureBatch.concat([ds.test[k] for k in range(3)])
        for c in state.bank.class_ids:
            want = int(np.sum(full.labels == c))
            assert sum(last.confusion.get(c, {}).values()) == want

    def test_report_serialization(self, state, ds):
        rep = evaluate_sessions(state, ds.test)
        doc = rep.to_json_dict()
        assert doc["head"] == "composition"
        assert doc["seed"] == HP.seed
        assert len(doc["sessions"]) == 3
        assert all(isinstance(k, str) for k in doc["sessions"][-1]["confusion"])
        text = rep.to_text()
        assert "performance drop:" in text
        assert text.count("\n") >= 4

    def test_missing_session_test_set_rejected(self, state, ds):
        with pytest.raises(InvalidInput, match="missing test sets"):
            evaluate_sessions(state, {0: ds.test[0], 2: ds.test[2]})

    def test_unregistered_label_rejected(self, state, ds):
        bad = FeatureBatch(
            X=ds.test[0].X[:1], labels=[99], sessions=[0], sample_ids=["x"]
        )
        with pytest.raises(InvalidInput, match="not registered"):
            evaluate_sessions(state, {0: bad, 1: ds.test[1], 2: ds.test[2]})

    def test_empty_session_test_set_rejected(self, state, ds):
        empty = _empty_like(ds.test[1])
        with pytest.raises(InvalidInput, match="empty test sets"):
            evaluate_sessions(state, {0: ds.test[0], 1: empty, 2: ds.test[2]})


def _with_non_finite(batch: FeatureBatch, value=np.nan) -> FeatureBatch:
    X = batch.X.copy()
    X[-1, 0, 1] = value
    return replace(batch, X=X)


class TestNonFiniteMaps:
    """A NaN once turned its score row into NaN, which argmax reads as a vote
    for the first class: evaluation reported an accuracy and no error."""

    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_score_matrix_rejects(self, head, value):
        st = perfect_state()
        with pytest.raises(InvalidInput, match="non-finite"):
            score_matrix(st, _with_non_finite(perfect_tests(st)[0], value).X, head)

    @pytest.mark.parametrize("session", [0, 1])
    def test_evaluate_sessions_rejects(self, session):
        st = perfect_state()
        tests = perfect_tests(st)
        tests[session] = _with_non_finite(tests[session])
        with pytest.raises(InvalidInput, match="non-finite"):
            evaluate_sessions(st, tests)

    @pytest.mark.parametrize("by_true_label", [False, True])
    def test_importance_filter_rejects(self, by_true_label):
        st = perfect_state()
        batch = _with_non_finite(perfect_tests(st)[0])
        with pytest.raises(InvalidInput, match="non-finite"):
            importance_filter_eval(st, batch, [1, 2], rank_by_true_label=by_true_label)

    def test_reuse_retention_rejects(self):
        st = perfect_state()
        tests = perfect_tests(st)
        tests[1] = _with_non_finite(tests[1])
        with pytest.raises(InvalidInput, match="non-finite"):
            reuse_retention_eval(st, tests, [0.0, 0.5])

    def test_overflowing_finite_map_raises(self):
        # one 1e200 entry is finite, but the map's Gram overflows: the NaN
        # score row it gave once voted for class 0 without an error
        st = perfect_state()
        X = perfect_tests(st)[0].X.copy()
        X[-1, 0, 1] = 1e200
        with pytest.raises(NumericalFailure, match="overflow"):
            score_matrix(st, X, "composition")


class TestRunSessions:
    def test_equals_manual_session_chain(self, state, ds):
        manual = train_base(ds.train[0], HP)
        manual = train_incremental(manual, ds.train[1])
        manual = train_incremental(manual, ds.train[2])
        assert state.bank.Z.tobytes() == manual.bank.Z.tobytes()
        assert state.weights.W.tobytes() == manual.weights.W.tobytes()
        assert state.sessions_seen == 3

    def test_learns_the_small_task(self, state, ds):
        rep = evaluate_sessions(state, ds.test)
        assert rep.sessions[0].overall == 100.0
        assert rep.sessions[-1].overall >= 90.0


class TestImportanceFilter:
    def test_keeping_all_patches_reproduces_full_predictions(self, state, ds):
        batch = FeatureBatch.concat([ds.test[k] for k in range(3)])
        n = batch.X.shape[1]
        out = importance_filter_eval(state, batch, [n])
        scores = score_matrix(state, batch.X)
        ids = np.array(state.bank.class_ids)
        pred = ids[np.argmax(scores, axis=1)]
        want = 100.0 * float(np.mean(pred == batch.labels))
        assert abs(out[n] - want) < 1e-12

    def test_more_patches_help_on_this_task(self, state, ds):
        batch = FeatureBatch.concat([ds.test[k] for k in range(3)])
        out = importance_filter_eval(state, batch, [1, 4, 8])
        assert out[8] >= out[1]

    def test_keep_counts_are_deduped(self, state, ds):
        out = importance_filter_eval(state, ds.test[0], [4, 1, 4])
        assert sorted(out) == [1, 4]

    def test_perfect_state_survives_filtering(self):
        st = perfect_state()
        tests = perfect_tests(st)
        batch = FeatureBatch.concat([tests[0], tests[1]])
        out = importance_filter_eval(st, batch, [1, 2])
        assert out == {1: 100.0, 2: 100.0}

    def test_true_label_ranking_matches_when_predictions_are_right(self):
        st = perfect_state()
        tests = perfect_tests(st)
        batch = FeatureBatch.concat([tests[0], tests[1]])
        by_pred = importance_filter_eval(st, batch, [1, 2])
        by_true = importance_filter_eval(st, batch, [1, 2], rank_by_true_label=True)
        assert by_pred == by_true

    def test_deterministic(self, state, ds):
        a = importance_filter_eval(state, ds.test[1], [2, 5])
        b = importance_filter_eval(state, ds.test[1], [2, 5])
        assert a == b

    def test_bad_keep_counts_rejected(self, state, ds):
        n = ds.test[0].X.shape[1]
        with pytest.raises(InvalidInput):
            importance_filter_eval(state, ds.test[0], [0])
        with pytest.raises(InvalidInput):
            importance_filter_eval(state, ds.test[0], [n + 1])
        with pytest.raises(InvalidInput):
            importance_filter_eval(state, ds.test[0], [])

    def test_non_composition_head_rejected(self, state, ds):
        with pytest.raises(InvalidInput):
            importance_filter_eval(state, ds.test[0], [1], head="baseline")

    def test_empty_batch_rejected(self, state, ds):
        with pytest.raises(InvalidInput, match="empty"):
            importance_filter_eval(state, _empty_like(ds.test[0]), [1])


class TestRetrievalExport:
    def test_structure_and_ordering(self, state, ds):
        batch = FeatureBatch.concat([ds.test[k] for k in range(3)])
        doc = retrieval_export(state, batch, top_k=4)
        assert set(doc) == {"top_patches", "nearest_primitives"}
        for c, entries in doc["top_patches"].items():
            assert isinstance(c, str)
            assert 1 <= len(entries) <= 4
            imps = [e["importance"] for e in entries]
            assert imps == sorted(imps, reverse=True)
            for e in entries:
                assert set(e) == {"patch", "sample", "importance"}
                assert e["sample"] in batch.sample_ids
                assert 0 <= e["patch"] < batch.X.shape[1]
        for c, entries in doc["nearest_primitives"].items():
            dists = [e["distance"] for e in entries]
            assert dists == sorted(dists)
            for e in entries:
                assert set(e) == {"primitive", "nearest_class", "nearest_primitive", "distance"}
                assert str(e["nearest_class"]) != c

    def test_hand_built_pairing_distance(self):
        Z = np.array([[[1.0, 3.0]], [[1.0, 0.0]]])
        bank = PrimitiveBank([0, 1], Z, np.ones(2, dtype=bool))
        weights = ClassifierWeights([0, 1], Z.mean(axis=1), np.ones(2, dtype=bool))
        st = ModelState(
            bank=bank,
            weights=weights,
            hp=Hyperparams(),
            sessions_seen=1,
            class_sessions={0: 0, 1: 0},
            loss_history={0: []},
        )
        batch = FeatureBatch(
            X=np.array([[[2.0, 1.0], [0.0, 5.0]]]), labels=[0], sessions=[0], sample_ids=["s"]
        )
        doc = retrieval_export(st, batch, top_k=3)
        assert doc["nearest_primitives"]["0"] == [
            {"primitive": 0, "nearest_class": 1, "nearest_primitive": 0, "distance": 3.0}
        ]
        assert doc["nearest_primitives"]["1"][0]["distance"] == 3.0
        assert len(doc["top_patches"]["0"]) == 2
        assert "1" not in doc["top_patches"]

    def test_single_class_bank_has_no_pairings(self):
        Z = np.array([[[1.0, 3.0], [2.0, 0.5]]])
        bank = PrimitiveBank([7], Z, np.ones(1, dtype=bool))
        weights = ClassifierWeights([7], Z.mean(axis=1), np.ones(1, dtype=bool))
        st = ModelState(
            bank=bank,
            weights=weights,
            hp=Hyperparams(),
            sessions_seen=1,
            class_sessions={7: 0},
            loss_history={0: []},
        )
        batch = FeatureBatch(
            X=np.array([[[2.0, 1.0]]]), labels=[7], sessions=[0], sample_ids=["s"]
        )
        doc = retrieval_export(st, batch)
        assert doc["nearest_primitives"]["7"] == []

    def test_errors(self, state, ds):
        with pytest.raises(InvalidInput):
            retrieval_export(state, ds.test[0], top_k=0)
        bad = FeatureBatch(
            X=ds.test[0].X[:1], labels=[99], sessions=[0], sample_ids=["x"]
        )
        with pytest.raises(InvalidInput, match="not registered"):
            retrieval_export(state, bad)

    def test_pairing_ties_go_to_the_lowest_row(self):
        # class 0's primitive is 1 away from class 1's second row and class
        # 2's first row alike; the lower flat row (class 1) wins
        Z = np.array([[[0.0, 0.0], [9.0, -9.0]], [[5.0, 5.0], [1.0, 0.0]], [[0.0, 1.0], [7.0, 7.0]]])
        st = ModelState(
            bank=PrimitiveBank([0, 1, 2], Z, np.ones(3, dtype=bool)),
            weights=ClassifierWeights([0, 1, 2], Z.mean(axis=1), np.ones(3, dtype=bool)),
            hp=Hyperparams(),
            sessions_seen=1,
            class_sessions={0: 0, 1: 0, 2: 0},
            loss_history={0: []},
        )
        batch = FeatureBatch(X=np.array([[[1.0, 0.0], [0.0, 2.0]]]), labels=[0], sessions=[0], sample_ids=["s"])
        first = retrieval_export(st, batch, top_k=1)["nearest_primitives"]["0"][0]
        assert first == {"primitive": 0, "nearest_class": 1, "nearest_primitive": 1, "distance": 1.0}

    def test_pairing_memory_stays_per_class(self):
        # 125 classes x 16 primitives: the full distance table would hold
        # 2000^2 floats (32 MB); one class's rows against all hold 256 KB
        rng = np.random.default_rng(22)
        ids = list(range(125))
        Z = rng.standard_normal((125, 16, 8))
        st = ModelState(
            bank=PrimitiveBank(ids, Z, np.ones(125, dtype=bool)),
            weights=ClassifierWeights(ids, Z.mean(axis=1), np.ones(125, dtype=bool)),
            hp=Hyperparams(n_primitives=16),
            sessions_seen=1,
            class_sessions={c: 0 for c in ids},
            loss_history={0: []},
        )
        batch = FeatureBatch(X=np.abs(Z[:2, :4]), labels=[0, 1], sessions=[0, 0], sample_ids=["a", "b"])
        tracemalloc.start()
        try:
            doc = retrieval_export(st, batch, top_k=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(doc["nearest_primitives"]) == 125
        assert peak < 4 * 2**20

    def test_pairing_distances_match_direct_computation(self):
        # the export searches in the GEMM form but reports the distance of
        # the explicit difference ||a - b||^2, so it equals a per-class
        # brute-force search bit for bit
        rng = np.random.default_rng(21)
        for _ in range(20):
            cnum = int(rng.integers(2, 5))
            npr = int(rng.integers(1, 4))
            d = int(rng.integers(2, 8))
            Z = rng.standard_normal((cnum, npr, d))
            bank = PrimitiveBank(list(range(cnum)), Z, np.ones(cnum, dtype=bool))
            weights = ClassifierWeights(
                list(range(cnum)), rng.standard_normal((cnum, d)), np.ones(cnum, dtype=bool)
            )
            st = ModelState(
                bank=bank,
                weights=weights,
                hp=Hyperparams(),
                sessions_seen=1,
                class_sessions={c: 0 for c in range(cnum)},
                loss_history={0: []},
            )
            batch = FeatureBatch(
                X=rng.standard_normal((1, 2, d)),
                labels=[0],
                sessions=[0],
                sample_ids=["s"],
            )
            doc = retrieval_export(st, batch, top_k=cnum * npr)
            flat = Z.reshape(cnum * npr, d)
            for ci in range(cnum):
                entries = doc["nearest_primitives"][str(ci)]
                assert len(entries) == npr
                seen = set()
                for e in entries:
                    own = Z[ci, e["primitive"]]
                    others = np.array(
                        [flat[j] for j in range(cnum * npr) if j // npr != ci]
                    )
                    want = float(np.sqrt(((others - own) ** 2).sum(axis=1).min()))
                    assert e["distance"] == want
                    seen.add(e["primitive"])
                assert seen == set(range(npr))


class TestReuseRetention:
    def test_zero_ratio_is_exactly_100(self, state, ds):
        pts = reuse_retention_eval(state, ds.test, [0.0], seed=0)
        assert pts[0].retention == 100.0

    def test_zero_ratio_is_exactly_100_where_the_quotient_rounds(self):
        # 13 of 15 novel maps right: 100 * a / a is 100.00000000000001 here
        st = perfect_state()
        st.class_sessions = {0: 0, 1: 1, 2: 1}
        Z = st.bank.Z
        labels = [1] * 7 + [2] * 6 + [2] * 2
        maps = [Z[1]] * 7 + [Z[2]] * 6 + [Z[1]] * 2
        novel = FeatureBatch(
            X=np.stack(maps), labels=labels, sessions=[1] * 15,
            sample_ids=[f"n{i}" for i in range(15)],
        )
        pts = reuse_retention_eval(st, {1: novel}, [0.0])
        assert pts[0].novel_accuracy == 100.0 * 13 / 15
        assert 100.0 * pts[0].novel_accuracy / pts[0].novel_accuracy != 100.0
        assert pts[0].retention == 100.0

    def test_retention_is_percent_of_unreplaced_accuracy(self, state, ds):
        pts = reuse_retention_eval(state, ds.test, [0.0, 0.5, 1.0], seed=0)
        original = pts[0].novel_accuracy
        for p in pts:
            assert abs(p.retention - 100.0 * p.novel_accuracy / original) < 1e-12
            assert p.retention > 0.0

    def test_deterministic_for_a_seed(self, state, ds):
        a = reuse_retention_eval(state, ds.test, [0.5], seed=3)
        b = reuse_retention_eval(state, ds.test, [0.5], seed=3)
        assert a[0].novel_accuracy == b[0].novel_accuracy

    def test_base_only_state_rejected(self, ds):
        st = train_base(ds.train[0], HP)
        with pytest.raises(InvalidInput, match="no novel classes"):
            reuse_retention_eval(st, {0: ds.test[0]}, [0.5])

    def test_missing_novel_test_data_rejected(self, state, ds):
        with pytest.raises(InvalidInput, match="no novel-session test data"):
            reuse_retention_eval(state, {0: ds.test[0]}, [0.5])

    def test_empty_novel_test_data_rejected(self, state, ds):
        with pytest.raises(InvalidInput, match="empty"):
            reuse_retention_eval(state, {1: _empty_like(ds.test[1])}, [0.5])

    def test_zero_original_accuracy_rejected(self):
        st = perfect_state()
        st.class_sessions = {0: 0, 1: 1, 2: 1}
        Z = st.bank.Z
        swapped = FeatureBatch(
            X=np.stack([Z[1], Z[2]]),
            labels=[2, 1],
            sessions=[1, 1],
            sample_ids=["w0", "w1"],
        )
        with pytest.raises(DegenerateInput, match="retention"):
            reuse_retention_eval(st, {1: swapped}, [0.5])


class TestPrimitiveCountSweep:
    def test_single_size_equals_ordinary_run(self, state, ds):
        res = primitive_count_sweep(ds, [HP.n_primitives], HP)
        want = evaluate_sessions(state, ds.test)
        got = res[HP.n_primitives]
        assert got.overall_curve() == want.overall_curve()
        assert got.performance_drop == want.performance_drop

    def test_more_primitives_beat_one_here(self, ds):
        res = primitive_count_sweep(ds, [1, HP.n_primitives], HP)
        assert sorted(res) == [1, HP.n_primitives]
        assert res[HP.n_primitives].sessions[-1].overall > res[1].sessions[-1].overall

    def test_table_lists_each_size(self, ds):
        res = primitive_count_sweep(ds, [1, HP.n_primitives], HP)
        text = sweep_table(res)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].lstrip().startswith("1")

    def test_bad_sizes_rejected(self, ds):
        with pytest.raises(InvalidInput):
            primitive_count_sweep(ds, [0, 4], HP)
        with pytest.raises(InvalidInput):
            primitive_count_sweep(ds, [], HP)


class TestThroughputBench:
    def test_reports_median_of_rep_times(self, state, ds):
        res = throughput_bench(state, ds.test[0], reps=3)
        assert len(res.reps) == 3
        assert res.median_seconds == float(np.median(res.reps))
        assert all(t > 0 for t in res.reps)
        assert res.n_maps == len(ds.test[0])
        assert res.n_classes == state.bank.n_classes

    def test_accepts_raw_arrays(self, state, ds):
        res = throughput_bench(state, np.asarray(ds.test[0].X), reps=1)
        assert res.n_maps == len(ds.test[0])

    def test_bad_reps_rejected(self, state, ds):
        with pytest.raises(InvalidInput):
            throughput_bench(state, ds.test[0], reps=0)
