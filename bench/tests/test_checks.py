"""Every correctness check accepts the package's real output and rejects a
corrupted copy of it."""

import copy
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import CheckFailed
from compset import cka, data, protocol, training
from workloads import _tiny_hp, _tiny_synth, check_trained_gradient


@pytest.fixture(scope="module")
def run():
    ds = data.synth_generate(_tiny_synth(5, 2))
    hp = _tiny_hp(5)
    base = training.train_base(ds.train[0], hp)
    before = checks.state_bytes(base)
    state = training.train_incremental(base, ds.train[1])
    state = training.train_incremental(state, ds.train[2])
    full = data.FeatureBatch.concat([ds.test[k] for k in sorted(ds.test)])
    col_of = {c: j for j, c in enumerate(state.bank.class_ids)}
    return {
        "ds": ds, "base": base, "before": before, "state": state, "full": full,
        "scores": protocol.score_matrix(state, full.X),
        "label_cols": np.array([col_of[int(c)] for c in full.labels]),
        "class_session": np.array([state.class_sessions[c] for c in state.bank.class_ids]),
    }


def pairs_of(run, k=12):
    return checks.sample_pairs(np.random.default_rng(0), len(run["full"]), run["state"].bank.n_classes, k)


def test_scores(run):
    X3, Z, alpha = run["full"].X, run["state"].bank.Z, run["state"].hp.alpha
    pairs = pairs_of(run)
    checks.check_scores(run["scores"], X3, Z, alpha, pairs)
    for corrupt in (lambda s: s.__setitem__(pairs[3], s[pairs[3]] + 1e-7),
                    lambda s: s.__setitem__((1, 1), 1.5),
                    lambda s: s.__setitem__((2, 0), np.nan)):
        bad = run["scores"].copy()
        corrupt(bad)
        with pytest.raises(CheckFailed):
            checks.check_scores(bad, X3, Z, alpha, pairs)
    with pytest.raises(CheckFailed):
        checks.check_scores(run["scores"][:, :-1], X3, Z, alpha, pairs)


def test_importances(run):
    X3, Z, alpha = run["full"].X, run["state"].bank.Z, run["state"].hp.alpha
    pairs = pairs_of(run)
    imps = [cka.patch_importance(cka.power_transform(X3[i], alpha), Z[j]) for i, j in pairs]
    checks.check_importances(imps, X3, Z, alpha, pairs)
    scaled = [imp * (1.0 + 1e-6) for imp in imps]
    with pytest.raises(CheckFailed):
        checks.check_importances(scaled, X3, Z, alpha, pairs)
    shifted = [imp.copy() for imp in imps]
    shifted[0][0] -= shifted[0].sum() + 1.0  # negative entry
    with pytest.raises(CheckFailed):
        checks.check_importances(shifted, X3, Z, alpha, pairs)


def test_report(run):
    report = protocol.evaluate_sessions(run["state"], run["ds"].test)
    args = (run["scores"], run["label_cols"], run["class_session"])
    checks.check_report(report.sessions, *args)
    for key, value in (("overall", report.sessions[1].overall + 0.01), ("n_candidates", 1),
                       ("novel", None), ("base", report.sessions[0].base - 1.0)):
        bad = copy.deepcopy(report.sessions)
        setattr(bad[1], key, value)
        with pytest.raises(CheckFailed):
            checks.check_report(bad, *args)
    with pytest.raises(CheckFailed):
        checks.check_report(report.sessions[:-1], *args)


def test_generating_class():
    scores = np.array([[0.9, 0.1, 0.1], [0.2, 0.8, 0.1], [0.5, 0.5, 0.4]])
    checks.check_generating_class(scores, [0, 1, 0])  # tie goes to the lowest column
    with pytest.raises(CheckFailed):
        checks.check_generating_class(scores, [0, 1, 1])


def test_keep_all(run):
    n = run["full"].X.shape[1]
    filtered = protocol.importance_filter_eval(run["state"], run["full"], [2, n])
    checks.check_keep_all(filtered, n, run["scores"], run["label_cols"])
    with pytest.raises(CheckFailed):
        checks.check_keep_all({**filtered, n: filtered[n] - 0.5}, n, run["scores"], run["label_cols"])
    with pytest.raises(CheckFailed):
        checks.check_keep_all({2: filtered[2]}, n, run["scores"], run["label_cols"])


def test_filtered(run):
    X3, Z, alpha = run["full"].X, run["state"].bank.Z, run["state"].hp.alpha
    n = X3.shape[1]
    filtered = protocol.importance_filter_eval(run["state"], run["full"], [1, 2, n])
    rank = checks.argmax_lowest(run["scores"])
    checks.check_filtered(filtered, X3, Z, alpha, rank, run["label_cols"])
    np.testing.assert_allclose(checks.stack_similarity(X3, Z, alpha), run["scores"], rtol=0, atol=1e-12)
    for k in (1, 2):
        bad = dict(filtered)
        bad[k] += 100.0 / len(X3)  # one more map right
        with pytest.raises(CheckFailed):
            checks.check_filtered(bad, X3, Z, alpha, rank, run["label_cols"])


def test_retention(run):
    points = protocol.reuse_retention_eval(run["state"], run["ds"].test, [0.0, 0.5])
    novel = checks.novel_accuracy(run["scores"], run["label_cols"], run["class_session"])
    checks.check_retention(points, novel)
    for field, value in (("novel_accuracy", points[0].novel_accuracy + 1.0), ("retention", 99.0),
                         ("ratio", 0.25)):
        bad = copy.deepcopy(points)
        setattr(bad[0], field, value)
        with pytest.raises(CheckFailed):
            checks.check_retention(bad, novel)


def test_nearest_pairings(run):
    state = run["state"]
    export = protocol.retrieval_export(state, run["full"])
    ids = state.bank.class_ids
    checks.check_nearest_pairings(export, ids, state.bank.Z, ids)
    bad = copy.deepcopy(export)
    bad["nearest_primitives"][str(ids[0])][0]["distance"] *= 1.001
    with pytest.raises(CheckFailed):
        checks.check_nearest_pairings(bad, ids, state.bank.Z, ids[:1])
    bad = copy.deepcopy(export)
    entries = bad["nearest_primitives"][str(ids[0])]
    far = max(entries, key=lambda e: e["distance"])
    entries[0] = dict(far, primitive=entries[0]["primitive"])  # no longer the nearest
    with pytest.raises(CheckFailed):
        checks.check_nearest_pairings(bad, ids, state.bank.Z, ids[:1])


def test_cka_rc():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((60, 7))
    B = np.tanh(A @ rng.standard_normal((7, 5)))
    value = cka.cka_rc(A, B)
    checks.check_cka_rc(value, A, B)
    with pytest.raises(CheckFailed):
        checks.check_cka_rc(value + 1e-7, A, B)


def test_finite_losses(run):
    checks.check_finite_losses(run["state"].loss_history)
    bad = {k: list(v) for k, v in run["state"].loss_history.items()}
    bad[1][-1] = float("nan")
    with pytest.raises(CheckFailed):
        checks.check_finite_losses(bad)
    with pytest.raises(CheckFailed):
        checks.check_finite_losses({0: []})


def test_frozen(run):
    base, new = run["base"], training.train_incremental(run["base"], run["ds"].train[1])
    checks.check_frozen(run["before"], base, new)
    mutated = copy.deepcopy(base)
    mutated.bank.Z[0, 0, 0] += 1e-12
    with pytest.raises(CheckFailed):
        checks.check_frozen(run["before"], mutated, new)
    moved = copy.deepcopy(new)
    moved.weights.W[0, 0] = np.nextafter(moved.weights.W[0, 0], np.inf)
    with pytest.raises(CheckFailed):
        checks.check_frozen(run["before"], base, moved)
    thawed = copy.deepcopy(new)
    thawed.bank.frozen[-1] = False
    with pytest.raises(CheckFailed):
        checks.check_frozen(run["before"], base, thawed)


def test_gradient(run):
    rng = np.random.default_rng(2)
    check_trained_gradient(run["state"], run["full"], rng)

    def quadratic(t):
        return float(0.5 * t @ t)

    theta = np.linspace(-1.0, 1.0, 5)
    checks.check_gradient(quadratic, theta, theta.copy(), range(5))
    with pytest.raises(CheckFailed):
        checks.check_gradient(quadratic, theta, theta * 1.001, range(5))


def test_digest(run):
    state = run["state"]
    assert checks.digest(state) == checks.digest(copy.deepcopy(state))
    other = copy.deepcopy(state)
    other.bank.Z[-1, -1, -1] = np.nextafter(other.bank.Z[-1, -1, -1], np.inf)
    assert checks.digest(other) != checks.digest(state)


def test_set_similarity_matches_definition():
    # the benchmark's reference against a loop over patch pairs
    rng = np.random.default_rng(3)
    X, Z = np.abs(rng.standard_normal((6, 9))), rng.standard_normal((4, 9))
    Xt = np.sign(X) * np.abs(X) ** 0.8
    Xc = Xt - Xt.mean(axis=1, keepdims=True)
    Zc = Z - Z.mean(axis=1, keepdims=True)
    num = sum((Xc[i] @ Zc[k]) ** 2 for i in range(6) for k in range(4))
    den = np.sqrt(sum((Xc[i] @ Xc[j]) ** 2 for i in range(6) for j in range(6)))
    den *= np.sqrt(sum((Zc[i] @ Zc[j]) ** 2 for i in range(4) for j in range(4)))
    assert checks.set_similarity(X, Z, 0.8) == pytest.approx(num / den, rel=1e-12)


def test_checks_do_not_import_the_package():
    source = Path(checks.__file__).read_text()
    assert "import compset" not in source and "from compset" not in source
