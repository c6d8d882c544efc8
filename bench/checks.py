"""Correctness checks on compset's outputs, computed apart from the package.

Each check takes what the program returned plus the inputs it was given,
recomputes the quantity from its definition (or tests a property the method
must have) with plain NumPy, and raises ``CheckFailed`` on disagreement.
Nothing here imports compset, so a fault in the package cannot leak into
the reference it is compared with.
"""

from __future__ import annotations

import hashlib

import numpy as np

# float64 results that should agree to rounding: a few ulps of O(1) values
TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def fail(msg: str):
    raise CheckFailed(msg)


def power(X: np.ndarray, alpha: float) -> np.ndarray:
    return np.sign(X) * np.abs(X) ** alpha


def set_similarity(X: np.ndarray, Z: np.ndarray, alpha: float) -> float:
    """Linear CKA over rows of the power-transformed map and a primitive set:
    ||Xc Zc^T||_F^2 / (||Xc Xc^T||_F ||Zc Zc^T||_F), rows centered across
    channels."""
    Xc = power(X, alpha)
    Xc = Xc - Xc.mean(axis=1, keepdims=True)
    Zc = Z - Z.mean(axis=1, keepdims=True)
    num = np.linalg.norm(Xc @ Zc.T) ** 2
    return float(num / (np.linalg.norm(Xc @ Xc.T) * np.linalg.norm(Zc @ Zc.T)))


def sample_pairs(rng: np.random.Generator, n_rows: int, n_cols: int, k: int) -> list[tuple[int, int]]:
    """k (row, col) pairs, always including the first and the last cell."""
    rows = rng.integers(n_rows, size=k)
    cols = rng.integers(n_cols, size=k)
    pairs = [(0, 0), (n_rows - 1, n_cols - 1)]
    pairs += [(int(r), int(c)) for r, c in zip(rows, cols)]
    return pairs


def check_scores(scores, X3, Zstack, alpha, pairs) -> None:
    """Every score finite and in [0, 1]; sampled cells equal the formula."""
    scores = np.asarray(scores)
    if scores.shape != (len(X3), len(Zstack)):
        fail(f"score matrix shape {scores.shape}, want {(len(X3), len(Zstack))}")
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        fail("a composition score is non-finite or outside [0, 1]")
    for i, j in pairs:
        want = set_similarity(X3[i], Zstack[j], alpha)
        if abs(scores[i, j] - want) > TOL:
            fail(f"score[{i}, {j}] = {scores[i, j]!r}, formula gives {want!r}")


def check_importances(importances, X3, Zstack, alpha, pairs) -> None:
    """Per-patch importances are nonnegative and sum to the pair's score."""
    for (i, j), imp in zip(pairs, importances):
        imp = np.asarray(imp)
        if imp.shape != (X3.shape[1],) or np.any(imp < 0.0):
            fail(f"importances of pair ({i}, {j}) are malformed or negative")
        want = set_similarity(X3[i], Zstack[j], alpha)
        if abs(float(imp.sum()) - want) > TOL:
            fail(f"importances of pair ({i}, {j}) sum to {imp.sum()!r}, score is {want!r}")


def argmax_lowest(scores: np.ndarray) -> np.ndarray:
    """Row argmax; np.argmax returns the first maximum, so ties go to the
    lowest column, which is the lowest class id in bank order."""
    return np.argmax(scores, axis=1)


def session_accuracies(scores, label_cols, class_session) -> list[dict]:
    """Overall/base/novel accuracy per session from one score matrix.

    Session k classifies the samples of classes from sessions <= k among
    the columns of those classes; novel accuracy classifies samples of
    novel classes among novel columns only.
    """
    scores = np.asarray(scores)
    label_cols = np.asarray(label_cols)
    class_session = np.asarray(class_session)
    sample_session = class_session[label_cols]
    out = []
    for k in range(int(class_session.max()) + 1):
        cand = np.flatnonzero(class_session <= k)
        rows = np.flatnonzero(sample_session <= k)
        pred = cand[argmax_lowest(scores[np.ix_(rows, cand)])]
        hit = pred == label_cols[rows]
        base = sample_session[rows] == 0
        entry = {
            "n_samples": len(rows),
            "n_candidates": len(cand),
            "overall": 100.0 * hit.sum() / len(rows),
            "base": 100.0 * hit[base].sum() / base.sum(),
            "novel": None,
        }
        if k >= 1:
            ncols = cand[class_session[cand] >= 1]
            nrows = rows[~base]
            npred = ncols[argmax_lowest(scores[np.ix_(nrows, ncols)])]
            entry["novel"] = 100.0 * (npred == label_cols[nrows]).sum() / len(nrows)
        out.append(entry)
    return out


def check_report(report_sessions, scores, label_cols, class_session) -> None:
    """An evaluate_sessions report agrees with the benchmark's own slicing."""
    want = session_accuracies(scores, label_cols, class_session)
    if len(report_sessions) != len(want):
        fail(f"report has {len(report_sessions)} sessions, want {len(want)}")
    for k, (got, ref) in enumerate(zip(report_sessions, want)):
        for key in ("n_samples", "n_candidates"):
            if getattr(got, key) != ref[key]:
                fail(f"session {k}: {key} = {getattr(got, key)}, want {ref[key]}")
        for key in ("overall", "base", "novel"):
            g, r = getattr(got, key), ref[key]
            if (g is None) != (r is None) or (r is not None and abs(g - r) > TOL):
                fail(f"session {k}: {key} accuracy {g!r}, recomputed {r!r}")


def check_generating_class(scores, label_cols) -> None:
    """Maps built from one class's primitives score highest on that class."""
    pred = argmax_lowest(np.asarray(scores))
    wrong = np.flatnonzero(pred != np.asarray(label_cols))
    if len(wrong):
        fail(f"{len(wrong)} maps do not score highest on their generating class (first: {wrong[0]})")


def check_keep_all(filter_acc: dict, n_patches: int, scores, label_cols) -> None:
    """Keeping every patch reproduces the full-map accuracy."""
    if n_patches not in filter_acc:
        fail(f"importance filter did not report keep count {n_patches}")
    want = 100.0 * float(np.mean(argmax_lowest(np.asarray(scores)) == np.asarray(label_cols)))
    if abs(filter_acc[n_patches] - want) > TOL:
        fail(f"keeping all {n_patches} patches gives {filter_acc[n_patches]!r}, full maps give {want!r}")
    for k, acc in filter_acc.items():
        if not 0.0 <= acc <= 100.0:
            fail(f"filtered accuracy at keep {k} is {acc!r}")


def stack_similarity(X3: np.ndarray, Zstack: np.ndarray, alpha: float) -> np.ndarray:
    """The same score for every (map, class) pair, in chunks of maps that
    keep the (maps, n, C, N) product near 2**22 elements."""
    Xt = power(X3, alpha)
    Xc = Xt - Xt.mean(axis=2, keepdims=True)
    Zc = Zstack - Zstack.mean(axis=2, keepdims=True)
    B, n, d = Xc.shape
    C, N, _ = Zc.shape
    zn = np.linalg.norm(np.einsum("cnd,cmd->cnm", Zc, Zc), axis=(1, 2))
    out = np.empty((B, C))
    step = max(1, 2**22 // (n * C * N))
    for lo in range(0, B, step):
        x = Xc[lo:lo + step]
        prod = (x.reshape(-1, d) @ Zc.reshape(C * N, d).T).reshape(len(x), n, C, N)
        xn = np.linalg.norm(np.einsum("bnd,bmd->bnm", x, x), axis=(1, 2))
        out[lo:lo + step] = (prod * prod).sum(axis=(1, 3)) / (xn[:, None] * zn[None, :])
    return out


def check_filtered(filter_acc: dict, X3, Zstack, alpha, rank_cols, label_cols) -> None:
    """Each map keeps its k patches of largest importance for its ranking
    class (ties to the lowest patch index); rescoring the kept patches
    gives the reported accuracy."""
    Xt = power(X3, alpha)
    Xc = Xt - Xt.mean(axis=2, keepdims=True)
    Zr = Zstack[np.asarray(rank_cols)]
    Zc = Zr - Zr.mean(axis=2, keepdims=True)
    imp = (np.einsum("bnd,bmd->bnm", Xc, Zc) ** 2).sum(axis=2)
    order = np.argsort(-imp, axis=1, kind="stable")
    for k, acc in filter_acc.items():
        if k == X3.shape[1]:
            continue  # keeping every patch is check_keep_all's case
        keep = np.sort(order[:, :k], axis=1)
        pred = argmax_lowest(stack_similarity(np.take_along_axis(X3, keep[:, :, None], axis=1), Zstack, alpha))
        want = 100.0 * float(np.mean(pred == np.asarray(label_cols)))
        if abs(acc - want) > TOL:
            fail(f"keeping {k} patches gives {acc!r}, recomputed {want!r}")


def novel_accuracy(scores, label_cols, class_session) -> float:
    """Accuracy of novel-class samples among the novel columns only."""
    label_cols = np.asarray(label_cols)
    class_session = np.asarray(class_session)
    ncols = np.flatnonzero(class_session >= 1)
    nrows = np.flatnonzero(class_session[label_cols] >= 1)
    pred = ncols[argmax_lowest(np.asarray(scores)[np.ix_(nrows, ncols)])]
    return 100.0 * float(np.mean(pred == label_cols[nrows]))


def check_retention(points, unreplaced_novel_acc: float) -> None:
    """Replacing a ratio of 0 changes nothing: the novel accuracy is the
    unreplaced one, so retention is 100.  The package divides to get it,
    so it is compared to 100 up to rounding, not bit for bit."""
    zero = [p for p in points if p.ratio == 0.0]
    if not zero:
        fail("the reuse sweep has no ratio-0 point")
    if abs(zero[0].novel_accuracy - unreplaced_novel_acc) > TOL:
        fail(f"novel accuracy at ratio 0 is {zero[0].novel_accuracy!r}, "
              f"unreplaced it is {unreplaced_novel_acc!r}")
    if abs(zero[0].retention - 100.0) > 100.0 * TOL:
        fail(f"retention at ratio 0 is {zero[0].retention!r}, not 100")
    if not all(np.isfinite(p.retention) and p.retention >= 0.0 for p in points):
        fail("a retention value is negative or non-finite")


def check_nearest_pairings(export: dict, class_ids, Zstack, sample_classes) -> None:
    """Reported nearest-primitive pairings: the distance matches the two
    rows, and no other class's primitive is strictly closer."""
    C, N, d = Zstack.shape
    flat = Zstack.reshape(C * N, d)
    owner = np.repeat(np.arange(C), N)
    col_of = {int(c): j for j, c in enumerate(class_ids)}
    for c in sample_classes:
        entries = export["nearest_primitives"].get(str(c))
        if not entries:
            fail(f"class {c} has no nearest-primitive entries")
        ci = col_of[int(c)]
        for e in entries:
            mine = Zstack[ci, e["primitive"]]
            other = Zstack[col_of[e["nearest_class"]], e["nearest_primitive"]]
            dist = float(np.linalg.norm(mine - other))
            best = float(np.linalg.norm(flat[owner != ci] - mine, axis=1).min())
            if abs(e["distance"] - dist) > 1e-6 or e["distance"] > best + 1e-6:
                fail(f"class {c} primitive {e['primitive']}: distance {e['distance']!r}, "
                      f"rows give {dist!r}, nearest is {best!r}")


def feature_space_cka(A: np.ndarray, B: np.ndarray) -> float:
    """||Ac^T Bc||_F^2 / (||Ac^T Ac||_F ||Bc^T Bc||_F), columns centered
    over the batch (Kornblith et al. 2019, eq. 5 for the linear kernel)."""
    Ac = A - A.mean(axis=0)
    Bc = B - B.mean(axis=0)
    return float(np.linalg.norm(Ac.T @ Bc) ** 2 / (np.linalg.norm(Ac.T @ Ac) * np.linalg.norm(Bc.T @ Bc)))


def check_cka_rc(value: float, A, B) -> None:
    want = feature_space_cka(A, B)
    if not abs(value - want) <= TOL * max(1.0, abs(want)):
        fail(f"cka_rc gives {value!r}, the feature-space form gives {want!r}")


def check_finite_losses(loss_history: dict) -> None:
    for session, values in loss_history.items():
        if not values or not np.all(np.isfinite(values)):
            fail(f"session {session} recorded an empty or non-finite loss")


def state_bytes(state) -> dict:
    """A byte snapshot of everything train_incremental must leave alone."""
    return {
        "Z": state.bank.Z.tobytes(),
        "W": state.weights.W.tobytes(),
        "frozen_z": state.bank.frozen.tobytes(),
        "frozen_w": state.weights.frozen.tobytes(),
        "ids": list(state.bank.class_ids),
        "sessions": dict(state.class_sessions),
        "history": {k: list(v) for k, v in state.loss_history.items()},
        "seen": state.sessions_seen,
    }


def check_frozen(before: dict, old_state, new_state) -> None:
    """The input state is unmutated, and its blocks and rows come back
    byte-identical at the front of the new state."""
    if state_bytes(old_state) != before:
        fail("train_incremental mutated its input state")
    c = len(before["ids"])
    if new_state.bank.class_ids[:c] != before["ids"]:
        fail("earlier classes changed order or identity")
    if new_state.bank.Z[:c].tobytes() != before["Z"]:
        fail("an earlier primitive block changed")
    if new_state.weights.W[:c].tobytes() != before["W"]:
        fail("an earlier classifier row changed")
    if not (new_state.bank.frozen.all() and new_state.weights.frozen.all()):
        fail("the returned state is not fully frozen")


def check_gradient(loss_at, theta: np.ndarray, analytic: np.ndarray, coords, eps: float = 1e-5) -> None:
    """Central differences on a few coordinates of a flat parameter vector."""
    for i in coords:
        up = theta.copy()
        up[i] += eps
        down = theta.copy()
        down[i] -= eps
        numeric = (loss_at(up) - loss_at(down)) / (2.0 * eps)
        if not abs(numeric - analytic[i]) <= 1e-4 * abs(numeric) + 1e-7:
            fail(f"gradient coordinate {i}: analytic {analytic[i]!r}, central difference {numeric!r}")


def digest(state) -> str:
    """sha256 over the final bank and classifier weights."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(state.bank.Z).tobytes())
    h.update(np.ascontiguousarray(state.weights.W).tobytes())
    return h.hexdigest()
