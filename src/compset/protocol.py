"""Few-shot class-incremental evaluation and the analysis suite.

Because every session freezes its parameters, one final state answers all
per-session questions: restricting its registries to the classes of
sessions <= k reproduces the exact state after session k.  evaluate_sessions
therefore scores each test sample once against every class and slices the
score matrix per session.

Each analysis prepares its maps once (`cka.prepare_maps`) for every call
that scores them.  The reuse analysis scores the unreplaced bank and every
replaced one; where the kernel's product form would run, it does so from
one table of row contributions (`cka.edited_scores`), since a replaced bank
differs from the unreplaced one only in the rows hard replacement copied in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .cka import (
    PreparedMaps,
    _gram_form,
    composition_scores_stack,
    cosine_scores_stack,
    edited_scores,
    patch_importance,
    prepare_maps,
)
from .data import FeatureBatch, SynthDataset
from .errors import DegenerateInput, InvalidInput
from .losses import Hyperparams
from .numkit import _nearest_rows, _positions
from .primitives import hard_nearest_replace
from .seeding import seed_sequence
from .training import ModelState, train_base, train_incremental

HEADS = ("composition", "baseline", "allmatch", "maxmatch")


@dataclass
class SessionSchedule:
    """Class layout across sessions: one base set, then few-shot sets."""

    base_classes: list[int]
    incremental_classes: list[list[int]]
    shots: int

    def validate(self) -> None:
        seen: set[int] = set()
        for group in [self.base_classes, *self.incremental_classes]:
            if not group:
                raise InvalidInput("a session has no classes")
            g = set(group)
            if len(g) != len(group) or (seen & g):
                raise InvalidInput("class sets must be disjoint and duplicate-free")
            seen |= g
        if self.shots < 1:
            raise InvalidInput("shots must be >= 1")

    @property
    def n_sessions(self) -> int:
        return 1 + len(self.incremental_classes)


def schedule_of(ds: SynthDataset) -> SessionSchedule:
    return SessionSchedule(
        base_classes=ds.classes_of_session(0),
        incremental_classes=[ds.classes_of_session(k) for k in range(1, ds.config.n_sessions)],
        shots=ds.config.shots,
    )


@dataclass
class SessionEval:
    session: int
    n_samples: int
    n_candidates: int
    overall: float
    base: float
    novel: float | None
    confusion: dict[int, dict[int, int]]


@dataclass
class EvalReport:
    head: str
    seed: int
    sessions: list[SessionEval]
    performance_drop: float

    def to_json_dict(self) -> dict:
        return {
            "head": self.head,
            "seed": self.seed,
            "performance_drop": self.performance_drop,
            "sessions": [
                {
                    **{k: v for k, v in asdict(s).items() if k != "confusion"},
                    "confusion": {
                        str(t): {str(p): c for p, c in row.items()}
                        for t, row in s.confusion.items()
                    },
                }
                for s in self.sessions
            ],
        }

    def to_text(self) -> str:
        lines = [f"head={self.head} seed={self.seed}"]
        lines.append(f"{'session':>7}  {'classes':>7}  {'samples':>7}  {'overall':>7}  {'base':>7}  {'novel':>7}")
        for s in self.sessions:
            novel = f"{s.novel:7.2f}" if s.novel is not None else "      -"
            lines.append(
                f"{s.session:>7}  {s.n_candidates:>7}  {s.n_samples:>7}  "
                f"{s.overall:7.2f}  {s.base:7.2f}  {novel}"
            )
        lines.append(f"performance drop: {self.performance_drop:.2f}")
        return "\n".join(lines)


def performance_drop(overalls) -> float:
    """First-session overall minus last-session overall, at the 2-decimal
    precision accuracy tables report (raw float subtraction cannot hit the
    published values exactly)."""
    vals = [float(v) for v in overalls]
    if not vals:
        raise InvalidInput("need at least one overall accuracy")
    if not all(np.isfinite(v) for v in vals):
        raise InvalidInput("accuracies must be finite")
    return round(vals[0] - vals[-1], 2)


def score_matrix(state: ModelState, X3: np.ndarray, head: str = "composition") -> np.ndarray:
    """(B, C) scores of every map against every registered class.

    Non-finite maps raise InvalidInput: one NaN would turn a whole score
    row into NaN, which argmax reads as a vote for the first class.  For
    the same reason a finite map that overflows the composition kernel
    raises NumericalFailure.  The composition head also takes
    `PreparedMaps` of finite maps, prepared at the state's alpha.
    """
    if head not in HEADS:
        raise InvalidInput(f"head must be one of {HEADS}, got {head!r}")
    if isinstance(X3, PreparedMaps):
        if head != "composition":
            raise InvalidInput("prepared maps are scored by the composition head only")
    else:
        X3 = np.asarray(X3, dtype=np.float64)
        if not np.all(np.isfinite(X3)):
            raise InvalidInput("maps contain non-finite values")
    if head == "composition":
        return composition_scores_stack(X3, state.bank.Z, state.hp.alpha, on_degenerate="zero")
    if head == "baseline":  # one row a side: mean patch feature against weight row
        return cosine_scores_stack(X3.mean(axis=1)[:, None], state.weights.W[:, None])
    return cosine_scores_stack(X3, state.bank.Z, "mean" if head == "allmatch" else "max")


def _prepared(X3, alpha: float) -> PreparedMaps:
    """Finite maps prepared once, for every scoring call of one analysis."""
    X3 = np.asarray(X3, dtype=np.float64)
    if not np.all(np.isfinite(X3)):
        raise InvalidInput("maps contain non-finite values")
    return prepare_maps(X3, alpha)


def evaluate_sessions(
    state: ModelState, test_sets: dict[int, FeatureBatch], head: str = "composition"
) -> EvalReport:
    """Per-session metrics from the final frozen state.

    Session k scores the union of test sets 0..k over the classes of
    sessions 0..k; ties in argmax go to the lowest class id (bank order).
    Novel accuracy classifies novel-session samples among novel classes
    only; base accuracy is over base-session samples in the full candidate
    set.
    """
    nses = state.sessions_seen
    missing = [k for k in range(nses) if k not in test_sets]
    if missing:
        raise InvalidInput(f"missing test sets for sessions {missing}")
    empty = [k for k in range(nses) if len(test_sets[k]) == 0]
    if empty:
        raise InvalidInput(f"empty test sets for sessions {empty}")
    ids = np.array(state.bank.class_ids)
    session_of = np.array([state.class_sessions[c] for c in state.bank.class_ids])
    batches = [test_sets[k] for k in range(nses)]
    true_cols = np.concatenate(
        [_positions(ids, b.labels, f"session {k} test labels") for k, b in enumerate(batches)]
    )
    X3 = np.concatenate([b.X for b in batches]) if len(batches) > 1 else batches[0].X
    scores = score_matrix(state, X3, head)
    sample_session = session_of[true_cols]  # class entry session, not batch provenance
    ncls = len(ids)

    out: list[SessionEval] = []
    for k in range(nses):
        cand_cols = np.flatnonzero(session_of <= k)
        rows = np.flatnonzero(sample_session <= k)
        sub = scores[np.ix_(rows, cand_cols)]
        pred_cols = cand_cols[np.argmax(sub, axis=1)]
        truth = true_cols[rows]
        correct = pred_cols == truth
        overall = 100.0 * float(np.mean(correct))
        is_base = sample_session[rows] == 0
        base_acc = 100.0 * float(np.mean(correct[is_base]))
        novel_acc = None
        if k >= 1:
            novel_cols = cand_cols[session_of[cand_cols] >= 1]
            nrows = rows[~is_base]
            nsub = scores[np.ix_(nrows, novel_cols)]
            npred = novel_cols[np.argmax(nsub, axis=1)]
            novel_acc = 100.0 * float(np.mean(npred == true_cols[nrows]))
        # one count per (truth, prediction) cell that occurs
        counts = np.bincount(truth * ncls + pred_cols)
        cells = np.flatnonzero(counts)
        confusion: dict[int, dict[int, int]] = {}
        for t, p, c in zip(ids[cells // ncls].tolist(), ids[cells % ncls].tolist(), counts[cells].tolist()):
            confusion.setdefault(t, {})[p] = c
        out.append(
            SessionEval(
                session=k,
                n_samples=len(rows),
                n_candidates=len(cand_cols),
                overall=overall,
                base=base_acc,
                novel=novel_acc,
                confusion=confusion,
            )
        )
    return EvalReport(
        head=head,
        seed=state.hp.seed,
        sessions=out,
        performance_drop=performance_drop([s.overall for s in out]),
    )


def run_sessions(ds: SynthDataset, hp: Hyperparams) -> ModelState:
    """Base fit plus every incremental session of a dataset."""
    schedule_of(ds).validate()
    state = train_base(ds.train[0], hp)
    for k in range(1, ds.n_sessions):
        state = train_incremental(state, ds.train[k])
    return state


def importance_filter_eval(
    state: ModelState,
    test_batch: FeatureBatch,
    keep_counts,
    head: str = "composition",
    rank_by_true_label: bool = False,
) -> dict[int, float]:
    """Accuracy after keeping only the top-k patches per sample.

    Ranking: score the full map over all classes, take the argmax class,
    rank patches by their importance for that class (ties to the lowest
    patch index), keep k, re-score.  Keeping every patch keeps every map
    byte for byte, so its accuracy comes from the full-map scores.
    ``rank_by_true_label`` ranks against the labeled class instead;
    deployment has no labels, so it is analysis-only.
    """
    if head != "composition":
        raise InvalidInput("patch filtering is defined for the composition head")
    if len(test_batch) == 0:
        raise InvalidInput("test batch is empty")
    keep = sorted({int(k) for k in keep_counts})
    n = test_batch.X.shape[1]
    if not keep or keep[0] < 1 or keep[-1] > n:
        raise InvalidInput(f"keep counts must lie in [1, {n}]")
    truth = _positions(state.bank.class_ids, test_batch.labels, "labels")
    maps = _prepared(test_batch.X, state.hp.alpha)
    full = score_matrix(state, maps, "composition") if keep[-1] == n or not rank_by_true_label else None
    rank_col = truth if rank_by_true_label else np.argmax(full, axis=1)
    imp = patch_importance(maps, state.bank.Z[rank_col])
    order = np.argsort(-imp, axis=1, kind="stable")
    out: dict[int, float] = {}
    for k in keep:
        if k == n:
            sk = full
        else:
            sel = np.sort(order[:, :k], axis=1)
            sk = score_matrix(state, maps.keep_patches(sel), "composition")
        out[k] = 100.0 * float(np.mean(np.argmax(sk, axis=1) == truth))
    return out


def retrieval_export(state: ModelState, batch: FeatureBatch, top_k: int = 5) -> dict:
    """Per-class top patches and cross-class nearest-primitive pairings.

    For each registered class with samples in ``batch``: the ``top_k``
    (patch index, sample id, importance) triples ranked by importance of
    the labeled class.  For each class: its ``top_k`` tightest pairings
    (primitive index, other class, other index, euclidean distance).
    JSON-ready; consumers render patches from the ids.
    """
    if top_k < 1:
        raise InvalidInput("top_k must be >= 1")
    labels = np.asarray(batch.labels, dtype=np.int64)
    cols = _positions(state.bank.class_ids, labels, "labels")
    imp = patch_importance(_prepared(batch.X, state.hp.alpha), state.bank.Z[cols])
    n = imp.shape[1]
    # ties in importance go to the lowest sample id, then the lowest patch
    sid_rank = np.unique(np.asarray(batch.sample_ids, dtype=str), return_inverse=True)[1]
    patches = {}
    for c in state.bank.class_ids:
        rows = np.flatnonzero(labels == c)
        if not len(rows):
            continue
        vals = imp[rows].ravel()
        top = np.lexsort((np.tile(np.arange(n), len(rows)), np.repeat(sid_rank[rows], n), -vals))[:top_k]
        patches[str(c)] = [
            {"patch": int(t % n), "sample": batch.sample_ids[rows[t // n]], "importance": float(vals[t])}
            for t in top
        ]
    z = state.bank.Z
    cnum, npr, _ = z.shape
    flat = z.reshape(cnum * npr, -1)
    owner = np.repeat(np.arange(cnum), npr)
    pairings = {str(c): [] for c in state.bank.class_ids}
    for ci, c in enumerate(state.bank.class_ids if cnum > 1 else []):
        # one class's rows against every other class's rows, as the exact
        # difference ||a - b||^2 with ties to the lowest row; the distance
        # table is never larger than one class's rows against all
        own = owner == ci
        nearest, d2 = _nearest_rows(flat[own], flat, skip=own)
        dist = np.sqrt(d2)
        entries = [
            {"primitive": r, "nearest_class": int(state.bank.class_ids[j // npr]),
             "nearest_primitive": int(j % npr), "distance": float(dist[r])}
            for r, j in enumerate(nearest)
        ]
        entries.sort(key=lambda e: e["distance"])
        pairings[str(c)] = entries[:top_k]
    return {"top_patches": patches, "nearest_primitives": pairings}


@dataclass
class ReusePoint:
    ratio: float
    novel_accuracy: float
    retention: float  # percent of the unreplaced novel accuracy


def _replaced_rows(Z: np.ndarray, Zr: np.ndarray, cols: np.ndarray):
    """The rows of the blocks Z[cols] whose bytes differ in Zr, as flat
    indices into Z[cols].reshape(-1, d), and their rows in Zr."""
    npr = Z.shape[1]
    rows = np.flatnonzero((Zr.view(np.int64) != Z.view(np.int64)).any(axis=2)[cols])
    return rows, Zr[cols[rows // npr], rows % npr]


def reuse_retention_eval(
    state: ModelState, test_sets: dict[int, FeatureBatch], ratios, seed: int = 0
) -> list[ReusePoint]:
    """Novel accuracy after hard-replacing a ratio of novel primitives with
    their nearest frozen base primitives.

    retention = 100 * replaced / original novel accuracy; ratio 0.0 is
    exactly 100.  Can exceed 100 when replacement helps.  As in
    evaluate_sessions, only the test sets of sessions 1 .. sessions_seen - 1
    are read; a label among them that is not a novel class raises
    InvalidInput.

    Only the novel blocks compete, so only they are scored, against maps
    prepared once.  Where the kernel takes the Gram form, every bank is one
    kernel call.  Otherwise every bank is scored from one table of row
    contributions (`edited_scores`): a replaced bank keeps every row that
    hard replacement did not overwrite, so it needs only the rows it
    changed, and no replaced bank is kept whole.
    """
    novel_ids = sorted(c for c, s in state.class_sessions.items() if s >= 1)
    if not novel_ids:
        raise InvalidInput("state has no novel classes to replace")
    novel_batches = [test_sets[k] for k in range(1, state.sessions_seen) if k in test_sets]
    if not novel_batches:
        raise InvalidInput("no novel-session test data")
    full = FeatureBatch.concat(novel_batches) if len(novel_batches) > 1 else novel_batches[0]
    if len(full) == 0:
        raise InvalidInput("novel-session test sets are empty")
    ratios = [float(r) for r in ratios]
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise InvalidInput(f"ratios must lie in [0, 1], got {ratios}")
    novel_cols = _positions(state.bank.class_ids, novel_ids, "novel classes")
    truth = _positions(novel_ids, full.labels, "novel-session test labels")
    maps = _prepared(full.X, state.hp.alpha)
    Zn = state.bank.Z[novel_cols]
    gram = _gram_form(maps.shape, Zn.shape)

    def accuracy(scores: np.ndarray) -> float:
        return 100.0 * float(np.mean(np.argmax(scores, axis=1) == truth))

    def kernel_accuracy(Z: np.ndarray) -> float:
        return accuracy(composition_scores_stack(maps, Z, state.hp.alpha, on_degenerate="zero"))

    original = kernel_accuracy(Zn) if gram else None
    replaced = {}  # ratio index -> accuracy (Gram form) or replaced rows
    for j, r in enumerate(ratios):
        if r == 0.0:  # nothing is replaced
            continue
        # the sub-seed follows the ratio's index, so skipping ratio 0 moves no other point
        sub_seed = int(seed_sequence(seed, "reuse-ratio", j).generate_state(1)[0])
        Zr = hard_nearest_replace(state.bank, novel_ids, state.base_class_ids, r, seed=sub_seed).Z
        if gram:
            replaced[j] = kernel_accuracy(Zr[novel_cols])
        else:
            replaced[j] = _replaced_rows(state.bank.Z, Zr, novel_cols)
        del Zr  # one replaced bank at a time
    if not gram:
        # every distinct replacement row (by its bytes) enters the table once
        rows = [r for r, _ in replaced.values()]
        vals = np.concatenate([v for _, v in replaced.values()] or [Zn[:0, 0]])
        keys = vals.view(np.dtype((np.void, vals.itemsize * vals.shape[1]))).reshape(-1)
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        edits = list(zip(rows, np.split(which.reshape(-1), np.cumsum([len(r) for r in rows])[:-1])))
        original, *accs = (accuracy(s) for s in edited_scores(maps, Zn, vals[first], edits))
        replaced = dict(zip(replaced, accs))
    if original <= 0.0:
        raise DegenerateInput("original novel accuracy is zero; retention undefined")
    return [
        ReusePoint(ratio=r, novel_accuracy=original, retention=100.0) if r == 0.0
        else ReusePoint(ratio=r, novel_accuracy=replaced[j], retention=100.0 * replaced[j] / original)
        for j, r in enumerate(ratios)
    ]


def primitive_count_sweep(ds: SynthDataset, n_values, hp: Hyperparams) -> dict[int, EvalReport]:
    """Full pipeline per primitive-set size; reports use the composition head."""
    sizes = sorted({int(n) for n in n_values})
    if not sizes or sizes[0] < 1:
        raise InvalidInput("primitive counts must be >= 1")
    out: dict[int, EvalReport] = {}
    for n in sizes:
        state = run_sessions(ds, replace(hp, n_primitives=n))
        out[n] = evaluate_sessions(state, ds.test, "composition")
    return out


def sweep_table(results: dict[int, EvalReport]) -> str:
    lines = [f"{'N':>4}  {'overall':>7}  {'base':>7}  {'novel':>7}  {'pd':>6}"]
    for n in sorted(results):
        last = results[n].sessions[-1]
        novel = f"{last.novel:7.2f}" if last.novel is not None else "      -"
        lines.append(
            f"{n:>4}  {last.overall:7.2f}  {last.base:7.2f}  {novel}  "
            f"{results[n].performance_drop:6.2f}"
        )
    return "\n".join(lines)

