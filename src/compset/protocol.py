"""Few-shot class-incremental evaluation and the analysis suite.

Because every session freezes its parameters, one final state answers all
per-session questions: restricting its registries to the classes of
sessions <= k reproduces the exact state after session k.  evaluate_sessions
therefore scores each test sample once against every class and slices the
score matrix per session.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cka import composition_scores_stack, cosine_scores_stack, patch_importance, power_transform
from .data import FeatureBatch, SynthDataset
from .errors import DegenerateInput, InvalidInput
from .losses import Hyperparams
from .numkit import _nearest_rows
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

    def overall_curve(self) -> list[float]:
        return [s.overall for s in self.sessions]

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
    raises NumericalFailure.
    """
    if head not in HEADS:
        raise InvalidInput(f"head must be one of {HEADS}, got {head!r}")
    X3 = np.asarray(X3, dtype=np.float64)
    if not np.all(np.isfinite(X3)):
        raise InvalidInput("maps contain non-finite values")
    if head == "composition":
        return composition_scores_stack(X3, state.bank.Z, state.hp.alpha, on_degenerate="zero")
    if head == "baseline":  # one row a side: mean patch feature against weight row
        return cosine_scores_stack(X3.mean(axis=1)[:, None], state.weights.W[:, None])
    return cosine_scores_stack(X3, state.bank.Z, "mean" if head == "allmatch" else "max")


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
    for k, b in zip(range(nses), batches):
        bad = set(int(c) for c in b.labels) - set(state.bank.class_ids)
        if bad:
            raise InvalidInput(f"session {k} test labels not registered: {sorted(bad)}")
    full = FeatureBatch.concat(batches) if len(batches) > 1 else batches[0]
    scores = score_matrix(state, full.X, head)
    col_of = {c: i for i, c in enumerate(state.bank.class_ids)}
    true_cols = np.array([col_of[int(c)] for c in full.labels])
    sample_session = np.array(
        [state.class_sessions[int(c)] for c in full.labels]
    )  # class entry session, not batch provenance

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
        confusion: dict[int, dict[int, int]] = {}
        for t, p in zip(ids[truth], ids[pred_cols]):
            confusion.setdefault(int(t), {}).setdefault(int(p), 0)
            confusion[int(t)][int(p)] += 1
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
    patch index), keep k, re-score.  Keeping every patch reproduces the
    full-map predictions exactly.  ``rank_by_true_label`` ranks against the
    labeled class instead; deployment has no labels, so it is analysis-only.
    """
    if head != "composition":
        raise InvalidInput("patch filtering is defined for the composition head")
    if len(test_batch) == 0:
        raise InvalidInput("test batch is empty")
    keep = sorted({int(k) for k in keep_counts})
    n = test_batch.X.shape[1]
    if not keep or keep[0] < 1 or keep[-1] > n:
        raise InvalidInput(f"keep counts must lie in [1, {n}]")
    X3 = np.asarray(test_batch.X, dtype=np.float64)
    col_lookup = {c: j for j, c in enumerate(state.bank.class_ids)}
    if rank_by_true_label:
        rank_col = np.array([col_lookup[int(c)] for c in test_batch.labels])
    else:
        scores = score_matrix(state, X3, "composition")
        rank_col = np.argmax(scores, axis=1)
    alpha = state.hp.alpha
    order = np.empty((len(X3), n), dtype=np.int64)
    for i in range(len(X3)):
        xt = power_transform(X3[i], alpha)
        imp = patch_importance(xt, state.bank.Z[rank_col[i]])
        order[i] = np.argsort(-imp, kind="stable")
    truth = np.array([col_lookup[int(c)] for c in test_batch.labels])
    out: dict[int, float] = {}
    for k in keep:
        sel = np.sort(order[:, :k], axis=1)
        xk = np.take_along_axis(X3, sel[:, :, None], axis=1)
        sk = score_matrix(state, xk, "composition")
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
    X3 = np.asarray(batch.X, dtype=np.float64)
    col_of = {c: j for j, c in enumerate(state.bank.class_ids)}
    bad = set(int(c) for c in batch.labels) - set(state.bank.class_ids)
    if bad:
        raise InvalidInput(f"labels not registered: {sorted(bad)}")
    per_class: dict[int, list[tuple[float, int, str]]] = {c: [] for c in state.bank.class_ids}
    for i in range(len(X3)):
        c = int(batch.labels[i])
        xt = power_transform(X3[i], state.hp.alpha)
        imp = patch_importance(xt, state.bank.Z[col_of[c]])
        per_class[c].extend((float(v), p, batch.sample_ids[i]) for p, v in enumerate(imp))
    patches = {}
    for c, triples in per_class.items():
        if not triples:
            continue
        triples.sort(key=lambda t: (-t[0], t[2], t[1]))
        patches[str(c)] = [
            {"patch": p, "sample": sid, "importance": v} for v, p, sid in triples[:top_k]
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


def reuse_retention_eval(
    state: ModelState, test_sets: dict[int, FeatureBatch], ratios, seed: int = 0
) -> list[ReusePoint]:
    """Novel accuracy after hard-replacing a ratio of novel primitives with
    their nearest frozen base primitives.

    retention = 100 * replaced / original novel accuracy; ratio 0.0 is
    exactly 100.  Can exceed 100 when replacement helps.
    """
    novel_ids = [c for c, s in state.class_sessions.items() if s >= 1]
    if not novel_ids:
        raise InvalidInput("state has no novel classes to replace")
    novel_batches = [test_sets[k] for k in sorted(test_sets) if k >= 1]
    if not novel_batches:
        raise InvalidInput("no novel-session test data")
    full = FeatureBatch.concat(novel_batches) if len(novel_batches) > 1 else novel_batches[0]
    if len(full) == 0:
        raise InvalidInput("novel-session test sets are empty")
    X3 = np.asarray(full.X, dtype=np.float64)
    if not np.all(np.isfinite(X3)):
        raise InvalidInput("maps contain non-finite values")
    novel_cols = np.array([state.bank.class_ids.index(c) for c in sorted(novel_ids)])
    col_of = {c: j for j, c in enumerate(sorted(novel_ids))}
    truth = np.array([col_of[int(c)] for c in full.labels])

    def novel_acc(Z: np.ndarray) -> float:
        # only the novel blocks compete, so only they are scored
        sc = composition_scores_stack(X3, Z[novel_cols], state.hp.alpha, on_degenerate="zero")
        return 100.0 * float(np.mean(np.argmax(sc, axis=1) == truth))

    original = novel_acc(state.bank.Z)
    if original <= 0.0:
        raise DegenerateInput("original novel accuracy is zero; retention undefined")
    out = []
    for j, r in enumerate(float(r) for r in ratios):
        sub_seed = int(seed_sequence(seed, "reuse-ratio", j).generate_state(1)[0])
        bank_r = hard_nearest_replace(
            state.bank, sorted(novel_ids), state.base_class_ids, r, seed=sub_seed
        )
        if r == 0.0:  # nothing was replaced
            out.append(ReusePoint(ratio=r, novel_accuracy=original, retention=100.0))
            continue
        acc = novel_acc(bank_r.Z)
        out.append(ReusePoint(ratio=r, novel_accuracy=acc, retention=100.0 * acc / original))
    return out


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


@dataclass
class BenchResult:
    n_maps: int
    n_classes: int
    reps: list[float]
    median_seconds: float


def throughput_bench(state: ModelState, maps: FeatureBatch | np.ndarray, reps: int = 5) -> BenchResult:
    """Median wall time of scoring + argmax over ``reps`` repetitions."""
    if reps < 1:
        raise InvalidInput("reps must be >= 1")
    X3 = np.asarray(maps.X if hasattr(maps, "X") else maps, dtype=np.float64)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        scores = score_matrix(state, X3, "composition")
        scores.argmax(axis=1)
        times.append(time.perf_counter() - t0)
    return BenchResult(
        n_maps=len(X3),
        n_classes=state.bank.n_classes,
        reps=times,
        median_seconds=float(np.median(times)),
    )
