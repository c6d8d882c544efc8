"""The benchmark's workloads: inputs made from a seed, the stage calls each
round makes, and the checks run on what those calls return.

Every workload runs the same stages, so every run reports every metric:

    setup      synth_generate + save/load_dataset (eval-wide: plus building
               the wide frozen state and maps, and a checkpoint round trip)
    base_fit   train_base
    inc_fit    train_incremental for every session, summed
    eval       evaluate_sessions (composition head)
    interpret  importance_filter_eval + retrieval_export
    reuse      reuse_retention_eval
    score_ref  score_matrix + argmax at the README reference size
    compare    cka_rc between two representations of one batch

The workloads differ in the shapes that drive each layer's cost; see the
README for why each exists.  A round calls every stage a fixed number of
times, and a run makes whole rounds until its time is spent.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from compset import cka, data, losses, primitives, protocol, training

import checks

SETUP_REPS = 3


@dataclass(frozen=True)
class Reps:
    """Calls of each stage per round; sub-second stages repeat."""

    base_fit: int = 1
    eval: int = 1
    interpret: int = 1
    reuse: int = 1
    score_ref: int = 1
    compare: int = 1


@dataclass(frozen=True)
class Gaussian:
    """A frozen state of gaussian primitive blocks, and test maps made of
    noisy copies of one class's primitives each (so the answer is known)."""

    session_classes: tuple[int, ...]
    maps_per_session: int
    n_primitives: int = 16
    channels: int = 512
    patches: int = 64
    sigma: float = 0.1
    noise: float = 0.05


@dataclass(frozen=True)
class Spec:
    synth: data.SynthConfig
    hp: losses.Hyperparams
    keep: tuple[int, ...]  # importance-filter keep counts; the last keeps every patch
    ratios: tuple[float, ...]  # reuse sweep; includes 0
    reps: Reps
    ref: Gaussian  # score_ref sizes
    wide: Gaussian | None = None  # eval/interpret/reuse on this state instead
    compare: tuple[int, int, int] | None = None  # (b, p, q) for generated representations


REF = Gaussian(session_classes=(100,), maps_per_session=100)
TINY_REF = Gaussian(session_classes=(5,), maps_per_session=5, n_primitives=3, channels=16, patches=6)


def _tiny_synth(seed: int, sessions: int) -> data.SynthConfig:
    return data.SynthConfig(
        seed=seed, pool_size=10, primitives_per_class=3, shared_patches=4, distractor_patches=2,
        channels=8, base_classes=4, incremental_sessions=sessions, classes_per_session=2, shots=2,
        test_per_class=3, train_per_base_class=6,
    )


def _tiny_hp(seed: int) -> losses.Hyperparams:
    return losses.Hyperparams(seed=seed, n_primitives=3, base_epochs=1, inc_epochs=2, batch_size=8)


def spec_of(name: str, seed: int, tiny: bool = False) -> Spec:
    if name == "pipeline-default":
        if tiny:
            return Spec(_tiny_synth(seed, 2), _tiny_hp(seed), (2, 6), (0.0, 0.5), Reps(), TINY_REF)
        return Spec(
            data.SynthConfig(seed=seed),
            losses.Hyperparams(seed=seed, base_epochs=4),
            keep=(4, 16), ratios=(0.0, 0.5),
            reps=Reps(base_fit=2, eval=10, interpret=3, reuse=10, score_ref=7, compare=10),
            ref=REF,
        )
    if name == "sessions-long":
        if tiny:
            return Spec(_tiny_synth(seed, 3), _tiny_hp(seed), (2, 6), (0.0, 0.5), Reps(), TINY_REF)
        return Spec(
            data.SynthConfig(seed=seed, incremental_sessions=8),
            losses.Hyperparams(seed=seed, base_epochs=2),
            keep=(4, 16), ratios=(0.0, 0.5),
            reps=Reps(base_fit=3, eval=5, interpret=3, reuse=4, score_ref=7, compare=6),
            ref=REF,
        )
    if name == "eval-wide":
        if tiny:
            return Spec(
                replace(_tiny_synth(seed, 1), channels=16), _tiny_hp(seed), (2, 6), (0.0, 0.5), Reps(),
                TINY_REF,
                wide=Gaussian((6, 4, 4), 2, n_primitives=3, channels=16, patches=6),
                compare=(40, 16, 8),
            )
        return Spec(
            # a small trained model at the reference feature size (64 x 512)
            data.SynthConfig(
                seed=seed, channels=512, shared_patches=40, distractor_patches=24, pool_size=40,
                base_classes=8, incremental_sessions=1, classes_per_session=5, shots=5,
                train_per_base_class=6, test_per_class=4,
            ),
            # k-means init is most of a one-epoch fit here and its iteration
            # count varies by seed, so six epochs of SGD keep the fit steady
            losses.Hyperparams(seed=seed, base_epochs=6, inc_epochs=10),
            keep=(8, 64), ratios=(0.0, 1.0 / 16.0),
            reps=Reps(base_fit=2, eval=3, interpret=1, reuse=1, score_ref=7, compare=5),
            ref=REF,
            wide=Gaussian(session_classes=(200,) * 5, maps_per_session=20),
            compare=(3000, 512, 256),
        )
    raise KeyError(name)


WORKLOADS = ("pipeline-default", "sessions-long", "eval-wide")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def gaussian_state(g: Gaussian, seed: int) -> training.ModelState:
    """Frozen state with one gaussian block per class, classes numbered in
    session order."""
    ids = list(range(sum(g.session_classes)))
    bank = primitives.init_primitive_bank(
        ids, g.n_primitives, g.channels, scheme="gaussian", seed=seed, sigma=g.sigma
    )
    bank.frozen[:] = True
    weights = losses.ClassifierWeights(ids, bank.Z.mean(axis=1), np.ones(len(ids), dtype=bool))
    sessions = np.repeat(np.arange(len(g.session_classes)), g.session_classes)
    return training.ModelState(
        bank=bank,
        weights=weights,
        hp=losses.Hyperparams(seed=seed, n_primitives=g.n_primitives),
        sessions_seen=len(g.session_classes),
        class_sessions={c: int(s) for c, s in zip(ids, sessions)},
        loss_history={},
    )


def copy_maps(g: Gaussian, state: training.ModelState, seed: int) -> dict[int, data.FeatureBatch]:
    """Per session, maps_per_session maps of distinct classes; each map
    tiles its class's primitives to `patches` rows and adds noise."""
    rng = np.random.default_rng([seed, 7])
    Z = state.bank.Z
    out = {}
    lo = 0
    for k, count in enumerate(g.session_classes):
        labels = np.sort(rng.choice(np.arange(lo, lo + count), size=g.maps_per_session, replace=False))
        rows = np.arange(g.patches) % g.n_primitives
        X = Z[labels][:, rows, :] + g.noise * rng.standard_normal((len(labels), g.patches, g.channels))
        out[k] = data.FeatureBatch(
            X=X, labels=labels, sessions=np.full(len(labels), k),
            sample_ids=[f"w{k}-{int(c)}" for c in labels],
        )
        lo += count
    return out


def _roundtrip_dataset(ds, directory: Path):
    data.save_dataset(ds, directory)
    return data.load_dataset(directory)


def _roundtrip_checkpoint(state, directory: Path):
    training.save_checkpoint(state, directory)
    return training.load_checkpoint(directory)


def _concat(tests: dict) -> data.FeatureBatch:
    return data.FeatureBatch.concat([tests[k] for k in sorted(tests)])


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Recorder:
    """Counts operations, keeps timing samples per end-to-end metric, and
    opens a span per operation when a tracer is attached."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        """One operation: returns (seconds, result)."""
        self.attempted += 1
        try:
            with self.span(name):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            raise
        return dt, out

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


@dataclass
class Inputs:
    ds: data.SynthDataset
    wide: training.ModelState | None = None
    wide_tests: dict | None = None


def setup(spec: Spec, seed: int, workdir: Path, rec: Recorder) -> Inputs:
    """Builds the workload's inputs through the data layer (timed as setup_s)."""
    _, ds = rec.call("data.synth_generate", data.synth_generate, spec.synth)
    _, ds = rec.call("data.dataset_roundtrip", _roundtrip_dataset, ds, workdir / "dataset")
    if spec.wide is None:
        return Inputs(ds)
    _, state = rec.call("bench.gaussian_state", gaussian_state, spec.wide, seed)
    _, tests = rec.call("bench.copy_maps", copy_maps, spec.wide, state, seed)
    _, state = rec.call("training.checkpoint_roundtrip", _roundtrip_checkpoint, state, workdir / "wide")
    return Inputs(ds, state, tests)


def setup_ops(spec: Spec) -> int:
    return 2 if spec.wide is None else 5


def round_ops(spec: Spec) -> int:
    r = spec.reps
    return (r.base_fit + spec.synth.incremental_sessions + r.eval + 2 * r.interpret
            + r.reuse + r.score_ref + r.compare)


@dataclass
class Outputs:
    """What the first round returned, kept for the checks after the run."""

    trained: training.ModelState
    report: protocol.EvalReport
    filtered: dict
    export: dict
    reuse: list
    ref_pred: np.ndarray
    compare: float


def run_round(spec: Spec, inp: Inputs, ref, compare_reps, rec: Recorder):
    """One round of every stage.  Returns the last call's outputs, the
    digest of every base fit, and the representations compared."""
    ds, seed, reps = inp.ds, spec.hp.seed, spec.reps
    digests = []
    for _ in range(reps.base_fit):
        dt, state = rec.call("training.train_base", training.train_base, ds.train[0], spec.hp)
        rec.add("base_fit_s", dt)
        digests.append(checks.digest(state))
    with rec.span("stage.inc_fit"):
        total = 0.0
        for k in range(1, ds.n_sessions):
            before = checks.state_bytes(state)
            dt, new = rec.call("training.train_incremental", training.train_incremental, state, ds.train[k])
            checks.check_frozen(before, state, new)
            state, total = new, total + dt
        rec.add("inc_fit_s", total)
    trained = state

    eval_state = inp.wide if inp.wide is not None else trained
    eval_tests = inp.wide_tests if inp.wide is not None else ds.test
    eval_full = _concat(eval_tests)
    task_full = _concat(ds.test)
    ref_state, ref_maps = ref
    if compare_reps is None:
        compare_reps = baseline_representations(trained, task_full)
    A, B = compare_reps
    got = {}

    def evaluate():
        dt, got["report"] = rec.call(
            "protocol.evaluate_sessions", protocol.evaluate_sessions, eval_state, eval_tests
        )
        rec.add("eval_s", dt)

    def interpret():
        dt1, got["filtered"] = rec.call(
            "protocol.importance_filter_eval", protocol.importance_filter_eval,
            eval_state, eval_full, spec.keep,
        )
        dt2, got["export"] = rec.call("protocol.retrieval_export", protocol.retrieval_export, trained, task_full)
        rec.add("interpret_s", dt1 + dt2)

    def reuse():
        dt, got["reuse"] = rec.call(
            "protocol.reuse_retention_eval", protocol.reuse_retention_eval,
            eval_state, eval_tests, list(spec.ratios), seed=seed,
        )
        rec.add("reuse_s", dt)

    def score_ref():
        dt, got["ref_pred"] = rec.call(
            "bench.score_ref", lambda: protocol.score_matrix(ref_state, ref_maps.X).argmax(axis=1)
        )
        rec.add("score_ref_s", dt)

    def compare():
        dt, got["compare"] = rec.call("cka.cka_rc", cka.cka_rc, A, B)
        rec.add("compare_s", dt)

    # the short stages take turns, so each one's samples spread over the
    # whole stretch rather than one burst the host may happen to slow down
    turns = [(reps.eval, evaluate), (reps.interpret, interpret), (reps.reuse, reuse),
             (reps.score_ref, score_ref), (reps.compare, compare)]
    for i in range(max(n for n, _ in turns)):
        for n, stage in turns:
            if i < n:
                stage()
    return Outputs(trained, **got), digests, compare_reps


def baseline_representations(state, batch) -> tuple[np.ndarray, np.ndarray]:
    """Mean patch features and the cosine head's logits of the same maps,
    computed here rather than by the package."""
    f = batch.X.mean(axis=1)
    fh = f / np.linalg.norm(f, axis=1, keepdims=True)
    W = state.weights.W
    return f, fh @ (W / np.linalg.norm(W, axis=1, keepdims=True)).T


def generated_representations(b: int, p: int, q: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two views of one batch: gaussian features and a random tanh layer."""
    rng = np.random.default_rng([seed, 11])
    A = rng.standard_normal((b, p))
    return A, np.tanh(A @ rng.standard_normal((p, q)) / np.sqrt(p))


# ---------------------------------------------------------------------------
# Checks after the run (untimed, untraced)
# ---------------------------------------------------------------------------


def check_outputs(spec: Spec, inp: Inputs, ref, compare_reps, out: Outputs, seed: int) -> None:
    """Every check of the README's list on one round's outputs."""
    rng = np.random.default_rng([seed, 13])
    trained = out.trained
    checks.check_finite_losses(trained.loss_history)

    eval_state = inp.wide if inp.wide is not None else trained
    eval_full = _concat(inp.wide_tests if inp.wide is not None else inp.ds.test)
    X3, Z, alpha = eval_full.X, eval_state.bank.Z, eval_state.hp.alpha
    scores = protocol.score_matrix(eval_state, X3)
    pairs = checks.sample_pairs(rng, len(X3), len(Z), 30)
    checks.check_scores(scores, X3, Z, alpha, pairs)
    imps = [cka.patch_importance(cka.power_transform(X3[i], alpha), Z[j]) for i, j in pairs]
    checks.check_importances(imps, X3, Z, alpha, pairs)
    col_of = {c: j for j, c in enumerate(eval_state.bank.class_ids)}
    label_cols = np.array([col_of[int(c)] for c in eval_full.labels])
    class_session = np.array([eval_state.class_sessions[c] for c in eval_state.bank.class_ids])
    checks.check_report(out.report.sessions, scores, label_cols, class_session)
    checks.check_keep_all(out.filtered, X3.shape[1], scores, label_cols)
    checks.check_filtered(out.filtered, X3, Z, alpha, checks.argmax_lowest(scores), label_cols)
    checks.check_retention(out.reuse, checks.novel_accuracy(scores, label_cols, class_session))
    if inp.wide is not None:
        checks.check_generating_class(scores, label_cols)

    task_classes = trained.bank.class_ids
    picks = sorted({int(task_classes[0]), int(task_classes[-1]), int(rng.choice(task_classes))})
    checks.check_nearest_pairings(out.export, task_classes, trained.bank.Z, picks)

    ref_state, ref_maps = ref
    ref_scores = protocol.score_matrix(ref_state, ref_maps.X)
    checks.check_scores(ref_scores, ref_maps.X, ref_state.bank.Z, ref_state.hp.alpha,
                        checks.sample_pairs(rng, len(ref_maps.X), ref_state.bank.n_classes, 10))
    checks.check_generating_class(ref_scores, ref_maps.labels)
    if not np.array_equal(out.ref_pred, ref_maps.labels):
        checks.fail("score_ref predictions differ from the generating classes")

    A, B = compare_reps
    checks.check_cka_rc(out.compare, A, B)
    check_trained_gradient(trained, _concat(inp.ds.test), rng)


def check_trained_gradient(state, batch, rng) -> None:
    """Central differences on six coordinates of the total loss at the
    trained parameters, every block and row unmasked."""
    sub = batch.subset(np.sort(rng.choice(len(batch), size=min(4, len(batch)), replace=False)))
    donors = training.donor_map_of(state)
    Wshape, Zshape = state.weights.W.shape, state.bank.Z.shape
    ids = list(state.bank.class_ids)
    ones = np.ones(len(ids), dtype=bool)

    def loss_grad(theta):
        W = theta[: np.prod(Wshape)].reshape(Wshape)
        Z = theta[np.prod(Wshape):].reshape(Zshape)
        return losses.total_loss_and_grad(
            sub, primitives.PrimitiveBank(ids, Z, ~ones), losses.ClassifierWeights(ids, W, ~ones),
            donors, state.hp, trainable_z=ones, trainable_w=ones,
        )

    theta = np.concatenate([state.weights.W.ravel(), state.bank.Z.ravel()])
    _, g = loss_grad(theta)
    analytic = np.concatenate([g.dW.ravel(), g.dZ.ravel()])
    coords = list(np.argsort(-np.abs(analytic))[:3]) + list(rng.choice(len(theta), size=3, replace=False))
    checks.check_gradient(lambda t: loss_grad(t)[0], theta, analytic, [int(i) for i in coords])


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]  # end-to-end values
    samples: dict[str, list[float]]
    rounds: int
    digest: str
    problems: list[str]


def run(name: str, seed: int, seconds: float, workdir: Path, tracer=None, tiny: bool = False) -> Result:
    """Set up three times, make whole rounds until `seconds` are spent,
    then check the first round's outputs with the tracer detached."""
    spec = spec_of(name, seed, tiny)
    rec = Recorder(tracer)
    setups = []
    for i in range(SETUP_REPS):
        with rec.span("stage.setup"):
            t0 = time.perf_counter()
            inp = setup(spec, seed, workdir / f"setup{i}", rec)
            setups.append(time.perf_counter() - t0)

    ref_state = gaussian_state(spec.ref, seed + 1)
    ref = (ref_state, copy_maps(spec.ref, ref_state, seed + 1)[0])
    compare_reps = generated_representations(*spec.compare, seed) if spec.compare else None

    problems: list[str] = []
    base_digests: set[str] = set()
    final_digests: set[str] = set()
    first_out = None
    rounds = 0
    durations: list[float] = []
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) + statistics.median(durations) <= seconds:
        rounds += 1
        t0 = time.perf_counter()
        done = rec.attempted
        try:
            with rec.span("round"):
                out, digests, compare_reps = run_round(spec, inp, ref, compare_reps, rec)
        except checks.CheckFailed as e:
            problems.append(f"round {rounds}: {e}")
            break
        except Exception:
            # an operation raised: the rest of the round counts as failed
            traceback.print_exc(file=sys.stderr)
            missing = round_ops(spec) - (rec.attempted - done)
            rec.attempted += missing
            rec.failed += missing
            durations.append(time.perf_counter() - t0)
            continue
        durations.append(time.perf_counter() - t0)
        if first_out is None:
            first_out = out
        base_digests.update(digests)
        final_digests.add(checks.digest(out.trained))
    if tracer is not None:
        tracer.unwrap()
    if first_out is None and not problems:
        raise RuntimeError(f"{name}: no round finished")
    if len(base_digests) > 1 or len(final_digests) > 1:
        problems.append("repeated fits of the same inputs gave different banks or weights")
    if first_out is not None and not problems:
        try:
            check_outputs(spec, inp, ref, compare_reps, first_out, seed)
        except checks.CheckFailed as e:
            problems.append(str(e))

    med = {k: statistics.median(v) for k, v in rec.samples.items()}
    n_eval = sum(len(b) for b in (inp.wide_tests or inp.ds.test).values())
    metrics = {
        "setup_s": statistics.median(setups),
        "base_fit_s": med.get("base_fit_s"),
        "inc_fit_s": med.get("inc_fit_s"),
        "eval_maps_per_s": n_eval / med["eval_s"] if "eval_s" in med else None,
        "interpret_s": med.get("interpret_s"),
        "reuse_s": med.get("reuse_s"),
        "score_ref_maps_per_s": len(ref[1]) / med["score_ref_s"] if "score_ref_s" in med else None,
        "compare_s": med.get("compare_s"),
    }
    return Result(
        correct=not problems,
        attempted=rec.attempted,
        failed=rec.failed,
        metrics=metrics,
        samples={"setup_s": setups, **rec.samples},
        rounds=rounds,
        digest=checks.digest(first_out.trained) if first_out else "",
        problems=problems,
    )
