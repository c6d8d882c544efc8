"""Session training: base fit, few-shot increments, checkpoints.

The base session trains every class's primitives and classifier row; each
incremental session extends the registries, trains only the new blocks
(and, unless disabled, the new classifier rows), and freezes everything on
return.  Because frozen parameters never move again, the final state
restricted to the classes of any earlier session is bit-identical to the
state that existed right after that session.

Every session steps through one SGD loop with its maps prepared
beforehand (`fixed_columns`): the base session prepares its whole
training set once and steps each shuffled minibatch with its rows of it
(`FixedColumns.rows`), an incremental session prepares its shots once
for every epoch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import FeatureBatch, check_json, json_fields, read_tensor, require_key, write_atomic, write_tensor
from .errors import DegenerateInput, InsufficientData, InvalidInput
from .losses import (
    ClassifierWeights,
    FixedColumns,
    Hyperparams,
    fixed_columns,
    total_loss_and_grad,
)
from .primitives import PrimitiveBank, extend_bank, init_primitive_bank
from .seeding import substream


@dataclass
class ModelState:
    """Everything a session leaves behind."""

    bank: PrimitiveBank
    weights: ClassifierWeights
    hp: Hyperparams
    sessions_seen: int
    class_sessions: dict[int, int]
    loss_history: dict[int, list[float]]

    @property
    def base_class_ids(self) -> list[int]:
        return sorted(c for c, s in self.class_sessions.items() if s == 0)

    def classes_of_session(self, session: int) -> list[int]:
        return sorted(c for c, s in self.class_sessions.items() if s == session)


def donor_map_for(base_ids, class_ids) -> dict[int, list[int]]:
    """Donors for every class: all base classes except the class itself."""
    base = [int(b) for b in base_ids]
    return {int(y): [b for b in base if b != y] for y in class_ids}


def donor_map_of(state: "ModelState") -> dict[int, list[int]]:
    return donor_map_for(state.base_class_ids, state.bank.class_ids)


def sgd_step(theta, grad, velocity, lr, momentum, mask=None):
    """One momentum-SGD update: v <- m v + g, theta <- theta - lr v.

    Only the leading rows that mask selects move (None: every row); the
    others keep both theta and velocity bit-identical.  Returns
    (theta', velocity') as new arrays.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    if theta.ndim == 0 or theta.shape != grad.shape or theta.shape != velocity.shape:
        raise InvalidInput("theta, grad and velocity must share a shape with leading rows")
    if not lr > 0 or not 0.0 <= momentum < 1.0:
        raise InvalidInput("need lr > 0 and momentum in [0, 1)")
    mask = np.ones(len(theta), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != theta.shape[:1]:
        raise InvalidInput(f"mask selects from {mask.shape} rows, theta has {len(theta)}")
    t2 = theta.copy()
    v2 = velocity.copy()
    v2[mask] = momentum * velocity[mask] + grad[mask]
    t2[mask] = theta[mask] - lr * v2[mask]
    return t2, v2


def _mean_feature_rows(X3: np.ndarray, labels: np.ndarray, class_ids) -> np.ndarray:
    """Classifier init: per class, mean of row-normalized mean-patch features."""
    f = X3.mean(axis=1)
    norms = np.linalg.norm(f, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInput("a sample's mean patch feature is the zero vector")
    fh = f / norms[:, None]
    rows = np.empty((len(class_ids), X3.shape[2]))
    for i, c in enumerate(class_ids):
        rows[i] = fh[labels == c].mean(axis=0)
    if np.any(np.linalg.norm(rows, axis=1) == 0.0):
        raise DegenerateInput("a class's mean feature direction cancels to zero")
    return rows


def _sgd_epochs(
    bank: PrimitiveBank,
    weights: ClassifierWeights,
    donor_map: dict[int, list[int]],
    hp: Hyperparams,
    epochs,
    trainable_w: np.ndarray | None = None,
    include_cls: bool = True,
) -> list[list[float]]:
    """The momentum-SGD loop of every session, updating bank.Z and
    weights.W in place.

    epochs yields one sequence of (batch, fixed columns) pairs per epoch;
    each batch takes one step on the unfrozen blocks and the trainable_w
    rows (default: the unfrozen ones), with its maps prepared and its
    fixed columns scored beforehand.  Returns every epoch's batch losses
    in order.
    """
    tw = ~weights.frozen if trainable_w is None else trainable_w
    vW, vZ = np.zeros_like(weights.W), np.zeros_like(bank.Z)  # momentum buffers
    out = []
    for batches in epochs:
        out.append([])
        for batch, fixed in batches:
            loss, grads = total_loss_and_grad(
                batch, bank, weights, donor_map, hp, include_cls=include_cls, trainable_w=tw,
                fixed=fixed,
            )
            weights.W, vW = sgd_step(weights.W, grads.dW, vW, hp.lr, hp.momentum, tw)
            bank.Z, vZ = sgd_step(bank.Z, grads.dZ, vZ, hp.lr, hp.momentum, ~bank.frozen)
            out[-1].append(loss)
    return out


def _shuffled_minibatches(batch: FeatureBatch, fixed: FixedColumns, hp: Hyperparams, epoch: int):
    """One epoch's minibatches, each with its rows of the whole set's fixed
    columns, made one at a time."""
    order = substream(hp.seed, "shuffle", 0, epoch).permutation(len(batch))
    step = hp.batch_size
    for lo in range(0, len(batch), step):
        idx = order[lo : lo + step]
        yield batch.subset(idx), fixed.rows(idx)


def train_base(train_batch: FeatureBatch, hp: Hyperparams) -> ModelState:
    """Fit the base session from scratch; all parameters frozen on return."""
    hp.validate()
    X3 = np.asarray(train_batch.X, dtype=np.float64)
    labels = np.asarray(train_batch.labels, dtype=np.int64)
    if X3.ndim != 3 or len(X3) == 0:
        raise InvalidInput("train batch must be a non-empty (B, n, d) stack")
    class_ids = sorted(int(c) for c in set(labels.tolist()))
    if len(class_ids) < 2:
        raise InvalidInput("base session needs at least 2 classes")
    d = X3.shape[2]
    patches = {c: X3[labels == c].reshape(-1, d) for c in class_ids}
    for c, pool in patches.items():
        if pool.shape[0] < 1:
            raise InsufficientData(f"class {c} has no patches")

    bank = init_primitive_bank(
        class_ids,
        hp.n_primitives,
        d,
        scheme=hp.init_scheme,
        seed=hp.seed,
        sigma=hp.init_sigma,
        patches_by_class=patches,
    )
    weights = ClassifierWeights(
        class_ids,
        _mean_feature_rows(X3, labels, class_ids),
        np.zeros(len(class_ids), dtype=bool),
    )
    nsamples = len(train_batch)
    donor_map = donor_map_for(class_ids, class_ids)
    # every column trains, so none is fixed: this prepares the maps once
    fixed = fixed_columns(train_batch, bank, donor_map, hp)
    epochs = (
        _shuffled_minibatches(train_batch, fixed, hp, epoch) for epoch in range(hp.base_epochs)
    )
    sizes = [min(hp.batch_size, nsamples - lo) for lo in range(0, nsamples, hp.batch_size)]
    history = []  # per epoch, sum(loss * n) / N accumulated in batch order
    for losses in _sgd_epochs(bank, weights, donor_map, hp, epochs):
        epoch_loss = 0.0
        for loss, n in zip(losses, sizes):
            epoch_loss += loss * n
        history.append(epoch_loss / nsamples)

    bank.frozen[:] = True
    weights.frozen[:] = True
    return ModelState(
        bank=bank,
        weights=weights,
        hp=hp,
        sessions_seen=1,
        class_sessions={c: 0 for c in class_ids},
        loss_history={0: history},
    )


def train_incremental(state: ModelState, shots: FeatureBatch, hp: Hyperparams | None = None) -> ModelState:
    """Register and fit one few-shot session on top of a frozen state.

    Previously registered blocks and rows come back bit-identical; only the
    new classes train.  Returns a new ModelState; the input is not mutated.
    """
    hp = state.hp if hp is None else hp
    hp.validate()
    X3 = np.asarray(shots.X, dtype=np.float64)
    labels = np.asarray(shots.labels, dtype=np.int64)
    if X3.ndim != 3 or len(X3) == 0:
        raise InvalidInput("shot batch must be a non-empty (B, n, d) stack")
    if X3.shape[2] != state.bank.channels:
        raise InvalidInput("shot channels disagree with the bank")
    new_ids = sorted(int(c) for c in set(labels.tolist()))
    clash = set(new_ids) & set(state.bank.class_ids)
    if clash:
        raise InvalidInput(f"classes already registered: {sorted(clash)}")

    d = X3.shape[2]
    patches = {c: X3[labels == c].reshape(-1, d) for c in new_ids}
    bank = extend_bank(
        state.bank,
        new_ids,
        patches_by_class=patches,
        scheme=hp.init_scheme,
        seed=hp.seed,
        sigma=hp.init_sigma,
    )
    new_rows = _mean_feature_rows(X3, labels, new_ids)
    weights = ClassifierWeights(
        class_ids=list(state.weights.class_ids) + new_ids,
        W=np.concatenate([state.weights.W, new_rows], axis=0),
        frozen=np.concatenate(
            [np.ones(len(state.weights.class_ids), dtype=bool), np.zeros(len(new_ids), dtype=bool)]
        ),
    )
    session = state.sessions_seen
    base_ids = state.base_class_ids
    donor_map = donor_map_for(base_ids, list(bank.class_ids))
    include_cls = hp.train_cls_in_incremental
    tw = ~weights.frozen if include_cls else np.zeros(len(weights.class_ids), dtype=bool)
    # the frozen classes' columns cannot change within the session: score them once
    fixed = fixed_columns(shots, bank, donor_map, hp)
    # one batch per epoch: record its loss itself, since (loss * n) / n is not always loss
    history = [
        loss
        for (loss,) in _sgd_epochs(
            bank, weights, donor_map, hp, [[(shots, fixed)]] * hp.inc_epochs,
            trainable_w=tw, include_cls=include_cls,
        )
    ]

    bank.frozen[:] = True
    weights.frozen[:] = True
    class_sessions = dict(state.class_sessions)
    for c in new_ids:
        class_sessions[c] = session
    loss_history = {k: list(v) for k, v in state.loss_history.items()}
    loss_history[session] = history
    return ModelState(
        bank=bank,
        weights=weights,
        hp=hp,
        sessions_seen=session + 1,
        class_sessions=class_sessions,
        loss_history=loss_history,
    )


CHECKPOINT_STATE = "state.json"
CHECKPOINT_FORMAT = "compset-checkpoint"
CHECKPOINT_SCHEMA = {
    "format": str, "version": int, "hyperparams": dict, "class_ids": [int], "frozen_z": [int],
    "frozen_w": [int], "sessions_seen": int, "class_sessions": {int: int},
    "loss_history": {int: [float]}, "rng": {"root_seed": int},
}


def save_checkpoint(state: ModelState, directory) -> Path:
    """Write bank/weights tensors plus a JSON sidecar; returns the sidecar path."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "bank.ckat", state.bank.Z)
    write_tensor(out / "weights.ckat", state.weights.W)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "hyperparams": asdict(state.hp),
        "class_ids": list(state.bank.class_ids),
        "frozen_z": state.bank.frozen.astype(int).tolist(),
        "frozen_w": state.weights.frozen.astype(int).tolist(),
        "sessions_seen": state.sessions_seen,
        "class_sessions": {str(c): s for c, s in sorted(state.class_sessions.items())},
        "loss_history": {str(k): v for k, v in sorted(state.loss_history.items())},
        "rng": {"root_seed": state.hp.seed},
    }
    path = out / CHECKPOINT_STATE
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_checkpoint(directory) -> ModelState:
    """Inverse of save_checkpoint, with structural validation."""
    root = Path(directory)
    spath = root / CHECKPOINT_STATE
    if not spath.exists():
        raise InvalidInput(f"{root}: no {CHECKPOINT_STATE}")
    try:
        doc = json.loads(spath.read_text())
    except json.JSONDecodeError as e:
        raise InvalidInput(f"{spath}: checkpoint is not valid JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT or doc.get("version") != 1:
        raise InvalidInput(f"{spath}: not a version-1 checkpoint")
    check_json(doc, CHECKPOINT_SCHEMA, spath)
    hp = Hyperparams(**json_fields(Hyperparams, require_key(doc, "hyperparams", spath), spath))
    hp.validate()
    Z = read_tensor(root / "bank.ckat").astype(np.float64, copy=False)
    W = read_tensor(root / "weights.ckat").astype(np.float64, copy=False)
    if Z.ndim != 3 or Z.shape[1] != hp.n_primitives:
        raise InvalidInput(f"{root}: bank.ckat has shape {Z.shape}, want (C, {hp.n_primitives}, d)")
    if W.ndim != 2 or W.shape[1] != Z.shape[2]:
        raise InvalidInput(
            f"{root}: weights.ckat has shape {W.shape}, want (C, {Z.shape[2]}) to match bank.ckat"
        )
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(W))):
        raise InvalidInput(f"{root}: bank.ckat or weights.ckat holds non-finite values")
    ids = require_key(doc, "class_ids", spath)
    bank = PrimitiveBank(ids, Z, np.array(require_key(doc, "frozen_z", spath), dtype=bool))
    weights = ClassifierWeights(ids, W, np.array(require_key(doc, "frozen_w", spath), dtype=bool))
    class_sessions = {int(c): s for c, s in require_key(doc, "class_sessions", spath).items()}
    if sorted(class_sessions) != ids:
        raise InvalidInput(f"{spath}: class_sessions disagrees with class_ids")
    sessions_seen = require_key(doc, "sessions_seen", spath)
    if sessions_seen != 1 + max(class_sessions.values(), default=-1):
        raise InvalidInput(f"{spath}: sessions_seen {sessions_seen} disagrees with class_sessions")
    return ModelState(
        bank=bank,
        weights=weights,
        hp=hp,
        sessions_seen=sessions_seen,
        class_sessions=class_sessions,
        loss_history={
            int(k): list(map(float, v)) for k, v in require_key(doc, "loss_history", spath).items()
        },
    )
