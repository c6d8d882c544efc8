"""Training objective: three temperature-shared cross-entropy losses.

* classifier loss    - cosine of the mean patch feature against one weight
                       row per class (the linear-head baseline).
* composition loss   - CKA composition score of the power-transformed map
                       against every class's primitive set.
* replaced loss      - the same scores against attention-replaced sets, the
                       term that rewards reusable primitives.

total = cls + lambda1 * cmp + lambda2 * rcmp, averaged over the batch.

Gradients are analytic throughout, including the chain through the
replacement attention (optionally stopped); the test-suite checks every
path against central differences.  Only W and the primitive blocks receive
gradients; feature maps are constants.

A column of the two composition heads is *fixed* when nothing it depends
on can train: its block is masked and, for the replaced head, so is every
one of its donors.  Fixed columns enter only the softmax normaliser; only
the live columns are replaced, scored and backpropagated.  A caller that
reuses one batch under one mask (an incremental session) computes the
fixed columns once with `fixed_columns` and hands them back in.

A loss call power-transforms and centres its batch once (`prepare_maps`)
and both composition heads score that; `FixedColumns` keeps the prepared
batch, so an incremental session prepares its shots once, and a base fit
its whole training set once: `FixedColumns.rows` hands each minibatch
its rows of the prepared stack.

The replaced term's backward takes one stacked pass per donor group of
`build_replaced`, with no loop over classes.  Each block sums what the
classes send it in class order, so the bytes equal a loop over classes.
When every donor block is masked (an incremental session, whose donors
are frozen base blocks), the donor-side terms are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cka import PreparedMaps, composition_scores_stack, prepare_maps
from .data import FeatureBatch
from .errors import DegenerateInput, DegenerateSet, InvalidInput
from .numkit import _positions, logsumexp_rows, softmax_rows
from .primitives import PrimitiveBank, ReplacedBank, build_replaced


@dataclass
class Hyperparams:
    """Every knob of the objective and the optimizer."""

    tau: float = 16.0
    alpha: float = 0.8
    gamma: float = 64.0
    lambda1: float = 2.0
    lambda2: float = 2.0
    n_primitives: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    base_epochs: int = 100
    inc_epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    init_scheme: str = "kmeans"
    init_sigma: float = 0.1
    train_cls_in_incremental: bool = True
    stop_attention_grad: bool = False

    def validate(self) -> None:
        if not self.tau > 0:
            raise InvalidInput("tau must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidInput("alpha must be in (0, 1]")
        if not self.gamma > 0:
            raise InvalidInput("gamma must be positive")
        if not (self.lambda1 >= 0 and self.lambda2 >= 0 and self.init_sigma >= 0):
            raise InvalidInput("loss weights and init_sigma must be >= 0")
        if not self.lr > 0:
            raise InvalidInput("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInput("momentum must be in [0, 1)")
        if min(self.base_epochs, self.inc_epochs, self.batch_size, self.n_primitives) < 1:
            raise InvalidInput("epochs, batch_size and n_primitives must be >= 1")
        if self.init_scheme not in ("gaussian", "kmeans"):
            raise InvalidInput(f"unknown init scheme {self.init_scheme!r}")


@dataclass
class ClassifierWeights:
    """One weight row per registered class, ascending class id."""

    class_ids: list[int]
    W: np.ndarray  # (C, d)
    frozen: np.ndarray  # (C,) bool

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.frozen = np.asarray(self.frozen, dtype=bool)
        if self.W.ndim != 2 or len(self.class_ids) != self.W.shape[0]:
            raise InvalidInput("W must be (C, d) matching class_ids")
        if len(self.frozen) != self.W.shape[0]:
            raise InvalidInput("frozen length disagrees with W")
        if sorted(self.class_ids) != list(self.class_ids) or len(set(self.class_ids)) != len(
            self.class_ids
        ):
            raise InvalidInput("class ids must be ascending and unique")

    def copy(self) -> "ClassifierWeights":
        return ClassifierWeights(list(self.class_ids), self.W.copy(), self.frozen.copy())


@dataclass
class Grads:
    """Gradients of the batch loss with respect to the trainables."""

    dW: np.ndarray  # (C, d)
    dZ: np.ndarray  # (C, N, d)


def _ce_rows(logits: np.ndarray, label_idx: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy and d(mean CE)/d(logits)."""
    b = logits.shape[0]
    loss = float(np.mean(logsumexp_rows(logits) - logits[np.arange(b), label_idx]))
    p = softmax_rows(logits)
    p[np.arange(b), label_idx] -= 1.0
    return loss, p / b


def _cls_core(X3, label_idx, W, tau):
    """Cosine-head cross entropy; gradient with respect to W."""
    f = X3.mean(axis=1)
    fn = np.linalg.norm(f, axis=1)
    if np.any(fn == 0.0):
        raise DegenerateInput("a sample's mean patch feature is the zero vector")
    wn = np.linalg.norm(W, axis=1)
    if np.any(wn == 0.0):
        raise DegenerateInput("a classifier row is the zero vector")
    fh = f / fn[:, None]
    wh = W / wn[:, None]
    cos = fh @ wh.T
    loss, dlogit = _ce_rows(tau * cos, label_idx)
    dcos = tau * dlogit
    # d cos(f, w_c)/d w_c = (fh - cos * wh_c) / ||w_c||
    q = (dcos * cos).sum(axis=0)
    dW = (dcos.T @ fh - q[:, None] * wh) / wn[:, None]
    return loss, dW


def _scores_with_class_errors(maps: PreparedMaps, Zstack, class_ids, with_vjp=False):
    """Stack scoring of prepared maps that reports degenerate blocks by
    registered class id (the stack itself only knows block positions).  No
    class gives (B, 0) without the kernel."""
    if not class_ids:
        return np.empty((maps.shape[0], 0))
    try:
        return composition_scores_stack(
            maps, Zstack, maps.alpha, on_degenerate="raise", _with_vjp=with_vjp
        )
    except DegenerateSet as e:
        if e.class_id is None:
            raise
        c = class_ids[e.class_id]
        raise DegenerateSet(f"class {c}: primitive block centers to zero", class_id=c) from None


def _ids(bank: PrimitiveBank, mask: np.ndarray) -> list[int]:
    return [c for c, m in zip(bank.class_ids, mask) if m]


def _head_core(maps, label_idx, Zlive, live, fixed, tau, live_ids):
    """Cross entropy of one composition head over all of its columns.

    Only the live columns (blocks Zlive, registered as live_ids) are scored
    here; the fixed ones arrive as scores and enter only the softmax
    normaliser.  Returns the loss and d(loss)/d(Zlive), or None for the
    gradient when no column is live.
    """
    scores = np.empty((maps.shape[0], len(live)))
    scores[:, ~live] = fixed
    if not live.any():
        return _ce_rows(tau * scores, label_idx)[0], None
    scores[:, live], vjp = _scores_with_class_errors(maps, Zlive, live_ids, with_vjp=True)
    loss, dlogit = _ce_rows(tau * scores, label_idx)
    return loss, vjp(tau * dlogit[:, live])


def _replacement_backward(bank, rb: ReplacedBank, dZhat, gamma, stop_attention_grad, trainable):
    """Scatter d(loss)/d(Z_hat) of the classes in rb back to the raw bank
    blocks; blocks that `trainable` masks get exactly zero.

    Z_hat_i = sum_k att_ik D_k with att = softmax_k(-gamma ||P_i - D_k||^2)
    over that class's donors D; P are the class's own primitives.  The
    direct path moves gradient to the donors; unless stopped, the attention
    path moves it to both the donors and the class's own block.  A class
    left out of rb must be fixed: everything it would reach is masked.

    Each donor group is one stacked pass.  Every reached block sums what
    each class sends it in class order, as a loop over classes would; a
    group whose donor blocks are all masked sends them nothing.
    """
    cnum, npr, d = bank.Z.shape
    trainable = np.asarray(trainable, dtype=bool)
    sends = []  # (class positions (G,), bank blocks (G, K), values (G, K*N, d))
    for grp in rb.groups:
        att, donors = grp.attention, grp.donors  # (G, N, M), (G or 1, M, d)
        own = bank.Z[grp.blocks]  # (G, N, d)
        g = dZhat[grp.positions]  # (G, N, d)
        if not stop_attention_grad:
            u = g @ donors.transpose(0, 2, 1)  # (G, N, M): dL/d att
            ds = att * u
            ubar = ds.sum(axis=2, keepdims=True)
            u -= ubar
            np.multiply(att, gamma, out=ds)
            ds *= u  # dL/d s_r, softmax jacobian folded in
            rs = ds.sum(axis=2)
            own_grad = -2.0 * (rs[:, :, None] * own - ds @ donors)
            sends.append((grp.positions, grp.blocks[:, None], own_grad))
        dblocks = grp.donor_rows[:, ::npr] // npr
        if trainable[dblocks].any():
            if stop_attention_grad:
                contrib = att.transpose(0, 2, 1) @ g  # (G, M, d)
            else:
                side = ds.transpose(0, 2, 1) @ own
                contrib = np.multiply(ds.sum(axis=1)[:, :, None], donors)
                side -= contrib
                side *= 2.0
                np.matmul(att.transpose(0, 2, 1), g, out=contrib)
                contrib += side
            sends.append((grp.positions, dblocks, contrib))
    dZ = np.zeros((cnum, npr, d))
    if sends:
        # one slice per class over the reached blocks, summed in class
        # order; a class reaches each block at most once
        reached = np.zeros(cnum, dtype=bool)
        for _, b, _ in sends:
            reached[b] = True
        slot = np.cumsum(reached) - 1
        stack = np.zeros((len(rb.class_ids), int(reached.sum()), npr, d))
        for at, b, v in sends:
            stack[at[:, None], slot[b]] = v.reshape(len(at), -1, npr, d)
        dZ[reached] = np.add.reduce(stack, axis=0, initial=0.0)
    dZ[~trainable] = 0.0
    return dZ


def _rcmp_core(maps, label_idx, bank, donor_map, live, fixed, hp: Hyperparams, tz):
    """Replaced-composition cross entropy; the live columns' replaced sets
    are rebuilt from the current bank on every call."""
    rb = build_replaced(bank, donor_map, hp.gamma, _ids(bank, live))
    loss, dZhat = _head_core(maps, label_idx, rb.Z_hat, live, fixed, hp.tau, rb.class_ids)
    if dZhat is None:
        return loss, None
    return loss, _replacement_backward(bank, rb, dZhat, hp.gamma, hp.stop_attention_grad, tz)


def _replaced_live(bank: PrimitiveBank, donor_map, tz: np.ndarray) -> np.ndarray:
    """Replaced-head columns that can move: the block or one of its donors
    is trainable."""
    trains = set(_ids(bank, tz))
    return np.array(
        [bool(t) or any(dc in trains for dc in donor_map.get(c) or ())
         for c, t in zip(bank.class_ids, tz)],
        dtype=bool,
    )


def _fixed_columns(maps, bank, donor_map, hp: Hyperparams, tz):
    """(live replaced columns, fixed cmp scores, fixed rcmp scores) of
    prepared maps; a head whose loss weight is 0 gets None."""
    live_rcmp = _replaced_live(bank, donor_map, tz)
    cmp = rcmp = None
    if hp.lambda1 != 0.0:
        cmp = _scores_with_class_errors(maps, bank.Z[~tz], _ids(bank, ~tz))
    if hp.lambda2 != 0.0:
        rb = build_replaced(bank, donor_map, hp.gamma, _ids(bank, ~live_rcmp))
        rcmp = _scores_with_class_errors(maps, rb.Z_hat, rb.class_ids)
    return live_rcmp, cmp, rcmp


def _donor_lists(donor_map) -> dict:
    return {c: tuple(donors) for c, donors in donor_map.items()}


@dataclass(frozen=True, eq=False)
class FixedColumns:
    """Scores of one batch's fixed columns under one trainable mask.

    Made by `fixed_columns` (or cut to rows of its batch by `rows`) and
    handed to `total_loss_and_grad`, which checks that the batch,
    registry, mask, frozen blocks, donors, alpha and gamma are still the
    ones recorded here, and then scores the live columns of the batch
    prepared here.
    """

    live_rcmp: np.ndarray  # (C,) bool: replaced-head columns that can move
    cmp: np.ndarray | None  # (B, #fixed): composition scores; None when lambda1 == 0
    rcmp: np.ndarray | None  # (B, #fixed): replaced scores; None when lambda2 == 0
    maps: np.ndarray
    prepared: PreparedMaps  # maps, power-transformed at alpha and centred
    trainable_z: np.ndarray
    frozen_blocks: np.ndarray  # bank.Z[~trainable_z]
    class_ids: tuple[int, ...]
    donor_map: dict[int, tuple[int, ...]]
    alpha: float
    gamma: float

    def rows(self, idx) -> "FixedColumns":
        """The same columns for the batch's rows idx, e.g. one minibatch.

        Prepared maps and their a are row-independent, so the slice holds
        the bytes that preparing those rows would give.  The fixed scores
        are the whole batch's rows; scored apart, a batch of other length
        can round them differently in the last bits.  A base fit's are
        empty: every column there is live.
        """
        idx = np.asarray(idx)
        return replace(
            self,
            cmp=None if self.cmp is None else self.cmp[idx],
            rcmp=None if self.rcmp is None else self.rcmp[idx],
            maps=self.maps[idx],
            prepared=PreparedMaps(self.prepared.Xc[idx], self.prepared.a[idx], self.prepared.alpha),
        )

    def matches(self, X3, bank: PrimitiveBank, donor_map, hp: Hyperparams, tz) -> bool:
        return (
            tuple(bank.class_ids) == self.class_ids
            and np.array_equal(tz, self.trainable_z)
            and (self.cmp is not None or hp.lambda1 == 0.0)
            and (self.rcmp is not None or hp.lambda2 == 0.0)
            and (hp.alpha, hp.gamma) == (self.alpha, self.gamma)
            and _donor_lists(donor_map) == self.donor_map
            and np.array_equal(X3, self.maps)
            and np.array_equal(bank.Z[~tz], self.frozen_blocks)
        )


def _check_registry(bank: PrimitiveBank, weights: ClassifierWeights | None):
    if weights is not None and list(weights.class_ids) != list(bank.class_ids):
        raise InvalidInput("bank and classifier register different classes")


def _checked_maps(batch: FeatureBatch, bank: PrimitiveBank) -> tuple[np.ndarray, np.ndarray]:
    X3 = np.asarray(batch.X, dtype=np.float64)
    if X3.shape[0] == 0:
        raise InvalidInput("batch is empty")
    if X3.shape[2] != bank.channels:
        raise InvalidInput("batch channels disagree with the bank")
    if not np.all(np.isfinite(X3)):
        raise InvalidInput("batch contains non-finite values")
    return X3, np.asarray(batch.labels, dtype=np.int64)


def _trainable_z(bank: PrimitiveBank, trainable_z) -> np.ndarray:
    tz = ~bank.frozen if trainable_z is None else np.asarray(trainable_z, dtype=bool)
    if len(tz) != bank.n_classes:
        raise InvalidInput("trainable masks have the wrong length")
    return tz


def fixed_columns(
    batch: FeatureBatch,
    bank: PrimitiveBank,
    donor_map: dict[int, list[int]],
    hp: Hyperparams,
    trainable_z: np.ndarray | None = None,
) -> FixedColumns:
    """Prepare a batch's maps and score its fixed columns once, for every
    total_loss_and_grad call on the same batch (or, through
    `FixedColumns.rows`, on rows of it), bank, donors, settings and
    trainable_z.

    Within an incremental session they cannot change: their blocks are
    frozen, their donors are frozen base classes and every epoch uses the
    same shots.  A base fit has no fixed column; it prepares its training
    set here once for all its minibatches.
    """
    hp.validate()
    X3, _ = _checked_maps(batch, bank)
    tz = _trainable_z(bank, trainable_z)
    prepared = prepare_maps(X3, hp.alpha)
    live_rcmp, cmp, rcmp = _fixed_columns(prepared, bank, donor_map, hp, tz)
    return FixedColumns(
        live_rcmp=live_rcmp,
        cmp=cmp,
        rcmp=rcmp,
        maps=X3.copy(),
        prepared=prepared,
        trainable_z=tz.copy(),
        frozen_blocks=bank.Z[~tz],
        class_ids=tuple(bank.class_ids),
        donor_map=_donor_lists(donor_map),
        alpha=hp.alpha,
        gamma=hp.gamma,
    )


def total_loss_and_grad(
    batch: FeatureBatch,
    bank: PrimitiveBank,
    weights: ClassifierWeights,
    donor_map: dict[int, list[int]],
    hp: Hyperparams,
    include_cls: bool = True,
    trainable_z: np.ndarray | None = None,
    trainable_w: np.ndarray | None = None,
    fixed: FixedColumns | None = None,
) -> tuple[float, Grads]:
    """Batch-mean total loss and its gradients, masked to the trainables.

    trainable_z / trainable_w default to the unfrozen blocks and rows;
    frozen parameters receive exactly-zero gradient.  Only the live columns
    of the two composition heads are scored and backpropagated; the fixed
    ones come from `fixed` when it is given (InvalidInput if it was made
    from another batch, bank, mask or settings) and are scored here
    otherwise.
    """
    hp.validate()
    _check_registry(bank, weights)
    X3, labels = _checked_maps(batch, bank)
    label_idx = _positions(bank.class_ids, labels, "labels")

    tz = _trainable_z(bank, trainable_z)
    tw = ~weights.frozen if trainable_w is None else np.asarray(trainable_w, dtype=bool)
    if len(tw) != len(weights.class_ids):
        raise InvalidInput("trainable masks have the wrong length")
    if not (tz.any() or (include_cls and tw.any())):
        raise InvalidInput("nothing to train: every parameter is masked")
    if fixed is None:
        maps = prepare_maps(X3, hp.alpha)
        live_rcmp, fixed_cmp, fixed_rcmp = _fixed_columns(maps, bank, donor_map, hp, tz)
    elif fixed.matches(X3, bank, donor_map, hp, tz):
        maps = fixed.prepared
        live_rcmp, fixed_cmp, fixed_rcmp = fixed.live_rcmp, fixed.cmp, fixed.rcmp
    else:
        raise InvalidInput("fixed columns were made from another batch, bank, mask or settings")

    total = 0.0
    dW = np.zeros_like(weights.W)
    dZ = np.zeros_like(bank.Z)
    if include_cls:
        loss, g = _cls_core(X3, label_idx, weights.W, hp.tau)
        total += loss
        dW += g
    if hp.lambda1 != 0.0:
        loss, g = _head_core(maps, label_idx, bank.Z[tz], tz, fixed_cmp, hp.tau, _ids(bank, tz))
        total += hp.lambda1 * loss
        if g is not None:
            dZ[tz] += hp.lambda1 * g
    if hp.lambda2 != 0.0:
        loss, g = _rcmp_core(maps, label_idx, bank, donor_map, live_rcmp, fixed_rcmp, hp, tz)
        total += hp.lambda2 * loss
        if g is not None:
            dZ += hp.lambda2 * g
    dW[~tw] = 0.0
    dZ[~tz] = 0.0
    return total, Grads(dW=dW, dZ=dZ)
