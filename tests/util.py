"""Shared helpers: independent oracle implementations and instance builders.

The oracles here deliberately avoid the package's vectorized code paths:
similarity goes through explicit projector/centering matrices, losses
through per-sample, per-class scalar loops.  Tests compare the package
against these.  The two training references at the end are the loss and
the incremental loop as they were before the fixed/live column split.
The two nearest-row references are k-means and hard replacement as
brute-force searches: the full (P, k, d) broadcast and a loop over picks.
"""

import numpy as np

from compset import (
    ClassifierWeights,
    InsufficientData,
    InvalidInput,
    FeatureBatch,
    Grads,
    PrimitiveBank,
    build_replaced,
    composition_scores_stack,
    donor_map_for,
    extend_bank,
    sgd_step,
    total_loss_and_grad,
)
from compset.cka import center_stack, gram_frobenius_stack, power_transform_stack
from compset.losses import _ce_rows, _cls_core, _replacement_backward
from compset.seeding import substream
from compset.training import _mean_feature_rows


def center_oracle(m: np.ndarray) -> np.ndarray:
    """Row centering via the explicit projector J = I - (1/d) 11^T."""
    m = np.asarray(m, dtype=np.float64)
    d = m.shape[1]
    j = np.eye(d) - np.ones((d, d)) / d
    return m @ j


def cka_oracle(x: np.ndarray, z: np.ndarray) -> float:
    """Direct evaluation: ||Xc Zc^T||_F^2 / (||Xc Xc^T||_F ||Zc Zc^T||_F)."""
    xc = center_oracle(x)
    zc = center_oracle(z)
    num = np.linalg.norm(xc @ zc.T) ** 2
    den = np.linalg.norm(xc @ xc.T) * np.linalg.norm(zc @ zc.T)
    return float(num / den)


def cka_rc_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Gram/centering evaluation with explicit H, tr-form HSIC."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    nb = a.shape[0]
    h = np.eye(nb) - np.ones((nb, nb)) / nb
    k = a @ a.T
    l = b @ b.T
    hsic = lambda p, q: np.trace(p @ h @ q @ h) / (nb - 1) ** 2  # noqa: E731
    return float(hsic(k, l) / np.sqrt(hsic(k, k) * hsic(l, l)))


def composition_scores_unchunked(X3, Zstack, alpha: float = 1.0) -> np.ndarray:
    """composition_scores_stack's forward as one (B, n, C, N) product, the
    form it had before the product was taken in blocks of maps."""
    Xc = center_stack(power_transform_stack(X3, alpha))
    Zc = center_stack(np.asarray(Zstack, dtype=np.float64))
    (bsz, n, d), (ncls, npr, _) = Xc.shape, Zc.shape
    prod = (Xc.reshape(bsz * n, d) @ Zc.reshape(ncls * npr, d).T).reshape(bsz, n, ncls, npr)
    num = np.einsum("bnkm,bnkm->bk", prod, prod)
    return num / (gram_frobenius_stack(Xc)[:, None] * gram_frobenius_stack(Zc)[None, :])


def power_oracle(x: np.ndarray, alpha: float) -> np.ndarray:
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    flat = np.asarray(x, dtype=np.float64).ravel()
    for i, v in enumerate(flat):
        out.ravel()[i] = (1.0 if v >= 0 else -1.0) * abs(v) ** alpha if v != 0 else 0.0
    return out


def softmax_ce_oracle(logits, label: int) -> float:
    """Scalar cross entropy from raw logits, direct formula."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max()
    p = np.exp(logits - m)
    p /= p.sum()
    return float(-np.log(p[label]))


def softmax_oracle(logits, temperature: float = 1.0) -> np.ndarray:
    """softmax(temperature * logits) of one vector, direct formula."""
    z = temperature * np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def kmeans_centers_oracle(points, k: int, rng: np.random.Generator, iters: int = 100) -> np.ndarray:
    """kmeans_centers with the Lloyd assignment as the brute-force (P, k, d)
    broadcast of squared differences."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] < k:
        raise InsufficientData(f"{pts.shape[0]} points cannot seed {k} centers")
    pts = pts[np.lexsort(pts.T[::-1])]
    first = int(rng.integers(pts.shape[0]))
    chosen = [first]
    d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    centers = pts[chosen].copy()
    for _ in range(iters):
        dist = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        new = centers.copy()
        taken: set[int] = set()
        for j in range(k):
            sel = assign == j
            if sel.any():
                new[j] = pts[sel].mean(axis=0)
            else:
                far = np.argsort(-dist.min(axis=1))
                pick = next(int(i) for i in far if int(i) not in taken)
                taken.add(pick)
                new[j] = pts[pick]
        if np.array_equal(new, centers):
            break
        centers = new
    return centers


def hard_nearest_replace_oracle(bank, target_classes, donor_classes, ratio: float, seed: int = 0):
    """hard_nearest_replace as a loop over picks, each scanning the whole
    donor pool for its smallest squared difference."""
    if not 0.0 <= ratio <= 1.0:
        raise InvalidInput(f"ratio must be in [0, 1], got {ratio}")
    donors = sorted(int(c) for c in donor_classes)
    out = bank.copy()
    n_swap = int(np.ceil(ratio * bank.n_primitives))
    if n_swap == 0:
        return out
    pool = np.concatenate([bank.Z[bank.index_of(c)] for c in donors], axis=0)
    for c in sorted(int(c) for c in target_classes):
        i = bank.index_of(c)
        rng = substream(seed, "replace", c)
        picks = np.sort(rng.choice(bank.n_primitives, size=n_swap, replace=False))
        for p in picks:
            d2 = ((pool - bank.Z[i, p]) ** 2).sum(axis=1)
            out.Z[i, p] = pool[int(np.argmin(d2))]
    return out


def cosine_oracle(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def attention_oracle(p_row: np.ndarray, donors: np.ndarray, gamma: float) -> np.ndarray:
    """Attention of one target row over donor rows, direct softmax."""
    sq = ((donors - p_row) ** 2).sum(axis=1)
    logits = -gamma * sq
    logits -= logits.max()
    e = np.exp(logits)
    return e / e.sum()


def replaced_block_oracle(block: np.ndarray, donors: np.ndarray, gamma: float) -> np.ndarray:
    return np.stack([attention_oracle(row, donors, gamma) @ donors for row in block])


def random_pair(rng: np.random.Generator, n=None, big_n=None, d=None):
    """One random (X, Z) pair in the acceptance ranges."""
    n = int(rng.integers(1, 65)) if n is None else n
    big_n = int(rng.integers(1, 17)) if big_n is None else big_n
    d = int(rng.integers(2, 129)) if d is None else d
    return rng.standard_normal((n, d)), rng.standard_normal((big_n, d))


def random_model(rng: np.random.Generator, n_classes=3, n_primitives=4, channels=6):
    """Unfrozen bank + weights over classes 0..n_classes-1."""
    ids = list(range(n_classes))
    bank = PrimitiveBank(
        ids, rng.standard_normal((n_classes, n_primitives, channels)), np.zeros(n_classes, bool)
    )
    weights = ClassifierWeights(
        ids, rng.standard_normal((n_classes, channels)), np.zeros(n_classes, bool)
    )
    return bank, weights


def random_batch(rng: np.random.Generator, n_classes=3, batch=4, patches=5, channels=6, nonneg=True):
    x = rng.standard_normal((batch, patches, channels))
    if nonneg:
        x = np.abs(x)
    labels = rng.integers(0, n_classes, batch)
    return FeatureBatch(
        X=x,
        labels=labels,
        sessions=np.zeros(batch, dtype=int),
        sample_ids=[f"r{i}" for i in range(batch)],
    )


def pack_params(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.concatenate([w.ravel(), z.ravel()])


def unpack_params(theta: np.ndarray, w_shape, z_shape):
    nw = int(np.prod(w_shape))
    return theta[:nw].reshape(w_shape), theta[nw:].reshape(z_shape)


def auc_score(pos: np.ndarray, neg: np.ndarray) -> float:
    """Exact rank AUC by pairwise comparison (ties count half)."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def total_loss_and_grad_unsplit(
    batch, bank, weights, donor_map, hp, include_cls=True, trainable_z=None, trainable_w=None
):
    """total_loss_and_grad as it was before the fixed/live column split:
    every class is replaced, scored and backpropagated, then the frozen
    gradients are zeroed.  Same arithmetic, so the split must match it bit
    for bit wherever BLAS evaluates a column slice as it does the whole."""
    X3 = np.asarray(batch.X, dtype=np.float64)
    col = {c: i for i, c in enumerate(bank.class_ids)}
    label_idx = np.array([col[int(y)] for y in batch.labels])
    tz = ~bank.frozen if trainable_z is None else np.asarray(trainable_z, dtype=bool)
    tw = ~weights.frozen if trainable_w is None else np.asarray(trainable_w, dtype=bool)

    def head(Zstack):
        scores, vjp = composition_scores_stack(X3, Zstack, hp.alpha, _with_vjp=True)
        loss, dlogit = _ce_rows(hp.tau * scores, label_idx)
        return loss, vjp(hp.tau * dlogit)

    total = 0.0
    dW = np.zeros_like(weights.W)
    dZ = np.zeros_like(bank.Z)
    if include_cls:
        loss, g = _cls_core(X3, label_idx, weights.W, hp.tau)
        total += loss
        dW += g
    if hp.lambda1 != 0.0:
        loss, g = head(bank.Z)
        total += hp.lambda1 * loss
        dZ += hp.lambda1 * g
    if hp.lambda2 != 0.0:
        rb = build_replaced(bank, donor_map, hp.gamma)
        loss, g = head(rb.Z_hat)
        total += hp.lambda2 * loss
        dZ += hp.lambda2 * _replacement_backward(bank, rb, g, hp.gamma, hp.stop_attention_grad)
    dW[~tw] = 0.0
    dZ[~tz] = 0.0
    return total, Grads(dW=dW, dZ=dZ)


def train_incremental_oracle(state, shots, hp, loss_and_grad=total_loss_and_grad):
    """train_incremental's per-epoch loop without the per-session
    fixed-column cache: each epoch's loss call scores the fixed columns
    afresh (or, with total_loss_and_grad_unsplit, every column).

    Returns the session's (bank Z, classifier W, loss history).
    """
    X3 = np.asarray(shots.X, dtype=np.float64)
    labels = np.asarray(shots.labels, dtype=np.int64)
    new_ids = sorted(int(c) for c in set(labels.tolist()))
    patches = {c: X3[labels == c].reshape(-1, X3.shape[2]) for c in new_ids}
    bank = extend_bank(
        state.bank, new_ids, patches_by_class=patches, scheme=hp.init_scheme, seed=hp.seed,
        sigma=hp.init_sigma,
    )
    old = len(state.weights.class_ids)
    weights = ClassifierWeights(
        list(bank.class_ids),
        np.concatenate([state.weights.W, _mean_feature_rows(X3, labels, new_ids)]),
        np.arange(bank.n_classes) < old,
    )
    donor_map = donor_map_for(state.base_class_ids, bank.class_ids)
    include_cls = hp.train_cls_in_incremental
    tw = ~weights.frozen if include_cls else np.zeros(bank.n_classes, dtype=bool)
    vW = np.zeros_like(weights.W)
    vZ = np.zeros_like(bank.Z)
    history = []
    for _ in range(hp.inc_epochs):
        loss, g = loss_and_grad(
            shots, bank, weights, donor_map, hp, include_cls=include_cls, trainable_w=tw
        )
        weights.W, vW = sgd_step(weights.W, g.dW, vW, hp.lr, hp.momentum, mask=tw)
        bank.Z, vZ = sgd_step(bank.Z, g.dZ, vZ, hp.lr, hp.momentum, mask=~bank.frozen)
        history.append(loss)
    return bank.Z, weights.W, history
