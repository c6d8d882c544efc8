"""Shared helpers: independent oracle implementations and instance builders.

The oracles here deliberately avoid the package's vectorized code paths:
similarity goes through explicit projector/centering matrices, losses
through per-sample, per-class scalar loops.  Tests compare the package
against these.  The two training references at the end are the loss and
the incremental loop as they were before the fixed/live column split.
The two nearest-row references are k-means and hard replacement as
brute-force searches: the full (P, k, d) broadcast and a loop over picks.
The attention and evaluation references keep the arithmetic the package
had before subnormal weights were flushed and before the confusion counts
came from one bincount.  The replacement references are build_replaced
and _replacement_backward as loops over classes, one (N, M, d) difference
tensor, softmax and set of products per class, as the package computed
them before its stacked pass; that pass must equal them byte for byte.
`center_rows`, `central_diff_grad` and `match_weights` were public
package functions with no caller outside the tests; the reuse reference
scores every bank in its own kernel pass, as the package did before its
table of row contributions.
"""

import numpy as np

from compset import (
    ClassifierWeights,
    DegenerateInput,
    InsufficientData,
    InvalidInput,
    FeatureBatch,
    NumericalFailure,
    Grads,
    PrimitiveBank,
    ReplacedBank,
    build_replaced,
    composition_scores_stack,
    donor_map_for,
    extend_bank,
    hard_nearest_replace,
    sgd_step,
    total_loss_and_grad,
)
from compset.cka import _set_matrix, center_stack, gram_frobenius_stack, power_transform_stack
from compset.losses import _ce_rows, _cls_core, _replacement_backward
from compset.numkit import _positions
from compset.protocol import EvalReport, SessionEval, performance_drop, score_matrix
from compset.seeding import seed_sequence, substream
from compset.training import _mean_feature_rows


def center_oracle(m: np.ndarray) -> np.ndarray:
    """Row centering via the explicit projector J = I - (1/d) 11^T."""
    m = np.asarray(m, dtype=np.float64)
    d = m.shape[1]
    j = np.eye(d) - np.ones((d, d)) / d
    return m @ j


def center_rows(X) -> np.ndarray:
    """Subtract each row's mean across channels: one matrix through the
    package's stack centring.

    Equivalent to right-multiplying by the projector J = I - (1/d) 11^T;
    applying it twice is a no-op.
    """
    return center_stack(_set_matrix(X, "X")[None])[0]


def match_weights(x, z) -> np.ndarray:
    """Per-(patch, primitive) weights W[i, k] = (Xc_i . Zc_k) / (a * b),
    with a = ||Xc Xc^T||_F and b = ||Zc Zc^T||_F, centred through the
    projector.  sum_ik W[i, k] * (Xc_i . Zc_k) is the similarity, so the
    weights apportion a pair's score exactly across its (patch, primitive)
    pairs."""
    xc, zc = center_oracle(x), center_oracle(z)
    return (xc @ zc.T) / (np.linalg.norm(xc @ xc.T) * np.linalg.norm(zc @ zc.T))


def central_diff_grad(f, theta, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    g_i = (f(theta + eps e_i) - f(theta - eps e_i)) / (2 eps).  The
    independent oracle for every analytic gradient in the package.
    """
    th = np.array(theta, dtype=np.float64)
    if th.ndim != 1 or th.size == 0:
        raise InvalidInput("theta must be a non-empty 1-D vector")
    if not eps > 0.0:
        raise InvalidInput("eps must be positive")
    g = np.empty_like(th)
    for i in range(th.size):
        orig = th[i]
        th[i] = orig + eps
        fp = float(f(th))
        th[i] = orig - eps
        fm = float(f(th))
        th[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalFailure(f"f is non-finite near component {i}")
        g[i] = (fp - fm) / (2.0 * eps)
    return g


def cka_oracle(x: np.ndarray, z: np.ndarray) -> float:
    """Direct evaluation: ||Xc Zc^T||_F^2 / (||Xc Xc^T||_F ||Zc Zc^T||_F)."""
    xc = center_oracle(x)
    zc = center_oracle(z)
    num = np.linalg.norm(xc @ zc.T) ** 2
    den = np.linalg.norm(xc @ xc.T) * np.linalg.norm(zc @ zc.T)
    return float(num / den)


def patch_importance_oracle(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One pair's patch importances, sum_k (Xc_i . Zc_k)^2 / (a * b), with
    a and b the Frobenius norms of the full n x n and N x N Grams."""
    xc = center_oracle(x)
    zc = center_oracle(z)
    c = xc @ zc.T
    return (c * c).sum(axis=1) / (np.linalg.norm(xc @ xc.T) * np.linalg.norm(zc @ zc.T))


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


def composition_scores_gram_one_block(X3, Zstack, alpha: float = 1.0) -> np.ndarray:
    """composition_scores_stack's Gram form with every map Gram in one
    block: <Xc^T Xc, Zc^T Zc>_F as one (B, d^2) x (d^2, C) GEMM."""
    Xc = center_stack(power_transform_stack(X3, alpha))
    Zc = center_stack(np.asarray(Zstack, dtype=np.float64))
    (bsz, _, d), ncls = Xc.shape, len(Zc)
    gx = (Xc.transpose(0, 2, 1) @ Xc).reshape(bsz, d * d)
    gz = (Zc.transpose(0, 2, 1) @ Zc).reshape(ncls, d * d)
    num = np.maximum(gx @ gz.T, 0.0)
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
    pool = np.concatenate([bank.block(c) for c in donors], axis=0)
    for c in sorted(int(c) for c in target_classes):
        i = _positions(bank.class_ids, [c], "class")[0]
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


def squared_distances_oracle(targets: np.ndarray, donors: np.ndarray) -> np.ndarray:
    """(N, M) squared distances of one class's rows to its donor rows, from
    the whole (N, M, d) difference tensor."""
    diff = targets[:, None, :] - donors[None, :, :]
    return np.einsum("ikd,ikd->ik", diff, diff)


def attention_weights_unflushed(sq: np.ndarray, gamma: float) -> np.ndarray:
    """primitives._attention_weights without the subnormal flush: a plain
    softmax of -gamma times the squared distances over the last axis."""
    z = -gamma * sq
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def attention_weights_per_class(targets: np.ndarray, donors: np.ndarray, gamma: float) -> np.ndarray:
    """One class's flushed attention, as the package computed it one class
    at a time before the stacked pass."""
    z = -gamma * squared_distances_oracle(targets, donors)
    z -= z.max(axis=1, keepdims=True)
    tiny = np.finfo(np.float64).tiny
    e = np.exp(z, out=np.zeros_like(z), where=z >= np.log(tiny))
    att = e / e.sum(axis=1, keepdims=True)
    att[att < tiny] = 0.0
    return att


def build_replaced_per_class(bank, donor_map, gamma: float, classes=None) -> ReplacedBank:
    """build_replaced as a loop over classes, each with its own (N, M, d)
    difference tensor, softmax and product; the stacked pass must equal it
    byte for byte.  The result has no donor groups."""
    cnum, npr, d = bank.Z.shape
    flat = bank.Z.reshape(cnum * npr, d)
    start = {c: i * npr for i, c in enumerate(bank.class_ids)}
    targets = list(bank.class_ids) if classes is None else sorted(int(c) for c in classes)
    z_hat = np.empty((len(targets), npr, d))
    atts, donor_rows = [], []
    for j, c in enumerate(targets):
        idx = np.concatenate(
            [np.arange(start[dc], start[dc] + npr) for dc in sorted(donor_map[c])]
        )
        att = attention_weights_per_class(flat[start[c] : start[c] + npr], flat[idx], gamma)
        z_hat[j] = att @ flat[idx]
        atts.append(att)
        donor_rows.append(idx)
    return ReplacedBank(targets, z_hat, atts, donor_rows, [])


def replacement_backward_per_class(bank, rb, dZhat, gamma, stop_attention_grad, trainable):
    """losses._replacement_backward as a loop over the classes of rb, each
    adding its own-block and donor gradients into one buffer in class
    order; masked blocks are zeroed at the end."""
    cnum, npr, d = bank.Z.shape
    dZ = np.zeros((cnum, npr, d))
    flatZ = bank.Z.reshape(cnum * npr, d)
    flat_out = dZ.reshape(cnum * npr, d)
    pos = {c: i for i, c in enumerate(bank.class_ids)}
    for j, c in enumerate(rb.class_ids):
        i = pos[c]
        att = rb.attention[j]  # (N, M)
        idx = rb.donor_rows[j]  # (M,)
        donors = flatZ[idx]
        g = dZhat[j]  # (N, d)
        contrib = att.T @ g
        if not stop_attention_grad:
            u = g @ donors.T  # (N, M): dL/d att
            ubar = (att * u).sum(axis=1, keepdims=True)
            ds = gamma * att * (u - ubar)  # dL/d s_r, softmax jacobian folded in
            rs = ds.sum(axis=1)
            dZ[i] += -2.0 * (rs[:, None] * bank.Z[i] - ds @ donors)
            contrib = contrib + 2.0 * (ds.T @ bank.Z[i] - ds.sum(axis=0)[:, None] * donors)
        flat_out[idx] += contrib  # donor rows are unique per class
    dZ[~np.asarray(trainable, dtype=bool)] = 0.0
    return dZ


def replacement_cases():
    """name -> (bank, donor_map, classes, trainable, gamma): the shapes at
    which the stacked replacement must equal the per-class oracles."""
    def bank_of(n_classes, n_primitives, d, seed, sigma, frozen=0):
        z = sigma * np.random.default_rng(seed).standard_normal((n_classes, n_primitives, d))
        return PrimitiveBank(list(range(n_classes)), z, np.arange(n_classes) < frozen)

    def base_donors(n_base, n_classes):
        return {c: [b for b in range(n_base) if b != c] for c in range(n_classes)}

    cases = {}
    for sigma in (0.1, 0.3):
        bank = bank_of(20, 16, 32, 0, sigma)
        cases[f"base-sigma{sigma}"] = (bank, base_donors(20, 20), None, ~bank.frozen, 64.0)
    bank = bank_of(25, 16, 32, 1, 0.1, frozen=20)
    cases["incremental"] = (bank, base_donors(20, 25), list(range(20, 25)), ~bank.frozen, 64.0)
    cases["incremental-trainable-donors"] = (
        bank, base_donors(20, 25), list(range(20, 25)), np.ones(25, dtype=bool), 64.0
    )
    bank = bank_of(30, 16, 32, 2, 0.1, frozen=25)
    cases["fixed-columns-19-and-20"] = (bank, base_donors(20, 30), list(range(25)), ~bank.frozen, 64.0)
    custom = {0: [3, 1], 1: [0], 2: [0, 1, 4], 3: [2, 4, 0], 4: [1], 5: [0, 2]}
    bank = bank_of(6, 4, 7, 3, 1.0)
    cases["custom-unequal"] = (bank, custom, None, ~bank.frozen, 2.0)
    cases["custom-masked"] = (bank, custom, None, np.array([1, 0, 1, 0, 1, 1], dtype=bool), 2.0)
    bank = bank_of(8, 16, 512, 4, 0.05)
    cases["wide-base"] = (bank, base_donors(8, 8), None, ~bank.frozen, 64.0)
    bank = bank_of(21, 16, 512, 5, 0.05, frozen=16)
    cases["wide-incremental"] = (bank, base_donors(16, 21), list(range(16, 21)), ~bank.frozen, 64.0)
    bank = bank_of(20, 16, 32, 6, 0.1)
    cases["no-classes"] = (bank, base_donors(20, 20), [], ~bank.frozen, 64.0)
    return cases


def replacement_mismatches(bank, donor_map, classes, trainable, gamma, stop_attention_grad):
    """Outputs in which build_replaced and _replacement_backward differ
    from the per-class oracles in any byte; empty when they agree."""
    rb = build_replaced(bank, donor_map, gamma, classes)
    want = build_replaced_per_class(bank, donor_map, gamma, classes)
    bad = []
    if rb.class_ids != want.class_ids or rb.Z_hat.tobytes() != want.Z_hat.tobytes():
        bad.append("Z_hat")
    if len(rb.attention) != len(want.attention) or any(
        a.tobytes() != b.tobytes() or not a.flags.c_contiguous
        for a, b in zip(rb.attention, want.attention)
    ):
        bad.append("attention")
    if len(rb.donor_rows) != len(want.donor_rows) or any(
        not np.array_equal(a, b) for a, b in zip(rb.donor_rows, want.donor_rows)
    ):
        bad.append("donor_rows")
    g = np.random.default_rng(len(rb.class_ids)).standard_normal(rb.Z_hat.shape)
    got = _replacement_backward(bank, rb, g, gamma, stop_attention_grad, trainable)
    ref = replacement_backward_per_class(bank, want, g, gamma, stop_attention_grad, trainable)
    if got.tobytes() != ref.tobytes():
        bad.append("dZ")
    return bad


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
        rb = build_replaced_per_class(bank, donor_map, hp.gamma)
        loss, g = head(rb.Z_hat)
        total += hp.lambda2 * loss
        dZ += hp.lambda2 * replacement_backward_per_class(
            bank, rb, g, hp.gamma, hp.stop_attention_grad, np.ones(bank.n_classes, dtype=bool)
        )
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


def evaluate_sessions_per_sample(state, test_sets, head: str = "composition") -> EvalReport:
    """evaluate_sessions with per-sample Python bookkeeping: label columns
    from a dict, class sessions per sample, and the confusion counts from a
    loop over (truth, prediction) pairs."""
    nses = state.sessions_seen
    ids = np.array(state.bank.class_ids)
    session_of = np.array([state.class_sessions[c] for c in state.bank.class_ids])
    batches = [test_sets[k] for k in range(nses)]
    full = FeatureBatch.concat(batches)
    scores = score_matrix(state, full.X, head)
    col_of = {c: i for i, c in enumerate(state.bank.class_ids)}
    true_cols = np.array([col_of[int(c)] for c in full.labels])
    sample_session = np.array([state.class_sessions[int(c)] for c in full.labels])
    out = []
    for k in range(nses):
        cand_cols = np.flatnonzero(session_of <= k)
        rows = np.flatnonzero(sample_session <= k)
        pred_cols = cand_cols[np.argmax(scores[np.ix_(rows, cand_cols)], axis=1)]
        truth = true_cols[rows]
        correct = pred_cols == truth
        is_base = sample_session[rows] == 0
        novel_acc = None
        if k >= 1:
            novel_cols = cand_cols[session_of[cand_cols] >= 1]
            nrows = rows[~is_base]
            npred = novel_cols[np.argmax(scores[np.ix_(nrows, novel_cols)], axis=1)]
            novel_acc = 100.0 * float(np.mean(npred == true_cols[nrows]))
        confusion: dict[int, dict[int, int]] = {}
        for t, p in zip(ids[truth], ids[pred_cols]):
            confusion.setdefault(int(t), {}).setdefault(int(p), 0)
            confusion[int(t)][int(p)] += 1
        out.append(SessionEval(
            session=k, n_samples=len(rows), n_candidates=len(cand_cols),
            overall=100.0 * float(np.mean(correct)), base=100.0 * float(np.mean(correct[is_base])),
            novel=novel_acc, confusion=confusion,
        ))
    return EvalReport(
        head=head, seed=state.hp.seed, sessions=out,
        performance_drop=performance_drop([s.overall for s in out]),
    )


def reuse_retention_per_pass(state, test_sets, ratios, seed: int = 0):
    """reuse_retention_eval as one kernel pass per bank: the unreplaced
    novel blocks, then each nonzero ratio's hard-replaced ones, every pass
    transforming and centring the maps afresh.  Returns the ReusePoint
    fields as (ratio, novel accuracy, retention) tuples."""
    novel_ids = sorted(c for c, s in state.class_sessions.items() if s >= 1)
    batches = [test_sets[k] for k in range(1, state.sessions_seen) if k in test_sets]
    full = FeatureBatch.concat(batches) if len(batches) > 1 else batches[0]
    X3 = np.asarray(full.X, dtype=np.float64)
    novel_cols = np.array([state.bank.class_ids.index(c) for c in novel_ids])
    col_of = {c: j for j, c in enumerate(novel_ids)}
    truth = np.array([col_of[int(c)] for c in full.labels])

    def novel_acc(Z):
        sc = composition_scores_stack(X3, Z[novel_cols], state.hp.alpha, on_degenerate="zero")
        return 100.0 * float(np.mean(np.argmax(sc, axis=1) == truth))

    original = novel_acc(state.bank.Z)
    if original <= 0.0:
        raise DegenerateInput("original novel accuracy is zero; retention undefined")
    out = []
    for j, r in enumerate(float(r) for r in ratios):
        if r == 0.0:
            out.append((r, original, 100.0))
            continue
        sub_seed = int(seed_sequence(seed, "reuse-ratio", j).generate_state(1)[0])
        acc = novel_acc(
            hard_nearest_replace(state.bank, novel_ids, state.base_class_ids, r, seed=sub_seed).Z
        )
        out.append((r, acc, 100.0 * acc / original))
    return out
