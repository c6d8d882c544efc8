"""Set similarity between patch feature maps and primitive sets.

A sample is a feature map X of shape (n, d): one row per spatial patch, d
channels.  A class is represented by a learned primitive set Z of shape
(N, d).  Their similarity is linear centered-kernel alignment over the
patch/primitive dimension:

    sim(X, Z) = ||Xc @ Zc.T||_F^2 / (||Xc @ Xc.T||_F * ||Zc @ Zc.T||_F)

where Xc, Zc subtract each row's mean across channels.  The value lives in
[0, 1] (Cauchy-Schwarz on the centered Gram inner product), is symmetric,
and is invariant to per-set isotropic scaling, to orthogonal mixing of the
patch dimension, and to one channel permutation applied to both sets.

One batched kernel, `composition_scores_stack`, computes this CKA: the
scores of power-transformed maps against every class block and, for
training, the gradient of a loss on them with respect to the blocks.
`linear_cka` is one pair of it; `cka_rc`, the CKA of two representations
of one batch, is `linear_cka` of their transposes.  `cosine_scores_stack`
computes the plain mean/max cosine comparators for the evaluation heads
and `allmatch_similarity`.  Only the match weights and patch importances,
which apportion one pair's score exactly, keep a single-pair path.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import DegenerateInput, DegenerateSet, InvalidInput, NumericalFailure
from .numkit import _BLOCK_BYTES, Matrix, _row_step, as_matrix


def _set_matrix(X, name: str) -> Matrix:
    m = as_matrix(X, name)
    if m.shape[1] < 2:
        raise DegenerateInput(f"{name} needs at least 2 channels to center, got {m.shape[1]}")
    return m


def center_rows(X) -> Matrix:
    """Subtract each row's mean across channels.

    Equivalent to right-multiplying by the projector J = I - (1/d) 11^T;
    applying it twice is a no-op.
    """
    return center_stack(_set_matrix(X, "X")[None])[0]


def gram_frobenius(Xc: Matrix) -> float:
    """||Xc @ Xc.T||_F computed through the smaller Gram factor.

    ||Xc Xc^T||_F == ||Xc^T Xc||_F, so use whichever side is cheaper.
    """
    n, d = Xc.shape
    g = Xc @ Xc.T if n <= d else Xc.T @ Xc
    return float(np.sqrt(np.sum(g * g)))


def _pair(X, Z) -> tuple[Matrix, Matrix]:
    Xm = _set_matrix(X, "X")
    Zm = _set_matrix(Z, "Z")
    if Xm.shape[1] != Zm.shape[1]:
        raise InvalidInput(f"channel mismatch: X has {Xm.shape[1]}, Z has {Zm.shape[1]}")
    return Xm, Zm


def _centered_pair(X, Z):
    Xm, Zm = _pair(X, Z)
    Xc = Xm - Xm.mean(axis=1, keepdims=True)
    Zc = Zm - Zm.mean(axis=1, keepdims=True)
    a = gram_frobenius(Xc)
    b = gram_frobenius(Zc)
    if a == 0.0:
        raise DegenerateSet("X centers to zero; similarity undefined")
    if b == 0.0:
        raise DegenerateSet("Z centers to zero; similarity undefined")
    return Xc, Zc, a, b


def linear_cka(X, Z) -> float:
    """Linear CKA of two row sets sharing channels: one pair of composition_scores_stack."""
    Xm, Zm = _pair(X, Z)
    try:
        val = float(composition_scores_stack(Xm[None], Zm[None])[0, 0])
    except DegenerateSet as e:
        side = "X" if e.class_id is None else "Z"
        raise DegenerateSet(f"{side} centers to zero; similarity undefined") from None
    return min(max(val, 0.0), 1.0)


def power_transform(X, alpha: float) -> Matrix:
    """Signed power map sign(x) * |x|^alpha, alpha in (0, 1].

    Flattens dominant activations before scoring; identity at alpha = 1.
    """
    return power_transform_stack(as_matrix(X, "X")[None], alpha)[0]


def match_weights(X, Z) -> np.ndarray:
    """Per-(patch, primitive) weights W[i, k] = (Xc_i . Zc_k) / (a * b).

    With a = ||Xc Xc^T||_F and b = ||Zc Zc^T||_F, the identity
    sum_ik W[i, k] * (Xc_i . Zc_k) == linear_cka(X, Z) holds, so the
    weights exactly apportion the score across pairs.
    """
    Xc, Zc, a, b = _centered_pair(X, Z)
    return (Xc @ Zc.T) / (a * b)


def patch_importance(X, Z) -> np.ndarray:
    """Per-patch share I[i] = sum_k (Xc_i . Zc_k)^2 / (a * b).

    Nonnegative, and sums to linear_cka(X, Z); the ranking drives the
    patch-filtering analysis.
    """
    Xc, Zc, a, b = _centered_pair(X, Z)
    c = Xc @ Zc.T
    return (c * c).sum(axis=1) / (a * b)


def allmatch_similarity(X, Z, mode: str = "mean") -> float:
    """Plain cosine comparators between two row sets: one pair of
    cosine_scores_stack.  A zero row has no direction, so it raises
    DegenerateInput here rather than counting as cosine 0."""
    Xm = as_matrix(X, "X")
    Zm = as_matrix(Z, "Z")
    if Xm.shape[1] != Zm.shape[1]:
        raise InvalidInput("channel mismatch between X and Z")
    if not (Xm.any(axis=1).all() and Zm.any(axis=1).all()):
        raise DegenerateInput("zero rows have no direction; cosine undefined")
    return float(cosine_scores_stack(Xm[None], Zm[None], mode)[0, 0])


def cka_rc(A, B) -> float:
    """CKA between two representations of one batch (rows are samples).

    With each column centered over the batch, linear CKA is
    ||Ac^T Bc||_F^2 / (||Ac^T Ac||_F ||Bc^T Bc||_F), which equals the HSIC
    form over the b x b Grams (Kornblith et al. 2019).  Centering A's
    columns is row-centering A^T, so this is linear_cka(A.T, B.T): it needs
    O(p q + (p + q) b) memory for p and q features, never a b x b Gram.
    """
    Am = as_matrix(A, "A")
    Bm = as_matrix(B, "B")
    if Bm.shape[0] != Am.shape[0]:
        raise InvalidInput("A and B must hold the same batch (equal row counts)")
    if Am.shape[0] < 2:
        raise InvalidInput("need at least 2 samples to center over the batch")
    try:
        return linear_cka(Am.T, Bm.T)
    except DegenerateSet:
        raise DegenerateSet("a representation is constant across the batch") from None


# ---------------------------------------------------------------------------
# Batched kernels on stacks of equally-shaped maps: the hot paths shared by
# the losses, the evaluation protocol, and the benchmark.
# ---------------------------------------------------------------------------


def power_transform_stack(X3: np.ndarray, alpha: float) -> np.ndarray:
    """power_transform applied to a (B, n, d) stack."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidInput(f"alpha must be in (0, 1], got {alpha}")
    if alpha == 1.0:
        return np.array(X3, dtype=np.float64)
    X3 = np.asarray(X3, dtype=np.float64)
    return np.sign(X3) * np.abs(X3) ** alpha


def center_stack(T: np.ndarray) -> np.ndarray:
    """Row-center every map in a (B, n, d) stack."""
    return T - T.mean(axis=2, keepdims=True)


def gram_frobenius_stack(Tc: np.ndarray) -> np.ndarray:
    """||Tc_b Tc_b^T||_F for each map in a centered (B, n, d) stack."""
    _, n, d = Tc.shape
    if n <= d:
        g = Tc @ Tc.transpose(0, 2, 1)
    else:
        g = Tc.transpose(0, 2, 1) @ Tc
    return np.sqrt(np.einsum("bij,bij->b", g, g))


def composition_scores_stack(
    X3: np.ndarray,
    Zstack: np.ndarray,
    alpha: float = 1.0,
    on_degenerate: str = "raise",
    _with_vjp: bool = False,
):
    """Composition scores of every map against every class block.

    X3 is (B, n, d) raw maps, Zstack is (C, N, d) raw primitive blocks; the
    result is (B, C).  ``on_degenerate`` chooses between raising
    DegenerateSet and scoring the offending pairs 0.0 (evaluation policy).
    The heavy product runs as GEMMs over (b*n, d) x (d, c*N), b maps
    against c classes at a time, so each block of the product stays within
    the byte budget.  A non-finite a, b or score (finite inputs whose Gram
    overflows) raises NumericalFailure.  With ``_with_vjp`` the result is
    ``(scores, vjp)``, where ``vjp`` maps d(loss)/d(scores) (B, C) to
    d(loss)/d(Zstack) (C, N, d); the whole batch is then one block.
    """
    if on_degenerate not in ("raise", "zero"):
        raise InvalidInput("on_degenerate must be 'raise' or 'zero'")
    X3 = np.asarray(X3, dtype=np.float64)
    Zs = np.asarray(Zstack, dtype=np.float64)
    if X3.ndim != 3 or Zs.ndim != 3:
        raise InvalidInput("X3 must be (B, n, d) and Zstack (C, N, d)")
    if X3.shape[2] != Zs.shape[2]:
        raise InvalidInput("channel mismatch between maps and primitive blocks")
    if X3.shape[2] < 2:
        raise DegenerateInput("need at least 2 channels to center")
    bsz, n, d = X3.shape
    ncls, npr, _ = Zs.shape
    # a finite map can still overflow its Gram or the product: under
    # ignored warnings every non-finite a, b or score is caught below
    with np.errstate(over="ignore", invalid="ignore"):
        Xc = center_stack(power_transform_stack(X3, alpha))
        Zc = center_stack(Zs)
        a = gram_frobenius_stack(Xc)
        b = gram_frobenius_stack(Zc)
        bad_a = a == 0.0
        bad_b = b == 0.0
        if on_degenerate == "raise":
            if np.any(bad_a):
                raise DegenerateSet(f"map {int(np.argmax(bad_a))} centers to zero")
            if np.any(bad_b):
                idx = int(np.argmax(bad_b))
                raise DegenerateSet(f"class block {idx} centers to zero", class_id=idx)
        a = np.where(bad_a, 1.0, a)
        b = np.where(bad_b, 1.0, b)
        # the (B, n, C, N) product in blocks of maps x classes, each one
        # GEMM of about square shape into one buffer of at most the byte
        # budget; training's vjp reuses the whole product, so it takes one
        # block.  An empty batch or bank still makes one (empty) block.
        if _with_vjp:
            mb, cb = max(bsz, 1), max(ncls, 1)
        else:
            mb = max(1, min(bsz, isqrt(_BLOCK_BYTES // 8) // n))
            cb = max(1, min(ncls, _row_step(8 * mb * n * npr)))
        zf = Zc.reshape(ncls * npr, d)
        buf = np.empty(mb * n * cb * npr)
        num = np.empty((bsz, ncls))
        for c0 in range(0, max(ncls, 1), cb):
            zt = zf[c0 * npr : (c0 + cb) * npr].T
            nc = zt.shape[1] // npr
            for b0 in range(0, max(bsz, 1), mb):
                xb = Xc[b0 : b0 + mb]
                rows, cols = len(xb) * n, nc * npr
                prod = np.matmul(xb.reshape(rows, d), zt, out=buf[: rows * cols].reshape(rows, cols))
                prod = prod.reshape(len(xb), n, nc, npr)
                num[b0 : b0 + mb, c0 : c0 + cb] = np.einsum("bnkm,bnkm->bk", prod, prod)
        scores = num / (a[:, None] * b[None, :])
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(scores).all()):
        raise NumericalFailure("composition scores overflow: a map or block is too large to score")
    if np.any(bad_a) or np.any(bad_b):
        scores[bad_a, :] = 0.0
        scores[:, bad_b] = 0.0
    if not _with_vjp:
        return scores

    def vjp(dscores: np.ndarray) -> np.ndarray:
        """For one pair, with P = Xc Zc^T and G = Zc Zc^T:
        d score/d Zc = (2/(a b)) (P^T Xc - (num/b^2) G Zc); the row
        centering then projects the gradient back through J.  A degenerate
        pair has P = 0 and passes no gradient."""
        coef = dscores * (2.0 / (a[:, None] * b[None, :]))  # (B, C)
        pw = prod * coef[:, None, :, None]  # (B, n, C, N)
        t1 = np.tensordot(pw, Xc, axes=([0, 1], [0, 1]))  # (C, N, d)
        s2 = (coef * num).sum(axis=0) / (b * b)  # (C,)
        gz = Zc @ Zc.transpose(0, 2, 1)  # (C, N, N)
        dZc = t1 - s2[:, None, None] * (gz @ Zc)
        return dZc - dZc.mean(axis=2, keepdims=True)

    return scores, vjp


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


def cosine_scores_stack(X3: np.ndarray, Zstack: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Plain cosine comparators of every (B, n, d) map against every
    (C, N, d) class block, (B, C).  mode="mean": average cosine over all
    (patch, primitive) pairs, the dot product of the two averaged unit-row
    sets; mode="max": average over patches of the best primitive cosine.
    A zero row counts as a zero vector: its cosines are 0."""
    if mode not in ("mean", "max"):
        raise InvalidInput(f"mode must be 'mean' or 'max', got {mode!r}")
    xu = _unit_rows(np.asarray(X3, dtype=np.float64))  # (B, n, d)
    zu = _unit_rows(np.asarray(Zstack, dtype=np.float64))  # (C, N, d)
    if mode == "mean":
        return xu.mean(axis=1) @ zu.mean(axis=1).T
    bsz, n, d = xu.shape
    cnum, npr, _ = zu.shape
    out = np.empty((bsz, cnum))
    step = _row_step(8 * n * cnum * npr)
    for lo in range(0, bsz, step):
        hi = min(bsz, lo + step)
        cos = (xu[lo:hi].reshape(-1, d) @ zu.reshape(-1, d).T).reshape(hi - lo, n, cnum, npr)
        out[lo:hi] = cos.max(axis=3).mean(axis=1)
    return out
