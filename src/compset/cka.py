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

The score of a power-transformed map against every class block is one
batched call, `composition_scores_stack`; training, evaluation and the
benchmark all score through it.  The single-pair functions below are the
readable reference and serve the analyses: per-(patch, primitive) match
weights and per-patch importances that apportion the score exactly, the
plain all-match cosine comparators, and the batch-dimension CKA used to
compare two models' representations of a common batch.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, DegenerateSet, InvalidInput
from .numkit import Matrix, as_matrix


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
    m = _set_matrix(X, "X")
    return m - m.mean(axis=1, keepdims=True)


def gram_frobenius(Xc: Matrix) -> float:
    """||Xc @ Xc.T||_F computed through the smaller Gram factor.

    ||Xc Xc^T||_F == ||Xc^T Xc||_F, so use whichever side is cheaper.
    """
    n, d = Xc.shape
    g = Xc @ Xc.T if n <= d else Xc.T @ Xc
    return float(np.sqrt(np.sum(g * g)))


def _centered_pair(X, Z):
    Xm = _set_matrix(X, "X")
    Zm = _set_matrix(Z, "Z")
    if Xm.shape[1] != Zm.shape[1]:
        raise InvalidInput(f"channel mismatch: X has {Xm.shape[1]}, Z has {Zm.shape[1]}")
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
    """Linear CKA between two sets of rows sharing a channel dimension."""
    Xc, Zc, a, b = _centered_pair(X, Z)
    c = Xc @ Zc.T
    val = float(np.sum(c * c) / (a * b))
    return min(max(val, 0.0), 1.0)


def power_transform(X, alpha: float) -> Matrix:
    """Signed power map sign(x) * |x|^alpha, alpha in (0, 1].

    Flattens dominant activations before scoring; identity at alpha = 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInput(f"alpha must be in (0, 1], got {alpha}")
    m = as_matrix(X, "X")
    if alpha == 1.0:
        return m.copy()
    return np.sign(m) * np.abs(m) ** alpha


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
    """Plain cosine comparators between two row sets.

    mode="mean": average cosine over all (patch, primitive) pairs, which
    equals the dot product of the two averaged row-normalized sets.
    mode="max": average over patches of the best-matching primitive cosine.
    """
    if mode not in ("mean", "max"):
        raise InvalidInput(f"mode must be 'mean' or 'max', got {mode!r}")
    Xm = as_matrix(X, "X")
    Zm = as_matrix(Z, "Z")
    if Xm.shape[1] != Zm.shape[1]:
        raise InvalidInput("channel mismatch between X and Z")
    xn = np.linalg.norm(Xm, axis=1)
    zn = np.linalg.norm(Zm, axis=1)
    if np.any(xn == 0.0) or np.any(zn == 0.0):
        raise DegenerateInput("zero rows have no direction; cosine undefined")
    cos = (Xm / xn[:, None]) @ (Zm / zn[:, None]).T
    if mode == "mean":
        return float(cos.mean())
    return float(cos.max(axis=1).mean())


def cka_rc(A, B, kernel: str = "linear") -> float:
    """CKA between two representations of one batch (rows are samples).

    HSIC(K, L) = tr(K H L H) / (b - 1)^2 with H = I - (1/b) 11^T and
    K = A A^T, L = B B^T; the score normalizes by sqrt(HSIC(K,K) HSIC(L,L)).
    Used to compare layer representations across models; the patch-level
    similarity above is this same quantity applied along channels.
    """
    if kernel != "linear":
        raise InvalidInput(f"only the linear kernel is supported, got {kernel!r}")
    Am = as_matrix(A, "A")
    Bm = as_matrix(B, "B")
    nb = Am.shape[0]
    if Bm.shape[0] != nb:
        raise InvalidInput("A and B must hold the same batch (equal row counts)")
    if nb < 2:
        raise InvalidInput("need at least 2 samples to center the Gram matrices")
    k = Am @ Am.T
    l = Bm @ Bm.T
    kc = _double_center(k)
    lc = _double_center(l)
    xx = float(np.sum(kc * kc))
    yy = float(np.sum(lc * lc))
    if xx <= 0.0 or yy <= 0.0:
        raise DegenerateSet("a representation is constant across the batch")
    xy = float(np.sum(kc * lc))
    val = xy / np.sqrt(xx * yy)
    return min(max(val, 0.0), 1.0)


def _double_center(g: np.ndarray) -> np.ndarray:
    """H g H without materializing H."""
    rm = g.mean(axis=0, keepdims=True)
    cm = g.mean(axis=1, keepdims=True)
    return g - rm - cm + g.mean()


# ---------------------------------------------------------------------------
# Batched versions on stacks of equally-shaped maps.  These are the hot paths
# shared by the losses, the evaluation protocol, and the benchmark; the
# single-pair functions above stay the readable reference.
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
    _return_internals: bool = False,
):
    """Composition scores of every map against every class block.

    X3 is (B, n, d) raw maps, Zstack is (C, N, d) raw primitive blocks; the
    result is (B, C).  ``on_degenerate`` chooses between raising
    DegenerateSet and scoring the offending pairs 0.0 (evaluation policy).
    The heavy product runs as one GEMM over (B*n, d) x (d, C*N).
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
    prod = (Xc.reshape(bsz * n, d) @ Zc.reshape(ncls * npr, d).T).reshape(bsz, n, ncls, npr)
    num = np.einsum("bnkm,bnkm->bk", prod, prod)
    denom = np.where(bad_a, 1.0, a)[:, None] * np.where(bad_b, 1.0, b)[None, :]
    scores = num / denom
    if np.any(bad_a) or np.any(bad_b):
        scores[bad_a, :] = 0.0
        scores[:, bad_b] = 0.0
    if _return_internals:
        return scores, prod, num, a, b, Xc, Zc
    return scores
