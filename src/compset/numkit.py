"""Small dense-numerics helpers shared by the rest of the package.

A "matrix" throughout the package is a 2-D float64 C-order ndarray with at
least one row and one column and finite entries; :func:`as_matrix` is the
single validation gate.

Kernels whose temporaries grow with their inputs work in blocks of rows,
each block's largest temporary held to ``_BLOCK_BYTES``: the scoring
product of :mod:`compset.cka` and the distance table of
:func:`_nearest_rows`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidInput, NumericalFailure

Matrix = np.ndarray

# Bytes one block of a blocked kernel may hold in its largest temporary.
_BLOCK_BYTES = 16 * 2**20


def _row_step(bytes_per_row: int) -> int:
    """Rows per block so that a block of rows holds at most _BLOCK_BYTES
    (at least one row, whatever its size)."""
    return max(1, _BLOCK_BYTES // max(1, bytes_per_row))


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Validate and return ``a`` as a float64 matrix (copy only if needed)."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInput(f"{name} must have at least one row and column, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return m


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a 2-D logit array."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp)), shifted for stability."""
    m = logits.max(axis=1)
    return m + np.log(np.exp(logits - m[:, None]).sum(axis=1))


def central_diff_grad(f: Callable[[np.ndarray], float], theta, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    g_i = (f(theta + eps e_i) - f(theta - eps e_i)) / (2 eps).  Used as the
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


def _nearest_rows(Q: np.ndarray, P: np.ndarray, skip: np.ndarray | None = None):
    """For every row q of Q, the lowest index j minimising
    ((q - P[j])**2).sum() over the rows of P not marked in ``skip``, and that
    minimum: ``(index (nq,) int64, squared distance (nq,) float64)``.

    The result is bit-equal to an argmin/min over the whole brute-force
    table, but that table is never built.  Distances are first taken in
    the GEMM form g = ||q||^2 + ||p||^2 - 2 q.p (exact L2 search, Johnson
    et al. 2017, arXiv:1702.08734), one block of Q rows at a time so a
    block's table holds at most _BLOCK_BYTES.  Every p whose g lies within
    ``tol`` of the row's smallest g is a candidate; candidates are
    recomputed as ((q - p)**2).sum(), the brute-force arithmetic, and the
    smallest recomputed value wins, ties to the lowest index.

    The bound on ``tol``.  Let u = eps/2, d the row length, S = ||q||^2 +
    ||p||^2 and delta = ||q - p||^2 <= 2S.  Every inner product of length d
    is within gamma_d = d u / (1 - d u) of its |terms| sum, so ||q||^2,
    ||p||^2 and 2 q.p together err by at most 2 gamma_d S, and the two
    additions by at most 3u S: |g - delta| <= (d + 2) eps S to first order.
    The recomputed r = fl(sum fl(fl(q - p)^2)) has relative error gamma_{d+2},
    so |r - delta| <= 2 gamma_{d+2} S, again about (d + 2) eps S.  Hence
    |g - r| <= E with E about 2 (d + 2) eps S.  If j* is the brute-force
    winner and m the smallest g, attained at j', then g[j*] <= r[j*] + E <=
    r[j'] + E <= m + 2E: j* is a candidate whenever tol >= 2E.  The code
    uses tol = 8 (d + 2) eps (||q||^2 + max_p ||p||^2), twice 2E with S at
    its largest.  A row whose g overflows gets an infinite or NaN
    threshold and searches every row of P.

    Every row of Q needs at least one row of P that ``skip`` leaves in.
    """
    nq, d = Q.shape
    pn = np.einsum("ij,ij->i", P, P)
    idx = np.empty(nq, dtype=np.int64)
    dist = np.empty(nq)
    rel = 8.0 * (d + 2) * np.finfo(np.float64).eps
    step, recompute = _row_step(8 * len(P)), _row_step(8 * d)
    for lo in range(0, nq, step):
        q = Q[lo : lo + step]
        with np.errstate(over="ignore", invalid="ignore"):
            qn = np.einsum("ij,ij->i", q, q)
            g = q @ P.T
            g *= -2.0
            g += qn[:, None]
            g += pn
            if skip is not None:
                g[:, skip] = np.inf
            thr = g.min(axis=1) + rel * (qn + pn.max())
            cand = g <= thr[:, None]
        cand[~np.isfinite(thr)] = True
        if skip is not None:
            cand[:, skip] = False
        rows, cols = np.nonzero(cand)  # row-major: columns ascend within a row
        r = np.empty(len(rows))
        with np.errstate(over="ignore"):
            for s in range(0, len(rows), recompute):
                t = slice(s, s + recompute)
                r[t] = ((q[rows[t]] - P[cols[t]]) ** 2).sum(axis=1)
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        best = np.minimum.reduceat(r, starts)
        hit = np.flatnonzero(r == best[rows])
        first = hit[np.r_[True, rows[hit[1:]] != rows[hit[:-1]]]]
        idx[lo : lo + len(q)] = cols[first]
        dist[lo : lo + len(q)] = best
    return idx, dist
