"""Small dense-numerics helpers shared by the rest of the package.

A "matrix" throughout the package is a 2-D float64 C-order ndarray with at
least one row and one column and finite entries; :func:`as_matrix` is the
single validation gate.

Kernels whose temporaries grow with their inputs work in blocks of rows,
each block's largest temporary held to ``_BLOCK_BYTES``: the scoring
product and the map Grams of :mod:`compset.cka` and the distance table
of :func:`_nearest_rows`.

Exact searches over squared distances take them in the GEMM form first
and recompute only the near-ties as the plain squared difference.
:func:`_gemm_slack` is the one rounding bound between the two forms; it
serves :func:`_nearest_rows` (the Lloyd assignment of k-means, the hard
replacement and the retrieval export) and the farthest-point seeding of
:mod:`compset.primitives`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

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


def _positions(ids, values, what: str) -> np.ndarray:
    """Index of every value in the ascending integer sequence ``ids`` (a
    bank's class ids, or a subset of them); values missing from it raise
    InvalidInput naming ``what`` and every missing value."""
    ids = np.asarray(ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    pos = np.minimum(np.searchsorted(ids, values), len(ids) - 1)
    missing = ids[pos] != values if len(ids) else np.ones(values.shape, dtype=bool)
    if missing.any():
        raise InvalidInput(f"{what} not registered: {np.unique(values[missing]).tolist()}")
    return pos


def _gemm_slack(d: int, s):
    """Bound on |g - r| for rows q, p of length d with s = ||q||^2 + ||p||^2,
    where g = ||q||^2 + ||p||^2 - 2 q.p is the GEMM-form squared distance
    (norms and product each computed in any summation order) and r =
    ((q - p)**2).sum() the plain one.

    Let u = eps/2 and delta = ||q - p||^2 <= 2s.  Every inner product of
    length d is within gamma_d = d u / (1 - d u) of its |terms| sum, so
    ||q||^2, ||p||^2 and 2 q.p together err by at most 2 gamma_d s, and the
    two additions by at most 3u s: |g - delta| <= (d + 2) eps s to first
    order.  r = fl(sum fl(fl(q - p)^2)) has relative error gamma_{d+2}, so
    |r - delta| <= 2 gamma_{d+2} s, again about (d + 2) eps s.  Hence
    |g - r| is about 2 (d + 2) eps s at most; the bound returned is twice
    that.  A non-finite s (or g) bounds nothing: such a row must be
    resolved by the plain difference.
    """
    return 4.0 * (d + 2) * np.finfo(np.float64).eps * s


def _nearest_rows(Q: np.ndarray, P: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """For every row q of Q, the lowest index j minimising
    ((q - P[j])**2).sum() over the rows of P not marked in ``skip``:
    (nq,) int64.  A caller that needs the distances computes
    ((Q - P[idx])**2).sum(axis=1), the same row-wise arithmetic.

    The result is bit-equal to an argmin over the whole brute-force table,
    but that table is never built.  Distances are first taken in the GEMM
    form g = ||q||^2 + ||p||^2 - 2 q.p (exact L2 search, Johnson et al.
    2017, arXiv:1702.08734), one block of Q rows at a time so a block's
    table holds at most _BLOCK_BYTES.  With E = _gemm_slack at s's largest,
    ||q||^2 + max_p ||p||^2, every p whose g lies within 2E of the row's
    smallest g, m, is a candidate, and so is the brute-force winner j*:
    g[j*] <= r[j*] + E <= r[argmin g] + E <= m + 2E.  A row with one
    candidate is decided; only rows with several (or a non-finite
    threshold, which searches every row of P) are recomputed as
    ((q - p)**2).sum(), the brute-force arithmetic, where the smallest
    value wins, ties to the lowest index.

    Every row of Q needs at least one row of P that ``skip`` leaves in.
    """
    nq, d = Q.shape
    pn = np.einsum("ij,ij->i", P, P)
    idx = np.empty(nq, dtype=np.int64)
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
            best = g.argmin(axis=1)
            thr = g[np.arange(len(q)), best] + 2.0 * _gemm_slack(d, qn + pn.max())
            cand = g <= thr[:, None]
        idx[lo : lo + len(q)] = best
        wide = ~np.isfinite(thr)
        open_ = np.flatnonzero(wide | (np.count_nonzero(cand, axis=1) > 1))
        if not len(open_):
            continue
        cand = cand[open_]
        cand[wide[open_]] = True
        if skip is not None:
            cand[:, skip] = False
        rows, cols = np.nonzero(cand)  # row-major: columns ascend within a row
        r = np.empty(len(rows))
        qo = q[open_]
        with np.errstate(over="ignore"):
            for s in range(0, len(rows), recompute):
                t = slice(s, s + recompute)
                r[t] = ((qo[rows[t]] - P[cols[t]]) ** 2).sum(axis=1)
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        least = np.minimum.reduceat(r, starts)
        hit = np.flatnonzero(r == least[rows])
        first = hit[np.r_[True, rows[hit[1:]] != rows[hit[:-1]]]]
        idx[lo + open_] = cols[first]
    return idx
