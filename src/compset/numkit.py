"""Small dense-numerics helpers shared by the rest of the package.

A "matrix" throughout the package is a 2-D float64 C-order ndarray with at
least one row and one column and finite entries; :func:`as_matrix` is the
single validation gate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidInput, NumericalFailure

Matrix = np.ndarray


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
