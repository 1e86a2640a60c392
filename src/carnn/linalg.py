"""Dense float64 primitives used by the model, training, and evaluation code.

Vectors are 1-D numpy float64 arrays of length d, matrices are (d, d)
float64 arrays with row-major semantics; products treat vectors as rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def as_vector(values, d: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking its length."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ConfigError(f"expected a 1-D vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ConfigError(f"expected vector of length {d}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ConfigError("vector contains non-finite entries")
    return v


def as_matrix(values, d: int | None = None) -> np.ndarray:
    """Coerce to a finite square float64 matrix, optionally checking its size."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ConfigError(f"expected a {d}x{d} matrix, got {m.shape[0]}x{m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("matrix contains non-finite entries")
    return m


def vec_mat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-vector times matrix product v @ m."""
    v = np.asarray(v, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if v.ndim != 1 or m.ndim != 2 or v.shape[0] != m.shape[0]:
        raise ConfigError(
            f"dimension mismatch in vec_mat: vector {v.shape} vs matrix {m.shape}"
        )
    return v @ m


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer product: result[i][j] = a[i] * b[j]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise ConfigError(
            f"dimension mismatch in outer: {a.shape} vs {b.shape}"
        )
    return np.outer(a, b)


def sigmoid(x: float) -> float:
    """Logistic function 1 / (1 + e^-x), saturation-safe at both extremes."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def sigmoid_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    # exp of a non-positive argument cannot overflow; e is exp(-x) for x >= 0
    # and exp(x) below, so each branch has the bits of its textbook form.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)
