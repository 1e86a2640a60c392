"""Dense float64 primitives used by the model, training, and evaluation code."""

from __future__ import annotations

import numpy as np


def sigmoid_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    # exp of a non-positive argument cannot overflow; e is exp(-x) for x >= 0
    # and exp(x) below, so each branch has the bits of its textbook form.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)
