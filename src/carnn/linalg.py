"""Dense float64 primitives used by the model, training, and evaluation code."""

from __future__ import annotations

import numpy as np

# 0-d array operands: a Python float costs each ufunc call a scalar conversion
_MINUS_ONE, _ZERO, _ONE = np.array(-1.0), np.array(0.0), np.array(1.0)


def sigmoid_vec(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for large |x|, written to
    ``out`` if given (which may be ``x`` itself).

    No exp below can overflow: e = exp(-|x|) and the numerator
    exp(min(x, 0)) is exactly 1 for x >= 0 and e below. So the logistic is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, each with the bits of its
    textbook form, and no masked select is needed.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.copysign(x, _MINUS_ONE)
    np.exp(e, out=e)
    num = np.minimum(x, _ZERO)
    np.exp(num, out=num)
    np.add(e, _ONE, out=e)
    return np.divide(num, e, out=out)
