"""Dense float64 primitives used by the model, training, and evaluation code.

``sigmoid_vec`` takes an optional ``(2, *x.shape)`` scratch buffer, so a
caller that steps many times (``model.unroll``) allocates it once; without
one it allocates the buffer and runs the same lines.
"""

from __future__ import annotations

import numpy as np

# 0-d array operands: a Python float costs each ufunc call a scalar conversion
MINUS_ONE, ZERO, ONE = np.array(-1.0), np.array(0.0), np.array(1.0)


def sigmoid_vec(x: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for large |x|, written to
    ``out`` if given (which may be ``x`` itself), with ``scratch`` as its
    float64 work buffer of shape (2, *x.shape) if given.

    No exp below can overflow: e = exp(-|x|) and the numerator
    exp(min(x, 0)) is exactly 1 for x >= 0 and e below. So the logistic is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, each with the bits of its
    textbook form, and no masked select is needed. -|x| and min(x, 0) fill
    the two halves of the scratch, so one ``np.exp`` covers both.
    """
    if scratch is None:
        scratch = np.empty((2, *np.shape(x)))
    e, num = scratch[0], scratch[1]
    np.copysign(x, MINUS_ONE, out=e)
    np.minimum(x, ZERO, out=num)
    np.exp(scratch, out=scratch)
    np.add(e, ONE, out=e)
    return np.divide(num, e, out=out)
