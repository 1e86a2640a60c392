"""Dense float64 primitives used by the model, training, and evaluation code.

``model.unroll`` runs the lines of ``sigmoid_vec`` inline with the 0-d
constants below; tests hold its states to the bits of a loop of
``model.hidden_step``, which calls ``sigmoid_vec``.
"""

from __future__ import annotations

import numpy as np

# 0-d array operands: a Python float costs each ufunc call a scalar conversion
MINUS_ONE, ZERO, ONE = np.array(-1.0), np.array(0.0), np.array(1.0)


def sigmoid_vec(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for large |x|, written to
    ``out`` if given (which may be ``x`` itself).

    No exp below can overflow: e = exp(-|x|) and the numerator
    exp(min(x, 0)) is exactly 1 for x >= 0 and e below. So the logistic is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, each with the bits of its
    textbook form, and no masked select is needed. -|x| and min(x, 0) fill
    the two halves of one (2, *x.shape) work buffer, so one ``np.exp`` covers
    both.
    """
    pair = np.empty((2, *np.shape(x)))
    e, num = pair
    np.copysign(x, MINUS_ONE, out=e)
    np.minimum(x, ZERO, out=num)
    np.exp(pair, out=pair)
    np.add(e, ONE, out=e)
    return np.divide(num, e, out=out)
