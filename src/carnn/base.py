"""Estimator plumbing: parameter introspection compatible with the scikit-learn
contract (get_params/set_params over __init__ keywords) and input validation
helpers, without depending on scikit-learn itself.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .data import TIMESTAMP_LIMIT, Interaction
from .errors import ConfigError


class ParamsMixin:
    """get_params/set_params driven by the __init__ signature.

    Subclasses must store every constructor argument verbatim on an attribute
    of the same name, which is what makes instances cloneable by
    sklearn.base.clone and tunable by grid searches.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise ConfigError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )


def as_interactions(X) -> list[Interaction]:
    """Coerce estimator input into interactions.

    Accepts a list of Interaction, a list/array of (user, item, timestamp)
    rows, or a 2-D object/str/numeric array with those three columns.
    """
    if isinstance(X, list) and X and isinstance(X[0], Interaction):
        X = [(it.user, it.item, it.timestamp) for it in X]  # their timestamps get checked too
    arr = np.asarray(X, dtype=object)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ConfigError(
            f"expected (n, 3) rows of (user, item, timestamp), got shape {arr.shape}"
        )
    return [Interaction(str(user), str(item), as_timestamp(ts)) for user, item, ts in arr]


def as_query_rows(X) -> list[tuple[str, int]]:
    """Coerce prediction input into (user, timestamp) pairs."""
    arr = np.asarray(X, dtype=object)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(
            f"expected (n, 2) rows of (user, timestamp), got shape {arr.shape}"
        )
    return [(str(u), as_timestamp(t)) for u, t in arr]


def as_whole(value, what: str) -> int:
    """``value`` as an int if it is a whole number or a string of one;
    ConfigError naming ``what`` for anything else, a fraction included."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} {value!r} is not a whole number") from exc
    if not isinstance(value, (str, bytes)) and whole != value:
        raise ConfigError(f"{what} {value!r} is not a whole number")
    return whole


def as_flag(value, what: str) -> bool:
    """``value`` as a bool if it is a ``bool`` or a ``numpy.bool_``; ConfigError
    naming ``what`` for anything else, 0, 1 and the strings "true" and
    "false" included."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ConfigError(f"{what} {value!r} is not a boolean")


def as_real(value, what: str, lo: float) -> float:
    """``value`` as a float if it is a finite number of at least ``lo``, or a
    string of one; ConfigError naming ``what`` for anything else, NaN and
    the infinities included."""
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} {value!r} is not a number") from exc
    if not math.isfinite(real):
        raise ConfigError(f"{what} {value!r} is not a finite number")
    if real < lo:
        raise ConfigError(f"{what} must be >= {lo}, got {value!r}")
    return real


def as_timestamp(value) -> int:
    """``value`` as whole Unix seconds in [0, data.TIMESTAMP_LIMIT), the range
    parsed logs accept; ConfigError for anything else, a fraction included."""
    t = as_whole(value, "timestamp")
    if not 0 <= t < TIMESTAMP_LIMIT:
        raise ConfigError(f"timestamp {t} is outside [0, {TIMESTAMP_LIMIT})")
    return t
