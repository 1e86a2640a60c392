"""Estimator plumbing: parameter introspection compatible with the scikit-learn
contract (get_params/set_params over __init__ keywords) and input validation
helpers, without depending on scikit-learn itself.
"""

from __future__ import annotations

import inspect

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
        return list(X)
    arr = np.asarray(X, dtype=object)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ConfigError(
            f"expected (n, 3) rows of (user, item, timestamp), got shape {arr.shape}"
        )
    out = []
    for user, item, ts in arr:
        try:
            timestamp = int(ts)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"timestamp {ts!r} is not an integer") from exc
        if timestamp < 0:
            raise ConfigError(f"timestamp {timestamp} is negative")
        if timestamp >= TIMESTAMP_LIMIT:
            raise ConfigError(f"timestamp {timestamp} is not below {TIMESTAMP_LIMIT}")
        out.append(Interaction(str(user), str(item), timestamp))
    return out


def as_query_rows(X) -> list[tuple[str, int]]:
    """Coerce prediction input into (user, timestamp) pairs."""
    arr = np.asarray(X, dtype=object)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(
            f"expected (n, 2) rows of (user, timestamp), got shape {arr.shape}"
        )
    return [(str(u), int(t)) for u, t in arr]
