"""Discrete context extraction from timestamps.

An input context id encodes the calendar situation of one event as a
mixed-radix composition of factors (day of week, hour of day, ten-day
period of the month, holiday flag). A transition bin discretizes the gap
to the previous event into whole days, capped at ``max_interval_days``,
with one reserved bin for sequence starts that have no predecessor.

Civil time uses a fixed UTC offset; there are no daylight-saving rules,
which keeps annotation deterministic across machines. Calendar factors are
read from day and second counts in integer arithmetic alone, by one kernel
that takes an int or a whole int64 array of timestamps.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field, replace
from itertools import chain, pairwise, repeat

import numpy as np

from .base import as_whole
from .errors import ConfigError, DataError, InputOutputError
from . import data as _data

SECONDS_PER_DAY = 86400

# Factor name -> number of distinct values it can take.
FACTOR_CARDINALITIES = {
    "day_of_week": 7,      # Monday=0 .. Sunday=6
    "hour_of_day": 24,     # 0 .. 23
    "ten_day_period": 3,   # day 1-10 -> 0, 11-20 -> 1, 21.. -> 2
    "is_holiday": 2,       # 1 iff the civil date is in holiday_dates
}


@dataclass(frozen=True)
class ContextScheme:
    """Configuration mapping timestamps to input-context ids and gaps to bins.

    factors: ordered factor names; the input-context id is their
        mixed-radix composition, most significant first.
    holiday_dates: civil dates treated as holidays by the is_holiday factor.
    max_interval_days: gaps of this many days or more share the top bin;
        at most 2**32 - 2, so that the start bin fits in a u32.
    timezone_offset_seconds: added to timestamps before reading civil time;
        at most 14 hours either way.
    """

    factors: tuple[str, ...] = ("day_of_week", "hour_of_day")
    holiday_dates: frozenset[_dt.date] = field(default_factory=frozenset)
    max_interval_days: int = 30
    timezone_offset_seconds: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "factors", tuple(self.factors))
            object.__setattr__(self, "holiday_dates", frozenset(self.holiday_dates))
        except TypeError as exc:
            raise ConfigError(f"factors and holiday dates must be collections: {exc}") from exc
        for name in ("max_interval_days", "timezone_offset_seconds"):
            object.__setattr__(self, name, as_whole(getattr(self, name), name))
        for day in self.holiday_dates:
            if not isinstance(day, _dt.date):
                raise ConfigError(f"holiday dates must be dates, got {day!r}")
        object.__setattr__(self, "_holiday_days", frozenset(  # days since 1970-01-01
            day.toordinal() - 719163 for day in self.holiday_dates))
        if not self.factors:
            raise ConfigError("context scheme needs at least one factor")
        unknown = [f for f in self.factors if f not in FACTOR_CARDINALITIES]
        if unknown:
            raise ConfigError(f"unknown context factors: {unknown}")
        if len(set(self.factors)) != len(self.factors):
            raise ConfigError(f"duplicate context factors: {self.factors}")
        # the cache stores gap bins as u32, the start bin max_interval_days + 1 the largest
        if not 1 <= self.max_interval_days <= 2**32 - 2:
            raise ConfigError(f"max_interval_days must be in [1, {2**32 - 2}], "
                              f"got {self.max_interval_days}")
        if abs(self.timezone_offset_seconds) > _data.MAX_TZ_OFFSET_SECONDS:
            raise ConfigError(
                f"timezone offset {self.timezone_offset_seconds} s is beyond "
                f"+/-{_data.MAX_TZ_OFFSET_SECONDS} s"
            )

    @property
    def n_input_contexts(self) -> int:
        n = 1
        for f in self.factors:
            n *= FACTOR_CARDINALITIES[f]
        return n

    @property
    def n_transition_bins(self) -> int:
        # interval bins 0..max plus the reserved start bin
        return self.max_interval_days + 2

    @property
    def start_bin(self) -> int:
        return self.max_interval_days + 1


def _day_of_month(days):
    """Day of the month (1..31) of a day count since 1970-01-01, by Hinnant's
    civil_from_days."""
    doe = (days + 719468) % 146097  # day of the 400-year era starting 0000-03-01
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # day of the year starting 1 March
    return doy - (153 * ((5 * doy + 2) // 153) + 2) // 5 + 1


def input_context(t, scheme: ContextScheme):
    """Input-context id of a timestamp: mixed-radix over the scheme's factors.

    ``t`` is Unix seconds: an int, giving an int, or an int64 array, giving
    an int64 array of the same shape.
    """
    days, secs = divmod(t + scheme.timezone_offset_seconds, SECONDS_PER_DAY)
    cid = 0
    for name in scheme.factors:
        if name == "day_of_week":
            value = (days + 3) % 7  # 1970-01-01 was a Thursday, Monday is 0
        elif name == "hour_of_day":
            value = secs // 3600
        elif name == "ten_day_period":
            mday = _day_of_month(days)
            value = (mday - 1) // 10 - mday // 31  # day 31 stays in the third period
        else:  # a set lookup for one day, where np.isin would take ~30 us
            hdays = scheme._holiday_days
            value = np.isin(days, list(hdays)) if isinstance(days, np.ndarray) else days in hdays
        cid = cid * FACTOR_CARDINALITIES[name] + value
    return cid if isinstance(cid, np.ndarray) else int(cid)


def transition_bin(t_curr, t_prev, scheme: ContextScheme):
    """Whole-day gap bin, capped at max_interval_days; start bin if no predecessor.

    ``t_curr`` and ``t_prev`` are Unix seconds as Python ints or numpy int64
    scalars, and ``t_prev`` may be None. Nothing is coerced, so an int64 gap
    gives an int64 bin of the same value. A descending pair is a DataError.
    """
    if t_prev is None:
        return scheme.start_bin
    if t_curr < t_prev:
        raise DataError(f"timestamps out of order: {t_curr} < {t_prev}")
    top = scheme.max_interval_days
    days = (t_curr - t_prev) // SECONDS_PER_DAY
    return days if days < top else top


def annotate_sequences(seqs: "_data.SequenceSet", scheme: ContextScheme) -> "_data.SequenceSet":
    """Attach (input context id, transition bin) to every step of every sequence.

    The first step of each non-empty sequence gets the reserved start bin
    in one assignment, never through ``transition_bin``. Annotation
    recomputes everything from timestamps, so re-annotating is idempotent.
    Every input context comes from one ``input_context`` call over the
    timestamp column. Every later step's bin comes from one
    ``transition_bin`` call on its gap within one user, looked up by name
    when annotating and made on Python ints; the calls feed one
    ``np.fromiter``, so no list as long as the column is built. The result
    shares the input's item and timestamp columns and holds the two new ones.
    """
    ts, offsets = seqs.timestamps, seqs.offsets
    firsts = offsets[:-1][offsets[:-1] < offsets[1:]]  # each non-empty user's first event
    later = np.ones(len(ts), dtype=bool)
    later[firsts] = False
    bins = np.empty(len(ts), dtype=np.int64)
    bins[firsts] = scheme.start_bin
    bins[later] = np.fromiter(chain.from_iterable(
        map(transition_bin, t[1:], t, repeat(scheme))
        for t in (ts[a:b].tolist() for a, b in pairwise(offsets.tolist()))),
        dtype=np.int64, count=len(ts) - len(firsts))
    return replace(seqs, input_ctxs=input_context(ts, scheme), trans_bins=bins, scheme=scheme)


def parse_holiday_file(path: str) -> frozenset[_dt.date]:
    """Read one ISO-8601 date (YYYY-MM-DD) per line; blank lines ignored."""
    dates = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    dates.add(_dt.date.fromisoformat(text))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: not an ISO date: {text!r}") from exc
    except OSError as exc:
        raise InputOutputError(f"cannot read holiday file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"holiday file {path} is not UTF-8 text: {exc}") from exc
    return frozenset(dates)
