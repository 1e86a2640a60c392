"""Discrete context extraction from timestamps.

An input context id encodes the calendar situation of one event as a
mixed-radix composition of factors (day of week, hour of day, ten-day
period of the month, holiday flag). A transition bin discretizes the gap
to the previous event into whole days, capped at ``max_interval_days``,
with one reserved bin for sequence starts that have no predecessor.

Civil time uses a fixed UTC offset; there are no daylight-saving rules,
which keeps annotation deterministic across machines.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field, replace

from .errors import ConfigError, DataError
from . import data as _data

SECONDS_PER_DAY = 86400

# Factor name -> number of distinct values it can take.
FACTOR_CARDINALITIES = {
    "day_of_week": 7,      # Monday=0 .. Sunday=6
    "hour_of_day": 24,     # 0 .. 23
    "ten_day_period": 3,   # day 1-10 -> 0, 11-20 -> 1, 21.. -> 2
    "is_holiday": 2,       # 1 iff the civil date is in holiday_dates
}

_UTC = _dt.timezone.utc


@dataclass(frozen=True)
class ContextScheme:
    """Configuration mapping timestamps to input-context ids and gaps to bins.

    factors: ordered factor names; the input-context id is their
        mixed-radix composition, most significant first.
    holiday_dates: civil dates treated as holidays by the is_holiday factor.
    max_interval_days: gaps of this many days or more share the top bin.
    timezone_offset_seconds: added to timestamps before reading civil time;
        at most 14 hours either way.
    """

    factors: tuple[str, ...] = ("day_of_week", "hour_of_day")
    holiday_dates: frozenset[_dt.date] = field(default_factory=frozenset)
    max_interval_days: int = 30
    timezone_offset_seconds: int = 0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "holiday_dates", frozenset(self.holiday_dates))
        if not self.factors:
            raise ConfigError("context scheme needs at least one factor")
        unknown = [f for f in self.factors if f not in FACTOR_CARDINALITIES]
        if unknown:
            raise ConfigError(f"unknown context factors: {unknown}")
        if len(set(self.factors)) != len(self.factors):
            raise ConfigError(f"duplicate context factors: {self.factors}")
        if self.max_interval_days < 1:
            raise ConfigError("max_interval_days must be >= 1")
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


def _civil(t: int, scheme: ContextScheme) -> _dt.datetime:
    return _dt.datetime.fromtimestamp(int(t) + scheme.timezone_offset_seconds, tz=_UTC)


def _factor_value(name: str, civil: _dt.datetime, scheme: ContextScheme) -> int:
    if name == "day_of_week":
        return civil.weekday()
    if name == "hour_of_day":
        return civil.hour
    if name == "ten_day_period":
        if civil.day <= 10:
            return 0
        if civil.day <= 20:
            return 1
        return 2
    if name == "is_holiday":
        return 1 if civil.date() in scheme.holiday_dates else 0
    raise ConfigError(f"unknown context factor: {name}")


def input_context(t: int, scheme: ContextScheme) -> int:
    """Input-context id of a timestamp: mixed-radix over the scheme's factors."""
    civil = _civil(t, scheme)
    cid = 0
    for name in scheme.factors:
        cid = cid * FACTOR_CARDINALITIES[name] + _factor_value(name, civil, scheme)
    return cid


def transition_bin(t_curr: int, t_prev: int | None, scheme: ContextScheme) -> int:
    """Whole-day gap bin, capped at max_interval_days; start bin if no predecessor."""
    if t_prev is None:
        return scheme.start_bin
    if t_curr < t_prev:
        raise DataError(f"timestamps out of order: {t_curr} < {t_prev}")
    return min((int(t_curr) - int(t_prev)) // SECONDS_PER_DAY, scheme.max_interval_days)


def annotate_sequences(seqs: "_data.SequenceSet", scheme: ContextScheme) -> "_data.SequenceSet":
    """Attach (input context id, transition bin) to every step of every sequence.

    The first step of each sequence gets the reserved start bin. Annotation
    recomputes everything from timestamps, so re-annotating is idempotent.
    """
    annotated = []
    for seq in seqs.sequences:
        ts = seq.timestamps
        ctx = [input_context(t, scheme) for t in ts]
        bins = [scheme.start_bin] if len(ts) else []  # an empty user gets empty arrays
        for k in range(1, len(ts)):
            bins.append(transition_bin(ts[k], ts[k - 1], scheme))
        annotated.append(seq.with_annotations(ctx, bins))
    return replace(seqs, sequences=annotated, scheme=scheme)


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
        raise ConfigError(f"cannot read holiday file {path}: {exc}") from exc
    return frozenset(dates)
