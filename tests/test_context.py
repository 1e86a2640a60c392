import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carnn.context import (FACTOR_CARDINALITIES, SECONDS_PER_DAY, ContextScheme,
                           annotate_sequences, input_context, parse_holiday_file, transition_bin)
from carnn.data import MAX_TZ_OFFSET_SECONDS, TIMESTAMP_LIMIT, UserSequence
from carnn.errors import ConfigError, DataError
from references import sequence_set

# 2000-01-03 00:00:00 UTC was a Monday
MONDAY = 946857600


def ts(dow=0, hour=0, extra_days=0):
    return MONDAY + (dow + 7 * extra_days) * SECONDS_PER_DAY + hour * 3600


class TestScheme:
    def test_default_cardinalities(self):
        scheme = ContextScheme(factors=("day_of_week", "hour_of_day"))
        assert scheme.n_input_contexts == 168
        assert scheme.n_transition_bins == 32
        assert scheme.start_bin == 31

    def test_three_factor_cardinality(self):
        scheme = ContextScheme(factors=("day_of_week", "ten_day_period", "is_holiday"))
        assert scheme.n_input_contexts == 42

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ConfigError):
            ContextScheme(factors=())

    def test_duplicate_factor_rejected(self):
        with pytest.raises(ConfigError):
            ContextScheme(factors=("hour_of_day", "hour_of_day"))

    def test_unknown_factor_rejected(self):
        with pytest.raises(ConfigError):
            ContextScheme(factors=("weather",))

    def test_timezone_offset_beyond_14_hours_rejected(self):
        for offset in (MAX_TZ_OFFSET_SECONDS + 1, -MAX_TZ_OFFSET_SECONDS - 1):
            with pytest.raises(ConfigError, match="timezone offset"):
                ContextScheme(timezone_offset_seconds=offset)

    @pytest.mark.parametrize("days", [0, -1, 2**32 - 1, 2**32])
    def test_max_interval_days_outside_the_u32_start_bin_rejected(self, days):
        with pytest.raises(ConfigError, match=f"max_interval_days must be in .*got {days}"):
            ContextScheme(max_interval_days=days)

    def test_largest_max_interval_days_has_the_largest_u32_start_bin(self):
        assert ContextScheme(max_interval_days=2**32 - 2).start_bin == 2**32 - 1

    @pytest.mark.parametrize("field", ["max_interval_days", "timezone_offset_seconds"])
    @pytest.mark.parametrize("value", [3.5, 1800.5, "2.5", float("nan"), float("inf"), None])
    def test_value_that_is_not_a_whole_number_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ContextScheme(**{field: value})

    def test_whole_values_are_stored_as_ints(self):
        scheme = ContextScheme(max_interval_days=3.0, timezone_offset_seconds=np.int64(-3600))
        assert type(scheme.max_interval_days) is int and scheme.n_transition_bins == 5
        assert type(scheme.timezone_offset_seconds) is int

    def test_holiday_that_is_not_a_date_rejected(self):
        with pytest.raises(ConfigError, match="2000-01-01"):
            ContextScheme(factors=("is_holiday",), holiday_dates={"2000-01-01"})

    def test_last_accepted_timestamp_converts_at_every_offset(self):
        for offset in (-MAX_TZ_OFFSET_SECONDS, 0, MAX_TZ_OFFSET_SECONDS):
            scheme = ContextScheme(timezone_offset_seconds=offset)
            assert 0 <= input_context(TIMESTAMP_LIMIT - 1, scheme) < scheme.n_input_contexts
            assert 0 <= input_context(0, scheme) < scheme.n_input_contexts


def _civil(t, scheme):
    return dt.datetime.fromtimestamp(int(t) + scheme.timezone_offset_seconds, tz=dt.timezone.utc)


def _factor_value(name, civil, scheme):
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
    raise AssertionError(name)


def reference_context(t, scheme):
    """The id through datetime, as input_context computed it before its
    integer kernel."""
    civil = _civil(t, scheme)
    cid = 0
    for name in scheme.factors:
        cid = cid * FACTOR_CARDINALITIES[name] + _factor_value(name, civil, scheme)
    return cid


LEAP_DAY = dt.date(2000, 2, 29)
LAST_DAY = dt.date(9999, 12, 31)
FACTOR_ORDERS = st.permutations(sorted(FACTOR_CARDINALITIES)).flatmap(
    lambda names: st.integers(1, len(names)).map(lambda k: tuple(names[:k])))


class TestCalendarKernel:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, TIMESTAMP_LIMIT - 1), min_size=1, max_size=6),
           st.integers(-MAX_TZ_OFFSET_SECONDS, MAX_TZ_OFFSET_SECONDS), FACTOR_ORDERS,
           st.sets(st.dates(), max_size=3), st.booleans())
    @example([951782400, 951868799, TIMESTAMP_LIMIT - 1, 0], -MAX_TZ_OFFSET_SECONDS,
             ("is_holiday", "ten_day_period", "hour_of_day", "day_of_week"), set(), False)
    @example([TIMESTAMP_LIMIT - 1, 0], MAX_TZ_OFFSET_SECONDS, ("ten_day_period", "is_holiday"),
             set(), False)
    def test_matches_the_datetime_reference(self, stamps, offset, factors, holidays, own_day):
        holidays |= {LEAP_DAY, LAST_DAY}
        if own_day:  # a random date is rarely one of the stamps' own
            holidays.add(_civil(stamps[0], ContextScheme(timezone_offset_seconds=offset)).date())
        scheme = ContextScheme(factors=factors, holiday_dates=holidays,
                               timezone_offset_seconds=offset)
        expected = [reference_context(t, scheme) for t in stamps]
        for t, want in zip(stamps, expected):
            got = input_context(t, scheme)
            assert type(got) is int and got == want
        ids = input_context(np.array(stamps, dtype=np.int64), scheme)
        assert ids.dtype == np.int64 and ids.shape == (len(stamps),)
        assert ids.tolist() == expected
        column = input_context(np.array(stamps, dtype=np.int64).reshape(-1, 1), scheme)
        assert column.dtype == np.int64 and column.shape == (len(stamps), 1)
        assert column.ravel().tolist() == expected

    def test_every_day_around_century_ends_and_a_stride_of_days(self):
        # the days where Hinnant's century and leap-year terms change the date
        starts = [dt.datetime(year, 2, 20, 12, tzinfo=dt.timezone.utc).timestamp()
                  for year in range(2000, 10000, 100)]
        stamps = [int(start) + k * SECONDS_PER_DAY for start in starts for k in range(21)]
        stamps += list(range(0, TIMESTAMP_LIMIT, 997 * SECONDS_PER_DAY + 3607))
        scheme = ContextScheme(factors=("ten_day_period", "day_of_week", "hour_of_day"))
        ids = input_context(np.array(stamps, dtype=np.int64), scheme)
        assert ids.tolist() == [reference_context(t, scheme) for t in stamps]

    @pytest.mark.parametrize("factors", [("hour_of_day",), ("is_holiday", "ten_day_period")])
    def test_empty_array_gives_empty_ids(self, factors):
        ids = input_context(np.zeros(0, dtype=np.int64), ContextScheme(factors=factors))
        assert ids.dtype == np.int64 and ids.shape == (0,)

    def test_leap_day_and_last_day_are_holidays(self):
        scheme = ContextScheme(factors=("is_holiday", "ten_day_period"),
                               holiday_dates={LEAP_DAY, LAST_DAY})
        leap_noon = 951825600  # 2000-02-29T12:00Z
        assert input_context(leap_noon, scheme) == 1 * 3 + 2
        assert input_context(leap_noon + SECONDS_PER_DAY, scheme) == 0  # 1 March
        assert input_context(TIMESTAMP_LIMIT - 1, scheme) == 1 * 3 + 2
        for offset, holiday in ((MAX_TZ_OFFSET_SECONDS, 1), (-MAX_TZ_OFFSET_SECONDS, 0)):
            # 9999-12-31T23:59:59 and 9999-12-30T19:59:59 in civil time
            shifted = ContextScheme(factors=scheme.factors, holiday_dates=scheme.holiday_dates,
                                    timezone_offset_seconds=offset)
            assert input_context(TIMESTAMP_LIMIT - 1, shifted) == holiday * 3 + 2


class TestInputContext:
    def test_thursday_afternoon_mixed_radix(self):
        scheme = ContextScheme(factors=("day_of_week", "hour_of_day"))
        assert input_context(ts(dow=3, hour=14), scheme) == 3 * 24 + 14 == 86

    def test_monday_midnight_is_zero(self):
        scheme = ContextScheme(factors=("day_of_week", "hour_of_day"))
        assert input_context(ts(), scheme) == 0

    def test_ten_day_periods(self):
        scheme = ContextScheme(factors=("ten_day_period",))
        jan = dt.datetime(2001, 1, 1, tzinfo=dt.timezone.utc)
        for day, expected in [(1, 0), (10, 0), (11, 1), (20, 1), (21, 2), (31, 2)]:
            t = int(jan.replace(day=day).timestamp())
            assert input_context(t, scheme) == expected

    def test_holiday_factor(self):
        holiday = dt.date(2000, 1, 3)
        scheme = ContextScheme(factors=("is_holiday",), holiday_dates=frozenset({holiday}))
        assert input_context(MONDAY, scheme) == 1
        assert input_context(MONDAY + SECONDS_PER_DAY, scheme) == 0

    def test_timezone_offset_shifts_civil_time(self):
        # 23:00 UTC Monday is Tuesday 01:00 at UTC+2
        scheme_utc = ContextScheme(factors=("day_of_week", "hour_of_day"))
        scheme_east = ContextScheme(factors=("day_of_week", "hour_of_day"),
                                    timezone_offset_seconds=2 * 3600)
        t = ts(dow=0, hour=23)
        assert input_context(t, scheme_utc) == 23
        assert input_context(t, scheme_east) == 1 * 24 + 1

    def test_bijection_over_factor_tuples(self):
        scheme = ContextScheme(factors=("day_of_week", "hour_of_day"))
        ids = {input_context(ts(dow=d, hour=h), scheme) for d in range(7) for h in range(24)}
        assert ids == set(range(168))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_id_always_in_range(self, t):
        scheme = ContextScheme(factors=("day_of_week", "hour_of_day", "ten_day_period"))
        assert 0 <= input_context(t, scheme) < scheme.n_input_contexts


class TestTransitionBin:
    scheme = ContextScheme(factors=("hour_of_day",))

    def test_sub_day_gap_is_bin_zero(self):
        assert transition_bin(MONDAY + SECONDS_PER_DAY // 2, MONDAY, self.scheme) == 0

    def test_fractional_days_floor(self):
        gap = int(3.2 * SECONDS_PER_DAY)
        assert transition_bin(MONDAY + gap, MONDAY, self.scheme) == 3

    def test_long_gap_capped_at_max(self):
        assert transition_bin(MONDAY + 45 * SECONDS_PER_DAY, MONDAY, self.scheme) == 30

    def test_exact_day_boundary(self):
        assert transition_bin(86400, 0, self.scheme) == 1

    def test_missing_predecessor_gets_start_bin(self):
        assert transition_bin(MONDAY, None, self.scheme) == self.scheme.start_bin == 31

    @pytest.mark.parametrize("as_time", [int, np.int64])
    def test_out_of_order_rejected(self, as_time):
        with pytest.raises(DataError, match=f"^timestamps out of order: {MONDAY - 1} < {MONDAY}$"):
            transition_bin(as_time(MONDAY - 1), as_time(MONDAY), self.scheme)

    @pytest.mark.parametrize("gap, expected", [(0, 0), (3 * SECONDS_PER_DAY, 3),
                                               (45 * SECONDS_PER_DAY, 30), (None, 31)],
                             ids=["zero", "day_multiple", "past_cap", "no_predecessor"])
    def test_int64_scalars_give_the_python_int_bin(self, gap, expected):
        t_prev = None if gap is None else MONDAY
        t_curr = MONDAY + (gap or 0)
        assert transition_bin(t_curr, t_prev, self.scheme) == expected
        as_int64 = None if t_prev is None else np.int64(t_prev)
        assert transition_bin(np.int64(t_curr), as_int64, self.scheme) == expected
        assert transition_bin(np.int64(t_curr), t_prev, self.scheme) == expected

    @given(st.integers(min_value=0, max_value=10**8), st.integers(min_value=0, max_value=10**8))
    def test_monotone_in_gap(self, g1, g2):
        lo, hi = sorted((g1, g2))
        b_lo = transition_bin(MONDAY + lo, MONDAY, self.scheme)
        b_hi = transition_bin(MONDAY + hi, MONDAY, self.scheme)
        assert b_lo <= b_hi
        if lo >= 30 * SECONDS_PER_DAY:
            assert b_lo == 30


class TestAnnotate:
    def make_set(self, *users):
        return sequence_set([UserSequence(f"u{k}", np.zeros(len(t), dtype=np.int64),
                                          np.array(t, dtype=np.int64))
                             for k, t in enumerate(users)], {"i": 0})

    def test_single_step_gets_start_bin(self):
        scheme = ContextScheme(factors=("hour_of_day",))
        out = annotate_sequences(self.make_set([MONDAY]), scheme)
        assert out.sequences[0].trans_bins.tolist() == [scheme.start_bin]

    def test_empty_user_gets_empty_arrays(self):
        scheme = ContextScheme(factors=("hour_of_day",))
        out = annotate_sequences(self.make_set([]), scheme)
        seq = out.sequences[0]
        assert seq.annotated
        assert seq.input_ctxs.shape == seq.trans_bins.shape == (0,)
        assert seq.input_ctxs.dtype == seq.trans_bins.dtype == np.int64

    def test_one_hour_apart_is_bin_zero(self):
        scheme = ContextScheme(factors=("hour_of_day",))
        out = annotate_sequences(self.make_set([MONDAY, MONDAY + 3600]), scheme)
        assert out.sequences[0].trans_bins.tolist() == [scheme.start_bin, 0]
        assert out.sequences[0].input_ctxs.tolist() == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 30, 2**32 - 2]),
           st.lists(st.tuples(st.integers(0, TIMESTAMP_LIMIT // 2), st.lists(st.one_of(
               st.just(0),  # equal timestamps
               st.integers(0, 40).map(lambda k: k * SECONDS_PER_DAY),  # exact day multiples
               st.integers(0, 40).map(lambda k: k * SECONDS_PER_DAY + 1),
               st.integers(0, 10**10)), max_size=8)), max_size=6))
    def test_every_bin_is_transition_bin_of_its_gap(self, max_days, users):
        # each user's timestamps: a start, then the drawn gaps; the empty gap
        # list is a one-event user, and one user in three is left empty
        stamps = [[] if k % 3 == 2 else [start, *(start + np.cumsum(gaps)).tolist()]
                  for k, (start, gaps) in enumerate(users)]
        scheme = ContextScheme(factors=("hour_of_day",), max_interval_days=max_days)
        seqs = sequence_set([UserSequence(f"u{k}", np.zeros(len(t), dtype=np.int64),
                                          np.array(t, dtype=np.int64))
                             for k, t in enumerate(stamps)], {"i": 0})
        out = annotate_sequences(seqs, scheme)
        assert out.scheme is scheme and len(out.sequences) == len(stamps)
        # the new columns are set whole; the item and timestamp columns are shared
        assert out.items is seqs.items and out.timestamps is seqs.timestamps
        assert len(out.input_ctxs) == len(out.trans_bins) == len(seqs.items)
        for seq, t in zip(out.sequences, stamps):
            assert seq.input_ctxs.dtype == seq.trans_bins.dtype == np.int64
            assert seq.input_ctxs.tolist() == [input_context(x, scheme) for x in t]
            bins = seq.trans_bins.tolist()
            assert bins[:1] == [scheme.start_bin][:len(t)]
            assert bins[1:] == [transition_bin(x, prev, scheme) for prev, x in zip(t, t[1:])]
            assert scheme.start_bin not in bins[1:]

    def test_gap_bins_come_from_transition_bin(self, monkeypatch):
        # a gap's bin is whatever transition_bin, looked up when annotating, returns
        import carnn.context as context
        monkeypatch.setattr(context, "transition_bin", lambda t, prev, scheme: 7)
        scheme = ContextScheme(factors=("hour_of_day",))
        out = annotate_sequences(self.make_set([MONDAY, MONDAY, MONDAY + 3600]), scheme)
        assert out.sequences[0].trans_bins.tolist() == [scheme.start_bin, 7, 7]

    def test_first_descending_pair_is_reported(self):
        # the second user holds two descending pairs; annotation stops at the first
        scheme = ContextScheme(factors=("hour_of_day",))
        seqs = self.make_set([MONDAY, MONDAY + 5],
                             [MONDAY + 10, MONDAY + 7, MONDAY + 9, MONDAY + 2])
        with pytest.raises(DataError, match=f"^timestamps out of order: {MONDAY + 7} < {MONDAY + 10}$"):
            annotate_sequences(seqs, scheme)

    def test_descent_across_a_user_boundary_is_a_start(self):
        # the column descends from u0's last event to u2's first, past the
        # empty u1; a user's first event has no predecessor
        scheme = ContextScheme(factors=("hour_of_day",))
        day = SECONDS_PER_DAY
        out = annotate_sequences(self.make_set([MONDAY + 5 * day, MONDAY + 6 * day], [],
                                               [MONDAY, MONDAY + 2 * day]), scheme)
        assert out.trans_bins.tolist() == [scheme.start_bin, 1, scheme.start_bin, 2]

    def test_reannotation_is_idempotent(self):
        scheme = ContextScheme(factors=("day_of_week", "hour_of_day"))
        once = annotate_sequences(self.make_set([MONDAY, MONDAY + 90000, MONDAY + 400000]), scheme)
        twice = annotate_sequences(once, scheme)
        for a, b in zip(once.sequences, twice.sequences):
            assert np.array_equal(a.input_ctxs, b.input_ctxs)
            assert np.array_equal(a.trans_bins, b.trans_bins)


class TestHolidayFile:
    def test_parse_valid_file(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2000-01-01\n\n2000-12-25\n")
        dates = parse_holiday_file(str(path))
        assert dates == {dt.date(2000, 1, 1), dt.date(2000, 12, 25)}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("not-a-date\n")
        with pytest.raises(ConfigError, match="not-a-date"):
            parse_holiday_file(str(path))
