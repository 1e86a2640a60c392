import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnn.context import (SECONDS_PER_DAY, ContextScheme, annotate_sequences,
                           input_context, parse_holiday_file, transition_bin)
from carnn.data import MAX_TZ_OFFSET_SECONDS, TIMESTAMP_LIMIT, SequenceSet, UserSequence
from carnn.errors import ConfigError, DataError

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

    def test_last_accepted_timestamp_converts_at_every_offset(self):
        for offset in (-MAX_TZ_OFFSET_SECONDS, 0, MAX_TZ_OFFSET_SECONDS):
            scheme = ContextScheme(timezone_offset_seconds=offset)
            assert 0 <= input_context(TIMESTAMP_LIMIT - 1, scheme) < scheme.n_input_contexts
            assert 0 <= input_context(0, scheme) < scheme.n_input_contexts


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

    def test_out_of_order_rejected(self):
        with pytest.raises(DataError):
            transition_bin(MONDAY - 1, MONDAY, self.scheme)

    @given(st.integers(min_value=0, max_value=10**8), st.integers(min_value=0, max_value=10**8))
    def test_monotone_in_gap(self, g1, g2):
        lo, hi = sorted((g1, g2))
        b_lo = transition_bin(MONDAY + lo, MONDAY, self.scheme)
        b_hi = transition_bin(MONDAY + hi, MONDAY, self.scheme)
        assert b_lo <= b_hi
        if lo >= 30 * SECONDS_PER_DAY:
            assert b_lo == 30


class TestAnnotate:
    def make_set(self, timestamps):
        seq = UserSequence("u", np.zeros(len(timestamps), dtype=np.int64),
                           np.array(timestamps, dtype=np.int64))
        return SequenceSet([seq], {"i": 0}, {"u": 0})

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
