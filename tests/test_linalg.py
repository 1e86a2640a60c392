import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnn.linalg import sigmoid_vec


def scalar_logistic(x: float) -> float:
    """Textbook logistic with the saturation-safe branch, as a reference."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def sig(x: float) -> float:
    return float(sigmoid_vec(np.array([x]))[0])


def test_sigmoid_symmetry_point():
    assert sig(0.0) == 0.5


def test_sigmoid_saturates():
    assert sig(40.0) == pytest.approx(1.0, abs=1e-15)
    assert sig(745.0) == 1.0  # no overflow
    assert sig(-745.0) == pytest.approx(0.0, abs=1e-300)


def test_sigmoid_known_value():
    assert sig(1.0) == pytest.approx(0.7310585786, abs=1e-10)


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_sigmoid_complement_identity(x):
    assert sig(x) + sig(-x) == pytest.approx(1.0, abs=1e-12)
    # numpy's exp and math.exp may differ in the last bit
    assert sig(x) == pytest.approx(scalar_logistic(x), rel=4 * np.finfo(np.float64).eps)


@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_sigmoid_open_interval(x):
    assert 0.0 < sig(x) < 1.0


def test_sigmoid_vec_matches_scalar():
    xs = np.array([-745.0, -40.0, -1.5, 0.0, 0.3, 7.0, 40.0, 745.0])
    assert np.array_equal(sigmoid_vec(xs), np.array([scalar_logistic(x) for x in xs]))


def masked_logistic(x):
    """The branch-by-mask formula sigmoid_vec replaced, kept as its reference."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EDGES = np.array([0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan])
DRAWS = np.random.default_rng(0).normal(0.0, 30.0, size=100_000)


def assert_bits_of_masked_formula(got, x):
    want = masked_logistic(x)
    assert got.shape == x.shape
    # NaN maps to NaN; every other value keeps its exact bits
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))


INPUTS = (EDGES, DRAWS, DRAWS.reshape(1000, 100))


def test_sigmoid_vec_has_the_bits_of_the_masked_formula():
    for x in INPUTS:
        assert_bits_of_masked_formula(sigmoid_vec(x), x)


def test_sigmoid_vec_into_out_has_the_bits_of_the_masked_formula():
    for x in INPUTS:
        buf = np.full_like(x, 7.0)
        assert sigmoid_vec(x, out=buf) is buf
        assert_bits_of_masked_formula(buf, x)
        # out may be the input itself
        inplace = x.copy()
        assert sigmoid_vec(inplace, out=inplace) is inplace
        assert_bits_of_masked_formula(inplace, x)


def test_sigmoid_vec_into_a_row_view():
    # a row of a state buffer, as the recurrence writes it
    H = np.zeros((3, 4))
    x = np.array([-2.0, -0.0, 0.5, 40.0])
    sigmoid_vec(x, out=H[1])
    assert_bits_of_masked_formula(H[1], x)
    assert not H[0].any() and not H[2].any()


TINY = np.finfo(np.float64).smallest_subnormal
# both zeros, both infinities, NaN, subnormals and |x| up to 745
EXTREMES = np.concatenate([EDGES, [TINY, -TINY, 1e-310, -1e-310, 744.9, -744.9, 709.9,
                                   -709.9, 37.0, -37.0]])


@pytest.mark.parametrize("x", INPUTS + (EXTREMES,))
def test_sigmoid_vec_with_scratch_has_the_bits_of_the_masked_formula(x):
    scratch = np.full((2, *x.shape), 7.0)
    assert_bits_of_masked_formula(sigmoid_vec(x, scratch=scratch), x)
    buf = np.full_like(x, 7.0)
    assert sigmoid_vec(x, out=buf, scratch=scratch) is buf
    assert_bits_of_masked_formula(buf, x)
    inplace = x.copy()
    assert sigmoid_vec(inplace, out=inplace, scratch=scratch) is inplace
    assert_bits_of_masked_formula(inplace, x)


def test_sigmoid_vec_with_scratch_into_a_row_view():
    H = np.zeros((3, len(EXTREMES)))
    sigmoid_vec(EXTREMES, out=H[1], scratch=np.empty((2, len(EXTREMES))))
    assert_bits_of_masked_formula(H[1], EXTREMES)
    assert not H[0].any() and not H[2].any()


def test_sigmoid_vec_gives_an_element_the_same_bits_at_any_position():
    # one exp covers both halves of the scratch, so a value lands at other
    # offsets of the vector loops than in a lone call
    x = np.concatenate([EXTREMES, DRAWS[:40]])
    alone = np.array([sigmoid_vec(x[i:i + 1])[0] for i in range(len(x))]).view(np.uint64)
    for start in range(9):
        for stop in (len(x), len(x) - 3):
            got = sigmoid_vec(x[start:stop]).view(np.uint64)
            assert np.array_equal(got, alone[start:stop])
