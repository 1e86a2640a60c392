import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnn.errors import ConfigError
from carnn.linalg import outer, sigmoid, sigmoid_vec, vec_mat

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_vec_mat_identity_passthrough():
    assert np.array_equal(vec_mat(np.array([1.0, 0.0]), np.eye(2)), [1.0, 0.0])


def test_vec_mat_zero_annihilates():
    m = np.array([[3.0, -1.0], [2.0, 5.0]])
    assert np.array_equal(vec_mat(np.zeros(2), m), np.zeros(2))


def test_vec_mat_hand_expansion():
    out = vec_mat(np.array([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(out, [1.0, 3.0])


def test_vec_mat_dimension_mismatch():
    with pytest.raises(ConfigError):
        vec_mat(np.ones(3), np.eye(2))


@given(st.lists(finite_floats, min_size=1, max_size=6))
def test_vec_mat_with_identity_is_identity_map(values):
    v = np.array(values)
    assert np.array_equal(vec_mat(v, np.eye(len(v))), v)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_vec_mat_distributes_over_addition(d, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=d), rng.normal(size=d)
    m = rng.normal(size=(d, d))
    assert np.allclose(vec_mat(a + b, m), vec_mat(a, m) + vec_mat(b, m), atol=1e-10)


def test_sigmoid_symmetry_point():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_saturates():
    assert sigmoid(40.0) == pytest.approx(1.0, abs=1e-15)
    assert sigmoid(745.0) == 1.0  # no overflow
    assert sigmoid(-745.0) == pytest.approx(0.0, abs=1e-300)


def test_sigmoid_known_value():
    assert sigmoid(1.0) == pytest.approx(0.7310585786, abs=1e-10)


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_sigmoid_complement_identity(x):
    assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_sigmoid_open_interval(x):
    assert 0.0 < sigmoid(x) < 1.0


def test_sigmoid_vec_matches_scalar():
    xs = np.array([-40.0, -1.5, 0.0, 0.3, 7.0, 40.0])
    assert np.array_equal(sigmoid_vec(xs), np.array([sigmoid(x) for x in xs]))


def masked_logistic(x):
    """The branch-by-mask formula sigmoid_vec replaced, kept as its reference."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_vec_has_the_bits_of_the_masked_formula():
    edges = np.array([0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan])
    draws = np.random.default_rng(0).normal(0.0, 30.0, size=100_000)
    for x in (edges, draws, draws.reshape(1000, 100)):
        got, want = sigmoid_vec(x), masked_logistic(x)
        assert got.shape == x.shape
        # NaN maps to NaN; every other value keeps its exact bits
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))


def test_outer_basis_vectors():
    out = outer(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.array_equal(out, [[0.0, 1.0], [0.0, 0.0]])


def test_outer_zero_gives_zero_matrix():
    assert not outer(np.zeros(3), np.ones(3)).any()


def test_outer_hand_expansion():
    out = outer(np.array([2.0, 3.0]), np.array([1.0, 1.0]))
    assert np.array_equal(out, [[2.0, 2.0], [3.0, 3.0]])


def test_outer_dimension_mismatch():
    with pytest.raises(ConfigError):
        outer(np.ones(2), np.ones(3))
