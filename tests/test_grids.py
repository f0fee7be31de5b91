"""Grid construction and the s-space coordinate transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcalc.fracops import Grid, SampledFunction, make_grid


def test_rho_one_is_plain_uniform():
    g = make_grid(0.0, 1.0, 1.0, 3)
    assert np.allclose(g.x_nodes, [0.0, 0.5, 1.0], rtol=0, atol=0)
    assert np.allclose(g.s_nodes, [0.0, 0.5, 1.0], rtol=0, atol=0)


def test_rho_two_quadratic_spacing():
    g = make_grid(0.0, 1.0, 2.0, 3)
    assert np.allclose(g.s_nodes, [0.0, 0.25, 0.5], rtol=0, atol=0)
    assert g.x_nodes[0] == 0.0
    assert abs(g.x_nodes[1] - 1.0 / math.sqrt(2.0)) < 1e-15
    assert g.x_nodes[2] == 1.0


def test_small_rho_approaches_log_length():
    # (b**rho - a**rho)/rho -> log(b/a) as rho -> 0
    g = make_grid(1.0, math.e, 1e-6, 2)
    assert abs(g.s_nodes[-1] - 1.0) < 1e-5


def test_endpoints_are_exact():
    g = make_grid(0.3, 1.7, 1.8, 101)
    assert g.x_nodes[0] == 0.3
    assert g.x_nodes[-1] == 1.7
    assert g.s_nodes[0] == 0.0


def test_uniform_s_and_monotone_x():
    g = make_grid(0.2, 2.5, 0.7, 257)
    gaps = np.diff(g.s_nodes)
    # gap jitter is bounded by the rounding of the node values themselves
    assert np.all(np.abs(gaps - g.ds) <= 4 * np.spacing(g.s_nodes[-1]))
    assert np.all(np.diff(g.x_nodes) > 0.0)


def test_ds_property():
    g = make_grid(0.0, 1.0, 1.0, 5)
    assert g.ds == 0.25


def test_same_layout():
    g1 = make_grid(0.0, 1.0, 1.5, 9)
    g2 = make_grid(0.0, 1.0, 1.5, 9)
    g3 = make_grid(0.0, 1.0, 1.5, 17)
    assert g1.same_layout(g2)
    assert not g1.same_layout(g3)


@pytest.mark.parametrize(
    "a,b,rho,n",
    [(1.0, 1.0, 1.0, 5), (2.0, 1.0, 1.0, 5), (0.0, 1.0, 0.0, 5),
     (0.0, 1.0, -1.0, 5), (0.0, 1.0, 1.0, 1), (-0.5, 1.0, 1.0, 5),
     (0.0, math.inf, 1.0, 5), (0.0, math.nan, 1.0, 5),
     # an s transform that overflows, refused with no numpy warning
     (0.0, 1e300, 2.0, 5), (1.0, 1e300, 2.0, 5),
     # finite s, but the x nodes round to a non-increasing sequence
     (1.0, 1.0 + 1e-15, 1e-300, 50)],
)
def test_make_grid_rejects_bad_parameters(a, b, rho, n):
    with pytest.raises(ValueError):
        make_grid(a, b, rho, n)


def test_grid_arrays_are_read_only():
    g = make_grid(0.0, 1.0, 1.0, 5)
    with pytest.raises(ValueError):
        g.x_nodes[0] = 9.0
    with pytest.raises(ValueError):
        g.s_nodes[0] = 9.0


def test_sampled_function_validates_shape_and_finiteness():
    g = make_grid(0.0, 1.0, 1.0, 5)
    with pytest.raises(ValueError):
        SampledFunction(g, np.zeros(4))
    with pytest.raises(ValueError):
        SampledFunction(g, np.array([0.0, 1.0, np.nan, 0.0, 1.0]))


def test_sampled_function_copies_and_freezes_values():
    g = make_grid(0.0, 1.0, 1.0, 5)
    vals = np.ones(5)
    f = SampledFunction(g, vals)
    vals[0] = 7.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_from_callable():
    g = make_grid(0.0, 2.0, 1.0, 9)
    f = SampledFunction.from_callable(g, lambda x: x**2)
    assert np.array_equal(f.values, g.x_nodes**2)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=3.0),
    width=st.floats(min_value=0.05, max_value=4.0),
    rho=st.floats(min_value=0.05, max_value=4.0),
    n=st.integers(min_value=2, max_value=64),
)
def test_transform_round_trip(a, width, rho, n):
    # s_nodes and x_nodes describe the same points: recomputing s from x
    # lands back on the uniform lattice
    g = make_grid(a, a + width, rho, n)
    s_back = (np.power(g.x_nodes, rho) - a**rho) / rho
    scale = max(g.s_nodes[-1], 1.0)
    assert np.all(np.abs(s_back - g.s_nodes) < 1e-12 * scale)
