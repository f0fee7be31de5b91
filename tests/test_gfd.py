"""Fractional derivatives: power rules, Caputo variant, integer reduction."""

import math

import numpy as np
import pytest

from gfcalc.fracops import (
    SampledFunction,
    gfd_caputo,
    gfd_riemann,
    gfi_apply,
    make_grid,
)


def test_constant_power_rule_interior():
    # D^alpha c = c (x^rho/rho)^(-alpha)/Gamma(1-alpha) for 0 < alpha < 1, a=0
    alpha, rho, c = 0.4, 1.2, 2.0
    errs = []
    for n in (513, 1025):
        grid = make_grid(0.0, 1.5, rho, n)
        f = SampledFunction(grid, np.full(n, c))
        got = gfd_riemann(f, alpha).values
        m = slice(n // 8, n - n // 8)
        want = c * np.power(grid.s_nodes[m], -alpha) / math.gamma(1.0 - alpha)
        errs.append(float(np.max(np.abs(got[m] - want))))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-3


def test_classical_derivative_alpha_one():
    grid = make_grid(0.0, 2.0, 1.0, 513)
    f = SampledFunction(grid, grid.x_nodes**2)
    got = gfd_riemann(f, 1.0).values
    want = 2.0 * grid.x_nodes
    m = slice(1, -1)
    assert float(np.max(np.abs(got[m] - want[m]))) < 1e-10


def test_integer_alpha_two_on_cubic():
    # (d/ds)^2 of s^3 = 6s, rho=1
    grid = make_grid(0.0, 1.0, 1.0, 257)
    f = SampledFunction(grid, grid.s_nodes**3)
    got = gfd_riemann(f, 2.0).values
    want = 6.0 * grid.s_nodes
    # two stencil passes contaminate two nodes at each end
    m = slice(2, -2)
    assert float(np.max(np.abs(got[m] - want[m]))) < 1e-9


def test_power_rule_fractional():
    # D^alpha (x^rho/rho)^beta = Gamma(beta+1)/Gamma(beta+1-alpha)
    #                            * (x^rho/rho)^(beta-alpha)
    alpha, rho, beta = 0.6, 1.4, 2.0
    grid = make_grid(0.0, 1.2, rho, 1025)
    f = SampledFunction(grid, np.power(grid.s_nodes, beta))
    got = gfd_riemann(f, alpha).values
    want = (math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha)
            * np.power(grid.s_nodes, beta - alpha))
    m = slice(64, 1025 - 64)
    assert float(np.max(np.abs(got[m] - want[m]))) < 1e-4


@pytest.mark.parametrize("n", [1025, 4097])
def test_derivative_of_large_smooth_values_is_finite(n):
    # the end stencils' terms stay below the float limit, and so must every
    # intermediate product, however small ds is
    grid = make_grid(0.0, 1.0, 1.0, n)
    f = SampledFunction(grid, 1e306 * (1.0 + grid.x_nodes))
    for got in (gfd_riemann(f, 1.0).values, gfd_caputo(f, 1.0, (1e306,)).values):
        np.testing.assert_allclose(got, 1e306, rtol=1e-9)

def test_left_inverse_sanity():
    alpha = 0.7
    grid = make_grid(0.1, 1.1, 1.0, 1025)
    f = SampledFunction.from_callable(grid, lambda x: np.cos(2.0 * (x - 0.1)) - 1.0)
    back = gfd_riemann(gfi_apply(f, alpha), alpha).values
    m = slice(64, 1025 - 64)
    assert float(np.max(np.abs(back[m] - f.values[m]))) < 1e-5


def test_caputo_of_constant_is_zero():
    grid = make_grid(0.0, 1.0, 1.3, 129)
    f = SampledFunction(grid, np.full(129, 5.0))
    got = gfd_caputo(f, 0.5, [5.0]).values
    assert float(np.max(np.abs(got))) < 1e-10


def test_caputo_sqrt_pi_profile():
    # Caputo half-derivative of x (rho=1, a=0) is 2 sqrt(x/pi)
    errs = []
    for n in (513, 1025, 2049):
        grid = make_grid(0.0, 1.0, 1.0, n)
        f = SampledFunction(grid, grid.x_nodes.copy())
        got = gfd_caputo(f, 0.5, [0.0]).values
        want = 2.0 * np.sqrt(grid.x_nodes / math.pi)
        m = slice(n // 16, n - n // 16)
        errs.append(float(np.max(np.abs(got[m] - want[m]))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-5


def test_caputo_two_term_init():
    # alpha in (1,2): subtracting the two-term polynomial kills affine parts
    grid = make_grid(0.0, 1.0, 1.0, 257)
    f = SampledFunction(grid, 3.0 + 2.0 * grid.x_nodes)
    got = gfd_caputo(f, 1.5, [3.0, 2.0]).values
    m = slice(16, 257 - 16)
    assert float(np.max(np.abs(got[m]))) < 1e-8


def test_caputo_init_length_mismatch():
    grid = make_grid(0.0, 1.0, 1.0, 65)
    f = SampledFunction(grid, np.ones(65))
    with pytest.raises(ValueError):
        gfd_caputo(f, 0.5, [1.0, 0.0])
    with pytest.raises(ValueError):
        gfd_caputo(f, 1.5, [1.0])


def test_caputo_init_must_be_finite():
    # a non-finite init is an input error, not an overflow of the result
    grid = make_grid(0.0, 1.0, 1.0, 17)
    f = SampledFunction(grid, np.ones(17))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="init must be finite"):
            gfd_caputo(f, 0.5, [bad])


def test_grid_too_small_for_stencil():
    grid = make_grid(0.0, 1.0, 1.0, 3)
    f = SampledFunction(grid, np.ones(3))
    with pytest.raises(ValueError):
        gfd_riemann(f, 1.5)


def test_alpha_validation():
    grid = make_grid(0.0, 1.0, 1.0, 65)
    f = SampledFunction(grid, np.ones(65))
    for bad in (0.0, -0.3, math.nan):
        with pytest.raises(ValueError):
            gfd_riemann(f, bad)
