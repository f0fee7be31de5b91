"""Fractional integral operator: closed forms, reductions, and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcalc.fracops import (
    SampledFunction,
    gfi_apply,
    gfi_reference,
    make_grid,
)


def power_exact(x, alpha, rho, beta):
    # I^alpha of (tau^rho/rho)^beta from 0: Gamma(beta+1)/Gamma(alpha+beta+1)
    # * (x^rho/rho)^(alpha+beta)
    s = np.power(x, rho) / rho
    return (math.gamma(beta + 1.0) / math.gamma(alpha + beta + 1.0)
            * np.power(s, alpha + beta))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_constant_power_rule(alpha, rho):
    grid = make_grid(0.0, 1.5, rho, 1025)
    f = SampledFunction(grid, np.ones(1025))
    got = gfi_apply(f, alpha).values
    want = np.power(grid.s_nodes, alpha) / math.gamma(alpha + 1.0)
    assert float(np.max(np.abs(got - want))) < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_power_rule(alpha, rho, beta):
    grid = make_grid(0.0, 1.5, rho, 1025)
    f = SampledFunction(grid, np.power(grid.s_nodes, beta))
    got = gfi_apply(f, alpha).values
    want = power_exact(grid.x_nodes, alpha, rho, beta)
    # measured worst over this sweep: 2.8e-6 at this resolution
    assert float(np.max(np.abs(got - want))) < 1e-5


def test_value_at_first_node_is_zero():
    grid = make_grid(0.5, 2.0, 1.3, 65)
    f = SampledFunction(grid, np.cos(grid.x_nodes))
    assert gfi_apply(f, 0.7).values[0] == 0.0


def test_single_point_example_rho_two():
    # f == 1, a=0, rho=2, alpha=0.5 at x=1: (0.5)^0.5/Gamma(1.5)
    grid = make_grid(0.0, 1.0, 2.0, 513)
    f = SampledFunction(grid, np.ones(513))
    got = float(gfi_apply(f, 0.5).values[-1])
    want = math.sqrt(0.5) / math.gamma(1.5)
    assert abs(got - want) < 1e-10
    assert abs(want - 0.7978845608) < 1e-9


def test_plain_integral_alpha_one_rho_one():
    grid = make_grid(0.0, 2.0, 1.0, 257)
    f = SampledFunction(grid, np.ones(257))
    got = float(gfi_apply(f, 1.0).values[-1])
    assert abs(got - 2.0) <= 8 * np.spacing(2.0)


def test_linearity_is_exact():
    grid = make_grid(0.0, 1.0, 1.4, 129)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(129)
    v = rng.standard_normal(129)
    lhs = gfi_apply(SampledFunction(grid, 2.0 * u + v), 0.6).values
    rhs = (2.0 * gfi_apply(SampledFunction(grid, u), 0.6).values
           + gfi_apply(SampledFunction(grid, v), 0.6).values)
    assert float(np.max(np.abs(lhs - rhs))) < 1e-13 * max(1.0, np.abs(rhs).max())


def test_positivity():
    grid = make_grid(0.0, 1.0, 0.8, 65)
    f = SampledFunction(grid, np.abs(np.sin(7 * grid.x_nodes)))
    assert np.all(gfi_apply(f, 0.4).values >= 0.0)


def test_rho_one_reduction_full_column():
    # at rho = 1 the operator is the classical one; check against the
    # Riemann-Liouville power-rule closed form over the whole grid
    alpha = 0.5
    grid = make_grid(0.0, 1.0, 1.0, 513)
    f = SampledFunction(grid, grid.x_nodes.copy())
    got = gfi_apply(f, alpha).values
    want = (math.gamma(2.0) / math.gamma(2.5)) * np.power(grid.x_nodes, 1.5)
    assert float(np.max(np.abs(got - want))) < 1e-7
    assert abs(math.gamma(2.0) / math.gamma(2.5) - 0.7522527780636751) < 1e-15


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_hadamard_limit(alpha):
    # rho -> 0 with a=1 approaches the log-kernel integral
    # (1/Gamma(alpha)) int_a^x (log(x/t))^(alpha-1) f(t) dt/t
    from gfcalc.fracops import _abel_mesh

    rho = 1e-3
    grid = make_grid(1.0, 2.0, rho, 513)

    def f(x):
        return np.sin(x)

    fs = SampledFunction.from_callable(grid, f)
    got = gfi_apply(fs, alpha).values

    worst = 0.0
    for idx in (64, 128, 256, 384, 512):
        x = float(grid.x_nodes[idx])
        L = math.log(x)

        def g(t):
            return math.sin(math.exp(t))

        want = _abel_mesh(lambda s: [g(v) for v in s.tolist()], L, alpha,
                          1e-12) / math.gamma(alpha)
        worst = max(worst, abs(float(got[idx]) - want) / abs(want))
    assert worst < 1e-3


@pytest.mark.parametrize("alpha,beta", [(0.4, 0.7), (0.5, 0.5), (0.3, 0.3), (1.2, 0.8)])
def test_semigroup_under_refinement(alpha, beta):
    # I^alpha I^beta f = I^(alpha+beta) f at interior nodes
    errs = []
    for n in (513, 1025, 2049):
        grid = make_grid(0.2, 1.7, 1.3, n)
        f = SampledFunction.from_callable(
            grid, lambda x: np.sin(1.1 * (x - 0.2)) + 0.7 * (x - 0.2) ** 2)
        lhs = gfi_apply(gfi_apply(f, beta), alpha).values
        rhs = gfi_apply(f, alpha + beta).values
        m = slice(n // 16, n - n // 16)
        errs.append(float(np.max(np.abs(lhs[m] - rhs[m]))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-5


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.5])
def test_left_inverse_under_refinement(alpha):
    from gfcalc.fracops import gfd_riemann

    errs = []
    for n in (513, 1025, 2049):
        grid = make_grid(0.2, 1.7, 1.3, n)
        f = SampledFunction.from_callable(
            grid, lambda x: np.sin(1.1 * (x - 0.2)) + 0.7 * (x - 0.2) ** 2)
        back = gfd_riemann(gfi_apply(f, alpha), alpha).values
        m = slice(n // 16, n - n // 16)
        errs.append(float(np.max(np.abs(back[m] - f.values[m]))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 1e-5


@settings(max_examples=25, deadline=None)
@given(
    c0=st.floats(min_value=-2.0, max_value=2.0),
    c1=st.floats(min_value=-2.0, max_value=2.0),
    alpha=st.floats(min_value=0.2, max_value=1.8),
)
def test_affine_in_s_closed_form(c0, c1, alpha):
    # data affine in s integrates to the exact two-term power rule
    grid = make_grid(0.0, 1.0, 1.0, 129)
    s = grid.s_nodes
    f = SampledFunction(grid, c0 + c1 * s)
    got = gfi_apply(f, alpha).values
    want = (c0 * np.power(s, alpha) / math.gamma(alpha + 1.0)
            + c1 * np.power(s, alpha + 1.0) / math.gamma(alpha + 2.0))
    assert float(np.max(np.abs(got - want))) < 1e-12
