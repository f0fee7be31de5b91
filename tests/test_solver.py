"""Initial value problem machinery: existence-box step sizing, Picard and
marching solvers, contraction and modulus-of-continuity bounds, residuals."""

import functools
import hashlib
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfcalc import ComputationError, fracops, solver
from gfcalc.fracops import (
    QuadratureWeights,
    RefinementError,
    SampledFunction,
    build_weights,
    gfd_caputo,
    gfd_riemann,
    gfi_apply,
    gfi_reference,
    make_grid,
)
from gfcalc.solver import (
    DomainExitError,
    IVProblem,
    MarchingError,
    NonConvergenceError,
    RightHandSide,
    SolverConfig,
    SolverReport,
    contraction_bound,
    contraction_respected,
    estimate_M,
    existence_box,
    holder_bound,
    make_rhs,
    oracle_residual,
    picard_apply,
    rhs_names,
    solve_marching,
    solve_picard,
    step_h,
    taylor_poly,
    volterra_residual,
)
from gfcalc.specialfn import mittag_leffler


def ulp_gap(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / np.spacing(max(abs(got), abs(want)))


def problem(alpha=0.5, rho=1.0, y0=(1.0,), name="linear", params=None,
            h_star=1.0, K=1.0):
    if params is None and name == "linear":
        params = {"lambda": -1.0}
    return IVProblem(alpha=alpha, rho=rho, y0=y0, rhs=make_rhs(name, params or {}),
                     h_star=h_star, K=K)


# ---------------------------------------------------------------------------
# taylor_poly
# ---------------------------------------------------------------------------

def test_taylor_constant():
    x = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(taylor_poly((3.0,), x), np.full(9, 3.0))
    assert taylor_poly((3.0,), 1.7) == 3.0


def test_taylor_two_terms():
    assert taylor_poly((1.0, 2.0), 0.5) == 2.0
    x = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(taylor_poly((1.0, 2.0), x), 1.0 + 2.0 * x)


def test_taylor_pins_initial_value():
    for y0 in ((4.0,), (1.0, 2.0), (0.3, -1.0, 2.5)):
        assert taylor_poly(y0, 0.0) == y0[0]


# ---------------------------------------------------------------------------
# estimate_M / step_h / existence_box
# ---------------------------------------------------------------------------

def test_estimate_m_zero_rhs():
    assert estimate_M(problem(name="zero", params={})) == 0.0


def test_estimate_m_linear_exact():
    # |lambda| * max |T +- K| is attained on the lattice corners
    p = problem(alpha=0.5, y0=(1.0,), name="linear", params={"lambda": -1.0}, K=1.0)
    assert estimate_M(p) == 2.0


def test_estimate_m_bounded_rhs():
    p = problem(alpha=0.7, y0=(0.3,), name="sin", params={})
    assert estimate_M(p) <= 1.0


def test_estimate_m_refuses_an_overflowing_rhs_quietly():
    # lambda y (1 - y) overflows at y = 1e10: a ValueError, not a numpy warning
    p = problem(name="logistic", params={"lambda": 1e300}, K=1e10)
    with pytest.raises(ValueError, match="rhs is not finite on the existence box"):
        existence_box(p)
    with pytest.raises(ValueError, match="rhs is not finite on the existence box"):
        solve_picard(p, SolverConfig(n_nodes=33))


def test_rhs_overflow_is_refused_quietly(monkeypatch):
    # every public call that evaluates the rhs refuses an overflow with a
    # ValueError, not a numpy warning
    p = problem(name="logistic", params={"lambda": 1e300}, K=1e10)
    grid = make_grid(0.0, 1.0, 1.0, 33)
    y = SampledFunction(grid, np.full(33, 1.0 + 1e9))    # inside the box
    message = "rhs evaluation produced non-finite values"
    with pytest.raises(ValueError, match=message):
        picard_apply(y, p, build_weights(grid, p.alpha))
    with pytest.raises(ValueError, match=message):
        volterra_residual(y, p)
    with pytest.raises(ValueError, match=message):
        oracle_residual(y, p)
    # a finite M lets the marching solver reach its first rhs value
    monkeypatch.setattr(solver, "estimate_M", lambda problem: 1.0)
    with pytest.raises(ValueError, match=message):
        solve_marching(problem(y0=(1e10,), name="logistic", params={"lambda": 1e300}),
                       SolverConfig(n_nodes=33))


def test_overflowing_history_sum_is_refused_quietly():
    # values of 1.7e308 sum past the overflow threshold: the residual
    # measures inf and picard_apply raises OverflowError, as the operators
    # do, and neither lets numpy warn
    p = problem(y0=(1.7e308,), params={"lambda": 1.0})
    grid = make_grid(0.0, 1.0, 1.0, 257)
    weights = build_weights(grid, p.alpha)
    y = SampledFunction(grid, np.full(257, 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert volterra_residual(y, p, weights) == math.inf
        with pytest.raises(OverflowError, match="^Picard iterate is not finite$"):
            picard_apply(y, p, weights)


@pytest.mark.parametrize("call,message", [
    (lambda p, y, w: solve_marching(p, SolverConfig(n_nodes=129)),
     "^Taylor polynomial T is not finite$"),
    (lambda p, y, w: solve_picard(p, SolverConfig(n_nodes=129)),
     "^Taylor polynomial T is not finite$"),
    (lambda p, y, w: existence_box(p), "^Taylor polynomial T is not finite$"),
    (lambda p, y, w: picard_apply(y, p, w), "^Taylor polynomial T is not finite$"),
    (lambda p, y, w: volterra_residual(y, p, w), "^Taylor polynomial T is not finite$"),
    (lambda p, y, w: volterra_residual(y, p), "^Taylor polynomial T is not finite$"),
    (lambda p, y, w: oracle_residual(y, p), "^Taylor polynomial T is not finite$"),
], ids=["solve_marching", "solve_picard", "existence_box", "picard_apply",
        "volterra_residual", "volterra_residual_builds_weights", "oracle_residual"])
def test_overflowing_taylor_polynomial_is_refused_quietly(call, message):
    # T(x) = sum_k x**k / k! over 150 terms overflows from the first node
    # past 0 on [0, 1e6], and so do the order-149.5 weights there: every
    # solver call refuses T with taylor_poly's one OverflowError and lets
    # numpy warn of neither
    p = problem(alpha=149.5, y0=(1.0,) * 150, name="zero", h_star=1e6)
    grid = make_grid(0.0, 1e6, 1.0, 129)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = build_weights(grid, p.alpha)
        assert not np.all(np.isfinite(weights.band))
        with pytest.raises(OverflowError, match=message):
            call(p, SampledFunction(grid, np.ones(129)), weights)


def test_existence_box_refuses_an_overflowing_lattice_quietly():
    # the offsets y - T span [-K, K], a width of 2K past the overflow
    # threshold: the lattice is refused like a non-finite rhs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^rhs is not finite on the existence box$"):
            existence_box(problem(K=1.7e308))


def test_marching_refuses_an_overflowing_history_sum(monkeypatch):
    # T = 1.7e308 is finite, but T plus the history w_10 f(y_0), with
    # f = y, is not: node 1 is refused at the first step of its node solve
    monkeypatch.setattr(solver, "estimate_M", lambda problem: 1.0)
    p = problem(y0=(1.7e308,), params={"lambda": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^marching node 1 is not finite$"):
            solve_marching(p, SolverConfig(n_nodes=33))


def test_marching_refuses_an_overflowing_node_step():
    # the history sum stays finite, but at rho 0.05, a step the box does not
    # bound (ROADMAP item 4), the step b + w_ii f of the c 1e307 forcing
    # overflows at node 19: an overflow, as solve_picard says, not a
    # non-finite rhs from f evaluated at the overflowed iterate
    p = IVProblem(alpha=0.9, rho=0.05, y0=(0.0,),
                  rhs=make_rhs("power_forcing", {"beta": 1.5, "c": 1e307}),
                  h_star=1.0, K=1e305)
    config = SolverConfig(n_nodes=33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^marching node 19 is not finite$"):
            solve_marching(p, config)
        with pytest.raises(OverflowError, match="^Picard iterate 1 is not finite$"):
            solve_picard(p, config)


def _blas_sensitive_outputs():
    # marching at n 12289 and the oracle on a Picard solution: history sums
    # long enough for a BLAS dot to split them over threads, and the oracle's
    # graded-mesh sums
    linear = functools.partial(problem, y0=(0.5,))
    marching = solve_marching(linear(alpha=0.5), SolverConfig(n_nodes=12289, tol=1e-12))
    p = linear(alpha=0.4, rho=0.5)
    y, _ = solve_picard(p, SolverConfig(n_nodes=33, tol=1e-12))
    return (f"{hashlib.sha256(marching.values.tobytes()).hexdigest()} "
            f"{oracle_residual(y, p).hex()}")


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # a BLAS dot may sum in an order set by its thread count; the library
    # sums in orders of its own, so a process with single-threaded BLAS
    # computes the same bytes as this one
    code = textwrap.dedent("""\
        import sys
        sys.path.insert(0, sys.argv[1])
        from test_solver import _blas_sensitive_outputs
        print(_blas_sensitive_outputs())
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                          capture_output=True, text=True, env=env)
    assert done.stdout == f"{_blas_sensitive_outputs()}\n", done.stderr


def test_oracle_residual_interpolates_values_near_the_overflow_threshold(monkeypatch):
    # a solution near 1e307 has slopes between nodes past the overflow
    # threshold; its interpolant is finite, so the oracle's rhs values are
    # too, and a probe that cannot converge at depth 1 is a RefinementError,
    # not a non-finite rhs
    p = problem(y0=(1e307,), params={"lambda": 1.0}, K=1e307)
    solution, report = solve_picard(p, SolverConfig(n_nodes=257, tol=1e-12))
    assert report.converged
    monkeypatch.setattr(fracops, "_REFERENCE_MAX_DEPTH", 1)
    with pytest.raises(RefinementError):
        oracle_residual(solution, p)


def test_oracle_residual_scales_its_tol_with_the_solution():
    # the reference integral's tol is 1e-10 max(1, max|y|), so a solution
    # near 1e307 is probed to the accuracy of one near 1
    p = problem(y0=(1e307,), params={"lambda": 1.0}, K=1e307)
    solution, report = solve_picard(p, SolverConfig(n_nodes=257, tol=1e-12))
    assert report.converged
    resid = oracle_residual(solution, p)
    assert math.isfinite(resid)
    assert resid <= 1e-10 * float(np.max(np.abs(solution.values)))


@pytest.mark.parametrize("lam,h_star", [(-1.0, 1.0), (-1e-225, 1e150)])
def test_oracle_residual_returns_a_float_on_every_length(lam, h_star):
    # the grids end near 0.76 and near 7.6e149, whose s**(alpha + 1) is past
    # the double range
    p = problem(alpha=1.5, y0=(1.0, 0.0), params={"lambda": lam}, h_star=h_star)
    solution, report = solve_picard(p, SolverConfig(n_nodes=65, tol=1e-12))
    assert report.converged
    resid = oracle_residual(solution, p)
    assert type(resid) is float and 0.0 < resid < 1e-10


def test_step_h_zero_m_returns_h_star():
    p = problem(alpha=0.7, h_star=5.0)
    assert step_h(p, 0.0) == 5.0


def test_step_h_alpha_one_arithmetic():
    p = problem(alpha=1.0, y0=(0.0,), name="zero", params={}, h_star=10.0, K=1.0)
    assert step_h(p, 2.0) == 0.5


def test_step_h_clamps_at_h_star():
    p = problem(alpha=0.5, rho=2.0, y0=(0.0,), name="zero", params={}, h_star=1.0, K=1.0)
    # unclamped cap is (Gamma(1.5) sqrt(2))^2 = pi/2 > 1
    assert step_h(p, 1.0) == 1.0
    p_wide = problem(alpha=0.5, rho=2.0, y0=(0.0,), name="zero", params={},
                     h_star=10.0, K=1.0)
    assert ulp_gap(step_h(p_wide, 1.0), math.pi / 2.0) <= 2.0


def test_step_h_past_the_double_range_is_h_star():
    # (K Gamma(alpha+1) / M)**(1/alpha) = 8.9**2000 overflows: the cap lies
    # above every double, so the step is h_star, and both solvers agree there
    p = problem(alpha=5e-4, y0=(0.5,), params={"lambda": -0.1}, K=4.0)
    assert step_h(p, estimate_M(p)) == 1.0
    config = SolverConfig(n_nodes=257, tol=1e-12)
    solution, report = solve_picard(p, config)
    assert report.converged and report.h_used == 1.0
    assert np.max(np.abs(solution.values - solve_marching(p, config).values)) < 1e-11


def test_step_h_that_underflows_is_refused():
    # (Gamma(alpha+1) / 1.5)**2000 underflows to 0, which is no step
    p = problem(alpha=5e-4, y0=(0.5,), params={"lambda": -1.0}, K=1.0)
    with pytest.raises(ValueError, match="existence step"):
        step_h(p, estimate_M(p))
    with pytest.raises(ValueError, match="existence step"):
        solve_picard(p, SolverConfig(n_nodes=33))


def test_step_h_validation():
    with pytest.raises(ValueError):
        step_h(problem(), -1.0)
    with pytest.raises(ValueError):
        step_h(problem(), math.nan)


def test_existence_box_fields():
    p = problem()
    assert existence_box(p) == (2.0, step_h(p, 2.0))


@pytest.mark.parametrize("call", [
    lambda p: step_h(p, 1.0),
    lambda p: holder_bound(0.0, 1.0, 1.0, p.alpha, p.rho),
    lambda p: solve_picard(p, SolverConfig(n_nodes=33)),
    lambda p: solve_marching(p, SolverConfig(n_nodes=33)),
], ids=["step_h", "holder_bound", "solve_picard", "solve_marching"])
def test_gamma_overflow_is_too_large_an_order(call):
    # Gamma(172) overflows; every function that needs it refuses the order
    # the way build_weights and gfi_reference do
    p = problem(alpha=171.0, y0=(1.0,) * 171)
    with pytest.raises(ValueError, match=r"^alpha = 171\.0 too large: gamma overflow$"):
        call(p)


# ---------------------------------------------------------------------------
# problem / config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(alpha=0.0), dict(alpha=-1.0), dict(alpha=math.nan),
    dict(rho=0.0), dict(rho=-2.0),
    dict(h_star=0.0), dict(h_star=math.inf),
    dict(K=0.0), dict(K=-1.0),
    dict(y0=(math.nan,)),
])
def test_ivproblem_rejects_bad_fields(kw):
    base = dict(alpha=0.5, rho=1.0, y0=(1.0,), rhs=make_rhs("zero", {}),
                h_star=1.0, K=1.0)
    base.update(kw)
    with pytest.raises(ValueError):
        IVProblem(**base)


def test_ivproblem_y0_length_must_match_order():
    rhs = make_rhs("zero", {})
    with pytest.raises(ValueError):
        IVProblem(alpha=0.5, rho=1.0, y0=(1.0, 2.0), rhs=rhs, h_star=1.0, K=1.0)
    with pytest.raises(ValueError):
        IVProblem(alpha=1.5, rho=1.0, y0=(1.0,), rhs=rhs, h_star=1.0, K=1.0)
    p = IVProblem(alpha=1.5, rho=1.0, y0=(1.0, 0.5), rhs=rhs, h_star=1.0, K=1.0)
    assert p.m == 2


@pytest.mark.parametrize("kw", [
    dict(n_nodes=1), dict(n_nodes=2.5), dict(tol=0.0), dict(tol=-1e-8),
    dict(max_iter=0), dict(lipschitz_L=-1.0),
])
def test_solverconfig_rejects_bad_fields(kw):
    base = dict(n_nodes=65)
    base.update(kw)
    with pytest.raises(ValueError):
        SolverConfig(**base)


# ---------------------------------------------------------------------------
# rhs registry
# ---------------------------------------------------------------------------

def test_rhs_names_sorted():
    assert rhs_names() == ["linear", "logistic", "power_forcing", "sin", "zero"]


def test_make_rhs_errors():
    with pytest.raises(ValueError):
        make_rhs("cubic", {})
    with pytest.raises(ValueError):
        make_rhs("linear", {})                        # missing lambda
    with pytest.raises(ValueError):
        make_rhs("linear", {"lambda": 1.0, "mu": 2.0})
    with pytest.raises(ValueError):
        make_rhs("linear", {"lambda": math.inf})
    with pytest.raises(ValueError):
        make_rhs("zero", {"lambda": 1.0})
    # the constructor is where validation happens, so it refuses the same
    with pytest.raises(ValueError, match="unknown rhs 'cubic'"):
        RightHandSide(name="cubic", params=())
    with pytest.raises(ValueError, match="requires parameter 'lambda'"):
        RightHandSide(name="linear", params=())
    with pytest.raises(ValueError, match="does not take parameter 'mu'"):
        RightHandSide(name="linear", params=(("lambda", 1.0), ("mu", 2.0)))
    with pytest.raises(ValueError, match="must be a finite number"):
        RightHandSide(name="sin", params=(("c", math.nan),))


def test_rhs_constructor_fills_defaults():
    sin = RightHandSide(name="sin", params=())
    assert sin == make_rhs("sin")
    assert hash(sin) == hash(make_rhs("sin"))
    assert sin.params == (("c", 1.0),)
    ivp = IVProblem(alpha=0.7, rho=1.0, y0=(0.3,), rhs=sin, h_star=1.0, K=1.0)
    _, report = solve_picard(ivp, SolverConfig(n_nodes=65))
    assert report.converged
    forcing = RightHandSide("power_forcing", (("beta", 1.5),))
    assert dict(forcing.params) == {"beta": 1.5, "c": 1.0}
    assert forcing == make_rhs("power_forcing", {"beta": 1.5})


def test_rhs_lipschitz_hand_values():
    p = problem(name="zero", params={})
    assert p.rhs.lipschitz(p) == 0.0
    p = problem(name="power_forcing", params={"beta": 1.5, "c": 2.0})
    assert p.rhs.lipschitz(p) == 0.0
    p = problem(name="linear", params={"lambda": -1.25})
    assert p.rhs.lipschitz(p) == 1.25
    p = problem(name="sin", params={})
    assert p.rhs.lipschitz(p) == 1.0
    p = problem(name="sin", params={"c": -1.5})
    assert p.rhs.lipschitz(p) == 1.5
    # m = 1: T is constant, so the y-range is exactly [y0 - K, y0 + K] and
    # |lambda| max |1 - 2y| over it is attained at an end
    p = problem(y0=(0.25,), name="logistic", params={"lambda": 0.75}, K=1.0)
    assert p.rhs.lipschitz(p) == 0.75 * 2.5          # low end, y = -0.75
    p = problem(y0=(1.0,), name="logistic", params={"lambda": -0.75}, K=0.5)
    assert p.rhs.lipschitz(p) == 0.75 * 2.0          # high end, y = 1.5
    # m = 3: T = x**2/2 - x dips to -1/2 at x = 1 inside [0, h_star], so the
    # exact bound is |1 - 2 (-1/2 - K)| = 4; sampled T can only miss the dip
    p = problem(alpha=2.5, y0=(0.0, -1.0, 1.0), name="logistic",
                params={"lambda": 1.0}, h_star=2.0, K=1.0)
    assert 4.0 * (1.0 - 1e-3) < p.rhs.lipschitz(p) <= 4.0


def test_rhs_exact_availability():
    p0 = problem(name="zero", params={})
    ref = p0.rhs.exact(p0)
    x = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(ref(x), np.ones(5))

    psin = problem(alpha=0.7, y0=(0.3,), name="sin", params={})
    assert psin.rhs.exact(psin) is None

    p2 = IVProblem(alpha=1.5, rho=1.0, y0=(1.0, 0.5),
                   rhs=make_rhs("linear", {"lambda": -0.5}), h_star=1.0, K=1.0)
    assert p2.rhs.exact(p2) is None                   # closed form needs m = 1


def test_power_forcing_manufactured_solution():
    # f reduces to the forcing that makes y = T + c (x^rho/rho)^beta exact
    p = problem(alpha=0.5, rho=1.3, y0=(0.5,), name="power_forcing",
                params={"beta": 1.5, "c": 2.0})
    ref = p.rhs.exact(p)
    x = np.array([0.0, 0.4, 0.9])
    want = 0.5 + 2.0 * (x**1.3 / 1.3) ** 1.5
    assert np.allclose(ref(x), want, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# contraction_bound / holder_bound
# ---------------------------------------------------------------------------

def test_contraction_hand_values():
    assert contraction_bound(0, L=3.0, x=2.0, alpha=0.5, rho=1.0) == 1.0
    assert ulp_gap(contraction_bound(1, L=1.0, x=1.0, alpha=1.0, rho=1.0), 1.0) <= 2.0
    assert ulp_gap(contraction_bound(2, L=2.0, x=1.0, alpha=0.5, rho=1.0), 4.0) <= 2.0


def test_contraction_zero_cases():
    assert contraction_bound(3, L=0.0, x=1.0, alpha=0.5, rho=1.0) == 0.0
    assert contraction_bound(3, L=1.0, x=0.0, alpha=0.5, rho=1.0) == 0.0


def test_contraction_past_the_double_range_raises():
    with pytest.raises(OverflowError):
        contraction_bound(2, L=1e300, x=1.0, alpha=0.5, rho=1.0)


def test_contraction_validation():
    with pytest.raises(ValueError):
        contraction_bound(-1, L=1.0, x=1.0, alpha=0.5, rho=1.0)
    with pytest.raises(ValueError):
        contraction_bound(1, L=-1.0, x=1.0, alpha=0.5, rho=1.0)
    with pytest.raises(ValueError):
        contraction_bound(1, L=1.0, x=-1.0, alpha=0.5, rho=1.0)


def test_holder_hand_values():
    assert holder_bound(x1=1.0, x2=1.0, M=1.0, alpha=0.5, rho=1.0) == 0.0
    got = holder_bound(x1=0.25, x2=0.75, M=3.0, alpha=1.0, rho=1.0)
    assert ulp_gap(got, 2.0 * 3.0 * 0.5) <= 2.0
    got = holder_bound(x1=0.0, x2=1.0, M=1.0, alpha=0.5, rho=1.0)
    assert ulp_gap(got, 2.0 / math.gamma(1.5)) <= 2.0


def test_holder_high_order_branch():
    # alpha > 1 adds the pure-power gap term
    got = holder_bound(x1=0.0, x2=1.0, M=1.0, alpha=1.5, rho=1.0)
    want = (1.0 + 1.0) / math.gamma(2.5)
    assert ulp_gap(got, want) <= 4.0


def test_holder_validation():
    with pytest.raises(ValueError):
        holder_bound(x1=1.0, x2=0.5, M=1.0, alpha=0.5, rho=1.0)
    with pytest.raises(ValueError):
        holder_bound(x1=0.0, x2=1.0, M=-1.0, alpha=0.5, rho=1.0)
    # past the double range: rho**alpha underflows to 0, rho**alpha
    # overflows, the bound overflows, and an infinite factor meets gap 0
    for x1, M, rho in ((0.0, 1.0, 1e-200), (0.0, 1.0, 1e200), (0.0, 1e300, 1e-10),
                       (1.0, 1e300, 1e-10)):
        with pytest.raises(OverflowError, match=r"^holder_bound is past the double range"):
            holder_bound(x1=x1, x2=1.0, M=M, alpha=2.0, rho=rho)


# ---------------------------------------------------------------------------
# solve_picard
# ---------------------------------------------------------------------------

def test_picard_zero_rhs_fixed_point():
    p = problem(alpha=0.6, rho=1.3, y0=(2.5,), name="zero", params={})
    sol, rep = solve_picard(p, SolverConfig(n_nodes=129, tol=1e-12))
    assert rep.iterations == 1
    assert rep.converged
    assert rep.h_used == p.h_star
    assert rep.residual <= 1e-14
    assert np.all(sol.values == 2.5)


def test_picard_plain_integration_is_exact():
    # beta=1, alpha=1 forcing is f == 1, so y(x) = x and the trapezoid is exact
    p = problem(alpha=1.0, rho=1.0, y0=(0.0,), name="power_forcing",
                params={"beta": 1.0}, K=10.0)
    sol, rep = solve_picard(p, SolverConfig(n_nodes=65, tol=1e-13))
    assert np.max(np.abs(sol.values - sol.grid.x_nodes)) <= 1e-14


def test_picard_reference_solution_satisfies_volterra_equation():
    # validate the Mittag-Leffler reference independently before using it:
    # ref must equal 1 + I^alpha(lambda ref) pointwise
    p = problem()
    ref = p.rhs.exact(p)
    h = step_h(p, estimate_M(p))
    for xq in (0.3 * h, 0.7 * h, h):
        lhs = float(ref(xq)[0])
        integ = gfi_reference(lambda t: -ref(t), xq, 0.5, 1.0, 0.0, tol=1e-11)
        assert abs(lhs - 1.0 - integ) <= 1e-8


@pytest.mark.parametrize("rho,budget_coarse,budget_fine", [
    (1.0, 6.0e-5, 1.5e-5),
    (2.0, 2.5e-5, 6.0e-6),
])
def test_picard_linear_matches_mittag_leffler(rho, budget_coarse, budget_fine):
    p = problem(rho=rho)
    ref = p.rhs.exact(p)
    errs = []
    for n in (513, 2049):
        sol, rep = solve_picard(p, SolverConfig(n_nodes=n, tol=1e-12, lipschitz_L=1.0))
        errs.append(float(np.max(np.abs(sol.values - ref(sol.grid.x_nodes)))))
        assert rep.converged
        assert rep.residual <= 1e-10
    assert errs[0] <= budget_coarse
    assert errs[1] <= budget_fine
    assert errs[1] <= errs[0] / 3.0


def test_picard_deltas_and_omega_bounds():
    p = problem()
    sol, rep = solve_picard(p, SolverConfig(n_nodes=257, tol=1e-12, lipschitz_L=1.0))
    d = rep.deltas
    assert np.all(d[1:] <= d[:-1])              # contraction regime: monotone
    assert rep.omega_bounds is not None
    assert len(rep.omega_bounds) == rep.iterations
    for j in range(1, rep.iterations):
        assert d[j] <= rep.omega_bounds[j - 1] * d[0] * 1.01 + 1e-15


def test_picard_without_lipschitz_has_no_bounds():
    p = problem()
    _, rep = solve_picard(p, SolverConfig(n_nodes=65, tol=1e-10))
    assert rep.omega_bounds is None


def test_picard_initial_value_exact():
    p = problem(rho=2.0)
    sol, _ = solve_picard(p, SolverConfig(n_nodes=129, tol=1e-10))
    assert sol.values[0] == 1.0


def test_picard_m2_derivative_recovery():
    p = IVProblem(alpha=1.5, rho=1.0, y0=(1.0, 0.5),
                  rhs=make_rhs("linear", {"lambda": -0.5}), h_star=1.0, K=1.0)
    errs = []
    for n in (129, 513, 2049):
        sol, _ = solve_picard(p, SolverConfig(n_nodes=n, tol=1e-12))
        x = sol.grid.x_nodes
        v = sol.values
        slope = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * (x[1] - x[0]))
        errs.append(abs(slope - 0.5))
        assert sol.values[0] == 1.0
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] <= 5.0e-3


def test_picard_nonconvergence_carries_partial_result():
    p = problem()
    with pytest.raises(NonConvergenceError) as exc:
        solve_picard(p, SolverConfig(n_nodes=65, tol=1e-14, max_iter=3))
    err = exc.value
    assert "max_iter = 3" in str(err)
    assert err.report.iterations == 3
    assert not err.report.converged
    assert err.solution.grid.n_nodes == 65


def compensated_picard(p, cfg):
    """Picard iteration with the exact sum on every iterate."""
    grid = make_grid(0.0, existence_box(p)[1], p.rho, cfg.n_nodes)
    w = build_weights(grid, p.alpha)
    t = taylor_poly(p.y0, grid.x_nodes)
    y = t
    for k in range(1, cfg.max_iter + 1):
        y_next = t + w.apply_exact(p.rhs.fn(grid.x_nodes, y, p))
        delta = float(np.max(np.abs(y_next - y)))
        y = y_next
        if delta <= cfg.tol:
            return y, k, True
    return y, cfg.max_iter, False


@pytest.mark.parametrize("name,params,alpha,rho,y0", [
    ("linear", {"lambda": -1.0}, 0.5, 1.0, (1.0,)),
    ("sin", {}, 0.7, 1.7, (0.3,)),
    ("logistic", {"lambda": 0.8}, 0.9, 0.6, (0.4,)),
    ("power_forcing", {"beta": 1.5}, 1.5, 1.3, (0.5, 0.2)),
    ("zero", {}, 0.3, 1.0, (2.0,)),
])
@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
def test_picard_fft_phase_keeps_compensated_iterations(name, params, alpha, rho, y0, tol):
    p = IVProblem(alpha=alpha, rho=rho, y0=y0, rhs=make_rhs(name, params),
                  h_star=1.0, K=1.0)
    cfg = SolverConfig(n_nodes=257, tol=tol)
    sol, rep = solve_picard(p, cfg)
    want, iterations, converged = compensated_picard(p, cfg)
    assert rep.iterations == iterations
    assert rep.converged == converged
    assert np.max(np.abs(sol.values - want)) <= 1e-15


def test_picard_converged_solve_makes_two_compensated_applies(monkeypatch):
    # the converging iteration and the residual take the exact sum; the
    # iterations before it take the FFT path
    calls = {"apply_exact": 0}

    def counting(name):
        method = getattr(QuadratureWeights, name)

        def counted(self, values):
            calls[name] += 1
            return method(self, values)
        return counted

    for name in calls:
        monkeypatch.setattr(QuadratureWeights, name, counting(name))
    _, rep = solve_picard(problem(), SolverConfig(n_nodes=257, tol=1e-12))
    assert rep.converged and rep.iterations > 2
    assert calls == {"apply_exact": 2}


def test_picard_fft_phase_stops_before_the_last_allowed_iteration():
    with pytest.raises(NonConvergenceError) as exc:
        solve_picard(problem(), SolverConfig(n_nodes=65, tol=1e-14, max_iter=3))
    assert exc.value.report.fft_iterations == 2


def test_picard_apply_box_exit():
    p = problem(K=1.0)
    g = make_grid(0.0, 0.1, 1.0, 33)
    w = build_weights(g, 0.5)
    y = SampledFunction(g, np.full(33, 100.0))
    with pytest.raises(DomainExitError):
        picard_apply(y, p, w)


def test_picard_apply_rejects_shifted_grid():
    p = problem()
    g = make_grid(0.5, 1.0, 1.0, 33)
    w = build_weights(g, 0.5)
    y = SampledFunction(g, np.ones(33))
    with pytest.raises(ValueError):
        picard_apply(y, p, w)
    with pytest.raises(ValueError):
        volterra_residual(y, p, w)


def test_picard_apply_rejects_mismatched_weights():
    p = problem()
    g = make_grid(0.0, 0.2, 1.0, 33)
    y = SampledFunction(g, np.ones(33))
    with pytest.raises(ValueError, match="weights are for alpha=0.7, requested alpha=0.5"):
        picard_apply(y, p, build_weights(g, 0.7))
    g2 = make_grid(0.0, 0.2, 1.0, 65)
    with pytest.raises(ValueError, match="weights were built for a different grid"):
        picard_apply(y, p, build_weights(g2, 0.5))


# ---------------------------------------------------------------------------
# volterra_residual
# ---------------------------------------------------------------------------

def test_residual_zero_for_taylor_and_zero_rhs():
    p = problem(alpha=0.5, y0=(2.0,), name="zero", params={}, K=5.0)
    g = make_grid(0.0, 1.0, 1.0, 65)
    y = SampledFunction(g, taylor_poly(p.y0, g.x_nodes))
    assert volterra_residual(y, p) <= 1e-14


def test_residual_measures_perturbation_exactly():
    p = problem(alpha=0.5, y0=(2.0,), name="zero", params={}, K=5.0)
    g = make_grid(0.0, 1.0, 1.0, 65)
    y = SampledFunction(g, taylor_poly(p.y0, g.x_nodes) + 1.0)
    assert volterra_residual(y, p) == 1.0


def test_residual_of_converged_iterate():
    p = problem()
    sol, rep = solve_picard(p, SolverConfig(n_nodes=257, tol=1e-10))
    vr = volterra_residual(sol, p)
    assert vr == rep.residual
    assert vr <= max(1e-10, 1e-9)


# ---------------------------------------------------------------------------
# solve_marching
# ---------------------------------------------------------------------------

def test_marching_zero_rhs_reproduces_taylor():
    p = IVProblem(alpha=1.5, rho=1.3, y0=(1.0, 0.5), rhs=make_rhs("zero", {}),
                  h_star=0.7, K=1.0)
    sol = solve_marching(p, SolverConfig(n_nodes=65, tol=1e-12))
    t = taylor_poly(p.y0, sol.grid.x_nodes)
    assert np.array_equal(sol.values, t)


@pytest.mark.parametrize("name,params", [("zero", {}), ("linear", {"lambda": 0.0})])
@pytest.mark.parametrize("alpha,h_star,n", [(43.0, 3e8, 5), (43.0, 3e8, 3), (20.0, 1e17, 3)])
def test_marching_zero_rhs_adds_nothing_past_weights_that_overflow(alpha, h_star, n,
                                                                  name, params):
    # T = 1 is finite, but some weights are past the double range: a zero
    # rhs value adds nothing, whatever its weight, so both solvers return T
    # with the same bytes, where marching took inf * 0 = nan in its history
    # sum and its node step and refused the node
    p = problem(alpha=alpha, y0=(1.0,) + (0.0,) * (math.ceil(alpha) - 1), name=name,
                params=params, h_star=h_star)
    config = SolverConfig(n_nodes=n)
    assert not np.all(np.isfinite(build_weights(make_grid(0.0, h_star, 1.0, n), alpha).band))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        picard, _ = solve_picard(p, config)
        marching = solve_marching(p, config)
    assert marching.values.tobytes() == picard.values.tobytes() == np.ones(n).tobytes()


def test_marching_agrees_with_picard_on_linear():
    p = problem()
    cfg = SolverConfig(n_nodes=513, tol=1e-12)
    solp, _ = solve_picard(p, cfg)
    solm = solve_marching(p, cfg)
    assert solm.grid.same_layout(solp.grid)
    assert np.max(np.abs(solp.values - solm.values)) <= 10.0 * cfg.tol
    assert solm.values[0] == 1.0


@pytest.mark.parametrize("name,params,alpha,rho,y0", [
    ("zero", {}, 0.5, 1.0, (1.0,)),
    ("linear", {"lambda": -1.0}, 0.5, 1.0, (1.0,)),
    ("power_forcing", {"beta": 1.5}, 0.5, 1.3, (0.5,)),
    ("sin", {}, 0.7, 1.0, (0.3,)),
    ("logistic", {"lambda": 0.8}, 0.9, 2.0, (0.4,)),
    ("linear", {"lambda": -0.5}, 1.5, 1.0, (1.0, 0.5)),
])
def test_marching_agrees_with_picard_registry_wide(name, params, alpha, rho, y0):
    p = IVProblem(alpha=alpha, rho=rho, y0=y0, rhs=make_rhs(name, params),
                  h_star=1.0, K=1.0)
    cfg = SolverConfig(n_nodes=513, tol=1e-12)
    solp, _ = solve_picard(p, cfg)
    solm = solve_marching(p, cfg)
    assert np.max(np.abs(solp.values - solm.values)) <= 10.0 * cfg.tol


def test_marching_exponential():
    # classical case: the step cap allows h = K/(K+1) -> 0.99 for K = 99
    p = problem(alpha=1.0, y0=(1.0,), name="linear", params={"lambda": 1.0},
                h_star=2.0, K=99.0)
    assert step_h(p, estimate_M(p)) == 0.99
    errs = []
    for n in (1025, 2049):
        sol = solve_marching(p, SolverConfig(n_nodes=n, tol=1e-12))
        errs.append(float(np.max(np.abs(sol.values - np.exp(sol.grid.x_nodes)))))
    assert errs[0] <= 2.2e-7
    assert errs[1] <= errs[0] / 3.5


@pytest.mark.parametrize("name,params", [("linear", {"lambda": -1.0}), ("sin", {})])
def test_marching_rhs_calls_per_node(monkeypatch, name, params):
    # each node takes one rhs call per solve step plus one at the solved value
    calls = 0
    fn = RightHandSide.fn

    def counted(self, x, y, problem):
        nonlocal calls
        calls += 1
        return fn(self, x, y, problem)

    monkeypatch.setattr(RightHandSide, "fn", counted)
    n = 1025
    solve_marching(problem(name=name, params=params), SolverConfig(n_nodes=n, tol=1e-12))
    assert calls <= 8 * (n - 1)


def test_march_node_refuses_an_equation_without_solution():
    # u = 1 + u: the residual stays 1, so every step is a plain one and the
    # iterate only drifts
    calls = 0

    def f_scalar(u):
        nonlocal calls
        calls += 1
        return u

    with pytest.raises(MarchingError) as info:
        solver._march_node(1.0, 1.0, f_scalar, 0.0, 1e-12, 7)
    assert info.value.node == 7
    assert str(info.value) == (
        "node solve did not converge at node 7 within 100 iterations")
    assert calls == 100


def test_marching_weight_memory_is_linear():
    # marching reads the weights' two generators, never the dense n x n
    # matrix (33.6 MB at n = 2049)
    p = problem()
    tracemalloc.start()
    try:
        solve_marching(p, SolverConfig(n_nodes=2049, tol=1e-12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_marching_secant_step_does_not_overflow_near_1e160():
    # res * (u - u_prev) overflows long before either factor does
    p = problem(y0=(1e160,), K=1e160)
    cfg = SolverConfig(n_nodes=257)
    solm = solve_marching(p, cfg)
    solp, _ = solve_picard(p, cfg)
    assert np.max(np.abs(solp.values - solm.values)) <= 10.0 * cfg.tol * 1e160


# ---------------------------------------------------------------------------
# one tolerance rule: every stop compares with tol * max(1, max |y|)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(y0=st.floats(1.0, 2.0, exclude_max=True), K=st.floats(1.0, 2.0, exclude_max=True),
       alpha=st.floats(0.2, 0.95), k=st.integers(0, 1000))
def test_solutions_scale_exactly_with_a_power_of_two(y0, K, alpha, k):
    scale = 2.0 ** k
    base = problem(alpha=alpha, y0=(y0,), K=K)
    scaled = problem(alpha=alpha, y0=(y0 * scale,), K=K * scale)
    cfg = SolverConfig(n_nodes=129)
    sol, rep = solve_picard(base, cfg)
    sol_scaled, rep_scaled = solve_picard(scaled, cfg)
    assert np.array_equal(sol_scaled.values, sol.values * scale)
    assert rep_scaled.iterations == rep.iterations
    assert np.array_equal(solve_marching(scaled, cfg).values,
                          solve_marching(base, cfg).values * scale)


@pytest.mark.parametrize("y0", [1e6, 1e7])
def test_both_solvers_converge_on_a_large_solution(y0):
    # an absolute tol of 1e-10 is below one ulp of y here
    p = problem(y0=(y0,), K=y0)
    cfg = SolverConfig(n_nodes=1025)
    solp, rep = solve_picard(p, cfg)
    solm = solve_marching(p, cfg)
    assert rep.converged
    assert np.max(np.abs(solp.values - solm.values)) <= 10.0 * cfg.tol * y0


def test_picard_nonconvergence_names_the_effective_tol():
    # every iterate has max |y| = y(0) = 4, so the stop compares with 4 tol
    p = problem(y0=(4.0,), K=4.0)
    with pytest.raises(NonConvergenceError) as exc:
        solve_picard(p, SolverConfig(n_nodes=65, tol=1e-14, max_iter=3))
    assert str(exc.value).endswith(" > tol 4.000e-14)")


def test_picard_stops_at_an_exact_period_2_cycle():
    # a large L s(h)^alpha: the exact-phase iterates settle into a bitwise
    # 2-cycle near iteration 150, which plain iteration never leaves
    p = problem(alpha=0.539, y0=(-0.9411239795189432,), name="sin",
                params={"c": 2.3613855464899416}, h_star=9.991893671376308,
                K=6.326076843131313)
    with pytest.raises(NonConvergenceError) as exc:
        solve_picard(p, SolverConfig(n_nodes=257, max_iter=2000))
    err = exc.value
    k = err.report.iterations
    assert k < 160 and not err.report.converged
    assert str(err).startswith(
        f"no convergence: iterate {k} repeats iterate {k - 2}, a period-2 cycle "
        f"(last update {err.report.deltas[-1]:.3e} > tol ")
    assert err.report.deltas[-1] == err.report.deltas[-2]
    assert err.solution.grid.n_nodes == 257


# ---------------------------------------------------------------------------
# operator-level invariants
# ---------------------------------------------------------------------------

def test_contraction_invariant_on_random_perturbations():
    rng = np.random.default_rng(7)
    p = problem(alpha=0.7, rho=1.3)
    M = estimate_M(p)
    h = step_h(p, M)
    g = make_grid(0.0, h, 1.3, 257)
    w = build_weights(g, 0.7)
    t = taylor_poly(p.y0, g.x_nodes)
    L = 1.0
    for _ in range(3):
        y1 = SampledFunction(g, t + 0.5 * rng.uniform(-1.0, 1.0, 257))
        y2 = SampledFunction(g, t + 0.5 * rng.uniform(-1.0, 1.0, 257))
        d0 = float(np.max(np.abs(y1.values - y2.values)))
        a1, a2 = y1, y2
        for j in range(1, 4):
            a1 = picard_apply(a1, p, w)
            a2 = picard_apply(a2, p, w)
            for idx in np.linspace(32, 256, 8, dtype=int):
                meas = float(np.max(np.abs(a1.values[:idx + 1] - a2.values[:idx + 1])))
                bound = contraction_bound(j, L, float(g.x_nodes[idx]), 0.7, 1.3)
                assert meas <= bound * d0 * 1.01 + 1e-12


def test_holder_invariant_on_picard_image():
    p = problem(alpha=0.6, rho=1.2, y0=(1.0,), name="sin", params={},
                h_star=0.8, K=2.0)
    M = estimate_M(p)
    h = step_h(p, M)
    g = make_grid(0.0, h, 1.2, 65)
    w = build_weights(g, 0.6)
    t = taylor_poly(p.y0, g.x_nodes)
    y = SampledFunction(g, t + 0.3 * np.sin(3.0 * g.s_nodes))
    ay = picard_apply(y, p, w)
    xs = g.x_nodes
    for i in range(65):
        for j in range(i + 1, 65):
            meas = abs(float(ay.values[i] - ay.values[j] + t[j] - t[i]))
            bound = holder_bound(x1=float(xs[i]), x2=float(xs[j]), M=M,
                                 alpha=0.6, rho=1.2)
            assert meas <= bound * 1.01 + 1e-12


# ---------------------------------------------------------------------------
# study diagnostics
# ---------------------------------------------------------------------------

def _report(deltas, omega_bounds):
    return SolverReport(h_used=1.0, M=1.0, iterations=len(deltas), fft_iterations=0,
                        deltas=np.array(deltas, dtype=float),
                        omega_bounds=None if omega_bounds is None
                        else np.array(omega_bounds, dtype=float),
                        residual=0.0, converged=True)


@pytest.mark.parametrize("deltas,omega_bounds,want", [
    ([1.0, 5.0], None, True),                   # no bounds computed
    ([1.0], [0.5], True),                       # nothing to compare
    ([1.0, 0.5], [0.5], True),                  # on the bound
    ([1.0, 0.505], [0.5], True),                # within the 1e-2 relative slack
    ([1.0, 0.506], [0.5], False),
    ([1.0, 0.1, 0.26], [0.5, 0.25], False),     # a later update breaks it
    ([1.0, 1e-12], [0.0], True),                # the 1e-12 absolute slack
    ([1.0, 2e-12], [0.0], False),
    ([100.0, 1e-10], [0.0], True),              # slack scales with deltas[0] > 1
    ([100.0, 2e-10], [0.0], False),
    ([1.0, 0.5, 0.4], [0.5, math.inf], True),  # an omega_j past the double range
])
def test_contraction_respected(deltas, omega_bounds, want):
    assert contraction_respected(_report(deltas, omega_bounds)) is want


def _per_point_oracle(y, p):
    # the oracle as one gfi_reference call per probe node, with a scalar
    # integrand mapping each point x -> s -> interpolated y -> f(x, y), at
    # tol 1e-10 max(1, max|y|)
    grid = y.grid
    tol = 1e-10 * max(1.0, float(np.max(np.abs(y.values))))

    def integrand(x):
        y_x = float(np.interp(float(grid.s_of(x)), grid.s_nodes, y.values))
        return float(p.rhs.fn(np.array([x]), np.array([y_x]), p)[0])

    n = grid.n_nodes
    worst = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        i = min(n - 1, max(1, round(frac * (n - 1))))
        x_i = float(grid.x_nodes[i])
        ref = gfi_reference(lambda xs: [integrand(v) for v in xs.tolist()],
                            x_i, p.alpha, grid.rho, grid.a, tol=tol)
        t_i = float(taylor_poly(p.y0, np.array([x_i]))[0])
        worst = max(worst, abs(float(y.values[i]) - t_i - ref))
    return worst


ORACLE_CASES = [
    ("linear", {"lambda": -1.0}, (1.0,)),
    ("sin", {}, (0.5,)),
    ("logistic", {"lambda": 1.0}, (0.5,)),
    ("power_forcing", {"beta": 1.5}, (1.0,)),
]


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name,params,y0", ORACLE_CASES)
def test_oracle_residual_equals_per_point_formula(name, params, y0, rho):
    p = problem(alpha=0.6, rho=rho, y0=y0, name=name, params=params, K=2.0)
    y, _ = solve_picard(p, SolverConfig(n_nodes=65, tol=1e-12))
    got = oracle_residual(y, p)
    assert got.hex() == _per_point_oracle(y, p).hex()
    assert got < 1e-2


def test_oracle_residual_calls_rhs_once_per_level(monkeypatch):
    # 4 probes, each at most the starting mesh plus 16 doublings
    calls = 0
    fn = RightHandSide.fn

    def counted(self, x, y, problem):
        nonlocal calls
        calls += 1
        return fn(self, x, y, problem)

    p = problem(alpha=0.6, rho=2.0, y0=(0.5,), name="sin", params={})
    y, _ = solve_picard(p, SolverConfig(n_nodes=257, tol=1e-12))
    monkeypatch.setattr(RightHandSide, "fn", counted)
    oracle_residual(y, p)
    assert 4 <= calls <= 4 * 17


def test_oracle_residual_memory_is_bounded(monkeypatch):
    # the deepest mesh level of this oracle has 65,536 cells; the level's
    # node values, the two coefficient arrays of its sum and the rhs call's
    # arrays stay under 5 arrays of its 65,537 doubles
    new_nodes = []
    fn = RightHandSide.fn

    def recorded(self, x, y, problem):
        new_nodes.append(np.size(x))
        return fn(self, x, y, problem)

    p = problem(alpha=0.33, rho=0.5, y0=(0.53,), params={"lambda": -0.64},
                h_star=0.0263, K=0.52)
    y, _ = solve_picard(p, SolverConfig(n_nodes=257, tol=1e-12))
    monkeypatch.setattr(RightHandSide, "fn", recorded)
    tracemalloc.start()
    try:
        oracle_residual(y, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(new_nodes) == 65536 // 2
    assert peak < 5 * 8 * 65537


def test_oracle_residual_refuses_non_finite_rhs_at_first_level(monkeypatch):
    # f = c Gamma(1.3)/Gamma(0.8) s**-0.2 is infinite at x = 0, a node of the
    # first mesh level; the refusal comes before any doubling
    calls = 0
    fn = RightHandSide.fn

    def counted(self, x, y, problem):
        nonlocal calls
        calls += 1
        return fn(self, x, y, problem)

    p = problem(alpha=0.5, name="power_forcing", params={"beta": 0.3})
    y = SampledFunction(make_grid(0.0, 1.0, 1.0, 65), np.zeros(65))
    monkeypatch.setattr(RightHandSide, "fn", counted)
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite values"):
            oracle_residual(y, p)
    assert calls <= 1


def test_oracle_residual_integrates_each_probe_node_once(monkeypatch):
    # at n = 3 the probes 1/4, 1/2, 3/4, 1 land on nodes 1, 1, 2, 2
    seen = []
    reference = solver.gfi_reference

    def counted(f, x, *args, **kwargs):
        seen.append(x)
        return reference(f, x, *args, **kwargs)

    p = problem(alpha=0.6, y0=(0.5,), name="sin", params={})
    y, _ = solve_picard(p, SolverConfig(n_nodes=3, tol=1e-12))
    monkeypatch.setattr(solver, "gfi_reference", counted)
    got = oracle_residual(y, p)
    assert seen == [float(y.grid.x_nodes[1]), float(y.grid.x_nodes[2])]
    assert got.hex() == _per_point_oracle(y, p).hex()


def test_oracle_residual_needs_grid_from_origin():
    g = make_grid(0.5, 1.0, 1.0, 9)
    with pytest.raises(ValueError, match="grid.a must be 0"):
        oracle_residual(SampledFunction(g, np.ones(9)), problem())


# ---------------------------------------------------------------------------
# accurate or refused: every call over extreme ranges
# ---------------------------------------------------------------------------

_EXTREME_PARAMS = {
    "zero": st.just({}),
    "linear": st.fixed_dictionaries({"lambda": st.floats(-10.0, 10.0)}),
    "power_forcing": st.fixed_dictionaries({"beta": st.floats(0.0, 5.0),
                                            "c": st.floats(-10.0, 10.0)}),
    "sin": st.fixed_dictionaries({"c": st.floats(-10.0, 10.0)}),
    "logistic": st.fixed_dictionaries({"lambda": st.floats(-10.0, 10.0)}),
}


@st.composite
def extreme_cases(draw):
    """(problem, n): alpha in (0, 40], rho in [1e-3, 10], y0 entries in
    [-1e8, 1e8], h_star in [1e-2, 10], K in [1e-6, 1e6], n in [2, 65], and
    every registered rhs."""
    alpha = draw(st.floats(0.0, 40.0, exclude_min=True))
    name = draw(st.sampled_from(rhs_names()))
    y0 = draw(st.lists(st.floats(-1e8, 1e8), min_size=math.ceil(alpha),
                       max_size=math.ceil(alpha)))
    p = IVProblem(alpha=alpha, rho=10.0 ** draw(st.floats(-3.0, 1.0)), y0=tuple(y0),
                  rhs=make_rhs(name, draw(_EXTREME_PARAMS[name])),
                  h_star=10.0 ** draw(st.floats(-2.0, 1.0)),
                  K=10.0 ** draw(st.floats(-6.0, 6.0)))
    return p, draw(st.integers(2, 65))


def _finite_or_refused(call):
    """call()'s value, whose values must be finite, or None for a refusal
    by one of the library's typed errors; anything else, a numpy warning
    too, fails."""
    try:
        value = call()
    except (ValueError, OverflowError, ComputationError):
        return None
    values = np.asarray(getattr(value, "values", value), dtype=float)
    assert np.all(np.isfinite(values))
    return value


def _omega_1(p: IVProblem, h: float) -> float:
    """L s(h)**alpha / Gamma(alpha + 1), the sup-norm Lipschitz constant of
    one Picard step on [0, h] (the weights of a row sum to s**alpha /
    Gamma(alpha + 1)), inf past the double range."""
    try:
        return contraction_bound(1, p.rhs.lipschitz(p), h, p.alpha, p.rho)
    except OverflowError:
        return math.inf


@settings(max_examples=60, deadline=None)
@given(case=extreme_cases(), z=st.floats(-1e3, 1e3))
# ROADMAP item 19's sin case: a Picard 2-cycle that marching solves
@example(case=(problem(0.539, 1.0, (-0.9411239795189432,), "sin", {"c": 2.3613855464899416},
                       9.991893671376308, 6.326076843131313), 257), z=-1.0)
# item 4b's sin case: the 1/alpha step lets Picard leave the box
@example(case=(problem(0.6, 0.6, (0.5,), "sin", {"c": 1.0}, 1.0, 1.0), 257), z=-1.0)
# T overflows, with the bounded sin: taylor_poly refuses it everywhere
@example(case=(problem(149.5, 1.0, (1.0,) * 150, "sin", {"c": 1.0}, 1e6, 1.0), 129), z=1.0)
# weights past the double range on a zero rhs: both solvers return T
@example(case=(problem(43.0, 1.0, (1.0,) + (0.0,) * 42, "zero", {}, 3e8, 1.0), 5), z=1.0)
# omega_1 above 1/2, where both return but need not agree: at n 2 the node
# equation u = 1 + w 4 sin(u) has several roots, and each solver takes
# another (-1.738 and 2.829); on [0, 0.0135] at rho 0.018, omega_1 about
# 6e6, Picard stops after one update of 1.7e-14 while marching's solution
# is 6.3e-7 away
@example(case=(problem(0.25, 1.0, (1.0,), "sin", {"c": 4.0}, 1.0, 10.0), 2), z=0.0)
@example(case=(problem(5.678657832810093, 0.018015596001569142,
                       (1e-26, -4.958325031781093e-60, -1.470450151334012e-180,
                        3.004192541567064e-27, -1.192092896e-07, 0.490904491182917),
                       "sin", {"c": 0.490904491182917}, 1.0, 1.000000000000002e-06), 27),
         z=0.0)
def test_every_call_is_accurate_or_refused(case, z):
    # each call returns finite values or raises ValueError, OverflowError or
    # a ComputationError, and numpy warns of nothing; where both solvers
    # return and one Picard step contracts by omega_1 <= 1/2, the discrete
    # solution is unique, Picard's last update bounds its error, and the
    # two agree within 10 tol max(1, max |y|).  That both solve or both
    # refuse waits for ROADMAP items 4 and 19
    p, n = case
    config = SolverConfig(n_nodes=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        picard = _finite_or_refused(lambda: solve_picard(p, config)[0])
        marching = _finite_or_refused(lambda: solve_marching(p, config))
        y = picard if picard is not None else marching

        def sampled():
            if y is not None:
                return y
            grid = make_grid(0.0, p.h_star, p.rho, n)
            with np.errstate(all="ignore"):     # as the library calls it
                return SampledFunction(grid, taylor_poly(p.y0, grid.x_nodes))

        _finite_or_refused(lambda: gfi_apply(sampled(), p.alpha))
        _finite_or_refused(lambda: gfd_riemann(sampled(), p.alpha))
        _finite_or_refused(lambda: gfd_caputo(sampled(), p.alpha, p.y0))
        _finite_or_refused(lambda: mittag_leffler(p.alpha, z))
    if picard is not None and marching is not None and _omega_1(p, picard.grid.b) <= 0.5:
        scale = max(1.0, float(np.max(np.abs(picard.values))))
        assert np.max(np.abs(picard.values - marching.values)) <= 10.0 * config.tol * scale
