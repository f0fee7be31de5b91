"""The package surface: what ``gfcalc`` exports, and the exact wording of the
finite-value checks on the paper's hypotheses (alpha, rho > 0, a >= 0, a box
of half-width K > 0 over [0, h_star], M >= 0, L >= 0) and of the
integer-count checks (grid sizes, iteration caps, Stirling indices)."""

import math
from pathlib import Path

import numpy as np
import pytest

import gfcalc
from gfcalc import fracops, problemfile, solver, specialfn
from gfcalc.fracops import (
    SampledFunction,
    build_weights,
    gfd_caputo,
    gfd_riemann,
    gfi_reference,
    make_grid,
)
from gfcalc.solver import (
    IVProblem,
    SolverConfig,
    contraction_bound,
    holder_bound,
    make_rhs,
    step_h,
)
from gfcalc.specialfn import mittag_leffler, stirling_oracle, stirling_table

SUBMODULES = (fracops, problemfile, solver, specialfn)
REFUSALS = (specialfn.ConvergenceError, fracops.RefinementError, solver.DomainExitError,
            solver.NonConvergenceError, solver.MarchingError)


def test_package_exports_the_submodule_names():
    names = set().union(*(mod.__all__ for mod in SUBMODULES))
    assert sorted(gfcalc.__all__) == sorted(names | {"__version__"})
    assert len(gfcalc.__all__) == len(set(gfcalc.__all__))
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert getattr(gfcalc, name) is getattr(mod, name), name
    # each public name is declared by one submodule; a name another module
    # merely imports, such as solver.taylor_poly, still imports from there
    declared = [name for mod in SUBMODULES for name in mod.__all__]
    assert len(declared) == len(set(declared))
    assert solver.taylor_poly is fracops.taylor_poly


@pytest.mark.parametrize("refusal", REFUSALS, ids=lambda cls: cls.__name__)
def test_every_refusal_is_a_computation_error(refusal):
    # the command line exits 2 on any ComputationError; each refusal keeps
    # the base it had before, so an existing except clause still catches it
    assert issubclass(refusal, gfcalc.ComputationError)
    if refusal is specialfn.ConvergenceError:
        assert issubclass(refusal, ArithmeticError)
    else:
        assert issubclass(refusal, RuntimeError)


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```\n", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["integral"].values.shape == (513,)
    h_used, iterations, residual = capsys.readouterr().out.split()
    assert float(h_used) > 0.0 and int(iterations) >= 1
    assert float(residual) < 1e-9


# ---------------------------------------------------------------------------
# finite-value checks
# ---------------------------------------------------------------------------

GRID = make_grid(0.0, 1.0, 1.0, 5)
F = SampledFunction(GRID, GRID.x_nodes)


def _ivp(**kw):
    fields = dict(alpha=0.5, rho=1.0, y0=(1.0,), rhs=make_rhs("zero"),
                  h_star=1.0, K=1.0)
    fields.update(kw)
    return IVProblem(**fields)


# (site, checked name, strict: > 0 rather than >= 0, call with the bad value)
SITES = [
    ("make_grid", "a", False, lambda v: make_grid(v, 2.0, 1.0, 5)),
    ("make_grid", "rho", True, lambda v: make_grid(0.0, 1.0, v, 5)),
    ("build_weights", "alpha", True, lambda v: build_weights(GRID, v)),
    ("gfd_riemann", "alpha", True, lambda v: gfd_riemann(F, v)),
    ("gfd_caputo", "alpha", True, lambda v: gfd_caputo(F, v, (0.0,))),
    ("gfi_reference", "alpha", True,
     lambda v: gfi_reference(np.sin, 1.0, v, 1.0, 0.0)),
    ("gfi_reference", "rho", True,
     lambda v: gfi_reference(np.sin, 1.0, 0.5, v, 0.0)),
    ("gfi_reference", "a", False,
     lambda v: gfi_reference(np.sin, 1.0, 0.5, 1.0, v)),
    ("gfi_reference", "tol", True,
     lambda v: gfi_reference(np.sin, 1.0, 0.5, 1.0, 0.0, tol=v)),
    ("IVProblem", "alpha", True, lambda v: _ivp(alpha=v)),
    ("IVProblem", "rho", True, lambda v: _ivp(rho=v)),
    ("IVProblem", "h_star", True, lambda v: _ivp(h_star=v)),
    ("IVProblem", "K", True, lambda v: _ivp(K=v)),
    ("SolverConfig", "tol", True, lambda v: SolverConfig(n_nodes=65, tol=v)),
    ("SolverConfig", "lipschitz_L", False,
     lambda v: SolverConfig(n_nodes=65, lipschitz_L=v)),
    ("step_h", "M", False, lambda v: step_h(_ivp(), v)),
    ("contraction_bound", "L", False,
     lambda v: contraction_bound(1, v, 1.0, 0.5, 1.0)),
    ("contraction_bound", "x", False,
     lambda v: contraction_bound(1, 1.0, v, 0.5, 1.0)),
    ("contraction_bound", "alpha", True,
     lambda v: contraction_bound(1, 1.0, 1.0, v, 1.0)),
    ("contraction_bound", "rho", True,
     lambda v: contraction_bound(1, 1.0, 1.0, 0.5, v)),
    ("holder_bound", "M", False, lambda v: holder_bound(0.0, 1.0, v, 0.5, 1.0)),
    ("holder_bound", "alpha", True,
     lambda v: holder_bound(0.0, 1.0, 1.0, v, 1.0)),
    ("holder_bound", "rho", True,
     lambda v: holder_bound(0.0, 1.0, 1.0, 0.5, v)),
    ("mittag_leffler", "alpha", True, lambda v: mittag_leffler(v, 0.5)),
]

CASES = [
    pytest.param(name, strict, call, bad, id=f"{site}-{name}-{bad}")
    for site, name, strict, call in SITES
    for bad in (math.nan, math.inf, -math.inf, -1.0) + ((0.0,) if strict else ())
]


@pytest.mark.parametrize("name,strict,call,bad", CASES)
def test_finite_check_message(name, strict, call, bad):
    op = ">" if strict else ">="
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be finite and {op} 0, got {bad}"


@pytest.mark.parametrize("call", [
    pytest.param(call, id=f"{site}-{name}")
    for site, name, strict, call in SITES if not strict
])
def test_nonstrict_check_accepts_zero(call):
    call(0.0)


# ---------------------------------------------------------------------------
# initial-derivative checks: one rule for IVProblem's y0 and gfd_caputo's init
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,call", [
    ("y0", lambda alpha, v: _ivp(alpha=alpha, y0=v)),
    ("init", lambda alpha, v: gfd_caputo(SampledFunction(GRID, np.ones(GRID.n_nodes)),
                                         alpha, v)),
], ids=["IVProblem", "gfd_caputo"])
@pytest.mark.parametrize("alpha,values,message", [
    (0.5, [math.nan], "{} must be finite, got (nan,)"),
    (1.5, [1.0, -math.inf], "{} must be finite, got (1.0, -inf)"),
    (0.5, [1.0, 0.0], "{} must have ceil(alpha) = 1 entries, got 2"),
    (1.5, [1.0], "{} must have ceil(alpha) = 2 entries, got 1"),
    # finiteness is checked before the count
    (0.5, [1.0, math.inf], "{} must be finite, got (1.0, inf)"),
], ids=["nan", "-inf", "too-many", "too-few", "inf-and-too-many"])
def test_initial_values_message(name, call, alpha, values, message):
    with pytest.raises(ValueError) as info:
        call(alpha, values)
    assert str(info.value) == message.format(name)


# ---------------------------------------------------------------------------
# integer-count checks
# ---------------------------------------------------------------------------

# (site, checked name, minimum, call with the bad value)
INT_SITES = [
    ("make_grid", "n_nodes", 2, lambda v: make_grid(0.0, 1.0, 1.0, v)),
    ("SolverConfig", "n_nodes", 2, lambda v: SolverConfig(n_nodes=v)),
    ("SolverConfig", "max_iter", 1, lambda v: SolverConfig(n_nodes=65, max_iter=v)),
    ("contraction_bound", "j", 0,
     lambda v: contraction_bound(v, 1.0, 1.0, 0.5, 1.0)),
    ("stirling_table", "r", 1, lambda v: stirling_table(v, 1, 3)),
    ("stirling_table", "m", 1, lambda v: stirling_table(1, v, 3)),
    ("stirling_table", "max_n", 0, lambda v: stirling_table(1, 1, v)),
    ("stirling_oracle", "r", 1, lambda v: stirling_oracle(v, 1, 3)),
    ("stirling_oracle", "m", 1, lambda v: stirling_oracle(1, v, 3)),
    ("stirling_oracle", "n", 0, lambda v: stirling_oracle(1, 1, v)),
]

INT_CASES = [
    pytest.param(name, minimum, call, bad, id=f"{site}-{name}-{bad!r}")
    for site, name, minimum, call in INT_SITES
    for bad in (True, 1.5, minimum - 1)
]


@pytest.mark.parametrize("name,minimum,call,bad", INT_CASES)
def test_int_check_message(name, minimum, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be an int >= {minimum}, got {bad!r}"


# ---------------------------------------------------------------------------
# node-values check
# ---------------------------------------------------------------------------

WEIGHTS = build_weights(GRID, 0.5)


@pytest.mark.parametrize("call", [
    lambda v: SampledFunction(GRID, v),
    WEIGHTS.apply_fft,
    WEIGHTS.apply_exact,
], ids=["SampledFunction", "apply_fft", "apply_exact"])
@pytest.mark.parametrize("bad", [np.ones(4), np.ones((5, 1)), 1.0])
def test_node_values_shape_message(call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == (
        f"values have shape {np.shape(bad)}, expected (5,)")


def test_apply_is_apply_exact():
    # one function under two names: perfbench's trace wraps the class's
    # "apply" entry and counts it as the exact sum
    names = fracops.QuadratureWeights.__dict__
    assert names["apply"] is names["apply_exact"]
