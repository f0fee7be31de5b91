"""The package surface: what ``gfcalc`` exports, and the exact wording of the
finite-value checks on the paper's hypotheses (alpha, rho > 0, a box of
half-width K > 0 over [0, h_star], M >= 0, L >= 0)."""

import math

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
from gfcalc.specialfn import mittag_leffler

SUBMODULES = (fracops, problemfile, solver, specialfn)


def test_package_exports_the_submodule_names():
    names = set().union(*(mod.__all__ for mod in SUBMODULES))
    assert sorted(gfcalc.__all__) == sorted(names | {"__version__"})
    assert len(gfcalc.__all__) == len(set(gfcalc.__all__))
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert getattr(gfcalc, name) is getattr(mod, name), name


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
    ("build_weights", "alpha", True, lambda v: build_weights(GRID, v)),
    ("gfd_riemann", "alpha", True, lambda v: gfd_riemann(F, v)),
    ("gfd_caputo", "alpha", True, lambda v: gfd_caputo(F, v, (0.0,))),
    ("gfi_reference", "alpha", True,
     lambda v: gfi_reference(math.sin, 1.0, v, 1.0, 0.0)),
    ("gfi_reference", "rho", True,
     lambda v: gfi_reference(math.sin, 1.0, 0.5, v, 0.0)),
    ("gfi_reference", "a", False,
     lambda v: gfi_reference(math.sin, 1.0, 0.5, 1.0, v)),
    ("IVProblem", "alpha", True, lambda v: _ivp(alpha=v)),
    ("IVProblem", "rho", True, lambda v: _ivp(rho=v)),
    ("IVProblem", "h_star", True, lambda v: _ivp(h_star=v)),
    ("IVProblem", "K", True, lambda v: _ivp(K=v)),
    ("SolverConfig", "tol", True, lambda v: SolverConfig(n_nodes=65, tol=v)),
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
