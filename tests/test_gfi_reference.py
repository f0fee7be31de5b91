"""Adaptive reference evaluation of the fractional integral.

The independent cross-check integrates in the substituted variable
u = (s - sigma)**alpha, which removes the endpoint singularity entirely, and
is evaluated with mpmath at 30 digits.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from gfcalc import fracops
from gfcalc.fracops import (
    RefinementError,
    _abel_mesh,
    _graded_abel_sum,
    _node_dist,
    _s_from_x,
    _x_from_s,
    gfi_reference,
)


def abel_mp(g, s_end: float, alpha: float) -> float:
    """(1/Gamma(alpha)) * int_0^s (s-sigma)^(alpha-1) g(sigma) dsigma."""
    with mpmath.workdps(30):
        s = mpmath.mpf(s_end)
        al = mpmath.mpf(alpha)

        def h(u):
            sg = s - u ** (1 / al)
            if sg < 0:  # guard endpoint rounding
                sg = mpmath.mpf(0)
            return g(sg)

        val = mpmath.quad(h, [0, s**al]) / al
        return float(val / mpmath.gamma(al))


def test_zero_function():
    assert gfi_reference(np.zeros_like, 1.0, 0.5, 1.0, 0.0) == 0.0


def test_at_left_endpoint():
    assert gfi_reference(np.cos, 0.7, 0.5, 1.3, 0.7) == 0.0


def test_constant_rho_two():
    got = gfi_reference(np.ones_like, 1.0, 0.5, 2.0, 0.0, tol=1e-10)
    want = math.sqrt(0.5) / math.gamma(1.5)
    assert abs(got - want) < 1e-9
    assert abs(want - 0.7978845608) < 1e-9


def test_identity_power_rule():
    got = gfi_reference(lambda x: x, 1.0, 0.5, 1.0, 0.0, tol=1e-11)
    want = math.gamma(2.0) / math.gamma(2.5)
    assert abs(got - want) < 1e-10
    assert abs(want - 0.7522528) < 1e-7


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.4])
@pytest.mark.parametrize("rho", [0.6, 1.0, 2.0])
def test_against_substituted_quadrature(alpha, rho):
    a, x = 0.3, 1.4
    s_end = (x**rho - a**rho) / rho

    def f(t):
        return np.sin(1.3 * t) + 0.5 * t

    def g(sigma):
        xi = (a**rho + rho * float(sigma)) ** (1.0 / rho)
        return float(f(xi))

    got = gfi_reference(f, x, alpha, rho, a, tol=1e-11)
    want = abel_mp(g, s_end, alpha)
    assert abs(got - want) < 5e-11


def test_tolerance_is_respected():
    def f(t):
        return np.exp(-t) * np.cos(3 * t)

    loose = gfi_reference(f, 2.0, 0.7, 1.0, 0.0, tol=1e-6)
    tight = gfi_reference(f, 2.0, 0.7, 1.0, 0.0, tol=1e-12)
    assert abs(loose - tight) < 1e-6
    want = abel_mp(lambda s: float(f(float(s))), 2.0, 0.7)
    assert abs(tight - want) < 1e-11


def test_refinement_error_carries_context(monkeypatch):
    # one doubling allowed: a rough integrand cannot settle
    monkeypatch.setattr(fracops, "_REFERENCE_MAX_DEPTH", 1)
    with pytest.raises(RefinementError):
        gfi_reference(lambda x: np.sin(50.0 / (x + 0.01)), 1.0, 0.5, 1.0, 0.0,
                      tol=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0), dict(alpha=-0.5), dict(rho=0.0), dict(rho=-1.0),
        dict(tol=0.0), dict(tol=math.inf), dict(tol=math.nan), dict(a=-0.1),
    ],
)
def test_parameter_validation(kwargs):
    base = dict(f=np.ones_like, x=1.0, alpha=0.5, rho=1.0, a=0.0, tol=1e-8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        gfi_reference(**base)


def test_x_below_a_rejected():
    with pytest.raises(ValueError):
        gfi_reference(np.ones_like, 0.5, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_rejected_before_any_evaluation(x):
    def f(_):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError, match="x must be finite"):
        gfi_reference(f, x, 0.5, 1.0, 0.0)


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_infinite_transformed_length_refused_before_any_evaluation(a):
    def f(_):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError,
                       match=r"^transformed length \(x\*\*rho - a\*\*rho\)/rho = inf unusable$"):
        gfi_reference(f, 1e300, 0.5, 2.0, a)


@pytest.mark.parametrize("x,alpha,rho", [
    (1e-150, 1.5, 1.0),     # s**(alpha + 1) = 1e-375 underflows
    (1e-250, 0.5, 1.0),     # 1e-375 again, at a small alpha
    (1e150, 1.5, 1.0),      # 1e375 overflows
])
def test_extreme_transformed_lengths_keep_their_accuracy(x, alpha, rho):
    # the mesh runs over s 2**-k in [1/2, 1) and the value is scaled back;
    # f sees the nodes of the unscaled mesh, bit for bit.  tol is absolute,
    # so it is set relative to the value here
    s = x**rho / rho
    want = s**alpha / math.gamma(alpha + 1.0)
    seen = []

    def f(xs):
        seen.append(xs)
        return np.ones_like(xs)

    got = gfi_reference(f, x, alpha, rho, 0.0, tol=1e-13 * want)
    assert abs(got - want) <= 1e-12 * want
    t = np.arange(65) / 64
    assert np.array_equal(seen[0], s - s * (1.0 - t) * (1.0 - t) * (1.0 + 2.0 * t))


@pytest.mark.parametrize("x", [1.0, 1e150])
def test_returns_a_float_on_every_length(x):
    # every length runs on its normalised mesh and is scaled back as a float
    got = gfi_reference(np.ones_like, x, 1.5, 1.0, 0.0, tol=1e-13 * x**1.5)
    assert type(got) is float


def test_value_past_the_double_range_refused():
    # s**alpha / Gamma(3) = 5e309 for s = 1e155, alpha 2
    with pytest.raises(OverflowError,
                       match=r"^integral over \[0, 1e\+155\] is past the double range$"):
        gfi_reference(np.ones_like, 1e155, 2.0, 1.0, 0.0, tol=1e308)


def test_transformed_length_underflowing_to_zero_refused():
    # s = x**2 / 2 underflows to 0 although x > a, so the value 7.98e-301
    # cannot be reached through s
    def f(_):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError,
                       match=r"^transformed length \(x\*\*rho - a\*\*rho\)/rho = 0\.0 unusable$"):
        gfi_reference(f, 1e-300, 0.5, 2.0, 0.0)


@pytest.mark.parametrize("a", [0.0, 0.4])      # power and exp/log1p maps
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_equals_per_point_mapping(a, rho):
    # gfi_reference maps a whole mesh level to x at once; mapping each node
    # on its own, as a scalar, must give the same bits
    alpha, tol, x = 0.6, 1e-9, a + 1.2
    seen = set()

    def f(t):
        seen.add(type(t))
        return math.cos(3.0 * t) + t * t

    got = gfi_reference(lambda xs: [f(v) for v in xs.tolist()], x, alpha, rho,
                        a, tol=tol)
    assert seen == {float}
    want = _abel_mesh(
        lambda s: [f(float(_x_from_s(v, a, rho))) for v in s.tolist()],
        float(_s_from_x(x, a, rho)), alpha, tol) / math.gamma(alpha)
    assert got.hex() == want.hex()


def test_refusal_memory_is_bounded(monkeypatch):
    # the last of 12 doublings has 262,144 cells; its node values and the
    # two coefficient arrays of its sum, summed in fixed blocks of cells,
    # stay under 4 arrays of that size
    monkeypatch.setattr(fracops, "_REFERENCE_MAX_DEPTH", 12)
    n_cells = 64 * 2**12
    tracemalloc.start()
    try:
        with pytest.raises(RefinementError, match="262144 cells"):
            _abel_mesh(lambda s: np.sin(50.0 / (s + 0.01)), 1.0, 0.5, 1e-300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * (n_cells + 1)


@pytest.mark.parametrize("n_cells", [64, 262144])
@pytest.mark.parametrize("s_end", [0.5, 0.999])
@pytest.mark.parametrize("alpha", [0.05, 0.6, 1.0, 2.5, 40.0])
def test_closing_cell_takes_the_cell_formula(alpha, s_end, n_cells):
    # g is the hat function of the last node, so the sum is the closing
    # cell's near coefficient alone: b**alpha / (alpha (alpha + 1)) exactly,
    # with b that cell's width, and 0 where b**alpha underflows
    g_vals = np.zeros(n_cells + 1)
    g_vals[-1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _graded_abel_sum(g_vals, s_end, alpha)
    t = (n_cells - 1) / n_cells
    b_alpha = float(_node_dist(s_end, t, 1.0 - t)) ** alpha
    if b_alpha == 0.0:
        assert got == 0.0
    else:
        want = b_alpha / (alpha * (alpha + 1.0))
        assert abs(got - want) <= 128 * 2.0**-53 * want


@pytest.mark.parametrize("alpha", [0.3, 1.5, 40.0])
def test_level_sum_is_the_same_for_every_block_size(alpha, monkeypatch):
    # a level of three whole blocks and two cells more, its half-way point
    # inside the second block: every block size gives the whole level's bits
    n_cells = 3 * 4096 + 2
    g_vals = np.random.default_rng(11).standard_normal(n_cells + 1)
    sums = set()
    for block in (n_cells + 1, 4096, 1000, 7):
        monkeypatch.setattr(fracops, "_ABEL_BLOCK", block)
        sums.add(_graded_abel_sum(g_vals, 0.75, alpha).hex())
    assert len(sums) == 1


def test_gamma_overflow_refused_before_any_evaluation():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return np.cos(x)

    with pytest.raises(ValueError, match=r"^alpha = 180\.0 too large: gamma overflow$"):
        gfi_reference(f, 1.0, 180.0, 1.0, 0.0)
    assert calls == 0


def test_non_finite_integrand_refused_at_first_level():
    # 1/sqrt(x) is infinite at x = 0, a node of every level, so no number of
    # doublings could converge; the 65 nodes of the first level settle it
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return 1.0 / np.sqrt(x)

    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite sum on 64 cells"):
            gfi_reference(f, 1.0, 0.5, 1.0, 0.0)
    assert calls == 1


@pytest.mark.parametrize("values,calls_wanted,message", [
    pytest.param(lambda x: 1.0, 1, r"values have shape \(\), expected \(65,\)",
                 id="scalar"),
    pytest.param(lambda x: np.ones(65), 2,
                 r"values have shape \(65,\), expected \(64,\)", id="stale-length"),
])
def test_integrand_without_one_value_per_node_refused(values, calls_wanted,
                                                      message):
    # f must map a mesh level's array of x to one value per node; a scalar,
    # or an array of another level's length, is refused at the level it
    # comes back for
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return values(x)

    with pytest.raises(ValueError, match=message):
        gfi_reference(f, 1.0, 0.5, 1.0, 0.0)
    assert calls == calls_wanted
