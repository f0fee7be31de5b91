"""Adaptive reference evaluation of the fractional integral.

The independent cross-check integrates in the substituted variable
u = (s - sigma)**alpha, which removes the endpoint singularity entirely, and
is evaluated with mpmath at 30 digits.
"""

import math

import mpmath
import pytest

from gfcalc.fracops import RefinementError, gfi_reference


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
    assert gfi_reference(lambda x: 0.0, 1.0, 0.5, 1.0, 0.0) == 0.0


def test_at_left_endpoint():
    assert gfi_reference(lambda x: math.cos(x), 0.7, 0.5, 1.3, 0.7) == 0.0


def test_constant_rho_two():
    got = gfi_reference(lambda x: 1.0, 1.0, 0.5, 2.0, 0.0, tol=1e-10)
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
        return math.sin(1.3 * t) + 0.5 * t

    def g(sigma):
        xi = (a**rho + rho * float(sigma)) ** (1.0 / rho)
        return f(xi)

    got = gfi_reference(f, x, alpha, rho, a, tol=1e-11)
    want = abel_mp(g, s_end, alpha)
    assert abs(got - want) < 5e-11


def test_tolerance_is_respected():
    def f(t):
        return math.exp(-t) * math.cos(3 * t)

    loose = gfi_reference(f, 2.0, 0.7, 1.0, 0.0, tol=1e-6)
    tight = gfi_reference(f, 2.0, 0.7, 1.0, 0.0, tol=1e-12)
    assert abs(loose - tight) < 1e-6
    want = abel_mp(lambda s: f(float(s)), 2.0, 0.7)
    assert abs(tight - want) < 1e-11


def test_refinement_error_carries_context():
    # one doubling allowed: a rough integrand cannot settle
    with pytest.raises(RefinementError):
        gfi_reference(lambda x: math.sin(50.0 / (x + 0.01)), 1.0, 0.5, 1.0, 0.0,
                      tol=1e-14, max_depth=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0), dict(alpha=-0.5), dict(rho=0.0), dict(rho=-1.0),
        dict(tol=0.0), dict(a=-0.1),
    ],
)
def test_parameter_validation(kwargs):
    base = dict(f=lambda x: 1.0, x=1.0, alpha=0.5, rho=1.0, a=0.0, tol=1e-8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        gfi_reference(**base)


def test_x_below_a_rejected():
    with pytest.raises(ValueError):
        gfi_reference(lambda x: 1.0, 0.5, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_rejected_before_any_evaluation(x):
    def f(_):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError, match="x must be finite"):
        gfi_reference(f, x, 0.5, 1.0, 0.0)
