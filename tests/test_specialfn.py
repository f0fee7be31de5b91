"""Special functions: log-gamma, Mittag-Leffler, and the operator-expansion
(generalized Stirling) triangles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcalc.specialfn import (
    ConvergenceError,
    StirlingTable,
    _two_sum,
    gamma_ln,
    mittag_leffler,
    stirling_oracle,
    stirling_table,
)


# ---------------------------------------------------------------------------
# gamma_ln
# ---------------------------------------------------------------------------

def test_gamma_ln_integers():
    for n in range(1, 25):
        assert abs(gamma_ln(float(n)) - math.log(math.factorial(n - 1))) < 1e-12 * max(
            1.0, abs(math.log(math.factorial(n - 1))))


def test_gamma_ln_half():
    assert abs(gamma_ln(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_gamma_ln_domain():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gamma_ln(bad)


# ---------------------------------------------------------------------------
# error-free addition
# ---------------------------------------------------------------------------

_MODERATE = st.floats(min_value=-1e300, max_value=1e300,
                      allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_MODERATE, _MODERATE), min_size=1, max_size=16))
def test_two_sum_is_exact(pairs):
    scalar = [_two_sum(a, b) for a, b in pairs]
    for (a, b), (s, e) in zip(pairs, scalar):
        assert s == a + b
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)
    # the same code on arrays gives the scalar results, signed zeros included
    a_arr, b_arr = np.array(pairs).T
    s_arr, e_arr = _two_sum(a_arr, b_arr)
    assert s_arr.tobytes() == np.array([s for s, _ in scalar]).tobytes()
    assert e_arr.tobytes() == np.array([e for _, e in scalar]).tobytes()


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------

def test_ml_alpha_one_is_exp():
    assert mittag_leffler(1.0, 1.0) == math.e
    for z in (0.1, 0.5, 2.0, 5.0, 10.0, 50.0, 100.0, 300.0, -1.0, -3.0):
        rel = abs(mittag_leffler(1.0, z) - math.exp(z)) / math.exp(z)
        assert rel < 1e-13


def test_ml_alpha_two_is_cosh_sqrt():
    assert mittag_leffler(2.0, 1.0) == math.cosh(1.0)
    for x in (0.3, 1.0, 4.0, 25.0, 100.0):
        want = math.cosh(math.sqrt(x))
        assert abs(mittag_leffler(2.0, x) - want) / want < 1e-14


def test_ml_half_negative_one():
    # E_{1/2}(-1) = e * erfc(1); oracle: math.erfc
    want = math.e * math.erfc(1.0)
    got = mittag_leffler(0.5, -1.0)
    assert abs(got - want) / want < 1e-15
    assert abs(got - 0.42758357615580705) < 1e-15


def test_ml_at_zero_and_validation():
    assert mittag_leffler(0.7, 0.0) == 1.0
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(-1.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, math.inf)


def test_ml_rejects_out_of_range_arguments():
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.2, 1e6)
    with pytest.raises(ConvergenceError):
        mittag_leffler(1.0, 600.0)   # series cannot start decreasing in cap


def test_ml_alternating_tail_bound():
    # for z < 0 the truncation error is below the first omitted term; compare
    # against a longer mpmath-free reference: alpha=1 exact exponential
    got = mittag_leffler(1.0, -2.5)
    assert abs(got - math.exp(-2.5)) < 1e-15


def ml_reference(alpha: float, z: float) -> float:
    """E_alpha(z) from its series at 60 digits, summed until the terms fall
    below 1e-70 on their way down."""
    with mpmath.workdps(60):
        al, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        total, prev, j = mpmath.mpf(0), mpmath.inf, 0
        while True:
            term = zz**j / mpmath.gamma(al * j + 1)
            total += term
            if abs(term) < min(prev, mpmath.mpf(10) ** -70):
                return float(total)
            prev, j = abs(term), j + 1


@pytest.mark.parametrize("alpha,z,refused", [
    (0.5, -5.0, True), (0.9, -20.0, True), (1.0, -20.0, True), (1.0, -30.0, True),
    (0.9, -7.6, False), (1.5, -20.0, False)])
def test_ml_is_accurate_or_refused_against_mpmath(alpha, z, refused):
    # on the refused rows cancellation left the plain series 4e-5
    # (E_0.5(-5)) to 4e7 (E_1(-30)) off the 60-digit reference, relative;
    # the kept rows are within the 1e-8 target
    if refused:
        with pytest.raises(ConvergenceError, match="cancellation"):
            mittag_leffler(alpha, z)
    else:
        want = ml_reference(alpha, z)
        assert abs(mittag_leffler(alpha, z) - want) <= 1e-8 * abs(want)


# ---------------------------------------------------------------------------
# Stirling triangles
# ---------------------------------------------------------------------------

def classical_stirling2(max_n: int) -> list:
    """Independent classical triangle via S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        row = []
        for k in range(1, n + 1):
            up = prev[k - 1] if k <= len(prev) else 0          # S(n-1, k)
            upleft = prev[k - 2] if 2 <= k <= len(prev) + 1 else 0
            if n == 1:
                up = 0
                upleft = 1 if k == 1 else 0
            row.append(k * up + upleft)
        rows.append(row)
    return rows


def test_classical_triangle_matches_n_twelve():
    table = stirling_table(1, 1, 12)
    classic = classical_stirling2(12)
    assert table.rows[0] == (1,)
    for n in range(1, 13):
        assert list(table.rows[n]) == classic[n]


def test_row_four_values():
    table = stirling_table(1, 1, 4)
    assert list(table.rows[4]) == [1, 7, 6, 1]


def test_boundary_values():
    table = stirling_table(1, 1, 6)
    assert table.value(0, 0) == 1
    for n in range(1, 7):
        assert table.value(n, 0) == 0          # S(n, 0) = 0 for n >= 1
        assert table.value(n, n) == 1
        assert table.value(n, n + 1) == 0      # outside support


def test_table_equals_symbolic_oracle():
    for r in (1, 2, 3):
        for m in (1, 2, 3):
            table = stirling_table(r, m, 6)
            for n in range(0, 7):
                assert list(table.rows[n]) == stirling_oracle(r, m, n), (r, m, n)


def test_lah_like_triangle_closed_form():
    # r=2, m=1: coefficients of (x^2 D)^n are the Lah-style numbers
    # n!/k! * C(n-1, k-1)
    table = stirling_table(2, 1, 8)
    for n in range(1, 9):
        want = [math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)
                for k in range(1, n + 1)]
        assert list(table.rows[n]) == want


def test_width_and_floor_bookkeeping():
    table = stirling_table(3, 2, 5)
    for n in range(1, 6):
        assert len(table.rows[n]) == table.width(n) == 1 + 2 * (n - 1)


def test_oracle_docstring_names_its_limits():
    from gfcalc.specialfn import _ORACLE_MAX_N, _ORACLE_MAX_RM
    assert f"(r, m <= {_ORACLE_MAX_RM}, n <= {_ORACLE_MAX_N}" in stirling_oracle.__doc__


def test_table_validation():
    with pytest.raises(ValueError):
        stirling_table(0, 1, 3)
    with pytest.raises(ValueError):
        stirling_table(1, 1, -1)
    with pytest.raises(ValueError):
        stirling_oracle(1, 1, 13)
    with pytest.raises(ValueError):
        stirling_oracle(7, 1, 3)
    table = stirling_table(1, 1, 3)
    with pytest.raises(ValueError):
        table.value(4, 1)


@settings(max_examples=40, deadline=None)
@given(r=st.integers(1, 4), m=st.integers(1, 4), n=st.integers(0, 5))
def test_row_sum_counts_operator_terms(r, m, n):
    # every row is positive on its support and the triangle is deterministic
    t1 = stirling_table(r, m, n)
    t2 = stirling_table(r, m, n)
    assert t1.rows == t2.rows
    if n >= 1:
        row = t1.rows[n]
        assert row[-1] == 1
        assert all(v >= 0 for v in row)
        assert row[0] >= 0
