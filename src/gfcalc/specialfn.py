"""Special functions: log-gamma, Mittag-Leffler, and the generalized
Stirling triangles of the operator x**r (d/dx)**m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ComputationError",
    "ConvergenceError",
    "gamma_ln",
    "mittag_leffler",
    "StirlingTable",
    "stirling_table",
    "stirling_oracle",
]

_ML_MAX_TERMS = 512
_ML_LOG_TERM_CAP = 700.0   # exp() overflow guard; bounds the usable |z| range
_GAMMA_MAX_ARG = 171.0     # math.gamma overflows just past 171.62
_ML_TARGET = 1e-8          # relative accuracy a returned E_alpha(z) is held to

_ORACLE_MAX_RM = 6
_ORACLE_MAX_N = 12


class ComputationError(RuntimeError):
    """A computation the library refuses to finish: exit 2 on the CLI."""


class ConvergenceError(ComputationError, ArithmeticError):
    """A series failed to converge within its documented domain."""


def gamma_ln(x: float) -> float:
    """log Gamma(x) for x > 0.

    Delegates to the platform lgamma, which is accurate to a few ulp over
    the supported range (relative error well under 1e-13 on [1e-3, 170]).
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"gamma_ln requires finite x > 0, got {x}")
    return math.lgamma(x)


def _check_finite(name: str, value, strict: bool = True) -> None:
    """Refuse ``value`` unless it is finite and > 0 (>= 0 when not strict)."""
    if not (math.isfinite(value) and (value > 0.0 if strict else value >= 0.0)):
        op = ">" if strict else ">="
        raise ValueError(f"{name} must be finite and {op} 0, got {value}")


def _check_int(name: str, value, minimum: int) -> None:
    """Refuse ``value`` unless it is an int, not a bool, and >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def _two_sum(a, b):
    """Knuth's TwoSum: (s, e) with s = fl(a + b) and s + e == a + b exactly.

    Branch-free, so the same code serves floats and numpy arrays
    elementwise; exact whenever no partial sum overflows.
    """
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) = sum z**j / Gamma(alpha j + 1).

    Direct series summation, compensated by carrying the exact rounding
    error of each addition (TwoSum) in a second accumulator.  Terms use the
    gamma function directly while its argument stays in double range and
    switch to log space beyond that.  For z >= 0 the series stops once the
    next term drops below 1e-16 of the accumulated sum; for z < 0 it stops
    once terms are decreasing and below 1e-16 absolute, where the
    alternating tail is bounded by the first omitted term.  Arguments whose
    terms overflow double precision, or fail to start decreasing within the
    term cap, are rejected.

    Each term carries its own rounding, up to about 2**-53 of the largest
    term, which no compensation of the sum removes.  So a sum of k terms
    after the leading 1 is returned only when max|term| * 2**-53 * k <=
    1e-8 |sum| (``_ML_TARGET``); otherwise the cancellation is refused with
    ``ConvergenceError``.  This bites for negative z only, e.g. at
    E_0.5(-5) and E_1(-20), while E_1.5(-20) and E_0.9(-7.6) pass.
    """
    _check_finite("alpha", alpha)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z == 0.0:
        return 1.0
    log_abs_z = math.log(abs(z))
    negative = z < 0.0
    acc = 1.0
    comp = 0.0
    zpow = 1.0
    prev_mag = 1.0
    peak = 1.0
    for j in range(1, _ML_MAX_TERMS + 1):
        zpow *= z
        g_arg = alpha * j + 1.0
        if g_arg <= _GAMMA_MAX_ARG and math.isfinite(zpow):
            term = zpow / math.gamma(g_arg)
            mag = abs(term)
        else:
            log_term = j * log_abs_z - math.lgamma(g_arg)
            if log_term > _ML_LOG_TERM_CAP:
                raise ConvergenceError(
                    f"series term overflows at j={j} for alpha={alpha}, z={z}; "
                    "argument outside the supported series domain"
                )
            mag = math.exp(log_term)
            term = -mag if (negative and j % 2) else mag
        decreasing = mag < prev_mag
        if decreasing and mag <= (1e-16 if negative else 1e-16 * (acc + comp)):
            total = acc + comp
            if peak * 2.0**-53 * (j - 1) > _ML_TARGET * abs(total):
                raise ConvergenceError(
                    f"series loses the relative accuracy {_ML_TARGET:g} to cancellation "
                    f"for alpha={alpha}, z={z}: terms up to {peak:.3g}, sum {total:.3g}"
                )
            return total
        acc, err = _two_sum(acc, term)
        comp += err
        prev_mag = mag
        peak = max(peak, mag)
    raise ConvergenceError(
        f"series did not converge within {_ML_MAX_TERMS} terms "
        f"for alpha={alpha}, z={z}"
    )


# ---------------------------------------------------------------------------
# generalized Stirling triangles
# ---------------------------------------------------------------------------
#
# (x**r D**m)**n expands over terms x**e D**f with e - f = n(r - m); collecting
# coefficients by f gives a triangular integer array S(n, k), indexed from the
# smallest D-power upward: f = k - 1 + n m - min(r, m)(n - 1), k = 1 .. width,
# width = 1 + min(r, m)(n - 1).  For r = m = 1 this is the classical Stirling
# triangle of the second kind.


def _row_width(r: int, m: int, n: int) -> int:
    return 1 + min(r, m) * (n - 1)


def _f_floor(r: int, m: int, n: int) -> int:
    # smallest derivative power appearing at level n
    return n * m - min(r, m) * (n - 1)


@dataclass(frozen=True)
class StirlingTable:
    """Exact-integer triangle S(n, k) for n = 0..max_n.

    Row 0 is the single entry S(0, 0) = 1; row n >= 1 holds k = 1..width(n).
    Entries outside that support are zero.
    """

    r: int
    m: int
    max_n: int
    rows: tuple

    def width(self, n: int) -> int:
        return 1 if n == 0 else _row_width(self.r, self.m, n)

    def value(self, n: int, k: int) -> int:
        if n < 0 or n > self.max_n:
            raise ValueError(f"n must be in [0, {self.max_n}], got {n}")
        if n == 0:
            return 1 if k == 0 else 0
        if k < 1 or k > _row_width(self.r, self.m, n):
            return 0
        return self.rows[n][k - 1]


def stirling_table(r: int, m: int, max_n: int) -> StirlingTable:
    """Triangle of operator-expansion coefficients, built by the one-step
    transition: applying x**r D**m to a term x**e D**f scatters it to
    (e + r - i, f + m - i) with coefficient C(m, i) * e!/(e-i)!, i = 0..m.
    All arithmetic is exact.
    """
    _check_int("r", r, 1)
    _check_int("m", m, 1)
    _check_int("max_n", max_n, 0)

    rows = [(1,)]
    level = {0: 1}          # derivative power f -> integer coefficient
    for n in range(1, max_n + 1):
        new: dict[int, int] = {}
        shift = (n - 1) * (r - m)
        for f_pow, cval in level.items():
            e_pow = f_pow + shift
            top = min(m, e_pow)
            for i in range(top + 1):
                factor = math.comb(m, i) * math.perm(e_pow, i)
                if factor:
                    key = f_pow + m - i
                    new[key] = new.get(key, 0) + factor * cval
        level = new
        floor = _f_floor(r, m, n)
        width = _row_width(r, m, n)
        row = tuple(level.get(floor + k - 1, 0) for k in range(1, width + 1))
        if sum(row) != sum(level.values()):
            raise AssertionError("triangle support bound violated")
        rows.append(row)
    return StirlingTable(r=r, m=m, max_n=max_n, rows=tuple(rows))


def _falling(s: int, m: int) -> int:
    out = 1
    for t in range(m):
        out *= s - t
    return out


def stirling_oracle(r: int, m: int, n: int) -> list:
    """Independent expansion coefficients of (x**r D**m)**n, as one row.

    Acts on monomials: (x**r D**m)**n x**s has the scalar polynomial factor
    c(s) = prod_j falling(s + j(r - m), m), and the row is recovered from
    Newton forward differences of c at s = 0..deg.  Shares no code path with
    :func:`stirling_table`; used to validate it.  Limited to small instances
    (r, m <= 6, n <= 12: ``_ORACLE_MAX_RM`` and ``_ORACLE_MAX_N``).
    """
    _check_int("r", r, 1)
    _check_int("m", m, 1)
    _check_int("n", n, 0)
    if r > _ORACLE_MAX_RM or m > _ORACLE_MAX_RM or n > _ORACLE_MAX_N:
        raise ValueError(
            f"oracle limited to r, m <= {_ORACLE_MAX_RM} and n <= {_ORACLE_MAX_N}"
        )
    if n == 0:
        return [1]
    deg = n * m
    vals = [math.prod(_falling(s + j * (r - m), m) for j in range(n))
            for s in range(deg + 1)]
    for lvl in range(1, deg + 1):
        for idx in range(deg, lvl - 1, -1):
            vals[idx] -= vals[idx - 1]
    coeffs = []
    fact = 1
    for d in range(deg + 1):
        if d:
            fact *= d
        if vals[d] % fact:
            raise AssertionError("Newton difference not divisible by d!")
        coeffs.append(vals[d] // fact)
    floor = _f_floor(r, m, n)
    if any(coeffs[d] for d in range(floor)):
        raise AssertionError("coefficient below the support floor")
    return coeffs[floor:]
