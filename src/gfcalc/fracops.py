"""Grids, product quadrature, and rho-parameterized fractional operators.

The integral operator of order ``alpha > 0`` with scale parameter ``rho > 0``
on ``[a, b]`` is

    (I_rho^alpha f)(x) = rho**(1-alpha) / Gamma(alpha)
                         * int_a^x tau**(rho-1) f(tau)
                                   * (x**rho - tau**rho)**(alpha-1) dtau.

Everything here runs in the transformed coordinate

    s = (x**rho - a**rho) / rho,

where the kernel collapses to the Abel kernel (s - sigma)**(alpha-1) and the
conjugated derivative x**(1-rho) d/dx becomes a plain d/ds.  Grids are
therefore uniform in s; the quadrature is product-trapezoidal, i.e. exact for
integrands that are piecewise linear in s.  Setting rho = 1 recovers the
classical Riemann-Liouville operators; rho -> 0 with a > 0 approaches the
Hadamard (logarithmic-kernel) operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .specialfn import ComputationError, _check_finite, _check_int, _two_sum

__all__ = [
    "Grid",
    "SampledFunction",
    "QuadratureWeights",
    "RefinementError",
    "make_grid",
    "build_weights",
    "gfi_apply",
    "gfi_reference",
    "gfd_riemann",
    "gfd_caputo",
    "taylor_poly",
]

_REFERENCE_TOL = 1e-10     # gfi_reference and the study oracle, by default
_REFERENCE_MAX_DEPTH = 16
# gfi_reference sums each mesh level in blocks of _ABEL_BLOCK cells, so its
# per-cell temporaries take 32 KB each, whatever the level: small enough to
# stay in a core's cache and to leave the level's own arrays the only ones
# of its length, large enough that numpy's few dozen calls per block cost
# little against their elementwise work.  Levels up to 4096 cells are one
# block
_ABEL_BLOCK = 4096
# apply_exact splits the weights and the values into pieces of at most
# _MAX_SLICES slices each, and a level sums its slice pairs in chunks of at
# most _LEVEL_PAIRS pairs, one inverse FFT each, so that cap alone sets beta.
# _MAX_SLICES is the most that holds at every n: beta = (45 - bitlen(6 n)) // 2
# is at most 20 for every n >= 2 (n = 2 gives 20), so the deepest level of
# one pair of pieces, L = 2 * 25 - 2, has scale 2**-(beta (L + 2)) >= 2**-1000,
# which is normal
_LEVEL_PAIRS = 6
_MAX_SLICES = 25
# _ramp_moments keeps its last _MOMENT_CACHE_SIZE tables of m_max at most
# _MOMENT_CACHE_M: with 32 bytes per m (two 16-byte longdoubles) at most
# about 2.1 MB, enough for four problems solved at n 1025, 2049 and 4097
_MOMENT_CACHE_SIZE = 16
_MOMENT_CACHE_M = 4096


class RefinementError(ComputationError):
    """Adaptive quadrature did not converge within the depth limit."""


def _gamma(alpha: float, shift: float = 0.0) -> float:
    """Gamma(alpha + shift), refusing an overflow as too large an alpha."""
    try:
        return math.gamma(alpha + shift)
    except OverflowError:
        raise ValueError(f"alpha = {alpha} too large: gamma overflow") from None


def _node_values(values, n: int) -> np.ndarray:
    """``values`` as a float array, refused unless it has one entry per node."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (n,):
        raise ValueError(f"values have shape {vals.shape}, expected ({n},)")
    return vals


# ---------------------------------------------------------------------------
# coordinate transform
# ---------------------------------------------------------------------------

def _s_from_x(x, a: float, rho: float):
    """Map x >= a to s = (x**rho - a**rho)/rho, stably for small rho."""
    if a == 0.0:
        return np.power(x, rho) / rho
    # a**rho * expm1(rho*log(x/a)) / rho avoids cancellation as rho -> 0
    return a**rho * np.expm1(rho * np.log(np.asarray(x, dtype=float) / a)) / rho


def _x_from_s(s, a: float, rho: float):
    """Inverse of :func:`_s_from_x`."""
    if a == 0.0:
        return np.power(rho * np.asarray(s, dtype=float), 1.0 / rho)
    return a * np.exp(np.log1p(rho * np.asarray(s, dtype=float) / a**rho) / rho)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Nodes uniform in s = (x**rho - a**rho)/rho over [a, b].

    ``x_nodes[j]`` and ``s_nodes[j]`` describe the same point in the two
    coordinates; ``s_nodes`` is uniformly spaced with ``s_nodes[0] == 0``.
    """

    a: float
    b: float
    rho: float
    n_nodes: int
    x_nodes: np.ndarray
    s_nodes: np.ndarray

    @property
    def ds(self) -> float:
        return float(self.s_nodes[1] - self.s_nodes[0])

    def s_of(self, x):
        """The s coordinate (x**rho - a**rho)/rho of x >= a."""
        return _s_from_x(x, self.a, self.rho)

    def same_layout(self, other: "Grid") -> bool:
        return (
            self.a == other.a
            and self.b == other.b
            and self.rho == other.rho
            and self.n_nodes == other.n_nodes
        )


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function values sampled at the nodes of a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _node_values(self.values, self.grid.n_nodes).copy()
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "SampledFunction":
        return cls(grid, np.asarray(fn(grid.x_nodes), dtype=float))


def make_grid(a: float, b: float, rho: float, n_nodes: int) -> Grid:
    """Build a grid of ``n_nodes`` points uniform in s over [a, b]."""
    _check_finite("a", a, strict=False)
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    if not b > a:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    _check_finite("rho", rho)
    _check_int("n_nodes", n_nodes, 2)

    with np.errstate(all="ignore"):     # an overflow is refused below
        s_last = float(_s_from_x(b, a, rho))
        s_nodes = np.linspace(0.0, s_last, n_nodes)
        x_nodes = np.asarray(_x_from_s(s_nodes, a, rho), dtype=float)
    if not (math.isfinite(s_last) and s_last > 0.0):
        raise ValueError(f"transformed length (b**rho - a**rho)/rho = {s_last} unusable")
    # pin the endpoints; the transform reproduces them only to rounding
    x_nodes[0] = a
    x_nodes[-1] = b
    if not np.all(np.isfinite(x_nodes)) or np.any(np.diff(x_nodes) <= 0.0):
        raise ValueError("x nodes are not finite and strictly increasing; "
                         "parameters out of usable range")
    x_nodes.setflags(write=False)
    s_nodes.setflags(write=False)
    return Grid(a=float(a), b=float(b), rho=float(rho), n_nodes=n_nodes,
                x_nodes=x_nodes, s_nodes=s_nodes)


# ---------------------------------------------------------------------------
# product-trapezoidal weights for the Abel kernel
# ---------------------------------------------------------------------------

def _ramp_moments(alpha: float, m_max: int):
    """alpha-scaled kernel moments against the linear ramps on one mesh cell.

    For m >= 1, with t in [0, 1]:

        p[m] = alpha * int_0^1 (m - 1 + t)**(alpha-1) * t       dt
        q[m] = alpha * int_0^1 (m - 1 + t)**(alpha-1) * (1 - t) dt

    Returned read-only, m = 0..m_max.  The tables of the last
    ``_MOMENT_CACHE_SIZE`` (16) requests with ``m_max <= _MOMENT_CACHE_M``
    (4096) are kept for the life of the process by ``functools.lru_cache``,
    keyed by ``(float(alpha), m_max)``, the least recently used going
    first: at most about 2.1 MB.  A larger table is computed afresh each
    time.  A kept table is the array a fresh computation gives, so every
    weight keeps its bytes.
    """
    table = _cached_moment_table if m_max <= _MOMENT_CACHE_M else _moment_table
    return table(float(alpha), m_max)


def _moment_table(alpha: float, m_max: int):
    """:func:`_ramp_moments`' table, m = 0..m_max, computed afresh.

    Evaluated in extended precision so each stored weight carries a single
    double rounding: the naive closed forms difference large powers and lose
    ~m ulp, which would spoil weight-sum identities on long grids.  Here
    p, q = S/2 +- A with S the plain kernel integral over the cell (stable
    via expm1/log1p) and A the odd moment about the cell midpoint, summed as
    a rapidly convergent series in 1/(2m - 1)**2.

    Every m is summed elementwise until the m = 2 term, the slowest to
    converge, has.  The cap of 161 passes lies above the last pass that
    takes at any alpha ``build_weights`` admits, where Gamma(alpha + 1) is
    finite (alpha < 170.62): pass 135 at alpha 170.6.
    """
    one = np.longdouble(1.0)
    al = np.longdouble(alpha)
    p = np.zeros(m_max + 1, dtype=np.longdouble)
    q = np.zeros(m_max + 1, dtype=np.longdouble)
    if m_max >= 1:
        p[1] = al / (al + one)
        q[1] = one / (al + one)
    if m_max >= 2:
        m = np.arange(2, m_max + 1).astype(np.longdouble)
        s_cell = np.power(m, al) * (-np.expm1(al * np.log1p(-one / m)))
        c = m - np.longdouble(0.5)
        beta = one / (2.0 * c)
        beta2 = beta * beta
        # A = 2 c**(alpha+1) sum_{j>=0} binom(alpha-1, 2j+1) beta**(2j+3)/(2j+3),
        # all times alpha here
        coeff = al * (al - one)      # alpha * binom(alpha-1, 1)
        power = beta * beta2         # beta**3
        acc = coeff * power / 3.0
        k = 1
        while k <= 161:
            coeff *= (al - one - k) / (k + one)
            coeff *= (al - 2.0 - k) / (k + 2.0)
            k += 2
            power *= beta2
            acc += coeff * power / (k + 2.0)
            if abs(coeff) * float(power[0]) < 1e-26:
                break
        odd = 2.0 * np.power(c, al + one) * acc
        half_s = np.longdouble(0.5) * s_cell
        p[2:] = half_s + odd
        q[2:] = half_s - odd
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


_cached_moment_table = lru_cache(maxsize=_MOMENT_CACHE_SIZE)(_moment_table)


def _int_pieces(x: np.ndarray, beta: int):
    """Split x error-free into integer-valued slices of at most beta bits,
    in pieces of at most ``_MAX_SLICES`` slices: yields (unit, slice) pairs
    with x == sum slice * 2**unit exactly and |slice| <= 2**beta, each
    piece's slices largest first, unit stepping down by beta; none for
    x = 0.  A slice is yielded once and kept nowhere here.

    Each piece is chosen before it is sliced, by one rule: with e the
    exponent of the rest's largest magnitude (max |rest| < 2**e), it is the
    rest's entries of at least 2**(e + 52 - ``_MAX_SLICES`` beta), whose
    bits all lie within ``_MAX_SLICES`` slices of 2**e, so the double range
    takes at most about seven.  The split runs on piece * 2**-e, exact for
    every such entry, whose largest magnitude lies in [1/2, 1), so every
    splitting constant is normal whatever the range of x.  Slice k is the
    rest rounded to a multiple of 2**unit, unit = -beta*(k+1), by adding
    and subtracting sigma = 1.5 * 2**(unit + 52), whose ulp is 2**unit
    (Rump, Ogita & Oishi's ExtractScalar): the rest stays exact, a multiple
    of 2**-(``_MAX_SLICES`` beta) and at most half a unit, so it is 0 after
    at most ``_MAX_SLICES`` slices.
    """
    while np.any(x):
        e = math.frexp(float(np.max(np.abs(x))))[1]    # max |x| < 2**e
        piece = np.where(np.abs(x) >= math.ldexp(1.0, e + 52 - _MAX_SLICES * beta), x, 0.0)
        rest = np.ldexp(piece, -e)
        x = x - piece
        unit = 0
        while np.any(rest):
            unit -= beta
            sigma = 1.5 * 2.0 ** (unit + 52)
            top = (rest + sigma) - sigma
            rest = rest - top
            yield e + unit, np.ldexp(top, -unit)


@dataclass(frozen=True, eq=False)
class QuadratureWeights:
    """Lower-triangular weights w[n][j] such that, for g sampled in s,

        sum_j w[n][j] g[j]  ~=  (1/Gamma(alpha)) *
                                int_0^{s_n} (s_n - sigma)**(alpha-1) g(sigma) dsigma

    with the piecewise-linear interpolant of g integrated exactly.

    Off column 0, w[n][j] depends only on the cell distance n - j, so the
    weights are stored in O(n) memory as two generators: ``first`` is column
    0, and ``band[d]`` is the weight at distance d = 0, 1, ..., n - 2, so that
    column j >= 1 is ``band[:n-j]`` in rows j..n-1.

    The history sum W v is :meth:`apply_exact`, also named ``apply``, within
    about an ulp of the exact sum in O(n log n); :meth:`apply_fft` is its
    uncompensated FFT form.  The weight side of both sums is computed on
    first use and kept for the life of the instance, with no key beyond the
    instance itself: the band's spectrum for :meth:`apply_fft` (16 n bytes
    at n = 2**k + 1), and for :meth:`apply_exact` the column-0 part of each
    weight slice and the spectrum of its band part, the slice itself not
    being kept.  The slices come from :func:`_int_pieces`, in pieces of at
    most ``_MAX_SLICES`` slices, each piece the rest's entries within that
    many slices of its largest: about 98 KB a slice at n = 4097, so 2.5 MB
    for the one piece of order 26 and 3.9 MB for the two of order 40 (25 +
    14 slices), and 390 KB a slice at n = 16385.  They are the same arrays,
    from the same arithmetic, that each call would compute, so every result
    keeps its bytes.
    """

    alpha: float
    grid: Grid
    first: np.ndarray
    band: np.ndarray

    def row(self, i: int) -> np.ndarray:
        """Row i, columns 0..i, as a new contiguous array."""
        if not 0 <= i < self.grid.n_nodes:
            raise IndexError(f"row {i} out of range for {self.grid.n_nodes} nodes")
        return np.concatenate((self.first[i:i + 1], self.band[:i][::-1]))

    def apply_fft(self, values: np.ndarray) -> np.ndarray:
        """The sum of :meth:`apply_exact` by plain FFTs: ``first * values[0]``
        plus the linear convolution of ``band`` with ``values[1:]``, by real FFTs
        zero padded to a power of two >= 2n - 3; node 0 is exactly 0.

        Uncompensated: each node is off by a few ulp of the largest row sum
        of |w| |values|, not of its own value, so use it only where that
        error is swamped, as in the early Picard iterations.  Weights that
        are not finite take :meth:`apply_exact`'s rule, from the same check
        (:meth:`_zero_sum`): all-zero values sum to zeros, and any others
        raise ``OverflowError`` naming the order.
        """
        n = self.grid.n_nodes
        vals = _node_values(values, n)
        if not self._finite and self._zero_sum(vals):    # finite weights sum 0 to 0
            return np.zeros(n)
        out = self.first * vals[0]
        size = self._fft_size
        spectrum = self._band_spectrum * np.fft.rfft(vals[1:], size)
        out[1:] += np.fft.irfft(spectrum, size)[:n - 1]
        out[0] = 0.0
        return out

    @cached_property
    def _fft_size(self) -> int:
        """The power of two >= 2n - 3 that both fast sums pad to."""
        return 1 << (2 * self.grid.n_nodes - 4).bit_length()

    @cached_property
    def _band_spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.band, self._fft_size)

    @property
    def _beta(self) -> int:
        """:meth:`apply_exact`'s slice width in bits."""
        return (45 - (_LEVEL_PAIRS * self.grid.n_nodes).bit_length()) // 2

    def _split(self, x: np.ndarray, head: int):
        """(units, heads, spectra) of x's slices from :func:`_int_pieces`:
        of each slice, a copy of its first ``head`` entries and the spectrum
        of the rest, all that a sum reads; the slice itself is dropped."""
        units, heads, spectra = [], [], []
        for unit, s in _int_pieces(x, self._beta):
            units.append(unit)
            heads.append(s[:head].copy())
            spectra.append(np.fft.rfft(s[head:], self._fft_size))
        return units, heads, spectra

    @cached_property
    def _finite(self) -> bool:
        """Whether every weight is finite."""
        return bool(np.all(np.isfinite(self.first)) and np.all(np.isfinite(self.band)))

    def _zero_sum(self, vals: np.ndarray) -> bool:
        """Whether ``vals`` are all zero, whose sum is zeros whatever the
        weights; any other values raise ``OverflowError`` naming the order
        when a weight is not finite."""
        if not np.any(vals):
            return True
        if not self._finite:
            raise OverflowError(f"weights of order {self.alpha} are not finite")
        return False

    @cached_property
    def _weight_split(self):
        """:meth:`_split` of ``first`` and ``band`` together, heads being
        column 0; read only after :meth:`_zero_sum` has passed the weights."""
        return self._split(np.concatenate((self.first, self.band)), self.grid.n_nodes)

    def apply_exact(self, values: np.ndarray) -> np.ndarray:
        """The library's history sum W v in O(n log n), each node within
        about an ulp of the exact sum of stored weight times value; node 0 is
        exactly 0.  :func:`gfi_apply`, and through it the derivatives, and the
        Picard solver all take their sums from here, for every finite input.

        The weights and the values are split error-free into integer slices
        of beta bits (Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 2012),
        in pieces of at most ``_MAX_SLICES`` (25) slices (:func:`_int_pieces`),
        each piece the rest's entries within 25 beta - 53 bits of its
        largest.  Column 0 is split with the band.  Of each value slice only
        its head (node 0) and the spectrum of the rest are kept, so no value
        slice lives through the level loop.  A level collects the slice
        pairs of one scale, p + q = s within one pair of pieces, in chunks of
        at most ``_LEVEL_PAIRS`` (6) pairs, one inverse FFT each; beta keeps every
        chunk's integer sum below 2**45 (``_LEVEL_PAIRS`` * n * 2**(2 beta)),
        so the FFT convolutions, at :meth:`apply_fft`'s length, round back to
        exact integers; beta is 17 at n = 257, 16 at 1025, 15 at 4097 and 14
        at 16385.  The levels, exact and largest first, are added by a TwoSum
        chain with a second accumulator, and the result is scaled back once.
        The chain runs at the scale of the first level, where every level of
        its pair of pieces is normal (at least 2**-1000); a level more than
        2 ``_MAX_SLICES`` beta bits below, deeper than any one pair reaches,
        moves each node whose chain is still 0 to its own scale, so a level
        loses only bits below 2**-74 of the first level that reached its
        node.  That adds the levels as if in
        twice the working precision, so only a node whose sum cancels to
        below about 1e-13 of its largest level can be off by more than an
        ulp.  A sum past the double range comes back as the infinity of its
        sign, and one whose parts pass it but cancel as a finite sum.  The
        first call on an instance splits and transforms the weights and keeps
        them; every call splits and transforms only its values.  The cost
        grows with the number of pieces, one for all but weights of order
        above about 27 at n = 4097 (21.7 at 16385) and values spread over
        more than about 2**322 (2**297 at 16385).

        Values that are not finite are refused with ``ValueError``.  All-zero
        values sum to zeros; any others raise ``OverflowError`` naming the
        order when a weight is not finite.  An FFT output more than 1/8 from
        an integer, which beta rules out, raises ``AssertionError`` naming
        its level.
        """
        n = self.grid.n_nodes
        vals = _node_values(values, n)
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if self._zero_sum(vals):
            return np.zeros(n)
        beta = self._beta
        w_units, w_heads, w_spectra = self._weight_split
        v_units, v_heads, v_spectra = self._split(vals, 1)
        size = self._fft_size
        levels = {}
        for p, w_unit in enumerate(w_units):
            for q, v_unit in enumerate(v_units):
                levels.setdefault(w_unit + v_unit, []).append((p, q))
        acc, comp, scale = np.zeros(n), np.zeros(n), 0
        for level, unit in enumerate(sorted(levels, reverse=True)):
            pairs = levels[unit]
            total = sum(w_heads[p] * v_heads[q] for p, q in pairs)
            for c in range(0, len(pairs), _LEVEL_PAIRS):
                chunk = pairs[c:c + _LEVEL_PAIRS]
                conv = np.fft.irfft(sum(w_spectra[p] * v_spectra[q] for p, q in chunk),
                                    size)[:n - 1]
                ints = np.rint(conv)
                if np.any(np.abs(conv - ints) > 0.125):     # beta rules this out
                    raise AssertionError(
                        f"apply_exact: an FFT output of level {level} is more "
                        "than 1/8 from an integer")
                total[1:] += ints
            # the chain runs at 2**-scale, the first level's, where every level
            # of one pair of pieces is normal; a level deeper than that moves
            # the nodes it is the first to reach to its own scale
            if level == 0:
                scale = top = unit + 2 * beta
            elif unit - top < -2 * _MAX_SLICES * beta:
                scale = np.where((acc == 0) & (comp == 0), unit + 2 * beta, scale)
            acc, err = _two_sum(acc, np.ldexp(total, unit - scale))
            comp += err
        out = np.ldexp(acc + comp, scale)
        out[0] = 0.0
        return out

    # the exact sum under its older name, for callers written before
    # apply_exact and for perfbench's trace, which wraps this name
    apply = apply_exact


def build_weights(grid: Grid, alpha: float) -> QuadratureWeights:
    """Product-trapezoidal weights for the Abel kernel of order ``alpha``.

    A weight past the double range comes back non-finite, quietly.
    ``apply_exact`` and ``apply_fft`` then sum zeros to zeros and raise
    ``OverflowError`` naming the order on any other values, so
    ``gfi_apply``, the solvers and ``volterra_residual`` refuse them.
    """
    _check_finite("alpha", alpha)
    n = grid.n_nodes
    ds = grid.ds
    gam = _gamma(alpha, 1.0)     # refuses too large an alpha before the series
    p, q = _ramp_moments(alpha, n - 1)
    with np.errstate(all="ignore"):     # an overflowing weight is left non-finite
        # moments carry the extra alpha, so the prefactor divides by
        # Gamma(alpha+1)
        pref = np.power(np.longdouble(ds), np.longdouble(alpha)) / np.longdouble(gam)
        # each weight rounds once to double; band[d] is cell distance d, and
        # p[0] is exactly 0
        first = (pref * p).astype(float)
        band = (pref * (p[:-1] + q[1:])).astype(float)
    first.setflags(write=False)
    band.setflags(write=False)
    return QuadratureWeights(alpha=float(alpha), grid=grid, first=first, band=band)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _finite_result(f: SampledFunction, vals: np.ndarray,
                   what: str) -> SampledFunction:
    """``vals`` on f's grid; computed from finite f, a non-finite entry can
    only be an overflow, refused as such."""
    if not np.all(np.isfinite(vals)):
        raise OverflowError(f"{what} is not finite")
    return SampledFunction(f.grid, vals)


def gfi_apply(f: SampledFunction, alpha: float) -> SampledFunction:
    """Fractional integral of order ``alpha`` of ``f`` at every grid node.

    The weighted sum is :meth:`QuadratureWeights.apply_exact`, within
    about an ulp of the exact sum of stored weight times value.  A result
    that overflows raises ``OverflowError``.
    """
    with np.errstate(all="ignore"):
        vals = build_weights(f.grid, alpha).apply_exact(f.values)
    return _finite_result(f, vals, f"fractional integral of order {alpha}")


def gfd_riemann(f: SampledFunction, alpha: float) -> SampledFunction:
    """Fractional derivative of order ``alpha``: (d/ds)**n of the order
    n - alpha integral, n = ceil(alpha).

    Each d/ds is ``np.gradient`` at unit spacing and second order,
    one-sided at both ends, divided by ds; integer alpha short-circuits to
    the plain n-th s-derivative.  Values at the first node rely on
    one-sided stencils of a weakly singular profile and carry low
    confidence; refine or read interior nodes instead.  For alpha > 1 the
    composed stencils also make the last two nodes first order (README,
    Numerical notes).  A result that overflows raises ``OverflowError``.
    """
    _check_finite("alpha", alpha)
    norder = math.ceil(alpha)
    if f.grid.n_nodes < norder + 2:
        raise ValueError(
            f"grid too small for derivative order {norder}: {f.grid.n_nodes} nodes"
        )
    frac = norder - alpha
    vals = f.values if frac == 0.0 else gfi_apply(f, frac).values
    ds = f.grid.ds
    with np.errstate(all="ignore"):
        for _ in range(norder):
            # spacing ds would scale the end coefficients before the sum,
            # so a*f0 could overflow on values whose stencil is finite
            vals = np.gradient(vals, edge_order=2) / ds
    return _finite_result(f, vals, f"fractional derivative of order {alpha}")


def gfd_caputo(f: SampledFunction, alpha: float, init) -> SampledFunction:
    """Caputo-type derivative: the order-``alpha`` derivative of f minus its
    degree n-1 Taylor polynomial about a, n = ceil(alpha).

    ``init[k]`` is the k-th classical derivative of f at a, k = 0..n-1,
    checked by the rule ``IVProblem`` applies to ``y0``: entries that are
    not finite, or not ceil(alpha) of them, raise ``ValueError``.  A
    Taylor polynomial (:func:`taylor_poly`) or a result that overflows
    raises ``OverflowError``.
    """
    _check_finite("alpha", alpha)
    init = _initial_values("init", init, alpha)
    with np.errstate(all="ignore"):
        vals = f.values - taylor_poly(init, f.grid.x_nodes - f.grid.a)
    shifted = _finite_result(f, vals, "f minus its Taylor polynomial")
    return gfd_riemann(shifted, alpha)


def _initial_values(name: str, values, alpha: float) -> tuple:
    """``values`` as a tuple of ceil(alpha) finite floats: the one check of
    the initial derivatives, ``IVProblem.y0`` and ``gfd_caputo``'s
    ``init``.  An entry that is not finite, then a wrong count, raises
    ``ValueError`` naming ``name``."""
    values = tuple(float(v) for v in values)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite, got {values}")
    if len(values) != math.ceil(alpha):
        raise ValueError(f"{name} must have ceil(alpha) = {math.ceil(alpha)} "
                         f"entries, got {len(values)}")
    return values


def taylor_poly(y0, x):
    """T(x) = sum_k y0[k] x**k / k!, the polynomial carrying the initial data.

    T is summed by Horner's rule, y0[0] + x/1 (y0[1] + x/2 (y0[2] + ...)),
    so no power x**k / k! is formed on its own and a zero tail adds
    exactly 0: y0 (1, 0, ..., 0) gives 1 wherever x is finite.

    The library's one check on T: a partial sum that overflows makes T not
    finite, which raises ``OverflowError`` (``Taylor polynomial T is not
    finite``), so the solvers, ``existence_box``, the residuals and
    ``gfd_caputo`` all refuse it with the same text.  Each calls it under
    ``np.errstate``, so numpy does not warn of the overflow first; a direct
    caller can do the same.
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for k in reversed(range(len(y0))):
        acc = y0[k] + acc * x / (k + 1.0)
    if not np.all(np.isfinite(acc)):
        raise OverflowError("Taylor polynomial T is not finite")
    return acc if acc.ndim else float(acc)


# ---------------------------------------------------------------------------
# adaptive reference quadrature (verification oracle: gfi_reference, which
# solver.oracle_residual also calls, evaluates its integrand one mesh level
# at a time; never used to solve)
# ---------------------------------------------------------------------------

def _graded_abel_sum(g_vals: np.ndarray, s_end: float, alpha: float) -> float:
    """int_0^{s_end} (s_end - sigma)**(alpha-1) g(sigma) dsigma for the
    piecewise-linear interpolant of g on the graded mesh of
    ``g_vals.size - 1`` cells (:func:`_graded_block`), ``g_vals[i]`` being
    g at node i.

    Every cell integrates the exact kernel against the linear interpolant:
    with b and a its far and near edges' distances to the endpoint, its
    moments d_c = b**c (1 - (a/b)**c) / c, c = alpha and alpha + 1, are
    computed through expm1 of the log ratio, so that narrow cells far from
    the endpoint do not cancel.  The closing cell, whose near edge is the
    singular endpoint, takes the same formula: its log ratio is -inf and
    expm1 gives -1, so its moments are b**alpha / alpha and
    b**(alpha+1) / (alpha+1).

    The cells are taken ``_ABEL_BLOCK`` at a time: the two coefficient
    arrays are filled block by block, and each is summed whole by numpy's
    pairwise ``np.sum``, an order fixed by numpy, not by the BLAS build or
    thread count.  Elementwise ufuncs give the same bits whatever the block
    boundaries, so the result is the one a whole-level computation gives.
    """
    n_cells = g_vals.size - 1
    far = np.empty(n_cells)
    near = np.empty(n_cells)
    for lo in range(0, n_cells, _ABEL_BLOCK):
        hi = min(lo + _ABEL_BLOCK, n_cells)
        u, w = _graded_block(s_end, n_cells, lo, hi)
        b, a = u[:-1], u[1:]        # a is 0 for the closing cell
        with np.errstate(divide="ignore"):
            r = np.log(a / b)
        d1 = -np.expm1(alpha * r) * np.power(b, alpha) / alpha
        d2 = -np.expm1((alpha + 1.0) * r) * np.power(b, alpha + 1.0) / (alpha + 1.0)
        far[lo:hi] = (d2 - a * d1) / w * g_vals[lo:hi]
        near[lo:hi] = (b * d1 - d2) / w * g_vals[lo + 1:hi + 1]
    total = float(np.sum(far) + np.sum(near))
    if not math.isfinite(total):
        raise ValueError(f"integrand gives a non-finite sum on {n_cells} cells")
    return total


def _width_bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """3(x+y) - 2(x^2+xy+y^2): a graded cell's width over s_end/n_cells, in
    its end variables t or 1 - t; cancellation-free where they are small."""
    return 3.0 * (x + y) - 2.0 * (x * x + x * y + y * y)


def _node_dist(s_end: float, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """s_end p**2 (1 + 2t), p = 1 - t: the distance of the graded mesh's
    node at t to the singular endpoint, exact at both ends."""
    return s_end * p * p * (1.0 + 2.0 * t)


def _graded_nodes(s_end: float, n_cells: int, first: int, step: int) -> np.ndarray:
    """The positions s_end - u of the graded mesh's nodes first,
    first + step, ... up to n_cells."""
    t = np.arange(first, n_cells + 1, step) / n_cells
    return s_end - _node_dist(s_end, t, 1.0 - t)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """A new array with ``even`` at the even indices and ``odd`` at the odd."""
    out = np.empty(even.size + odd.size)
    out[0::2] = even
    out[1::2] = odd
    return out


def _graded_block(s_end: float, n_cells: int, lo: int, hi: int):
    """Nodes lo..hi of the mesh of n_cells cells over [0, s_end] with
    quadratic clustering at both endpoints.

    Returns (u, dsig): the stable distances of the nodes to the singular
    endpoint, so node i sits at s_end - u[i - lo] (exactly 0 for i = 0),
    and the widths of the hi - lo cells between them.  t**2 (3 - 2t)
    grading keeps the product rule second-order accurate even when the
    integrand's derivative blows up at either end.  Each entry is an
    elementwise expression in t = i / n_cells alone, so a block holds the
    bits of the same nodes of the whole level.
    """
    t = np.arange(lo, hi + 1) / n_cells
    p = 1.0 - t
    # t < 0.5 exactly on the first half of the cells, since n_cells is even
    first = min(max(n_cells // 2 - lo, 0), hi - lo)
    dsig = np.empty(hi - lo)
    dsig[:first] = _width_bracket(t[:first], t[1:first + 1])
    dsig[first:] = _width_bracket(p[first:-1], p[first + 1:])
    dsig *= s_end / n_cells
    return _node_dist(s_end, t, p), dsig


def _times_pow2(v: float, p: float) -> float:
    """v 2**p for a real p, rounded once in the normal range; a product past
    the double range is the infinity of v's sign."""
    m, e = math.frexp(v)
    whole = math.floor(p)
    try:
        return math.ldexp(m * 2.0 ** (p - whole), e + whole)
    except OverflowError:
        return math.copysign(math.inf, v)


def _abel_mesh(g: Callable[[np.ndarray], np.ndarray], s_end: float,
               alpha: float, tol: float) -> float:
    """int_0^{s_end} (s_end - sigma)**(alpha-1) g(sigma) dsigma, with g
    evaluated one mesh level at a time: ``g(sigma)`` maps an array of nodes
    to an array of values.

    Product-trapezoid rule on a doubly graded mesh, doubling the mesh until
    two successive refinements differ by less than tol, at most
    ``_REFERENCE_MAX_DEPTH`` times, read at call time; past that it raises
    :class:`RefinementError`.  The returned value carries the last h**2
    extrapolation.  Node values are reused across refinements (dyadic
    meshes), so g is called on the 65 starting nodes and then once per
    doubling on that level's new nodes, the odd ones, before the level's
    array of node values is assembled.  A level without one value per node
    is refused, and so is a non-finite one: its nodes stay in every later
    level.

    Working memory per level is about three arrays of the level's length
    (its node values and :func:`_graded_abel_sum`'s two coefficient arrays)
    plus fixed blocks of ``_ABEL_BLOCK`` cells, besides what g itself
    allocates: 3.2 such arrays at the peak of a refusal at 262,144 cells,
    under tracemalloc.

    Every length runs on s_end 2**-k in [1/2, 1), k from ``frexp``, so
    every cell intermediate lies well inside the normal range: the integral
    is 2**(k alpha) times the same one of g(2**k tau) over that length.  g
    sees the nodes mapped back by ``ldexp``, exact wherever they are normal,
    the level differences are compared with tol 2**(-k alpha), and the
    value is scaled back once, as a float.  A value past the double range
    raises ``OverflowError``.
    """
    if s_end == 0.0:
        return 0.0
    k = math.frexp(s_end)[1]
    s_run, tol_run = math.ldexp(s_end, -k), _times_pow2(tol, -k * alpha)
    n_cells = 64
    g_vals = _node_values(g(np.ldexp(_graded_nodes(s_run, n_cells, 0, 1), k)), n_cells + 1)
    prev = _graded_abel_sum(g_vals, s_run, alpha)
    for _ in range(_REFERENCE_MAX_DEPTH):
        n_cells *= 2
        # the new nodes' values first, then the level's array: neither g's
        # output nor the coarser level outlives the assembly
        g_vals = _interleave(g_vals, _node_values(
            g(np.ldexp(_graded_nodes(s_run, n_cells, 1, 2), k)), n_cells // 2))
        cur = _graded_abel_sum(g_vals, s_run, alpha)
        if abs(cur - prev) < tol_run:
            value = _times_pow2(cur + (cur - prev) / 3.0, k * alpha)
            if not math.isfinite(value):
                raise OverflowError(f"integral over [0, {s_end}] is past the double range")
            return value
        prev = cur
    raise RefinementError(
        f"no convergence to tol = {tol} within {_REFERENCE_MAX_DEPTH} mesh "
        f"doublings ({n_cells} cells)"
    )


def gfi_reference(f: Callable[[np.ndarray], np.ndarray], x: float,
                  alpha: float, rho: float, a: float,
                  tol: float = _REFERENCE_TOL) -> float:
    """Reference value of the fractional integral at a single point, as a
    float; 0.0 at x = a.

    ``f`` maps an array of x to an array with one value per entry, and is
    called once per mesh level: on the 65 starting nodes, then on each
    doubling's new nodes.  Pass a scalar-only callable such as ``math.sin``
    in its numpy form (``np.sin``) or wrapped, e.g. by ``np.vectorize``.
    Slow but self-validating; intended for verification (tests, study
    diagnostics), not for production solves.

    The mesh doubles until two successive levels of Gamma(alpha) times the
    value differ by less than tol, absolutely, and at most
    ``_REFERENCE_MAX_DEPTH`` (16) times; past that it raises
    :class:`RefinementError`.  Working memory per mesh level is about three
    arrays of the level's length plus fixed blocks, besides what ``f``
    allocates: 3.2 at the peak of 262,144 cells (:func:`_abel_mesh`).
    Every transformed length s = (x**rho - a**rho)/rho is summed as
    s 2**-k in [1/2, 1) (:func:`_abel_mesh`).  An s that is not
    finite, or that underflows to 0 while x > a, is refused with
    ``ValueError``, and a value past the double range with
    ``OverflowError``.
    """
    _check_finite("alpha", alpha)
    _check_finite("rho", rho)
    _check_finite("a", a, strict=False)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x < a:
        raise ValueError(f"need x >= a, got x={x}, a={a}")
    _check_finite("tol", tol)
    gam = _gamma(alpha)
    with np.errstate(all="ignore"):
        s_end = float(_s_from_x(x, a, rho))
    if not math.isfinite(s_end) or (s_end == 0.0 and x > a):
        raise ValueError(f"transformed length (x**rho - a**rho)/rho = {s_end} unusable")
    return _abel_mesh(lambda s: f(_x_from_s(s, a, rho)), s_end, alpha, tol) / gam
