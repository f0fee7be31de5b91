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
from typing import Callable

import numpy as np

from .specialfn import _check_finite, _two_sum

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


class RefinementError(RuntimeError):
    """Adaptive quadrature did not converge within the depth limit."""


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
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values have shape {vals.shape}, expected ({self.grid.n_nodes},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "SampledFunction":
        return cls(grid, np.asarray(fn(grid.x_nodes), dtype=float))


def make_grid(a: float, b: float, rho: float, n_nodes: int) -> Grid:
    """Build a grid of ``n_nodes`` points uniform in s over [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(rho)):
        raise ValueError("a, b, rho must be finite")
    if a < 0.0:
        raise ValueError(f"a must be >= 0, got {a}")
    if not b > a:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if not rho > 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")

    s_last = float(_s_from_x(b, a, rho))
    if not (math.isfinite(s_last) and s_last > 0.0):
        raise ValueError(f"transformed length (b**rho - a**rho)/rho = {s_last} unusable")
    s_nodes = np.linspace(0.0, s_last, n_nodes)
    x_nodes = np.asarray(_x_from_s(s_nodes, a, rho), dtype=float)
    # pin the endpoints; the transform reproduces them only to rounding
    x_nodes[0] = a
    x_nodes[-1] = b
    if not np.all(np.isfinite(x_nodes)) or np.any(np.diff(x_nodes) <= 0.0):
        raise ValueError("x nodes are not finite and strictly increasing; "
                         "parameters out of usable range")
    x_nodes.setflags(write=False)
    s_nodes.setflags(write=False)
    return Grid(a=float(a), b=float(b), rho=float(rho), n_nodes=int(n_nodes),
                x_nodes=x_nodes, s_nodes=s_nodes)


# ---------------------------------------------------------------------------
# product-trapezoidal weights for the Abel kernel
# ---------------------------------------------------------------------------

def _ramp_moments(alpha: float, m_max: int):
    """alpha-scaled kernel moments against the linear ramps on one mesh cell.

    For m >= 1, with t in [0, 1]:

        p[m] = alpha * int_0^1 (m - 1 + t)**(alpha-1) * t       dt
        q[m] = alpha * int_0^1 (m - 1 + t)**(alpha-1) * (1 - t) dt

    Evaluated in extended precision so each stored weight carries a single
    double rounding: the naive closed forms difference large powers and lose
    ~m ulp, which would spoil weight-sum identities on long grids.  Here
    p, q = S/2 +- A with S the plain kernel integral over the cell (stable
    via expm1/log1p) and A the odd moment about the cell midpoint, summed as
    a rapidly convergent series in 1/(2m - 1)**2.
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
        while k <= 81:
            coeff *= (al - one - k) / (k + one)
            coeff *= (al - 2.0 - k) / (k + 2.0)
            k += 2
            power = power * beta2
            acc = acc + coeff * power / (k + 2.0)
            if abs(coeff) * float(power[0]) < 1e-26:
                break
        odd = 2.0 * np.power(c, al + one) * acc
        half_s = np.longdouble(0.5) * s_cell
        p[2:] = half_s + odd
        q[2:] = half_s - odd
    return p, q


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
        """The sum of :meth:`apply` in O(n log n): ``first * values[0]`` plus
        the linear convolution of ``band`` with ``values[1:]``, by real FFTs
        zero padded to a power of two >= 2n - 3; node 0 is exactly 0.

        Uncompensated: each node is off by a few ulp of the largest row sum
        of |w| |values|, not of its own value, so use it only where that
        error is swamped, as in the early Picard iterations.
        """
        vals = np.asarray(values, dtype=float)
        n = self.grid.n_nodes
        if vals.shape != (n,):
            raise ValueError(f"values have shape {vals.shape}, expected ({n},)")
        out = self.first * vals[0]
        size = 1 << (2 * n - 4).bit_length()
        spectrum = np.fft.rfft(self.band, size) * np.fft.rfft(vals[1:], size)
        out[1:] += np.fft.irfft(spectrum, size)[:n - 1]
        out[0] = 0.0
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the quadrature at every node; node 0 is exactly 0.

        All rows are accumulated together, one column at a time in index
        order, and the exact rounding error of each addition (TwoSum) is
        carried in a second accumulator; column j updates only rows j..n-1,
        the lower triangle.  The order is fixed and serial arithmetic only,
        so results never depend on thread count, and the compensation keeps
        each node's sum within ~1 ulp of the rounded weights' exact sum
        regardless of grid length.
        """
        vals = np.asarray(values, dtype=float)
        n = self.grid.n_nodes
        if vals.shape != (n,):
            raise ValueError(f"values have shape {vals.shape}, expected ({n},)")
        acc = np.zeros(n)
        comp = np.zeros(n)
        for j in range(n):
            term = (self.band[:n - j] if j else self.first) * vals[j]
            acc[j:], err = _two_sum(acc[j:], term)
            comp[j:] += err
        out = acc + comp
        out[0] = 0.0
        return out


def build_weights(grid: Grid, alpha: float) -> QuadratureWeights:
    """Product-trapezoidal weights for the Abel kernel of order ``alpha``."""
    _check_finite("alpha", alpha)
    n = grid.n_nodes
    ds = grid.ds
    p, q = _ramp_moments(alpha, n - 1)
    try:
        gam = math.gamma(alpha + 1.0)
    except OverflowError:
        raise ValueError(f"alpha = {alpha} too large: gamma overflow") from None
    # moments carry the extra alpha, so the prefactor divides by Gamma(alpha+1)
    pref = np.power(np.longdouble(ds), np.longdouble(alpha)) / np.longdouble(gam)
    first = (pref * p).astype(float)
    # each weight rounds once to double; band[d] is cell distance d
    band = np.empty(n - 1)
    band[0] = pref * q[1]
    band[1:] = pref * (p[1:-1] + q[2:])
    first.setflags(write=False)
    band.setflags(write=False)
    return QuadratureWeights(alpha=float(alpha), grid=grid, first=first, band=band)


def _check_weights(weights: QuadratureWeights, grid: Grid, alpha: float) -> None:
    if not weights.grid.same_layout(grid):
        raise ValueError("weights were built for a different grid")
    if weights.alpha != alpha:
        raise ValueError(
            f"weights are for alpha={weights.alpha}, requested alpha={alpha}"
        )


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def gfi_apply(f: SampledFunction, alpha: float,
              weights: QuadratureWeights | None = None) -> SampledFunction:
    """Fractional integral of order ``alpha`` of ``f`` at every grid node."""
    if weights is None:
        weights = build_weights(f.grid, alpha)
    else:
        _check_weights(weights, f.grid, alpha)
    return SampledFunction(f.grid, weights.apply(f.values))


def _deriv_s(values: np.ndarray, ds: float) -> np.ndarray:
    """Second-order d/ds on a uniform grid; one-sided stencils at the ends."""
    n = values.shape[0]
    out = np.empty(n)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * ds)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * ds)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * ds)
    return out


def gfd_riemann(f: SampledFunction, alpha: float) -> SampledFunction:
    """Fractional derivative of order ``alpha``: (d/ds)**n of the order
    n - alpha integral, n = ceil(alpha).

    Integer alpha short-circuits to the plain n-th s-derivative.  Values at
    the first node rely on one-sided stencils of a weakly singular profile
    and carry low confidence; refine or read interior nodes instead.
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
    for _ in range(norder):
        vals = _deriv_s(vals, ds)
    return SampledFunction(f.grid, vals)


def gfd_caputo(f: SampledFunction, alpha: float, init) -> SampledFunction:
    """Caputo-type derivative: the order-``alpha`` derivative of f minus its
    degree n-1 Taylor polynomial about a, n = ceil(alpha).

    ``init[k]`` is the k-th classical derivative of f at a, k = 0..n-1.
    """
    _check_finite("alpha", alpha)
    norder = math.ceil(alpha)
    init = tuple(float(v) for v in init)
    if len(init) != norder:
        raise ValueError(
            f"init must have ceil(alpha) = {norder} entries, got {len(init)}"
        )
    poly = taylor_poly(init, f.grid.x_nodes - f.grid.a)
    return gfd_riemann(SampledFunction(f.grid, f.values - poly), alpha)


def taylor_poly(y0, x):
    """T(x) = sum_k y0[k] x**k / k!, the polynomial carrying the initial data."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    for k, ck in enumerate(y0):
        acc = acc + ck * term
        term = term * x / (k + 1.0)
    return acc if acc.ndim else float(acc)


# ---------------------------------------------------------------------------
# adaptive reference quadrature (verification oracle: gfi_reference, and
# solver.oracle_residual one mesh level at a time; never used to solve)
# ---------------------------------------------------------------------------

def _graded_abel_sum(g_vals: np.ndarray, u: np.ndarray, dsig: np.ndarray,
                     alpha: float) -> float:
    """int_0^{s_end} (s_end - sigma)**(alpha-1) g(sigma) dsigma for the
    piecewise-linear interpolant of g on the mesh described by u (distance
    to the singular endpoint, decreasing to u[-1] = 0) and cell widths dsig.

    Every cell integrates the exact kernel against the linear interpolant;
    the power differences use expm1 so narrow cells far from the endpoint
    do not cancel.
    """
    b_dist = u[:-2]                 # cell far edge,  > 0
    a_dist = u[1:-1]                # cell near edge, > 0 except last cell
    w = dsig[:-1]
    r = np.log(a_dist / b_dist)
    d1 = np.power(b_dist, alpha) * (-np.expm1(alpha * r)) / alpha
    d2 = (np.power(b_dist, alpha + 1.0)
          * (-np.expm1((alpha + 1.0) * r)) / (alpha + 1.0))
    coeff_far = (d2 - a_dist * d1) / w       # multiplies g at the far edge
    coeff_near = (b_dist * d1 - d2) / w      # multiplies g at the near edge
    total = float(np.dot(coeff_far, g_vals[:-2])
                  + np.dot(coeff_near, g_vals[1:-1]))
    # closing cell touches the singularity: closed form with a_dist = 0
    b_last = u[-2]
    total += b_last**alpha * (g_vals[-1] / (alpha * (alpha + 1.0))
                              + g_vals[-2] / (alpha + 1.0))
    return total


def _graded_mesh(s_end: float, n_cells: int):
    """Mesh over [0, s_end] with quadratic clustering at both endpoints.

    Returns (sigma, u, dsig): node positions, stable distances to the
    singular endpoint, and cell widths.  t**2 (3 - 2t) grading keeps the
    product rule second-order accurate even when the integrand's derivative
    blows up at either end.
    """
    t = np.arange(n_cells + 1) / n_cells
    p = 1.0 - t
    u = s_end * p * p * (1.0 + 2.0 * t)          # exact at both ends
    sigma = s_end - u
    sigma[0] = 0.0
    # width in the factored form 3(x+y) - 2(x^2+xy+y^2), cancellation-free
    # when evaluated in whichever end variable is small
    ta, tb = t[:-1], t[1:]
    pa, pb = p[:-1], p[1:]
    bracket = np.where(
        ta < 0.5,
        3.0 * (ta + tb) - 2.0 * (ta * ta + ta * tb + tb * tb),
        3.0 * (pa + pb) - 2.0 * (pa * pa + pa * pb + pb * pb),
    )
    dsig = (s_end / n_cells) * bracket
    return sigma, u, dsig


def _abel_mesh(g: Callable[[np.ndarray], np.ndarray], s_end: float,
               alpha: float, tol: float, max_depth: int) -> float:
    """int_0^{s_end} (s_end - sigma)**(alpha-1) g(sigma) dsigma, with g
    evaluated one mesh level at a time: ``g(sigma)`` maps an array of nodes
    to an array of values.

    Product-trapezoid rule on a doubly graded mesh, doubling the mesh until
    two successive refinements differ by less than tol; the returned value
    carries the last h**2 extrapolation.  Node values are reused across
    refinements (dyadic meshes), so g is called on the 65 starting nodes and
    then once per doubling on that level's new nodes, ``sigma[1::2]``.
    """
    if s_end == 0.0:
        return 0.0
    n_cells = 64
    sigma, u, dsig = _graded_mesh(s_end, n_cells)
    g_vals = np.asarray(g(sigma), dtype=float)
    prev = _graded_abel_sum(g_vals, u, dsig, alpha)
    for _ in range(max_depth):
        n_cells *= 2
        sigma, u, dsig = _graded_mesh(s_end, n_cells)
        new_vals = np.empty(n_cells + 1)
        new_vals[0::2] = g_vals
        new_vals[1::2] = g(sigma[1::2])
        g_vals = new_vals
        cur = _graded_abel_sum(g_vals, u, dsig, alpha)
        if abs(cur - prev) < tol:
            return cur + (cur - prev) / 3.0
        prev = cur
    raise RefinementError(
        f"no convergence to tol = {tol} within {max_depth} mesh doublings "
        f"({n_cells} cells)"
    )


def _abel_adaptive(g: Callable[[float], float], s_end: float, alpha: float,
                   tol: float, max_depth: int) -> float:
    """:func:`_abel_mesh` for a scalar g, called once per node."""
    return _abel_mesh(lambda sigma: [g(float(s)) for s in sigma], s_end, alpha,
                      tol, max_depth)


def gfi_reference(f: Callable, x: float, alpha: float, rho: float, a: float,
                  tol: float = 1e-10, max_depth: int = 16) -> float:
    """Reference value of the fractional integral at a single point.

    ``f`` is a callable of x.  Slow but self-validating; intended for
    verification (tests, study diagnostics), not for production solves.
    """
    _check_finite("alpha", alpha)
    _check_finite("rho", rho)
    _check_finite("a", a, strict=False)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x < a:
        raise ValueError(f"need x >= a, got x={x}, a={a}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if x == a:
        return 0.0
    s_end = float(_s_from_x(x, a, rho))

    def g(sigma: float) -> float:
        return float(f(float(_x_from_s(sigma, a, rho))))

    return _abel_adaptive(g, s_end, alpha, tol, max_depth) / math.gamma(alpha)
