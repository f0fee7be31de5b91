"""Initial value problems for the Caputo-type fractional derivative.

Solves  D_c^alpha y (x) = f(x, y(x)) on [0, h] with y^(k)(0) = y0[k],
k = 0..ceil(alpha)-1, via the equivalent weakly singular Volterra equation

    y(x) = T(x) + (1/Gamma(alpha)) int_0^{s(x)} (s(x)-sigma)**(alpha-1)
                                     f(x(sigma), y(x(sigma))) dsigma,

where T is the Taylor polynomial of the initial data and s is the grid
coordinate.  The step length h comes from an existence box: with
M >= sup |f| over G = [0, h_star] x {|y - T| <= K},

    h = h_star                                        if M == 0,
    h = min(h_star, (K Gamma(alpha+1) rho**alpha / M)**(1/alpha))  otherwise.

Two independent discretizations of the same equation are provided: global
Picard iteration (``solve_picard``) and node-by-node marching
(``solve_marching``); agreement between them is a strong consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fracops import (
    Grid,
    QuadratureWeights,
    SampledFunction,
    _REFERENCE_TOL,
    _finite_result,
    _gamma,
    _s_from_x,
    build_weights,
    gfi_reference,
    make_grid,
    taylor_poly,
)
from .specialfn import _check_finite, _check_int, gamma_ln, mittag_leffler

__all__ = [
    "RightHandSide",
    "make_rhs",
    "rhs_names",
    "IVProblem",
    "SolverConfig",
    "SolverReport",
    "DomainExitError",
    "NonConvergenceError",
    "MarchingError",
    "estimate_M",
    "step_h",
    "existence_box",
    "picard_apply",
    "solve_picard",
    "solve_marching",
    "contraction_bound",
    "holder_bound",
    "volterra_residual",
    "contraction_respected",
    "oracle_residual",
]

_DOMAIN_SLACK = 1e-9       # relative slack on |y - T| <= K before flagging exit
_M_LATTICE = 64            # points per axis of the box lattice: x and y - T in
                           # estimate_M, x alone in _logistic_lipschitz
_MARCH_ITER_CAP = 100
_ORACLE_PROBES = (0.25, 0.5, 0.75, 1.0)   # probe nodes, as fractions of the grid


class DomainExitError(RuntimeError):
    """An iterate left the existence box {|y - T| <= K}."""


class NonConvergenceError(RuntimeError):
    """Picard iteration hit max_iter or a period-2 cycle; carries the
    partial solution/report."""

    def __init__(self, message: str, solution: SampledFunction, report: "SolverReport"):
        super().__init__(message)
        self.solution = solution
        self.report = report


class MarchingError(RuntimeError):
    """The per-node scalar solve failed to converge."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _linear_exact(p: dict, problem: "IVProblem"):
    if len(problem.y0) != 1:
        return None
    alpha, rho, lam, y00 = problem.alpha, problem.rho, p["lambda"], problem.y0[0]

    def ref(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = lam * np.power(_s_from_x(x, 0.0, rho), alpha)
        return y00 * np.array([mittag_leffler(alpha, zi) for zi in z])

    return ref


def _power_forcing_fn(p: dict, x, y, problem: "IVProblem"):
    beta, c, alpha, rho = p["beta"], p["c"], problem.alpha, problem.rho
    if not beta + 1.0 - alpha > 0.0:
        raise ValueError(f"power_forcing needs beta + 1 - alpha > 0, "
                         f"got beta = {beta!r}, alpha = {alpha!r}")
    scale = c * math.exp(gamma_ln(beta + 1.0) - gamma_ln(beta + 1.0 - alpha))
    return scale * np.power(_s_from_x(x, 0.0, rho), beta - alpha) + 0.0 * y


def _power_forcing_exact(p: dict, problem: "IVProblem"):
    beta, c, rho = p["beta"], p["c"], problem.rho

    def ref(x):
        x = np.asarray(x, dtype=float)
        return taylor_poly(problem.y0, x) + c * np.power(_s_from_x(x, 0.0, rho), beta)

    return ref


def _logistic_lipschitz(p: dict, problem: "IVProblem") -> float:
    t = taylor_poly(problem.y0, np.linspace(0.0, problem.h_star, _M_LATTICE))
    lo = float(np.min(t)) - problem.K
    hi = float(np.max(t)) + problem.K
    return abs(p["lambda"]) * max(abs(1.0 - 2.0 * lo), abs(1.0 - 2.0 * hi))


class _Rhs(NamedTuple):
    params: dict                      # defaults (None: required); passed on as p
    fn: Callable                      # (p, x, y, problem) -> f(x, y)
    lipschitz: Callable               # (p, problem) -> Lipschitz bound in y
    exact: Callable = lambda p, problem: None   # (p, problem) -> reference or None


_RHS: dict[str, _Rhs] = {
    "zero": _Rhs({}, lambda p, x, y, problem: np.zeros(np.broadcast(x, y).shape),
                 lambda p, problem: 0.0,
                 lambda p, problem: lambda x: taylor_poly(problem.y0, x)),
    "linear": _Rhs({"lambda": None}, lambda p, x, y, problem: p["lambda"] * y,
                   lambda p, problem: abs(p["lambda"]), _linear_exact),
    "power_forcing": _Rhs({"beta": None, "c": 1.0}, _power_forcing_fn,
                          lambda p, problem: 0.0, _power_forcing_exact),
    "sin": _Rhs({"c": 1.0}, lambda p, x, y, problem: p["c"] * np.sin(y),
                lambda p, problem: abs(p["c"])),
    "logistic": _Rhs({"lambda": None},
                     lambda p, x, y, problem: p["lambda"] * y * (1.0 - y),
                     _logistic_lipschitz),
}


@dataclass(frozen=True)
class RightHandSide:
    """A registered f(x, y) with a Lipschitz constant and an optional
    reference solution.

    ``fn(x, y, problem)`` is vectorized over x and y, and takes Python
    floats as well, as the marching solver passes them, one node at a time;
    then it returns a numpy scalar or a 0-d array.  ``lipschitz(problem)``
    returns a bound for |f(x, y1) - f(x, y2)| / |y1 - y2| on the existence
    box, except for ``logistic``, whose value is an estimate: it takes the
    range of T at the x points of :func:`estimate_M`'s lattice.
    ``exact(problem)`` returns a callable reference solution of the Volterra
    equation, or None when unavailable.  All three read the ``_RHS`` entry,
    which ``params`` is checked against and takes its defaults from here.
    """

    name: str
    params: tuple

    def __post_init__(self):
        params = dict(self.params)
        if self.name not in _RHS:
            raise ValueError(f"unknown rhs {self.name!r}; known: {', '.join(rhs_names())}")
        schema = _RHS[self.name].params
        for key in params:
            if key not in schema:
                raise ValueError(f"rhs {self.name!r} does not take parameter {key!r}")
        for key, default in schema.items():
            if key not in params:
                if default is None:
                    raise ValueError(f"rhs {self.name!r} requires parameter {key!r}")
                params[key] = default
        for key, val in params.items():
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ValueError(f"rhs parameter {key!r} must be a finite number, got {val!r}")
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    def fn(self, x, y, problem: "IVProblem"):
        return _RHS[self.name].fn(dict(self.params), np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float), problem)

    def lipschitz(self, problem: "IVProblem") -> float:
        return _RHS[self.name].lipschitz(dict(self.params), problem)

    def exact(self, problem: "IVProblem"):
        return _RHS[self.name].exact(dict(self.params), problem)


def rhs_names() -> list[str]:
    return sorted(_RHS)


def make_rhs(name: str, params: dict | None = None) -> RightHandSide:
    """Look up a right-hand side by name; ``params`` fills its parameters."""
    return RightHandSide(name=name, params=tuple(dict(params or {}).items()))


# ---------------------------------------------------------------------------
# problem statement and derived quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IVProblem:
    """Caputo-type initial value problem on [0, h_star] with box half-width K."""

    alpha: float
    rho: float
    y0: tuple
    rhs: RightHandSide
    h_star: float
    K: float

    def __post_init__(self):
        _check_finite("alpha", self.alpha)
        _check_finite("rho", self.rho)
        y0 = tuple(float(v) for v in self.y0)
        if not all(math.isfinite(v) for v in y0):
            raise ValueError("y0 entries must be finite")
        if len(y0) != self.m:
            raise ValueError(
                f"y0 must have ceil(alpha) = {self.m} entries, got {len(y0)}"
            )
        _check_finite("h_star", self.h_star)
        _check_finite("K", self.K)
        object.__setattr__(self, "y0", y0)

    @property
    def m(self) -> int:
        return math.ceil(self.alpha)


@dataclass(frozen=True)
class SolverConfig:
    """Grid size, stopping tolerance, iteration cap and optional Lipschitz
    constant of a solve.

    One tolerance rule holds for every stop in the library: a stop compares
    its measure with tol * max(1, max |y|), where y is the solution as far
    as it is known when the test is made.  A solution of size at most 1 is
    thus held to the absolute tol, and a larger one to tol relative to its
    size, so a solve near 1e7, where one ulp of y exceeds the default tol,
    stops as one near 1 does.  Where max |y| >= 1, scaling y0 and K by a
    power of two scales the solution exactly.  :func:`solve_picard`
    takes max |y| over the iterate its update starts from,
    :func:`solve_marching` over the nodes already solved, and
    :func:`oracle_residual` over the solution it probes.
    """

    n_nodes: int
    tol: float = 1e-10
    max_iter: int = 200
    lipschitz_L: float | None = None

    def __post_init__(self):
        _check_int("n_nodes", self.n_nodes, 2)
        _check_finite("tol", self.tol)
        _check_int("max_iter", self.max_iter, 1)
        if self.lipschitz_L is not None:
            _check_finite("lipschitz_L", self.lipschitz_L, strict=False)


@dataclass(frozen=True)
class SolverReport:
    h_used: float
    M: float
    iterations: int
    fft_iterations: int
    deltas: np.ndarray
    omega_bounds: np.ndarray | None
    residual: float
    converged: bool


def estimate_M(problem: IVProblem) -> float:
    """max |f| over the 64 x 64 lattice of the box G = [0, h_star] x
    {|y - T(x)| <= K}, even in x and in y - T.  A lattice maximum is a lower
    estimate of the true sup, so a step computed from it can be longer than
    the theorem allows; a bound from each rhs is ROADMAP item 4.  A lattice
    that overflows, in T or in the offsets y - T, is refused like a
    non-finite f.
    """
    with np.errstate(all="ignore"):     # a non-finite value is refused below
        xs = np.linspace(0.0, problem.h_star, _M_LATTICE)
        offsets = np.linspace(-problem.K, problem.K, _M_LATTICE)
        t = taylor_poly(problem.y0, xs)
        vals = _eval_rhs(problem, xs[:, None], t[:, None] + offsets,
                         "rhs is not finite on the existence box")
        return float(np.max(np.abs(vals)))


def step_h(problem: IVProblem, M: float) -> float:
    """Existence step: h_star when M == 0, else
    min(h_star, (K Gamma(alpha+1) rho**alpha / M)**(1/alpha)).

    Not yet the step the theorem guarantees, for two known reasons
    (ROADMAP item 4): M from :func:`estimate_M` is a lattice lower estimate
    of sup |f|, and for rho != 1 the bound M s(h)**alpha / Gamma(alpha+1)
    <= K needs the exponent 1/(rho alpha), not 1/alpha.

    A cap past the double range is h_star; one that underflows to 0 is
    refused with ``ValueError``.  An overflow in ``rho**alpha`` raises
    ``OverflowError``.
    """
    _check_finite("M", M, strict=False)
    if M == 0.0:
        return problem.h_star
    alpha, rho = problem.alpha, problem.rho
    base = problem.K * _gamma(alpha, 1.0) * rho**alpha / M
    try:
        cap = base ** (1.0 / alpha)
    except OverflowError:
        return problem.h_star
    if cap == 0.0:
        raise ValueError(f"existence step (K Gamma(alpha+1) rho**alpha / M)**(1/alpha) "
                         f"underflows to 0 (alpha = {alpha}, M = {M})")
    return min(problem.h_star, cap)


def existence_box(problem: IVProblem) -> tuple[float, float]:
    """(M, h): the lattice estimate of sup |f| over the box, and the step it
    implies."""
    M = estimate_M(problem)
    return M, step_h(problem, M)


# ---------------------------------------------------------------------------
# Picard machinery
# ---------------------------------------------------------------------------

def _check_in_box(values: np.ndarray, t: np.ndarray, K: float, what: str) -> None:
    drift = float(np.max(np.abs(values - t)))
    if drift > K * (1.0 + _DOMAIN_SLACK):
        raise DomainExitError(
            f"{what} leaves the box: max |y - T| = {drift:.6g} > K = {K:.6g}"
        )


def _eval_rhs(problem: IVProblem, x: np.ndarray, y: np.ndarray,
              message: str = "rhs evaluation produced non-finite values") -> np.ndarray:
    """f(x, y), refused with ValueError(message) unless finite."""
    vals = np.asarray(problem.rhs.fn(x, y, problem), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(message)
    return vals


def _ivp_taylor(grid: Grid, problem: IVProblem,
                weights: QuadratureWeights | None = None) -> np.ndarray:
    """T at the nodes, after checking that grid and weights suit the problem;
    a T that overflows raises ``OverflowError``."""
    if weights is not None and not weights.grid.same_layout(grid):
        raise ValueError("weights were built for a different grid")
    if weights is not None and weights.alpha != problem.alpha:
        raise ValueError(f"weights are for alpha={weights.alpha}, "
                         f"requested alpha={problem.alpha}")
    if grid.a != 0.0:
        raise ValueError("initial value problems live on [0, h]; grid.a must be 0")
    t = taylor_poly(problem.y0, grid.x_nodes)
    if not np.all(np.isfinite(t)):
        raise OverflowError("Taylor polynomial T is not finite")
    return t


def picard_apply(y: SampledFunction, problem: IVProblem,
                 weights: QuadratureWeights) -> SampledFunction:
    """One application of the integral operator: T + I^alpha f(., y), with
    the history sum from ``QuadratureWeights.apply_exact``.  A T or a result
    that overflows raises ``OverflowError``."""
    with np.errstate(all="ignore"):     # an overflow is refused below
        t = _ivp_taylor(y.grid, problem, weights)
        _check_in_box(y.values, t, problem.K, "iterate")
        vals = t + weights.apply_exact(_eval_rhs(problem, y.grid.x_nodes, y.values))
        return _finite_result(y, vals, "Picard iterate")


def _solver_setup(problem: IVProblem, config: SolverConfig):
    M, h = existence_box(problem)
    grid = make_grid(0.0, h, problem.rho, config.n_nodes)
    weights = build_weights(grid, problem.alpha)
    # T unchecked: each solver refuses an overflowing T inside its own loop
    return M, h, grid, weights, taylor_poly(problem.y0, grid.x_nodes)


def solve_picard(problem: IVProblem, config: SolverConfig):
    """Iterate y <- T + I^alpha f(., y) from y = T until the sup-norm update
    is within tol * max(1, max |y|), with max |y| over the iterate the
    update starts from (the rule of :class:`SolverConfig`); below, "tol"
    means this scaled value.  Returns (solution, report); raises
    NonConvergenceError carrying both, with the last scaled tol in its
    message, if max_iter is exhausted or an exact-sum iterate equals the
    one two iterations back (a period-2 cycle, which no further iteration
    leaves), and OverflowError if an iterate of the exact sum is not
    finite, or a weight is not finite and f is not 0.  Setup, iteration and
    residual run under one ``np.errstate``, so an overflow raises no numpy
    warning.

    Each iterate takes its history sum from the O(n log n) FFT convolution
    (``QuadratureWeights.apply_fft``) while tol < delta < previous delta,
    with previous delta = +inf on the first iteration, and the iteration is
    not the last that max_iter allows.  The first iteration that fails this
    test (an update within tol, one no smaller than the one before, which
    is the FFT rounding floor, or one that is not finite, as when the FFT
    sum overflows) is redone from the same rhs values with the exact sum
    (``QuadratureWeights.apply_exact``, also O(n log n)), and so is every
    iteration after it.  The returned iterate, the partial one of
    NonConvergenceError and the residual therefore all come from the exact
    sum; ``report.fft_iterations`` counts the leading deltas that came from
    the uncompensated FFT path.

    The solve builds its weights once.  The weights' band spectrum and
    exact-sum slices are computed by the first sum of each kind and kept
    until the solve returns, and the ramp moments come from
    ``fracops._ramp_moments``' process-wide cache of its last 16 tables,
    keyed by alpha and n, so a later solve of the same alpha and n reads
    them back.  Both hold the arrays a fresh computation would give, so the
    solution and report keep their bytes.
    """
    with np.errstate(all="ignore"):     # an overflow is refused below
        M, h, grid, weights, t = _solver_setup(problem, config)
        y = t.copy()
        deltas = []
        fft_iterations = 0
        y_before = None     # the iterate before y, once the exact sum made y
        for k in range(config.max_iter):
            # every iteration so far took the FFT path, and this is not the last
            fft = fft_iterations == k and k + 1 < config.max_iter
            tol = config.tol * max(1.0, float(np.max(np.abs(y))))
            fvals = _eval_rhs(problem, grid.x_nodes, y)
            y_next = t + (weights.apply_fft if fft else weights.apply_exact)(fvals)
            delta = float(np.max(np.abs(y_next - y)))
            if fft and tol < delta < (deltas[-1] if deltas else math.inf):
                fft_iterations += 1
            elif fft:
                y_next = t + weights.apply_exact(fvals)
                delta = float(np.max(np.abs(y_next - y)))
            if not math.isfinite(delta):    # y_next, or T on the first pass, overflowed
                raise OverflowError(f"Picard iterate {k + 1} is not finite")
            _check_in_box(y_next, t, problem.K, "Picard iterate")
            deltas.append(delta)
            # an exact iterate equal to the one two back: a period-2 cycle from here on
            repeat = y_before is not None and np.array_equal(y_next, y_before)
            y_before, y = (y if fft_iterations <= k else None), y_next
            converged = delta <= tol
            if converged or repeat:
                break
        solution = SampledFunction(grid, y)
        report = SolverReport(
            h_used=h,
            M=M,
            iterations=len(deltas),
            fft_iterations=fft_iterations,
            deltas=np.array(deltas),
            omega_bounds=None if config.lipschitz_L is None else np.array(
                [contraction_bound(j, config.lipschitz_L, h, problem.alpha, problem.rho)
                 for j in range(1, len(deltas) + 1)]),
            residual=volterra_residual(solution, problem, weights),
            converged=converged,
        )
    if not converged:
        why = (f": iterate {len(deltas)} repeats iterate {len(deltas) - 2}, a period-2 "
               "cycle" if repeat else f" within max_iter = {config.max_iter}")
        raise NonConvergenceError(
            f"no convergence{why} (last update {deltas[-1]:.3e} > tol {tol:.3e})",
            solution, report)
    return solution, report


def _march_node(b: float, w_nn: float, f_scalar, u0: float, tol: float,
                node: int) -> float:
    """Solve u = b + w_nn f(u): one plain fixed-point step, then the secant
    method on the residual, with a plain step whenever the residual repeats.

    A step b + w_nn f(u) that is not finite, as when b is not finite or
    the step overflows, raises ``OverflowError`` naming the node; a node
    solve that does not converge raises ``MarchingError``.
    """
    u = u0
    res_prev = None
    u_prev = None
    for _ in range(_MARCH_ITER_CAP):
        phi = b + w_nn * f_scalar(u)
        if not math.isfinite(phi):
            raise OverflowError(f"marching node {node} is not finite")
        res = phi - u
        if abs(res) <= tol:
            return phi
        if res_prev is None or res == res_prev:
            u_new = phi
        else:
            # the quotient first: res * (u - u_prev) overflows from |u| ~ 1e154
            u_new = u - res * ((u - u_prev) / (res - res_prev))
        u_prev, res_prev = u, res
        u = u_new
    raise MarchingError(
        f"node solve did not converge at node {node} within {_MARCH_ITER_CAP} "
        "iterations", node)


def solve_marching(problem: IVProblem, config: SolverConfig) -> SampledFunction:
    """Independent node-by-node solve of the same discrete Volterra system.

    Node i solves y_i = b_i + w_ii f(x_i, y_i), with b_i = T(x_i) plus the
    history sum over nodes 0..i-1, starting from y_{i-1}; node 0, whose
    weight w_00 is 0, starts from T(0) and returns it.  The history sum is
    numpy's pairwise ``np.sum`` of the elementwise products, an order that
    no BLAS build or thread count changes.  Each node calls ``rhs.fn`` on
    Python floats and refuses a value that is not finite with the
    ``ValueError`` of the vectorized solvers.  Node i's solve stops when
    its residual is within max(1e-15, 1e-4 tol) * max(1, max |y|), with
    max |y| over nodes 0..i-1 (the rule of :class:`SolverConfig`).

    The whole solve runs under one ``np.errstate``.  A node step
    b_i + w_ii f(u) that is not finite, as when T or the history sum
    overflows or the step itself does, raises ``OverflowError``
    (``marching node i is not finite``), and a node solve that does not
    converge raises ``MarchingError``.
    """
    with np.errstate(all="ignore"):     # an overflow is refused below
        _, _, grid, weights, t = _solver_setup(problem, config)
        n = grid.n_nodes
        y = np.full(n, t[0])            # y[-1] = T(0) is node 0's starting guess
        fv = np.empty(n)
        tol_i = max(1e-15, 1e-4 * config.tol)   # times max(1, max |y|) over nodes solved
        for i in range(n):
            row = weights.row(i)
            b = t[i] + float(np.sum(row[:i] * fv[:i]))

            def f_scalar(u: float, _xi=float(grid.x_nodes[i])) -> float:
                val = float(problem.rhs.fn(_xi, u, problem))
                if not math.isfinite(val):
                    raise ValueError("rhs evaluation produced non-finite values")
                return val

            y[i] = _march_node(b, float(row[i]), f_scalar, y[i - 1], tol_i, i)
            fv[i] = f_scalar(y[i])
            tol_i = max(tol_i, max(1e-15, 1e-4 * config.tol) * abs(y[i]))
        _check_in_box(y, t, problem.K, "marching solution")
    return SampledFunction(grid, y)


# ---------------------------------------------------------------------------
# bounds and diagnostics
# ---------------------------------------------------------------------------

def contraction_bound(j: int, L: float, x: float, alpha: float, rho: float) -> float:
    """omega_j = L**j (x**rho / rho)**(alpha j) / Gamma(1 + alpha j).

    Bounds the sup-norm contraction of j compositions of the integral
    operator for an L-Lipschitz right-hand side, on [0, x].
    """
    _check_int("j", j, 0)
    _check_finite("L", L, strict=False)
    _check_finite("x", x, strict=False)
    _check_finite("alpha", alpha)
    _check_finite("rho", rho)
    if j == 0:
        return 1.0
    if x == 0.0 or L == 0.0:
        return 0.0
    log_val = (j * math.log(L)
               + alpha * j * (rho * math.log(x) - math.log(rho))
               - gamma_ln(1.0 + alpha * j))
    return math.exp(log_val)


def holder_bound(x1: float, x2: float, M: float, alpha: float, rho: float) -> float:
    """Modulus-of-continuity bound for the Picard image between x1 <= x2:

        alpha <= 1:  2 M / (rho**alpha Gamma(alpha+1)) (x2**rho - x1**rho)**alpha
        alpha  > 1:    M / (rho**alpha Gamma(alpha+1))
                       * ((x2**rho - x1**rho)**alpha + x2**(rho alpha) - x1**(rho alpha))
    """
    if not (math.isfinite(x1) and math.isfinite(x2) and 0.0 <= x1 <= x2):
        raise ValueError(f"need 0 <= x1 <= x2, got x1={x1}, x2={x2}")
    _check_finite("M", M, strict=False)
    _check_finite("alpha", alpha)
    _check_finite("rho", rho)
    scale = M / (rho**alpha * _gamma(alpha, 1.0))
    gap = x2**rho - x1**rho
    if alpha <= 1.0:
        return 2.0 * scale * gap**alpha
    return scale * (gap**alpha + x2 ** (rho * alpha) - x1 ** (rho * alpha))


def volterra_residual(y: SampledFunction, problem: IVProblem,
                      weights: QuadratureWeights | None = None) -> float:
    """sup_n | y_n - T(x_n) - (I^alpha f(., y))_n |, the defect of y in the
    discrete Volterra equation, with the history sum from
    ``QuadratureWeights.apply_exact``.  Pure measurement; never raises on
    box exit.  A history sum that overflows gives inf, quietly; a T that
    overflows, or weights past the double range on a nonzero f, raise
    ``OverflowError``.
    """
    with np.errstate(all="ignore"):     # an overflowing sum gives inf
        if weights is None:
            weights = build_weights(y.grid, problem.alpha)
        t = _ivp_taylor(y.grid, problem, weights)
        fvals = _eval_rhs(problem, y.grid.x_nodes, y.values)
        return float(np.max(np.abs(y.values - t - weights.apply_exact(fvals))))


def contraction_respected(report: SolverReport) -> bool:
    """Whether every Picard update stayed within its contraction bound,
    deltas[j] <= omega_j deltas[0] for j >= 1, up to a relative slack of
    1e-2 and an absolute one of 1e-12 max(1, deltas[0]).  True when no
    bounds were computed (no lipschitz_L) or there are fewer than two
    updates.
    """
    if report.omega_bounds is None or len(report.deltas) < 2:
        return True
    d0 = report.deltas[0]
    bounds = report.omega_bounds[:len(report.deltas) - 1] * d0 * (1.0 + 1e-2)
    return not np.any(report.deltas[1:] > bounds + 1e-12 * max(1.0, d0))


def oracle_residual(y: SampledFunction, problem: IVProblem) -> float:
    """max | y_i - T(x_i) - (I^alpha f(., y))(x_i) | over the nodes at 1/4,
    1/2, 3/4 and the end of the grid: the defect of y in the continuous
    Volterra equation, with y read as its piecewise-linear interpolant in s.

    The integral comes from :func:`gfi_reference`, independent of the
    solver's weights, at its default depth and its default tol times
    max(1, max |y|), the rule of :class:`SolverConfig`, so a large solution
    is probed to the same relative accuracy as one of size 1; each mesh
    level is one finiteness-checked rhs call, and a node probed twice is
    integrated once.
    Raises RefinementError when a probe does not converge, and
    ``OverflowError`` when T is not finite.

    The probe is node-only: for an rhs linear in y, f(., y) of the
    interpolant is piecewise linear in s, which the solver's weights
    integrate exactly, so it sees only the Picard stopping error and not
    the discretisation error.
    """
    with np.errstate(all="ignore"):     # a non-finite value is refused below
        grid = y.grid
        t = _ivp_taylor(grid, problem)
        # interpolate y / 2**e, with max |y / 2**e| in [1/2, 1), so that no
        # slope between nodes overflows; a power-of-two scale is exact in the
        # normal range
        y_max = float(np.max(np.abs(y.values)))
        e = int(np.frexp(y_max)[1])
        scaled = np.ldexp(y.values, -e)
        tol = _REFERENCE_TOL * max(1.0, y_max)

        def integrand(x: np.ndarray) -> np.ndarray:
            return _eval_rhs(problem, x,
                             np.ldexp(np.interp(grid.s_of(x), grid.s_nodes, scaled), e))

        n = grid.n_nodes
        probes = dict.fromkeys(min(n - 1, max(1, round(frac * (n - 1))))
                               for frac in _ORACLE_PROBES)
        worst = 0.0
        for i in probes:
            ref = gfi_reference(integrand, float(grid.x_nodes[i]), problem.alpha,
                                grid.rho, grid.a, tol)
            worst = max(worst, abs(float(y.values[i]) - float(t[i]) - ref))
        return worst
