"""Seeded inputs and independent references for the benchmark workloads.

Everything here is plain Python, numpy and mpmath.  Nothing imports gfcalc:
the references a workload checks against must not come from the code being
measured.  Problems are plain dicts so they can be pickled to the client
process and written to problem files.
"""

from __future__ import annotations

import math

import numpy as np

RHS_KINDS = ("linear", "sin", "logistic", "power_forcing")
ALPHA_RANGES = ((0.3, 0.9), (1.1, 1.9))
RHOS = (0.5, 1.0, 2.0)

# nodes at which the Mittag-Leffler reference is evaluated
REF_POINTS = 33


def category(i: int):
    """The (rhs, alpha range, rho) cell of problem i.  Any four consecutive
    problems cover every rhs and both alpha ranges, twice each, and rho
    cycles alongside; all 24 cells recur every 24 problems."""
    return (RHS_KINDS[i % 4], ALPHA_RANGES[(i + i // 4) % 2], RHOS[i % 3])


def taylor(y0, x):
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    for k, ck in enumerate(y0):
        acc = acc + ck * term
        term = term * x / (k + 1.0)
    return acc


def s_of_x(x, rho):
    return np.power(np.asarray(x, dtype=float), rho) / rho


def power_forcing_scale(p):
    return p["c"] * math.exp(math.lgamma(p["beta"] + 1.0)
                             - math.lgamma(p["beta"] + 1.0 - p["alpha"]))


def sup_f(p) -> float:
    """Exact sup |f| over G = [0, h_star] x {|y - T(x)| <= K}."""
    xs = np.array([0.0, p["h_star"]])
    t = taylor(p["y0"], xs)          # T is affine at most, so its extremes sit at the ends
    lo, hi = float(np.min(t)) - p["K"], float(np.max(t)) + p["K"]
    kind = p["rhs"]
    if kind == "linear":
        return abs(p["lambda"]) * max(abs(lo), abs(hi))
    if kind == "sin":
        k = math.ceil((lo - math.pi / 2) / math.pi)
        if math.pi / 2 + k * math.pi <= hi:
            return abs(p["c"])
        return abs(p["c"]) * max(abs(math.sin(lo)), abs(math.sin(hi)))
    if kind == "logistic":
        cands = [lo, hi] + ([0.5] if lo < 0.5 < hi else [])
        return abs(p["lambda"]) * max(abs(y * (1.0 - y)) for y in cands)
    if kind == "power_forcing":
        return abs(power_forcing_scale(p)) * float(
            s_of_x(p["h_star"], p["rho"])) ** (p["beta"] - p["alpha"])
    raise ValueError(kind)


def stated_step(p, M: float) -> float:
    """The step the solver documents: min(h*, (K G(a+1) rho^a / M)^(1/a))."""
    if M == 0.0:
        return p["h_star"]
    cap = (p["K"] * math.gamma(p["alpha"] + 1.0) * p["rho"] ** p["alpha"]
           / M) ** (1.0 / p["alpha"])
    return min(p["h_star"], cap)


def theorem_step(p, M: float) -> float:
    """Largest h with M (s(h))^alpha / Gamma(alpha+1) <= K, the existence
    theorem's bound on every Picard iterate, capped at h_star."""
    if M == 0.0:
        return p["h_star"]
    s_max = (p["K"] * math.gamma(p["alpha"] + 1.0) / M) ** (1.0 / p["alpha"])
    return min(p["h_star"], (p["rho"] * s_max) ** (1.0 / p["rho"]))


def within_guarantee(p) -> bool:
    """Whether the documented step is a valid step of the existence theorem.
    When rho != 1 the documented exponent 1/alpha can overshoot it, and an
    iterate can then leave the box."""
    M = sup_f(p)
    return stated_step(p, M) <= theorem_step(p, M) * (1.0 + 1e-12)


# irrational steps, one per drawn parameter, for the stratified draws
_STEPS = tuple(math.sqrt(q) % 1.0 for q in (2, 3, 5, 7, 11, 13, 17))
JITTER = 0.1


class Strata:
    """Stratified draws for problem i: parameter k sits at the point
    frac(i * sqrt(prime_k)) of its range, moved by the seed over ``jitter``
    of the range.  With the default tenth, every seed spreads each parameter
    the same way, so the cost of problem i (Picard iteration counts grow as
    alpha shrinks) does not swing with the seed, while the inputs still come
    from it.  ``jitter=1`` draws uniformly over the whole range."""

    def __init__(self, rng: np.random.Generator, i: int, jitter: float):
        self.rng, self.i, self.k, self.jitter = rng, i, 0, jitter

    def uniform(self, lo: float, hi: float) -> float:
        base = (self.i * _STEPS[self.k % len(_STEPS)]) % 1.0
        self.k += 1
        u = (1.0 - self.jitter) * base + self.jitter * float(self.rng.uniform())
        return lo + (hi - lo) * u


def draw_problem(rng: np.random.Generator, i: int, jitter: float = JITTER) -> dict:
    rhs, arange, rho = category(i)
    st = Strata(rng, i, jitter)
    alpha = st.uniform(*arange)
    m = math.ceil(alpha)
    p = {"rhs": rhs, "alpha": alpha, "rho": rho,
         "h_star": st.uniform(0.5, 2.0), "K": st.uniform(0.5, 2.0)}
    if rhs == "linear":
        # y'(0) = 0 keeps a Mittag-Leffler closed form for alpha > 1
        p["lambda"] = -st.uniform(0.5, 2.0)
        p["y0"] = (st.uniform(0.5, 1.5),) + (0.0,) * (m - 1)
    elif rhs == "sin":
        p["c"] = (-1.0) ** i * st.uniform(0.5, 2.0)
        p["y0"] = tuple(st.uniform(-1.0, 1.0) for _ in range(m))
    elif rhs == "logistic":
        p["lambda"] = st.uniform(0.5, 2.0)
        p["y0"] = (st.uniform(0.1, 0.9),) + tuple(
            st.uniform(-0.5, 0.5) for _ in range(m - 1))
    else:
        p["beta"] = alpha + st.uniform(0.5, 1.5)
        p["c"] = st.uniform(-1.0, 1.0)
        p["y0"] = tuple(st.uniform(-1.0, 1.0) for _ in range(m))
    return p


def problem_family(rng: np.random.Generator, count: int) -> list[dict]:
    """``count`` problems, problem i in cell :func:`category` (i), its
    parameters drawn by :class:`Strata`.

    A draw whose documented step is not a valid step of the existence
    theorem is posed on the theorem's step instead: h_star is shortened to
    it, and the drawn value is kept under ``h_star_drawn``.
    """
    family = []
    for i in range(count):
        p = draw_problem(rng, i)
        if not within_guarantee(p):
            p["h_star_drawn"] = p["h_star"]
            p["h_star"] = theorem_step(p, sup_f(p))
        family.append(p)
    return family


def rhs_params(p) -> dict:
    keys = {"linear": ("lambda",), "sin": ("c",), "logistic": ("lambda",),
            "power_forcing": ("beta", "c")}[p["rhs"]]
    return {k: p[k] for k in keys}


def problem_text(p, n_nodes: int, tol: float) -> str:
    """The problem in the flat ``section.key = value`` file format."""
    lines = [
        f"problem.alpha = {p['alpha']!r}",
        f"problem.rho = {p['rho']!r}",
        "problem.y0 = [" + ", ".join(repr(v) for v in p["y0"]) + "]",
        f"problem.rhs = {p['rhs']}",
    ]
    lines += [f"problem.rhs.{k} = {v!r}" for k, v in rhs_params(p).items()]
    lines += [
        f"problem.h_star = {p['h_star']!r}",
        f"problem.K = {p['K']!r}",
        f"solver.n_nodes = {n_nodes}",
        f"solver.tol = {tol!r}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closed forms and the Mittag-Leffler reference
# ---------------------------------------------------------------------------

def ml_mp(alpha: float, z: float) -> float:
    """E_alpha(z) = sum z^j / Gamma(alpha j + 1), summed in mpmath with
    enough digits to absorb the cancellation of the alternating series:
    its largest term is about exp(|z|^(1/alpha))."""
    import mpmath   # only the parent process needs it

    digits = 30 + int(abs(z) ** (1.0 / alpha) / math.log(10.0))
    with mpmath.workdps(digits):
        a = mpmath.mpf(alpha)
        zz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        eps = mpmath.mpf(10) ** (-digits)
        j = 0
        while True:
            term = zz**j / mpmath.gamma(a * j + 1)
            total += term
            if j > abs(z) ** (1.0 / alpha) and abs(term) < eps:
                return float(total)
            j += 1


def node_x(p, h: float, n: int, idx) -> np.ndarray:
    """x at node indices ``idx`` of the grid uniform in s over [0, h]."""
    s_last = float(s_of_x(h, p["rho"]))
    s = s_last * np.asarray(idx, dtype=float) / (n - 1)
    return np.power(p["rho"] * s, 1.0 / p["rho"])


def ref_indices(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, REF_POINTS).round().astype(int))


def linear_reference(p, n: int) -> dict:
    """The linear problem's step, node indices and mpmath solution values."""
    h = stated_step(p, sup_f(p))
    idx = ref_indices(n)
    x = node_x(p, h, n, idx)
    z = p["lambda"] * np.power(s_of_x(x, p["rho"]), p["alpha"])
    y = np.array([p["y0"][0] * ml_mp(p["alpha"], float(zi)) for zi in z])
    return {"h": h, "idx": idx, "x": x, "y": y}


def exact_solution(p, x) -> np.ndarray | None:
    """The solution in closed form where no special function is needed
    (power_forcing); None otherwise."""
    if p["rhs"] == "power_forcing":
        return taylor(p["y0"], x) + p["c"] * np.power(s_of_x(x, p["rho"]), p["beta"])
    return None


def solve_tolerance(p, n: int) -> float:
    """Bound on the solver's sup error against the exact solution.

    The product trapezoid converges like ds^min(2 alpha, 1 + alpha, 2) near
    the origin; the constant comes from criterion 07's 1e-4 at n = 4096,
    widened tenfold so the check flags a broken solver, not rounding.
    """
    rate = min(2.0 * p["alpha"], 1.0 + p["alpha"], 2.0)
    return 1e-3 * (4096.0 / (n - 1)) ** rate


# ---------------------------------------------------------------------------
# operator power rules
# ---------------------------------------------------------------------------

def operator_case(rng: np.random.Generator, kind: str, n: int, a_positive: bool,
                  rho: float, arange) -> dict:
    alpha = float(rng.uniform(*arange))
    a = float(rng.uniform(0.2, 1.0)) if a_positive else 0.0
    case = {"kind": kind, "n": n, "a": a, "b": a + float(rng.uniform(0.5, 1.5)),
            "rho": rho, "alpha": alpha, "c": float(rng.uniform(0.5, 2.0))}
    if kind == "integral":
        case["beta"] = int(rng.integers(0, 3))
    else:
        case["beta"] = int(rng.integers(2, 4))
        case["c0"] = float(rng.uniform(-1.0, 1.0)) if kind == "caputo" else 0.0
    return case


def operator_input(case, s) -> np.ndarray:
    return case.get("c0", 0.0) + case["c"] * np.power(s, case["beta"])


def operator_init(case) -> tuple:
    # d/dx of s^beta vanishes at a for beta >= 2, so only c0 survives
    return (case["c0"],) + (0.0,) * (math.ceil(case["alpha"]) - 1)


def operator_expected(case, s) -> np.ndarray:
    """Power rule: I^alpha s^beta and D^alpha s^beta in closed form."""
    beta, alpha = case["beta"], case["alpha"]
    if case["kind"] == "integral":
        return case["c"] * math.gamma(beta + 1.0) / math.gamma(alpha + beta + 1.0) \
            * np.power(s, alpha + beta)
    return case["c"] * math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha) \
        * np.power(s, beta - alpha)


def operator_tolerance(case) -> float:
    """Criterion 01's 1e-6 at 4096 nodes, scaled by the ds^2 error of the
    product trapezoid (and of the d/ds stencils for derivatives)."""
    scale = (4096.0 / (case["n"] - 1)) ** 2
    if case["kind"] == "integral":
        return case["c"] * 1e-6 * (scale if case["beta"] >= 2 else 1.0)
    return case["c"] * 1e-4 * scale


def operator_mask(n: int) -> slice:
    # one-sided stencils and the weak singularity spoil the first nodes
    return slice(n // 16, n - n // 16)
