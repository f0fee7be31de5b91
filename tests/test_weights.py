"""Product-trapezoidal weights for the Abel kernel in s-space.

The mpmath comparisons build the classical product-trapezoid weights from
50-digit kernel moments, giving an independent oracle for every entry.
"""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gfcalc import fracops
from gfcalc.fracops import (QuadratureWeights, SampledFunction, build_weights,
                            gfd_caputo, gfd_riemann, gfi_apply, make_grid)
from gfcalc.solver import IVProblem, SolverConfig, make_rhs, solve_picard


def dense(weights) -> np.ndarray:
    """The n x n weight matrix, one row of the stored weights at a time."""
    n = weights.grid.n_nodes
    w = np.zeros((n, n))
    for i in range(n):
        w[i, :i + 1] = weights.row(i)
    return w


def ulp_gap(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / np.spacing(max(abs(got), abs(want)))


def classical_weights_mp(alpha: float, ds: float, n: int) -> np.ndarray:
    """Row-n product-trapezoid weights from 50-digit arithmetic.

    Standard form: w[n][j] integrates (s_n - sigma)**(alpha-1) against the
    hat function at node j, divided by Gamma(alpha).
    """
    with mpmath.workdps(50):
        al = mpmath.mpf(alpha)
        h = mpmath.mpf(ds)
        ga2 = mpmath.gamma(al + 2)
        pref = h**al / ga2
        w = [mpmath.mpf(0)] * (n + 1)
        # hat-function moments of the kernel; k = n - j
        for j in range(n + 1):
            k = n - j
            if j == 0:
                val = pref * ((k - 1) ** (al + 1) - k**al * (k - al - 1))
            elif j == n:
                val = pref
            else:
                val = pref * ((k - 1) ** (al + 1) - 2 * k ** (al + 1)
                              + (k + 1) ** (al + 1))
            w[j] = val
        return np.array([float(v) for v in w])


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9, 1.0, 1.3, 1.7, 1.9])
@pytest.mark.parametrize("rho,n", [(1.0, 64), (1.3, 129), (0.5, 257)])
def test_apply_to_ones_two_ulp(alpha, rho, n):
    grid = make_grid(0.0, 1.7, rho, n)
    w = build_weights(grid, alpha)
    ones = SampledFunction(grid, np.ones(n))
    got = w.apply(ones.values)
    gam = math.gamma(alpha + 1.0)
    for j in range(1, n):
        want = grid.s_nodes[j] ** alpha / gam
        assert ulp_gap(float(got[j]), want) <= 2.0
    assert got[0] == 0.0


def test_alpha_one_reduces_to_trapezoid():
    grid = make_grid(0.0, 2.0, 1.0, 9)
    w = build_weights(grid, 1.0)
    ds = grid.ds
    for row in range(1, 9):
        expect = np.zeros(9)
        expect[0] = ds / 2
        expect[row] = ds / 2
        expect[1:row] = ds
        assert np.max(np.abs(dense(w)[row] - expect)) <= 4 * np.spacing(ds)


def test_alpha_one_linear_integrand_exact():
    grid = make_grid(0.0, 1.0, 1.0, 17)
    w = build_weights(grid, 1.0)
    got = w.apply(grid.s_nodes.copy())
    want = grid.s_nodes**2 / 2.0
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("alpha", [0.4, 0.8, 1.5])
def test_linear_integrand_matches_closed_form(alpha):
    # the rule integrates piecewise-linear data exactly:
    # int_0^s (s-u)^(alpha-1) u du / Gamma(alpha) = s^(alpha+1)/Gamma(alpha+2)
    grid = make_grid(0.0, 1.3, 1.0, 65)
    w = build_weights(grid, alpha)
    got = w.apply(grid.s_nodes.copy())
    want = grid.s_nodes ** (alpha + 1.0) / math.gamma(alpha + 2.0)
    mask = want > 0
    rel = np.max(np.abs(got[mask] - want[mask]) / want[mask])
    assert rel < 5e-15


def test_weights_nonnegative_and_triangular():
    for alpha in (0.2, 0.7, 1.0, 1.6):
        grid = make_grid(0.0, 1.0, 1.0, 33)
        w = dense(build_weights(grid, alpha))
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0)
        assert np.all(w[np.triu_indices(33, k=1)] == 0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.25, 1.9])
def test_weights_match_fifty_digit_oracle(alpha):
    grid = make_grid(0.0, 1.0, 1.0, 33)
    w = dense(build_weights(grid, alpha))
    for row in (1, 2, 5, 17, 32):
        oracle = classical_weights_mp(alpha, grid.ds, row)
        for j in range(row + 1):
            assert ulp_gap(float(w[row, j]), float(oracle[j])) <= 4.0


def test_apply_is_deterministic():
    grid = make_grid(0.0, 1.0, 1.2, 201)
    w = build_weights(grid, 0.6)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(201)
    first = w.apply(vals)
    for _ in range(3):
        assert np.array_equal(w.apply(vals), first)


def test_apply_rejects_wrong_length():
    grid = make_grid(0.0, 1.0, 1.0, 9)
    w = build_weights(grid, 0.5)
    with pytest.raises(ValueError):
        w.apply(np.ones(8))


def test_build_weights_rejects_bad_alpha():
    grid = make_grid(0.0, 1.0, 1.0, 9)
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            build_weights(grid, alpha)


def test_build_weights_memory_is_linear():
    # the dense n x n table at n = 4097 would take about 134 MB
    grid = make_grid(0.0, 1.0, 1.0, 4097)
    cold_moments()
    tracemalloc.start()
    try:
        build_weights(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_apply_exact_memory_is_linear():
    # the slice spectra take about 9 * 16 (n + 1) bytes at n = 4097
    w = build_weights(make_grid(0.0, 1.0, 1.0, 4097), 0.5)
    vals = np.random.default_rng(1).standard_normal(4097)
    tracemalloc.start()
    try:
        w.apply_exact(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def dense_neumaier_apply(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Reference: column-by-column Neumaier sweep over the dense matrix."""
    n = vals.shape[0]
    acc = np.zeros(n)
    comp = np.zeros(n)
    for j in range(n):
        term = w[:, j] * vals[j]
        total = acc + term
        for i in range(n):
            if abs(acc[i]) >= abs(term[i]):
                comp[i] += (acc[i] - total[i]) + term[i]
            else:
                comp[i] += (term[i] - total[i]) + acc[i]
        acc = total
    out = acc + comp
    out[0] = 0.0
    return out


@pytest.mark.parametrize("alpha,rho,n", [
    (0.3, 1.0, 2), (0.5, 1.0, 3), (1.0, 0.7, 33), (1.6, 1.4, 130),
    (0.25, 2.0, 1025),
])
def test_apply_matches_dense_compensated_sweep(alpha, rho, n):
    # apply skips the zeros above the diagonal; bytes, not values, are
    # compared so that a -0/+0 flip in the leading rows fails too
    grid = make_grid(0.0, 1.4, rho, n)
    w = build_weights(grid, alpha)
    dense_w = dense(w)
    rng = np.random.default_rng(n)
    random = rng.standard_normal(n) * np.exp(rng.uniform(-8.0, 8.0, n))
    # -0 on the leading nodes, then positive values with exact zeros among them
    signed_zeros = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.5, 2.0, n))
    signed_zeros[:(n + 1) // 2] = -0.0
    # alternating signs, magnitudes rising so |term| often exceeds |acc|
    growing = np.geomspace(1e-150, 1e150, n) * (-1.0) ** np.arange(n)
    # no intermediate of the compensated sum may overflow
    huge = np.where(rng.random(n) < 0.5, -1e300, 1e300)
    inputs = {"random": random, "signed zeros": signed_zeros,
              "growing": growing, "huge": huge}
    for kind, vals in inputs.items():
        got = w.apply(vals)
        want = dense_neumaier_apply(dense_w, vals)
        assert got.tobytes() == want.tobytes(), kind


@pytest.mark.parametrize("alpha,n", [(0.4, 2), (0.4, 3), (0.8, 17), (1.7, 64)])
def test_dense_weights_toeplitz_off_first_column(alpha, n):
    weights = build_weights(make_grid(0.0, 1.0, 1.0, n), alpha)
    for i in (-1, n):
        with pytest.raises(IndexError):
            weights.row(i)
    w = dense(weights)
    assert w.shape == (n, n)
    assert np.all(w[np.triu_indices(n, k=1)] == 0.0)
    assert np.all(w[0] == 0.0)
    for d in range(n - 1):
        # entry 0 of each sub-diagonal lies in column 0
        diagonal = np.diagonal(w, offset=-d)[1:]
        assert np.all(diagonal == diagonal[0])


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9, 1.0, 1.7, 2.5])
@pytest.mark.parametrize("rho", [0.6, 1.0, 1.7])
def test_apply_fft_matches_apply(alpha, rho):
    # the FFT sum is uncompensated: its error scales with the largest row
    # sum of |w| |v|, not with each node's own value
    for n in (2, 3, 17, 1025):
        w = build_weights(make_grid(0.0, 1.4, rho, n), alpha)
        rng = np.random.default_rng(n)
        for vals in (rng.standard_normal(n), rng.uniform(0.5, 2.0, n)):
            got = w.apply_fft(vals)
            scale = float(np.max(w.apply(np.abs(vals))))
            assert got[0] == 0.0
            assert np.max(np.abs(got - w.apply(vals))) <= 1e-15 * scale


@pytest.mark.parametrize("alpha", [0.25, 1.6])
@pytest.mark.parametrize("n", [2, 3, 33, 257])
def test_apply_exact_within_an_ulp_of_the_exact_sum(alpha, n):
    # exact rational sums of stored weight times value; apply itself is off
    # by tens of ulp on the signed inputs, as it sums rounded products.
    # gfi_apply takes its sum from apply_exact, so it is held to the same
    w = build_weights(make_grid(0.0, 1.4, 1.0, n), alpha)
    rng = np.random.default_rng(n)
    inputs = {"normal": rng.standard_normal(n),
              "uniform": rng.uniform(0.5, 2.0, n),
              "wide": rng.standard_normal(n) * np.exp(rng.uniform(-8.0, 8.0, n))}
    # one entry 1e-16 of the rest needs more than 6 value slices at n = 257
    tiny = rng.standard_normal(n)
    tiny[n // 2] = math.pi * 1e-16
    inputs["tiny entry"] = tiny
    entries = {"apply_exact": w.apply_exact,
               "gfi_apply": lambda v: gfi_apply(SampledFunction(w.grid, v), alpha).values}
    for kind, vals in inputs.items():
        exact_vals = [Fraction(float(v)) for v in vals]
        exact = [sum(Fraction(float(wij)) * vj
                     for wij, vj in zip(w.row(i), exact_vals)) for i in range(n)]
        for entry, fn in entries.items():
            got = fn(vals)
            assert got[0] == 0.0 and not np.signbit(got[0]), (entry, kind)
            assert fn(vals).tobytes() == got.tobytes(), (entry, kind)
            for i in range(1, n):
                ulp = Fraction(float(np.spacing(abs(float(exact[i])))))
                assert abs(Fraction(float(got[i])) - exact[i]) <= ulp, (entry, kind, i)


@pytest.mark.parametrize("alpha,rho,n", [
    (0.3, 1.0, 2), (0.5, 1.0, 3), (1.0, 0.7, 33), (1.6, 1.4, 130),
    (0.25, 2.0, 1025),
])
def test_apply_exact_falls_back_to_apply(alpha, rho, n, monkeypatch):
    # the byte gate's growing and huge inputs: too many slices for the one,
    # a splitting constant past the overflow threshold for the other
    w = build_weights(make_grid(0.0, 1.4, rho, n), alpha)
    rng = np.random.default_rng(n)
    inputs = {
        "growing": np.geomspace(1e-150, 1e150, n) * (-1.0) ** np.arange(n),
        "huge": np.where(rng.random(n) < 0.5, -1e300, 1e300),
        "nan": np.where(np.arange(n) == n // 2, np.nan, 1.0),
    }
    # drawn after the others so their data stays as it was; splits into
    # slices, but its lowest levels fall below the normal range (the guard)
    inputs["tiny"] = rng.standard_normal(n) * 1e-290
    wants = {kind: w.apply(vals).tobytes() for kind, vals in inputs.items()}
    calls = 0
    apply = QuadratureWeights.apply

    def counted(self, values):
        nonlocal calls
        calls += 1
        return apply(self, values)

    monkeypatch.setattr(QuadratureWeights, "apply", counted)
    for kind, vals in inputs.items():
        assert w.apply_exact(vals).tobytes() == wants[kind], kind
    assert calls == len(inputs)


def test_apply_exact_falls_back_on_a_level_past_the_overflow_threshold(monkeypatch):
    # weights below 2**243 and values below 2**831 split into slices, but their
    # exponents sum past 1023, the other half of the level-range guard
    w = build_weights(make_grid(0.0, 1e30, 1.0, 65), 2.5)
    vals = np.where(np.random.default_rng(65).random(65) < 0.5, -1e250, 1e250)
    with np.errstate(over="ignore", invalid="ignore"):    # apply overflows here
        want = w.apply(vals).tobytes()
        calls = 0
        apply = QuadratureWeights.apply

        def counted(self, values):
            nonlocal calls
            calls += 1
            return apply(self, values)

        monkeypatch.setattr(QuadratureWeights, "apply", counted)
        assert w.apply_exact(vals).tobytes() == want
    assert calls == 1


def test_operators_and_solver_make_no_compensated_apply(monkeypatch):
    # apply is the reference and the fallback; on in-range data every
    # production sum, including one whose values span more than 6 slices
    # (power_forcing beta 4.5 at n = 4097), is apply_exact's
    calls = 0
    apply = QuadratureWeights.apply

    def counted(self, values):
        nonlocal calls
        calls += 1
        return apply(self, values)

    grid = make_grid(0.0, 1.0, 0.5, 257)
    f = SampledFunction(grid, np.sin(3.0 * grid.x_nodes) + 0.5)
    p = IVProblem(alpha=0.5, rho=1.0, y0=(0.0,), h_star=1.0, K=1.0,
                  rhs=make_rhs("power_forcing", {"beta": 4.5, "c": 0.1}))
    monkeypatch.setattr(QuadratureWeights, "apply", counted)
    for alpha in (0.4, 1.3):
        gfi_apply(f, alpha)
        gfd_riemann(f, alpha)
        gfd_caputo(f, alpha, (0.5, 3.0)[:math.ceil(alpha)])
    assert calls == 0
    solve_picard(p, SolverConfig(n_nodes=4097, tol=1e-12))
    assert calls == 0


def test_apply_exact_falls_back_when_an_fft_output_is_off_an_integer(monkeypatch):
    w = build_weights(make_grid(0.0, 1.0, 1.0, 33), 1.6)
    vals = np.random.default_rng(33).standard_normal(33)
    want = w.apply(vals).tobytes()
    assert w.apply_exact(vals).tobytes() != want
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.25)
    assert w.apply_exact(vals).tobytes() == want


# ---------------------------------------------------------------------------
# the moment cache and the per-instance weight spectra
# ---------------------------------------------------------------------------

def uncut_ramp_moments(alpha: float, m_max: int):
    """The moment series as it was before the per-m cutoff and the cache:
    every m is summed until the m = 2 term has converged."""
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
        coeff = al * (al - one)
        power = beta * beta2
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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # values and signs, not tobytes(): an 80-bit longdouble's padding bytes
    # are not part of its value and may differ between equal arrays
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def cold_moments():
    fracops._cached_moment_table.cache_clear()


MOMENT_ALPHAS = [0.05, 0.3, 0.5, 0.999, 1.0, 1.5, 2.0, 2.5, 3.7, 4.9, 7.0, 10.0]


@pytest.mark.parametrize("alpha", MOMENT_ALPHAS)
def test_moment_prefixes_match_the_uncut_series(alpha):
    # the cut is decided per m, so a table's prefix is the table at its own
    # length, and both are the uncut series
    cold_moments()
    long = fracops._ramp_moments(alpha, 4096)
    for m_max in (1, 2, 3, 64, 300, 1024, 2048, 4095, 4096):
        want = uncut_ramp_moments(alpha, m_max)
        assert all(map(same_bits, fracops._ramp_moments(alpha, m_max), want)), m_max
        assert all(map(same_bits, (a[:m_max + 1] for a in long), want)), m_max


@pytest.mark.parametrize("alpha,n", [(0.5, 4097), (1.3, 1025), (7.0, 257)])
def test_cold_and_warm_weights_have_the_same_bytes(alpha, n):
    grid = make_grid(0.0, 1.3, 0.8, n)
    cold_moments()
    cold = build_weights(grid, alpha)
    warm = build_weights(grid, alpha)
    assert fracops._cached_moment_table.cache_info()[:2] == (1, 1)   # hits, misses
    assert cold.first.tobytes() == warm.first.tobytes()
    assert cold.band.tobytes() == warm.band.tobytes()
    # a smaller table built after a larger one
    small = make_grid(0.0, 0.4, 0.8, 65)
    after_large = build_weights(small, alpha)
    cold_moments()
    from_cold = build_weights(small, alpha)
    assert after_large.first.tobytes() == from_cold.first.tobytes()
    assert after_large.band.tobytes() == from_cold.band.tobytes()


def test_moment_cache_keeps_the_last_tables():
    grid = make_grid(0.0, 1.0, 1.0, 4097)
    alphas = [0.3 + 0.05 * i for i in range(24)]
    cold_moments()
    for alpha in alphas:
        build_weights(grid, alpha)
    info = fracops._cached_moment_table.cache_info()
    assert info.misses == 24 and info.currsize == fracops._MOMENT_CACHE_SIZE == 16
    # the last 16 are kept (16 tables of 4097 moments: about 2.1 MB)
    for alpha in alphas[-16:]:
        fracops._ramp_moments(alpha, 4096)
    assert fracops._cached_moment_table.cache_info()[:2] == (16, 24)
    # a hit counts as a use: alphas[9], not alphas[8], is dropped next
    fracops._ramp_moments(alphas[8], 4096)
    fracops._ramp_moments(alphas[0], 4096)
    fracops._ramp_moments(alphas[8], 4096)
    assert fracops._cached_moment_table.cache_info()[:2] == (18, 25)
    fracops._ramp_moments(alphas[9], 4096)
    assert fracops._cached_moment_table.cache_info()[:2] == (18, 26)
    # a table longer than _MOMENT_CACHE_M is computed afresh and not kept
    got = fracops._ramp_moments(0.41, 6 * 4096)
    assert all(map(same_bits, got, uncut_ramp_moments(0.41, 6 * 4096)))
    assert fracops._cached_moment_table.cache_info()[:3] == (18, 26, 16)
    cold_moments()


def test_moments_are_read_only():
    cold_moments()
    for p, q in (fracops._ramp_moments(0.7, 300),       # computed and kept
                 fracops._ramp_moments(0.7, 300),       # the kept table
                 fracops._ramp_moments(0.7, 5000)):     # computed, not kept
        for arr in (p, q):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0.0
    assert fracops._ramp_moments(0.7, 300)[0][1] == uncut_ramp_moments(0.7, 1)[0][1]


def test_threads_building_weights_match_a_serial_build():
    alphas = [0.35, 0.6, 1.45, 2.2]
    grids = [make_grid(0.0, 1.0, 1.0, n) for n in (257, 4097, 1025, 4097)]
    cold_moments()
    serial = {(a, g.n_nodes): build_weights(g, a) for a in alphas for g in grids}
    cold_moments()
    results = {}
    errors = []

    def worker(alpha):
        try:
            for grid in grids:
                results[(alpha, grid.n_nodes)] = build_weights(grid, alpha)
        except Exception as exc:          # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(a,)) for a in alphas]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results.keys() == serial.keys()
    for key, want in serial.items():
        assert results[key].first.tobytes() == want.first.tobytes(), key
        assert results[key].band.tobytes() == want.band.tobytes(), key
    # three lengths for each alpha
    assert fracops._cached_moment_table.cache_info().currsize == 12


def test_apply_exact_splits_the_weights_once(monkeypatch):
    w = build_weights(make_grid(0.0, 1.0, 0.7, 1025), 0.8)
    rng = np.random.default_rng(5)
    vals = [rng.standard_normal(1025) for _ in range(3)]
    want = [build_weights(w.grid, 0.8).apply_exact(v).tobytes() for v in vals]
    split = fracops._int_slices
    sizes = []

    def counted(x, beta, cap):
        sizes.append(x.size)
        return split(x, beta, cap)

    monkeypatch.setattr(fracops, "_int_slices", counted)
    for v, expect in zip(vals, want):
        assert w.apply_exact(v).tobytes() == expect
    # the weights (first and band, 2n - 1 entries) once, then the values
    assert sizes == [2 * 1025 - 1, 1025, 1025, 1025]


def test_apply_fft_transforms_the_band_once(monkeypatch):
    w = build_weights(make_grid(0.0, 1.0, 1.0, 513), 0.6)
    rng = np.random.default_rng(6)
    vals = [rng.standard_normal(513) for _ in range(4)]
    want = [build_weights(w.grid, 0.6).apply_fft(v).tobytes() for v in vals]
    rfft = np.fft.rfft
    calls = 0

    def counted(a, n):
        nonlocal calls
        calls += 1
        return rfft(a, n)

    monkeypatch.setattr(np.fft, "rfft", counted)
    for v, expect in zip(vals, want):
        assert w.apply_fft(v).tobytes() == expect
    assert calls == len(vals) + 1


@pytest.mark.parametrize("alpha,rho,n", [
    (0.3, 1.0, 2), (0.5, 1.0, 3), (1.0, 0.7, 33), (1.6, 1.4, 130),
    (0.25, 2.0, 1025),
])
def test_fallback_inputs_after_a_cached_split_keep_their_bytes(alpha, rho, n):
    # the inputs of the test_apply_exact_falls_back_* tests, each on an
    # instance whose weight split a successful call has already cached
    grid = make_grid(0.0, 1.4, rho, n)
    w = build_weights(grid, alpha)
    rng = np.random.default_rng(n)
    inputs = {
        "growing": np.geomspace(1e-150, 1e150, n) * (-1.0) ** np.arange(n),
        "huge": np.where(rng.random(n) < 0.5, -1e300, 1e300),
        "nan": np.where(np.arange(n) == n // 2, np.nan, 1.0),
        "tiny": rng.standard_normal(n) * 1e-290,
    }
    normal = rng.standard_normal(n)
    first = w.apply_exact(normal)
    for kind, vals in inputs.items():
        fresh = build_weights(grid, alpha).apply_exact(vals)
        assert w.apply_exact(vals).tobytes() == fresh.tobytes(), kind
        assert fresh.tobytes() == w.apply(vals).tobytes(), kind
    assert w.apply_exact(normal).tobytes() == first.tobytes()
    # the other half of the level-range guard
    w = build_weights(make_grid(0.0, 1e30, 1.0, 65), 2.5)
    w.apply_exact(np.random.default_rng(65).standard_normal(65))
    vals = np.where(np.random.default_rng(65).random(65) < 0.5, -1e250, 1e250)
    with np.errstate(over="ignore", invalid="ignore"):
        assert w.apply_exact(vals).tobytes() == w.apply(vals).tobytes()


def test_apply_exact_second_call_peaks_lower():
    # the first call also builds and keeps the weight slices and spectra
    w = build_weights(make_grid(0.0, 1.0, 1.0, 4097), 0.5)
    vals = np.random.default_rng(1).standard_normal(4097)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            w.apply_exact(vals)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0]
