"""Product-trapezoidal weights for the Abel kernel in s-space.

The mpmath comparisons build the classical product-trapezoid weights from
50-digit kernel moments, giving an independent oracle for every entry.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gfcalc.fracops import (QuadratureWeights, SampledFunction, build_weights,
                            make_grid)


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
    # by tens of ulp on the signed inputs, as it sums rounded products
    w = build_weights(make_grid(0.0, 1.4, 1.0, n), alpha)
    rng = np.random.default_rng(n)
    inputs = {"normal": rng.standard_normal(n),
              "uniform": rng.uniform(0.5, 2.0, n),
              "wide": rng.standard_normal(n) * np.exp(rng.uniform(-8.0, 8.0, n))}
    for kind, vals in inputs.items():
        got = w.apply_exact(vals)
        assert got[0] == 0.0 and not np.signbit(got[0]), kind
        assert w.apply_exact(vals).tobytes() == got.tobytes(), kind
        exact_vals = [Fraction(float(v)) for v in vals]
        for i in range(1, n):
            exact = sum(Fraction(float(wij)) * vj
                        for wij, vj in zip(w.row(i), exact_vals))
            ulp = Fraction(float(np.spacing(abs(float(exact)))))
            assert abs(Fraction(float(got[i])) - exact) <= ulp, (kind, i)


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


def test_apply_exact_falls_back_when_an_fft_output_is_off_an_integer(monkeypatch):
    w = build_weights(make_grid(0.0, 1.0, 1.0, 33), 1.6)
    vals = np.random.default_rng(33).standard_normal(33)
    want = w.apply(vals).tobytes()
    assert w.apply_exact(vals).tobytes() != want
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.25)
    assert w.apply_exact(vals).tobytes() == want
