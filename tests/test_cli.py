"""Command line behavior: exit codes, output formats, determinism, chaining."""

import math
import re
import warnings

import numpy as np
import pytest

from gfcalc import ComputationError, fracops, solver
from gfcalc.cli import main, read_xy_csv
from gfcalc.fracops import RefinementError
from gfcalc.solver import SolverConfig, solve_picard
from gfcalc.problemfile import load_problem

LIN_PROB = """\
problem.alpha = 0.5
problem.rho = 1.0
problem.y0 = [1.0]
problem.rhs = linear
problem.rhs.lambda = -1.0
problem.h_star = 1.0
problem.K = 1.0
solver.n_nodes = 129
solver.tol = 1e-12
solver.lipschitz_L = 1.0
"""

ZERO_PROB = """\
problem.alpha = 0.7
problem.rho = 1.3
problem.y0 = [2.5]
problem.rhs = zero
problem.h_star = 1.0
problem.K = 1.0
solver.n_nodes = 33
"""

DATA_ROW = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3},-?\d\.\d{16}e[+-]\d{2,3}$")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_xy(path, x, f):
    lines = ["x,f"] + [f"{xv:.16e},{fv:.16e}" for xv, fv in zip(x, f)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# ml / stirling
# ---------------------------------------------------------------------------

def test_ml_exponential_value(capsys):
    code, out, _ = run(capsys, ["ml", "1", "1"])
    assert code == 0
    assert out == "2.718281828459045\n"


def test_ml_bad_order_is_input_error(capsys):
    code, _, err = run(capsys, ["ml", "0", "1"])
    assert code == 1
    assert "error:" in err


def test_ml_takes_a_negative_exponent_form_z_after_double_dash(capsys):
    # argparse reads -1e-3 as an option; after -- it is the value of z
    code, out, err = run(capsys, ["ml", "0.9", "--", "-1e-3"])
    assert (code, out, err) == (0, "0.9989608421099976\n", "")
    assert run(capsys, ["ml", "0.9", "-0.001"])[1] == out


def test_ml_series_failure_is_computation_error(capsys):
    code, _, err = run(capsys, ["ml", "1", "600"])
    assert code == 2
    assert "error:" in err


def test_stirling_triangle_output(capsys):
    code, out, _ = run(capsys, ["stirling", "1", "1", "4"])
    assert code == 0
    assert out.splitlines() == ["1", "1", "1 1", "1 3 1", "1 7 6 1"]


def test_stirling_zero_rows(capsys):
    code, out, _ = run(capsys, ["stirling", "1", "1", "0"])
    assert code == 0
    assert out == "1\n"


def test_stirling_bad_args(capsys):
    code, _, err = run(capsys, ["stirling", "0", "1", "3"])
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_csv_and_report(tmp_path, capsys):
    prob = write(tmp_path / "lin.prob", LIN_PROB)
    out_csv = tmp_path / "out.csv"
    code, out, _ = run(capsys, ["solve", prob, "-o", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 130
    assert all(DATA_ROW.match(line) for line in lines[1:])
    assert "h_used = " in out
    assert "converged = yes" in out
    assert "omega_bounds = " in out
    assert re.search(r"iterations = \d+", out)


RERUNS = {
    "solve": ["solve", "{prob}", "-o", "{out}"],
    "study": ["study", "{prob}", "--resolutions", "33,65"],
    "operator-integral": ["operator", "integral", "{data}",
                          "--alpha", "0.5", "--rho", "2.0", "--a", "0"],
    "operator-deriv": ["operator", "deriv", "{data}",
                       "--alpha", "0.6", "--rho", "1.4", "--a", "0"],
    "operator-caputo": ["operator", "caputo", "{data}", "--alpha", "1.5",
                        "--rho", "0.5", "--a", "0", "--init", "0,3"],
    "ml": ["ml", "0.5", "-1.5"],
    "stirling": ["stirling", "2", "3", "6"],
}


@pytest.mark.parametrize("command", RERUNS)
def test_command_reruns_byte_identical(command, tmp_path, capsys):
    # the first run computes its moment tables afresh, the second takes them
    # from the cache, so both must give the same bytes
    x = np.linspace(0.0, 1.0, 129)
    paths = {"prob": write(tmp_path / "lin.prob", LIN_PROB),
             "data": write_xy(tmp_path / "sin.csv", x, np.sin(3.0 * x))}
    fracops._cached_moment_table.cache_clear()
    runs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        argv = [arg.format(out=out, **paths) for arg in RERUNS[command]]
        code, stdout, stderr = run(capsys, argv)
        runs.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_solve_output_parses_back_losslessly(tmp_path, capsys):
    prob = write(tmp_path / "lin.prob", LIN_PROB)
    out_csv = tmp_path / "out.csv"
    assert run(capsys, ["solve", prob, "-o", str(out_csv)])[0] == 0
    x, y = read_xy_csv(str(out_csv))
    problem, config = load_problem(prob)
    sol, _ = solve_picard(problem, config)
    assert np.array_equal(x, sol.grid.x_nodes)
    assert np.array_equal(y, sol.values)


def test_solve_partial_on_nonconvergence(tmp_path, capsys):
    prob = write(tmp_path / "hard.prob", LIN_PROB + "solver.max_iter = 3\n")
    out_csv = tmp_path / "part.csv"
    code, out, err = run(capsys, ["solve", prob, "-o", str(out_csv)])
    assert code == 2
    assert out_csv.read_text().splitlines()[0] == "# PARTIAL"
    assert "converged = no" in out
    assert "no convergence" in err


def test_solve_missing_problem_file(tmp_path, capsys):
    code, _, err = run(capsys, ["solve", str(tmp_path / "nope.prob"),
                                "-o", str(tmp_path / "o.csv")])
    assert code == 1
    assert "error:" in err


def test_solve_bad_problem_file(tmp_path, capsys):
    broken = "\n".join(line for line in LIN_PROB.splitlines()
                       if not line.startswith("problem.alpha"))
    prob = write(tmp_path / "broken.prob", broken)
    code, _, err = run(capsys, ["solve", prob, "-o", str(tmp_path / "o.csv")])
    assert code == 1
    assert "problem.alpha" in err


def test_solve_power_forcing_refuses_beta_below_alpha_minus_one(tmp_path, capsys):
    text = (LIN_PROB.replace("problem.rhs = linear", "problem.rhs = power_forcing")
            .replace("problem.rhs.lambda = -1.0", "problem.rhs.beta = -0.5")
            .replace("problem.alpha = 0.5", "problem.alpha = 0.9"))
    prob = write(tmp_path / "forcing.prob", text)
    code, _, err = run(capsys, ["solve", prob, "-o", str(tmp_path / "o.csv")])
    assert code == 1
    assert err == ("error: power_forcing needs beta + 1 - alpha > 0, "
                   "got beta = -0.5, alpha = 0.9\n")


def test_solve_overflowing_rhs_is_one_error_line(tmp_path, capsys):
    # lambda y (1 - y) overflows at y = 1e10; numpy must not warn first
    text = (LIN_PROB.replace("problem.rhs = linear", "problem.rhs = logistic")
            .replace("problem.rhs.lambda = -1.0", "problem.rhs.lambda = 1e300")
            .replace("problem.K = 1.0", "problem.K = 1e10"))
    code, out, err = run(capsys, _solve_argv(tmp_path, text))
    assert code == 1
    assert out == ""
    assert err == "error: rhs is not finite on the existence box\n"


@pytest.mark.parametrize("command", ["solve", "study"])
def test_overflowing_taylor_polynomial_is_one_overflow_line(tmp_path, capsys, command):
    # the Taylor polynomial of 150 ones overflows at h_star 1e6: refused by
    # taylor_poly before any rhs value, as an overflow (exit 2), with one
    # line whatever the rhs, the bounded sin too, and numpy must not warn
    # first
    text = (ZERO_PROB.replace("problem.alpha = 0.7", "problem.alpha = 149.5")
            .replace("problem.rho = 1.3", "problem.rho = 1.0")
            .replace("problem.y0 = [2.5]",
                     "problem.y0 = [" + ", ".join(["1.0"] * 150) + "]")
            .replace("problem.h_star = 1.0", "problem.h_star = 1e6")
            .replace("solver.n_nodes = 33", "solver.n_nodes = 129"))
    rhs = {"zero": "problem.rhs = zero",
           "linear": "problem.rhs = linear\nproblem.rhs.lambda = -1.0",
           "sin": "problem.rhs = sin"}
    options = {"solve": ["-o", str(tmp_path / "o.csv")], "study": ["--resolutions", "33,65"]}
    prob = str(tmp_path / "t.prob")
    for name, lines in rhs.items():
        write(tmp_path / "t.prob", text.replace("problem.rhs = zero", lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [command, prob, *options[command]])
        assert (code, out) == (2, ""), name
        assert err == (f"error: overflow in {command} ({prob}): "
                       "Taylor polynomial T is not finite\n"), name


def test_solve_near_the_overflow_threshold_converges(tmp_path, capsys):
    # the FFT sum of y = 1e307 overflows; that update is redone with the
    # exact sum like any other the FFT does not serve, so the solve
    # converges, quietly, with the relative error of the same problem at
    # y0 = 1
    rel_errors = []
    for y0 in ("1.0", "1e307"):
        text = (LIN_PROB.replace("problem.y0 = [1.0]", f"problem.y0 = [{y0}]")
                .replace("problem.rhs.lambda = -1.0", "problem.rhs.lambda = 1.0")
                .replace("problem.K = 1.0", f"problem.K = {y0}")
                .replace("solver.n_nodes = 129", "solver.n_nodes = 257")
                .replace("solver.lipschitz_L = 1.0\n", ""))
        argv = _solve_argv(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert "converged = yes" in out
        problem, _ = load_problem(argv[1])
        x, y = read_xy_csv(argv[3])
        exact = problem.rhs.exact(problem)(x)
        rel_errors.append(float(np.max(np.abs(y - exact))) / float(y0))
    assert rel_errors[1] == pytest.approx(rel_errors[0], rel=1e-8)


NUMERIC_REFUSALS = {
    "RefinementError": ("solve", lambda: RefinementError("no mesh convergence")),
    "DomainExitError": ("solve", lambda: solver.DomainExitError("iterate leaves the box")),
    "MarchingError": ("solve", lambda: solver.MarchingError("node 3 did not settle", 3)),
    # cmd_solve writes a partial solution for this one, so only study reaches main
    "NonConvergenceError": ("study", lambda: solver.NonConvergenceError(
        "no convergence in 3 iterations", None, None)),
    "ComputationError": ("solve", lambda: ComputationError("refused")),
}


@pytest.mark.parametrize("name", NUMERIC_REFUSALS)
def test_numeric_refusal_is_one_error_line_and_exit_2(name, tmp_path, capsys, monkeypatch):
    command, make = NUMERIC_REFUSALS[name]
    exc = make()

    def refuse(problem, config):
        raise exc

    monkeypatch.setattr(solver, "solve_picard", refuse)
    prob = write(tmp_path / "lin.prob", LIN_PROB)
    argv = (["solve", prob, "-o", str(tmp_path / "o.csv")] if command == "solve"
            else ["study", prob, "--resolutions", "33,65"])
    assert run(capsys, argv) == (2, "", f"error: {exc}\n")


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def test_operator_integral_of_ones(tmp_path, capsys):
    src = write_xy(tmp_path / "ones.csv", np.linspace(0.0, 1.0, 65), np.ones(65))
    code, out, err = run(capsys, ["operator", "integral", src,
                                  "--alpha", "0.5", "--rho", "2.0", "--a", "0"])
    assert code == 0
    assert "one-sided" not in err
    dest = tmp_path / "res.csv"
    dest.write_text(out, encoding="utf-8")
    x, f = read_xy_csv(str(dest))
    want = np.sqrt(x**2 / 2.0) / math.gamma(1.5)
    assert np.max(np.abs(f - want)) <= 1e-13


def test_operator_caputo_kills_constant(tmp_path, capsys):
    x = np.linspace(0.1, 1.2, 65)
    src = write_xy(tmp_path / "const.csv", x, np.full(65, 3.2))
    code, out, err = run(capsys, ["operator", "caputo", src,
                                  "--alpha", "0.5", "--rho", "1.3",
                                  "--a", "0.1", "--init", "3.2"])
    assert code == 0
    assert "one-sided" in err
    dest = tmp_path / "res.csv"
    dest.write_text(out, encoding="utf-8")
    _, f = read_xy_csv(str(dest))
    assert np.max(np.abs(f)) <= 1e-10


def test_operator_derivative_then_integral_chains(tmp_path, capsys):
    # round trip through two CLI invocations recovers the data, and the
    # defect shrinks under refinement
    errs = []
    for n in (513, 2049):
        x = np.linspace(0.2, 1.5, n)
        f = np.sin(1.3 * (x - 0.2)) + 0.7 * (x - 0.2) ** 2
        src = write_xy(tmp_path / f"in{n}.csv", x, f)
        args = ["--alpha", "0.6", "--rho", "1.4", "--a", "0.2"]
        code, out, _ = run(capsys, ["operator", "deriv", src] + args)
        assert code == 0
        mid = tmp_path / f"d{n}.csv"
        mid.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, ["operator", "integral", str(mid)] + args)
        assert code == 0
        back = tmp_path / f"b{n}.csv"
        back.write_text(out, encoding="utf-8")
        xo, fo = read_xy_csv(str(back))
        want = np.sin(1.3 * (xo - 0.2)) + 0.7 * (xo - 0.2) ** 2
        errs.append(float(np.max(np.abs(fo - want))))
    assert errs[0] <= 4.0e-4
    assert errs[1] <= 1.0e-4
    assert errs[1] <= errs[0] / 3.0


def test_operator_init_only_for_caputo(tmp_path, capsys):
    src = write_xy(tmp_path / "d.csv", np.linspace(0.0, 1.0, 17), np.ones(17))
    code, _, err = run(capsys, ["operator", "integral", src, "--alpha", "0.5",
                                "--rho", "1.0", "--a", "0", "--init", "1.0"])
    assert code == 1
    assert "--init" in err
    code, _, err = run(capsys, ["operator", "caputo", src, "--alpha", "0.5",
                                "--rho", "1.0", "--a", "0"])
    assert code == 1
    assert "--init" in err
    code, _, err = run(capsys, ["operator", "caputo", src, "--alpha", "0.5",
                                "--rho", "1.0", "--a", "0", "--init", "1,x"])
    assert code == 1
    assert "--init: expected comma-separated numbers, got '1,x'" in err


def test_operator_caputo_takes_a_negative_first_init_value(tmp_path, capsys):
    # "--init -0.5,0" reads as an option to argparse; the = form passes it on
    x = np.linspace(0.0, 1.0, 33)
    src = write_xy(tmp_path / "d.csv", x, np.sin(3.0 * x) - 0.5)
    code, out, err = run(capsys, ["operator", "caputo", src, "--alpha", "1.5",
                                  "--rho", "1", "--a", "0", "--init=-0.5,0"])
    assert code == 0
    dest = tmp_path / "res.csv"
    dest.write_text(out, encoding="utf-8")
    _, f = read_xy_csv(str(dest))
    x_in, f_in = read_xy_csv(src)
    grid = fracops.make_grid(0.0, 1.0, 1.0, 33)
    want = fracops.gfd_caputo(fracops.SampledFunction(grid, np.interp(grid.x_nodes, x_in, f_in)),
                              1.5, (-0.5, 0.0)).values
    assert np.array_equal(f, want)


def test_operator_rejects_bad_csv(tmp_path, capsys):
    args = ["--alpha", "0.5", "--rho", "1.0", "--a", "0"]

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("t,f\n0.0,1.0\n1.0,1.0\n", encoding="utf-8")
    assert run(capsys, ["operator", "integral", str(bad_header)] + args)[0] == 1

    non_monotone = tmp_path / "m.csv"
    non_monotone.write_text("x,f\n0.0,1.0\n0.5,1.0\n0.4,1.0\n", encoding="utf-8")
    assert run(capsys, ["operator", "integral", str(non_monotone)] + args)[0] == 1

    short = tmp_path / "s.csv"
    short.write_text("x,f\n0.0,1.0\n", encoding="utf-8")
    assert run(capsys, ["operator", "integral", str(short)] + args)[0] == 1

    assert run(capsys, ["operator", "integral", str(tmp_path / "no.csv")] + args)[0] == 1

    # each refusal names the file and the line; comment lines count
    for name, text, where in [
        ("row.csv", "x,f\n0.0,1.0\n0.5\n", ":3: expected two comma-separated values"),
        ("num.csv", "x,f\n0.0,1.0\n0.5,abc\n", ":3: could not parse numbers"),
        ("inf.csv", "x,f\n0.0,1.0\n0.5,inf\n", ":3: non-finite value"),
        ("empty.csv", "# no data\n\n", ": no header line found"),
        ("partial.csv", "# PARTIAL\nx,y\n0.0,1.0\n0.5\n",
         ":4: expected two comma-separated values"),
    ]:
        path = write(tmp_path / name, text)
        code, _, err = run(capsys, ["operator", "integral", path] + args)
        assert code == 1
        assert err.startswith(f"error: {path}{where}"), err


def test_operator_data_must_cover_left_endpoint(tmp_path, capsys):
    src = write_xy(tmp_path / "d.csv", np.linspace(0.5, 1.0, 17), np.ones(17))
    code, _, err = run(capsys, ["operator", "integral", src,
                                "--alpha", "0.5", "--rho", "1.0", "--a", "0"])
    assert code == 1
    assert "data starts at" in err


def test_operator_data_must_extend_beyond_left_endpoint(tmp_path, capsys):
    src = write_xy(tmp_path / "neg.csv", np.array([-2.0, -1.0]), np.ones(2))
    code, out, err = run(capsys, ["operator", "integral", src,
                                  "--alpha", "0.5", "--rho", "1.0", "--a", "0"])
    assert code == 1
    assert out == ""
    assert err == "error: data must extend beyond a = 0.0\n"


def test_operator_overflowing_transform_is_one_error_line(tmp_path, capsys):
    # (1e300)**2 overflows in the s transform; numpy must not warn first
    rows = np.concatenate(([0.0], np.geomspace(1e-3, 1e300, 9)))
    src = write_xy(tmp_path / "far.csv", rows, np.ones(10))
    code, out, err = run(capsys, ["operator", "integral", src,
                                  "--alpha", "0.5", "--rho", "2", "--a", "0"])
    assert code == 1
    assert out == ""
    assert err == "error: transformed length (b**rho - a**rho)/rho = inf unusable\n"


def test_operator_integral_whose_weights_all_underflow_is_zero(tmp_path, capsys):
    # on [0, 1e-8] the order-40 weights underflow to 0: the integral is 0
    src = write(tmp_path / "short.csv", "x,f\n0,1\n1e-8,1\n")
    code, out, err = run(capsys, ["operator", "integral", src,
                                  "--alpha", "40", "--rho", "1", "--a", "0"])
    assert code == 0
    assert "Traceback" not in err
    assert out.splitlines()[1:] == ["0.0000000000000000e+00,0.0000000000000000e+00",
                                    "1.0000000000000000e-08,0.0000000000000000e+00"]


def test_operator_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet exports often start with one; it must not reach the header
    x = np.linspace(0.0, 1.0, 33)
    plain = write_xy(tmp_path / "plain.csv", x, np.sin(3.0 * x))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    args = ["--alpha", "0.5", "--rho", "1.0", "--a", "0"]
    want = run(capsys, ["operator", "integral", plain] + args)
    assert want[0] == 0
    assert run(capsys, ["operator", "integral", str(bom)] + args) == want


def _solve_argv(tmp_path, text):
    return ["solve", write(tmp_path / "p.prob", text), "-o", str(tmp_path / "o.csv")]


@pytest.mark.parametrize("make_argv", [
    lambda tmp: _solve_argv(tmp, LIN_PROB
                            .replace("problem.alpha = 0.5", "problem.alpha = 2.0")
                            .replace("problem.rho = 1.0", "problem.rho = 1e200")
                            .replace("problem.y0 = [1.0]", "problem.y0 = [1.0, 0.0]")),
    lambda tmp: ["operator", "integral",
                 write_xy(tmp / "far.csv", 1e10 + np.linspace(0.0, 1.0, 9), np.ones(9)),
                 "--alpha", "0.5", "--rho", "40", "--a", "1e10"],
    lambda tmp: ["operator", "deriv",
                 write_xy(tmp / "cos.csv", np.linspace(0.0, 1.0, 65),
                          1.5e308 * np.cos(np.linspace(0.0, 1.0, 65))),
                 "--alpha", "0.5", "--rho", "1", "--a", "0"],
    lambda tmp: ["operator", "integral",
                 write_xy(tmp / "big.csv", np.linspace(0.0, 2.0, 65), np.full(65, 1.7e308)),
                 "--alpha", "3.5", "--rho", "0.5", "--a", "0"],
    lambda tmp: ["operator", "caputo",
                 write_xy(tmp / "low.csv", np.linspace(0.0, 1.0, 17), np.full(17, -1.7e308)),
                 "--alpha", "0.5", "--rho", "1", "--a", "0", "--init", "1e308"],
], ids=["pow_in_step_h", "a_pow_rho_in_s",
        "deriv_stencil", "integral_sum", "caputo_taylor_shift"])
def test_overflow_is_computation_failure(tmp_path, capsys, make_argv):
    # each case overflows a float operation deep inside the numerics
    argv = make_argv(tmp_path)
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    # the refusal names the command and its main input
    assert err.startswith(f"error: overflow in {argv[0]} ")
    assert argv[1] in err


def test_overflowing_contraction_bound_keeps_the_solve(tmp_path, capsys):
    # omega_j past the double range is reported as inf: the solve and its
    # CSV are those without L, and the study finds the bounds respected
    text = (LIN_PROB.replace("problem.y0 = [1.0]", "problem.y0 = [0.5]")
            .replace("solver.n_nodes = 129", "solver.n_nodes = 33"))
    prob = write(tmp_path / "big_l.prob",
                 text.replace("solver.lipschitz_L = 1.0", "solver.lipschitz_L = 1e300"))
    code, out, err = run(capsys, ["solve", prob, "-o", str(tmp_path / "big_l.csv")])
    assert (code, err) == (0, "")
    omegas = [float(w) for w in re.search(r"omega_bounds = (.*)", out)[1].split()]
    assert math.isfinite(omegas[0]) and omegas[1:] and all(map(math.isinf, omegas[1:]))
    plain = write(tmp_path / "plain.prob",
                  text.replace("solver.lipschitz_L = 1.0\n", ""))
    assert run(capsys, ["solve", plain, "-o", str(tmp_path / "plain.csv")])[0] == 0
    assert (tmp_path / "big_l.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    code, _, err = run(capsys, ["study", prob, "--resolutions", "17,33"])
    assert code == 0
    assert "contraction_bounds: respected" in err


@pytest.mark.parametrize("command", ["solve", "study"])
def test_gamma_overflow_is_too_large_an_order(tmp_path, capsys, command):
    # Gamma(172) overflows in the existence step: an input error (exit 1),
    # as from `operator integral --alpha 171`, not a computation failure
    prob = write(tmp_path / "p.prob", LIN_PROB
                 .replace("problem.alpha = 0.5", "problem.alpha = 171.0")
                 .replace("problem.y0 = [1.0]",
                          "problem.y0 = [" + ", ".join(["1.0"] * 171) + "]"))
    options = {"solve": ["-o", str(tmp_path / "o.csv")], "study": ["--resolutions", "33,65"]}
    code, out, err = run(capsys, [command, prob, *options[command]])
    assert (code, out) == (1, "")
    assert err == "error: alpha = 171.0 too large: gamma overflow\n"


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def test_study_zero_rhs_has_zero_error(tmp_path, capsys):
    prob = write(tmp_path / "zero.prob", ZERO_PROB)
    code, out, err = run(capsys, ["study", prob, "--resolutions", "17,33"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_nodes,sup_error,observed_order"
    assert len(lines) == 3
    for line, n in zip(lines[1:], (17, 33)):
        fields = line.split(",")
        assert fields[0] == str(n)
        assert float(fields[1]) == 0.0
        assert math.isnan(float(fields[2]))
    assert "oracle_residual:" in err
    assert "contraction_bounds" not in err      # no L configured


def test_study_linear_order_and_monitors(tmp_path, capsys):
    prob = write(tmp_path / "lin09.prob",
                 LIN_PROB.replace("problem.alpha = 0.5", "problem.alpha = 0.9"))
    code, out, err = run(capsys, ["study", prob,
                                  "--resolutions", "129,257,513,1025"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    errs = [float(r[1]) for r in rows]
    orders = [float(r[2]) for r in rows]
    assert math.isnan(orders[0])
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert orders[-1] >= 1.5
    assert "contraction_bounds: respected" in err
    assert re.search(r"oracle_residual: \d", err)


def test_study_without_reference_marks_finest_nan(tmp_path, capsys):
    text = """problem.alpha = 0.7
problem.rho = 1.0
problem.y0 = [0.3]
problem.rhs = sin
problem.h_star = 1.0
problem.K = 1.0
solver.n_nodes = 33
solver.tol = 1e-11
"""
    prob = write(tmp_path / "sin.prob", text)
    code, out, _ = run(capsys, ["study", prob, "--resolutions", "33,65,129"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert math.isnan(float(rows[-1][1]))
    assert float(rows[0][1]) > float(rows[1][1]) > 0.0


def test_study_reports_an_oracle_refusal(tmp_path, capsys, monkeypatch):
    reason = "no convergence to tol = 1e-10 within 16 mesh doublings (4194304 cells)"

    def refuse(y, problem):
        raise RefinementError(reason)

    monkeypatch.setattr(solver, "oracle_residual", refuse)
    prob = write(tmp_path / "zero.prob", ZERO_PROB)
    code, out, err = run(capsys, ["study", prob, "--resolutions", "17,33"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_nodes,sup_error,observed_order"
    assert [line.split(",")[0] for line in lines[1:]] == ["17", "33"]
    assert err == f"oracle_residual: nan  # {reason}\n"


def test_study_resolution_validation(tmp_path, capsys):
    prob = write(tmp_path / "zero.prob", ZERO_PROB)
    assert run(capsys, ["study", prob, "--resolutions", "0,10"])[0] == 1
    assert run(capsys, ["study", prob, "--resolutions", "64,32"])[0] == 1
    assert run(capsys, ["study", prob, "--resolutions", "abc"])[0] == 1


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0


def test_unknown_subcommand(capsys):
    assert run(capsys, ["fourier", "1"])[0] == 1
