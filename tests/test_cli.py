"""Command line behavior: exit codes, output formats, determinism, chaining."""

import math
import re

import numpy as np
import pytest

from gfcalc import cli
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


def test_solve_reruns_byte_identical(tmp_path, capsys):
    prob = write(tmp_path / "lin.prob", LIN_PROB)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out1, _ = run(capsys, ["solve", prob, "-o", str(a)])
    code2, out2, _ = run(capsys, ["solve", prob, "-o", str(b)])
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert out1 == out2


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


def _solve_argv(tmp_path, text):
    return ["solve", write(tmp_path / "p.prob", text), "-o", str(tmp_path / "o.csv")]


@pytest.mark.parametrize("make_argv", [
    lambda tmp: _solve_argv(tmp, LIN_PROB
                            .replace("problem.alpha = 0.5", "problem.alpha = 199.5")
                            .replace("problem.y0 = [1.0]",
                                     "problem.y0 = [" + ", ".join(["1.0"] * 200) + "]")),
    lambda tmp: _solve_argv(tmp, LIN_PROB
                            .replace("solver.n_nodes = 129", "solver.n_nodes = 33")
                            .replace("solver.lipschitz_L = 1.0", "solver.lipschitz_L = 1e40")),
    lambda tmp: ["operator", "integral",
                 write_xy(tmp / "far.csv", 1e10 + np.linspace(0.0, 1.0, 9), np.ones(9)),
                 "--alpha", "0.5", "--rho", "40", "--a", "1e10"],
], ids=["gamma_in_step_h", "exp_in_contraction_bound", "a_pow_rho_in_s"])
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

    monkeypatch.setattr(cli, "oracle_residual", refuse)
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
