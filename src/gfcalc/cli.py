"""Command line front end.

Subcommands:

    solve <problem-file> -o <csv>        solve the IVP, write x,y CSV
    operator <kind> <csv> --alpha --rho --a [--init]
                                         apply integral/deriv/caputo to data
    ml <alpha> <z>                       Mittag-Leffler value
    stirling <r> <m> <max_n>             exact operator-expansion triangle
    study <problem-file> --resolutions 256,512,...
                                         grid-refinement error study

Exit codes: 0 success, 1 input error, 2 computation failure.  All CSV numbers
use 17 significant digits so outputs are reproducible bit for bit and parse
back losslessly.

Only ``specialfn``, which needs no numpy, is imported here: ``ml``,
``stirling``, ``--help`` and usage errors never import numpy, and each
other command imports the modules it uses when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .specialfn import ConvergenceError, mittag_leffler, stirling_table

__all__ = ["main", "entry"]

_NUM = "{:.16e}".format


# ---------------------------------------------------------------------------
# csv helpers
# ---------------------------------------------------------------------------

def _write_xy(fh, header: str, x: np.ndarray, y: np.ndarray,
              partial: bool = False) -> None:
    if partial:
        fh.write("# PARTIAL\n")
    fh.write(header + "\n")
    for xv, yv in zip(x, y):
        fh.write(f"{_NUM(xv)},{_NUM(yv)}\n")


def read_xy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column CSV with a header whose first field is ``x``.

    Lines starting with ``#`` are comments.  Accepts the headers this tool
    itself writes (x,y / x,result) as well as x,f, so outputs chain back in.
    """
    import numpy as np

    xs: list[float] = []
    fs: list[float] = []
    header_seen = False
    # utf-8-sig drops the byte order mark that spreadsheet exports often write
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            fields = [part.strip() for part in line.split(",")]
            if not header_seen:
                if len(fields) != 2 or fields[0] != "x" or not fields[1]:
                    raise ValueError(
                        f"{path}:{lineno}: expected header 'x,<name>', got {line!r}"
                    )
                header_seen = True
                continue
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected two comma-separated values, got {line!r}"
                )
            try:
                xv, fv = float(fields[0]), float(fields[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: could not parse numbers from {line!r}"
                ) from None
            if not (math.isfinite(xv) and math.isfinite(fv)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            xs.append(xv)
            fs.append(fv)
    if not header_seen:
        raise ValueError(f"{path}: no header line found")
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(xs)}")
    x = np.array(xs)
    f = np.array(fs)
    if np.any(np.diff(x) <= 0.0):
        raise ValueError(f"{path}: x column must be strictly increasing")
    return x, f


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _print_report(report: SolverReport) -> None:
    print(f"h_used = {_NUM(report.h_used)}")
    print(f"M = {_NUM(report.M)}")
    print(f"iterations = {report.iterations}")
    print(f"fft_iterations = {report.fft_iterations}")
    print(f"converged = {'yes' if report.converged else 'no'}")
    print(f"residual = {_NUM(report.residual)}")
    print("deltas = " + " ".join(_NUM(d) for d in report.deltas))
    if report.omega_bounds is not None:
        print("omega_bounds = " + " ".join(_NUM(w) for w in report.omega_bounds))


def cmd_solve(args) -> int:
    from .problemfile import load_problem
    from .solver import NonConvergenceError, solve_picard

    problem, config = load_problem(args.problem)
    partial = False
    try:
        solution, report = solve_picard(problem, config)
    except NonConvergenceError as exc:
        solution, report = exc.solution, exc.report
        partial = True
        print(f"warning: {exc}", file=sys.stderr)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        _write_xy(fh, "x,y", solution.grid.x_nodes, solution.values, partial=partial)
    _print_report(report)
    return 2 if partial else 0


def cmd_operator(args) -> int:
    import numpy as np

    from .fracops import SampledFunction, gfd_caputo, gfd_riemann, gfi_apply, make_grid

    x_data, f_data = read_xy_csv(args.data)
    a = args.a
    span = x_data[-1] - x_data[0]
    if x_data[0] > a + 1e-9 * max(1.0, span):
        raise ValueError(
            f"data starts at x = {x_data[0]!r} but the operator needs values "
            f"from a = {a!r}; supply data covering [a, x_max]"
        )
    if not x_data[-1] > a:
        raise ValueError(f"data must extend beyond a = {a!r}")
    grid = make_grid(a, float(x_data[-1]), args.rho, len(x_data))
    f = SampledFunction(grid, np.interp(grid.x_nodes, x_data, f_data))
    caputo = args.kind == "caputo"
    if caputo != (args.init is not None):
        raise ValueError("kind 'caputo' requires --init c0[,c1,...]" if caputo
                         else "--init applies only to kind 'caputo'")
    if args.kind == "integral":
        result = gfi_apply(f, args.alpha)
    elif args.kind == "deriv":
        result = gfd_riemann(f, args.alpha)
    else:
        result = gfd_caputo(f, args.alpha, args.init)
    if args.kind != "integral":
        print("note: derivative values at the first node come from one-sided "
              "stencils and carry low confidence", file=sys.stderr)
    _write_xy(sys.stdout, "x,result", grid.x_nodes, result.values)
    return 0


def cmd_ml(args) -> int:
    print(repr(mittag_leffler(args.alpha, args.z)))
    return 0


def cmd_stirling(args) -> int:
    table = stirling_table(args.r, args.m, args.max_n)
    for row in table.rows:
        print(" ".join(str(v) for v in row))
    return 0


def _observed_orders(errs: list[float]) -> list[float]:
    # order column = log2 of the successive error ratio; nan when undefined
    orders = [math.nan]
    for e_prev, e_next in zip(errs, errs[1:]):
        if (math.isfinite(e_prev) and math.isfinite(e_next)
                and e_prev > 0.0 and e_next > 0.0):
            orders.append(math.log2(e_prev / e_next))
        else:
            orders.append(math.nan)
    return orders


def cmd_study(args) -> int:
    import numpy as np

    from .fracops import RefinementError
    from .problemfile import load_problem
    from .solver import contraction_respected, oracle_residual, solve_picard

    problem, config = load_problem(args.problem)
    ns = args.resolutions
    reference = problem.rhs.exact(problem)

    solutions = []
    reports = []
    for n in ns:
        solution, report = solve_picard(problem, dataclasses.replace(config, n_nodes=n))
        solutions.append(solution)
        reports.append(report)

    errs: list[float] = []
    if reference is not None:
        for sol in solutions:
            exact_vals = np.asarray(reference(sol.grid.x_nodes), dtype=float)
            errs.append(float(np.max(np.abs(sol.values - exact_vals))))
    else:
        finest = solutions[-1]
        for sol in solutions[:-1]:
            on_coarse = np.interp(sol.grid.s_nodes, finest.grid.s_nodes,
                                  finest.values)
            errs.append(float(np.max(np.abs(sol.values - on_coarse))))
        errs.append(math.nan)   # no independent reference for the finest grid

    orders = _observed_orders(errs)
    print("n_nodes,sup_error,observed_order")
    for n, err, order in zip(ns, errs, orders):
        print(f"{n},{_NUM(err)},{_NUM(order)}")

    if config.lipschitz_L is not None:
        respected = all(contraction_respected(rep) for rep in reports)
        print(f"contraction_bounds: {'respected' if respected else 'violated'}",
              file=sys.stderr)
    try:
        resid = oracle_residual(solutions[-1], problem)
    except RefinementError as exc:
        print(f"oracle_residual: nan  # {exc}", file=sys.stderr)
    else:
        print(f"oracle_residual: {_NUM(resid)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _init_list(text: str) -> tuple:
    try:
        return tuple(float(part.strip()) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _resolution_list(text: str) -> list[int]:
    try:
        ns = [int(part.strip(), 10) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if len(ns) < 1 or any(n < 2 for n in ns):
        raise argparse.ArgumentTypeError("resolutions must all be >= 2")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise argparse.ArgumentTypeError("resolutions must be strictly increasing")
    return ns


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfcalc",
        description="Fractional integrals, derivatives, and initial value "
                    "problems with a power-law kernel scale parameter rho.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an initial value problem")
    p_solve.add_argument("problem", help="problem file path")
    p_solve.add_argument("-o", "--output", required=True, metavar="CSV",
                         help="output CSV path (columns x,y)")
    p_solve.set_defaults(func=cmd_solve)

    p_op = sub.add_parser("operator", help="apply an operator to tabulated data")
    p_op.add_argument("kind", choices=("integral", "deriv", "caputo"))
    p_op.add_argument("data", help="input CSV with header x,f")
    p_op.add_argument("--alpha", type=float, required=True, help="order, > 0")
    p_op.add_argument("--rho", type=float, required=True, help="kernel scale, > 0")
    p_op.add_argument("--a", type=float, required=True, help="left endpoint, >= 0")
    p_op.add_argument("--init", type=_init_list, default=None, metavar="C0[,C1...]",
                      help="initial derivatives at a (caputo only); write a negative "
                           "first value as --init=-0.5,0")
    p_op.set_defaults(func=cmd_operator)

    p_ml = sub.add_parser("ml", help="Mittag-Leffler function value")
    p_ml.add_argument("alpha", type=float)
    p_ml.add_argument("z", type=float,
                      help="argument; write a negative z in exponent form after --, "
                           "as gfcalc ml 0.9 -- -1e-3")
    p_ml.set_defaults(func=cmd_ml)

    p_st = sub.add_parser("stirling", help="operator-expansion coefficient triangle")
    p_st.add_argument("r", type=int)
    p_st.add_argument("m", type=int)
    p_st.add_argument("max_n", type=int)
    p_st.set_defaults(func=cmd_stirling)

    p_study = sub.add_parser("study", help="grid-refinement error study")
    p_study.add_argument("problem", help="problem file path")
    p_study.add_argument("--resolutions", type=_resolution_list, required=True,
                         metavar="N1,N2,...", help="node counts, increasing")
    p_study.set_defaults(func=cmd_study)
    return parser


def _command_and_input(args) -> str:
    """The command and its main input, e.g. ``solve (lin.prob)``."""
    if args.command in ("solve", "study"):
        return f"{args.command} ({args.problem})"
    if args.command == "operator":
        return f"operator {args.kind} ({args.data})"
    return args.command     # ml and stirling take only numbers


def _refusals() -> tuple:
    """The numeric modules' refusals, imported only once an error gets here."""
    from .fracops import RefinementError
    from .solver import DomainExitError, MarchingError, NonConvergenceError

    return RefinementError, DomainExitError, MarchingError, NonConvergenceError


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: overflow in {_command_and_input(args)}: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:     # ml's refusal: matched before numpy loads
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _refusals() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
