"""One sha256 per gfcalc CLI command and per solver-library case.

Runs against the package in a given ``src`` directory and prints one
``<sha256>  <label>`` line per CLI command, then one per library case, then
the library total.  Two runs on one tree must print the same lines, and so
must two trees whose change keeps every output's bytes, so a diff of two
outputs names each command or case whose bytes moved.  Uses only the
standard library and numpy, and writes only to a temporary directory.  Exits
1 if gfcalc does not import from ``src``, or, after printing every line, if
a CLI command crashed (``Traceback``) or was refused by argparse (``usage:``):
no command in the matrix is meant to do either.

CLI: ``python -m gfcalc`` solve, study, operator integral|deriv|caputo, ml
and stirling on fixed inputs, each in its own process with its own hash
seed, hashed over its exit code, stdout, stderr and output file.  The inputs
are a problem file for every rhs at an order below 1 and one between 1 and
2, with rho cycling through 0.5, 1 and 2, one with y0 1e7, whose Picard
stop needs the tol scaled with the solution, two at the ends of the solver's
range (y0 1e307, and alpha 149.5 with an overflowing Taylor polynomial), and
CSVs on 257 nodes: sin(3x), seeded standard-normal noise, that noise times
1e-290, seeded signs times 1e300, and noise spread over e^-20..e^20.  The
operator cases include ones of order 7, whose weights take more slices than
the others, ``operator integral noise.csv alpha 25``, whose weights take 15,
and sums that take more than one piece of 25 slices: ``operator integral
sin.csv alpha 60``, whose weights take 35, and ``operator integral
spread.csv`` at alpha 0.5 and 60, on values +-(1 + k/257) 2^(-500..500)
built without numpy ufuncs.  ``operator integral short.csv alpha 40`` sums
on [0, 1e-8], where every weight underflows to 0.  The ml cases include two
negative arguments whose series cancel past its accuracy target.

Library: 144 problems (six right-hand sides x alpha 0.4, 0.8, 1.3, 1.9 x
rho 0.5, 1, 2 x n 33, 257; y0 0.5, or (0.5, -0.25) above order 1; h_star 1,
K 1, tol 1e-12), each hashed over the Picard values and deltas, the
marching values, ``picard_apply`` of the Picard solution,
``volterra_residual`` and ``oracle_residual``, and the type and text of
every refusal instead of a value.

    python tools/output_bytes.py [SRC] > digests.txt     # SRC defaults to ./src
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CLI_RHS = {"zero": {}, "linear": {"lambda": -1.0}, "power_forcing": {"beta": 1.5, "c": 0.3},
           "sin": {"c": 1.0}, "logistic": {"lambda": 0.5}}
CLI_ORDERS = {0.6: "[0.5]", 1.4: "[0.5, -0.25]"}     # alpha: y0, ceil(alpha) entries
CLI_RHOS = (0.5, 1.0, 2.0)
CSV_NODES = 257

LIB_RHS = (("zero", {}), ("linear", {"lambda": -1.0}), ("linear", {"lambda": 3.0}),
           ("power_forcing", {"beta": 1.5, "c": 0.3}), ("sin", {"c": 1.0}),
           ("logistic", {"lambda": 0.5}))
LIB_ALPHAS = (0.4, 0.8, 1.3, 1.9)
LIB_RHOS = (0.5, 1.0, 2.0)
LIB_NODES = (33, 257)


def digest(parts) -> str:
    """sha256 over each part, length-prefixed; None (no file written) as b"-"."""
    h = hashlib.sha256()
    for part in parts:
        h.update(b"-" if part is None else len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def problem_text(rhs: str, alpha: float, rho: float) -> str:
    lines = [f"problem.alpha = {alpha}", f"problem.rho = {rho}",
             f"problem.y0 = {CLI_ORDERS[alpha]}", f"problem.rhs = {rhs}"]
    lines += [f"problem.rhs.{name} = {value}" for name, value in CLI_RHS[rhs].items()]
    lines += ["problem.h_star = 1.0", "problem.K = 1.0",
              "solver.n_nodes = 129", "solver.tol = 1e-12"]
    return "\n".join(lines) + "\n"


def write_csv(path: Path, x: np.ndarray, f: np.ndarray) -> None:
    rows = ["x,f"] + [f"{xv!r},{fv!r}" for xv, fv in zip(x.tolist(), f.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_inputs(work: Path) -> list[tuple[str, list[str]]]:
    """Write the CLI inputs into ``work`` and return (label, argv) per
    command, argv relative to ``work``."""
    commands = []
    for i, (rhs, alpha) in enumerate((r, a) for r in CLI_RHS for a in CLI_ORDERS):
        name = f"{rhs}-{alpha}.prob"
        (work / name).write_text(problem_text(rhs, alpha, CLI_RHOS[i % len(CLI_RHOS)]),
                                 encoding="utf-8")
        commands.append((f"solve {name}", ["solve", name, "-o", "out.csv"]))
        commands.append((f"study {name}", ["study", name, "--resolutions", "33,65"]))
    (work / "missing.prob").write_text(problem_text("linear", 0.6, 1.0).replace(
        "problem.K = 1.0\n", ""), encoding="utf-8")
    commands.append(("solve missing.prob", ["solve", "missing.prob", "-o", "out.csv"]))
    # y near 1e7, where one ulp of y is above tol 1e-12, so Picard stops only
    # on a tol scaled with max |y|; y0 1e6 would reach an exact fixed point
    (work / "big.prob").write_text(problem_text("linear", 0.6, 1.0).replace(
        "problem.y0 = [0.5]", "problem.y0 = [1e7]").replace(
        "problem.K = 1.0", "problem.K = 1e7"), encoding="utf-8")
    # the ends of the solver's range: y near 1e307, whose FFT sum overflows
    # and takes the exact sum instead, and a Taylor polynomial that overflows
    (work / "huge.prob").write_text(problem_text("linear", 0.6, 1.0).replace(
        "problem.y0 = [0.5]", "problem.y0 = [1e307]").replace(
        "problem.rhs.lambda = -1.0", "problem.rhs.lambda = 1.0").replace(
        "problem.K = 1.0", "problem.K = 1e307"), encoding="utf-8")
    (work / "taylor.prob").write_text(problem_text("zero", 0.6, 1.0).replace(
        "problem.alpha = 0.6", "problem.alpha = 149.5").replace(
        "problem.y0 = [0.5]", "problem.y0 = [" + ", ".join(["1.0"] * 150) + "]").replace(
        "problem.h_star = 1.0", "problem.h_star = 1e6"), encoding="utf-8")
    for name in ("big.prob", "huge.prob", "taylor.prob"):
        commands.append((f"solve {name}", ["solve", name, "-o", "out.csv"]))

    x = np.linspace(0.0, 1.0, CSV_NODES)
    data = {"sin.csv": (np.sin(3.0 * x), "0,3"),
            "noise.csv": (np.random.default_rng(2014).standard_normal(CSV_NODES), None)}
    for csv, (f, init) in data.items():
        write_csv(work / csv, x, f)
        init = init or f"{float(f[0])!r},0"   # numpy >= 2 reprs np.float64(...)
        for kind, alpha, rho, extra in (("integral", "0.5", "2.0", []),
                                        ("deriv", "0.6", "1.0", []),
                                        ("caputo", "1.5", "0.5", [f"--init={init}"]),
                                        ("integral", "7.0", "1.0", [])):
            argv = ["operator", kind, csv, "--alpha", alpha, "--rho", rho, "--a", "0"]
            commands.append((f"operator {kind} {csv} alpha {alpha}", argv + extra))
    # order 25, whose weights take 15 slices at 257 nodes
    commands.append(("operator integral noise.csv alpha 25",
                     ["operator", "integral", "noise.csv", "--alpha", "25", "--rho", "1.0",
                      "--a", "0"]))
    commands.append(("operator caputo sin.csv without --init",
                     ["operator", "caputo", "sin.csv", "--alpha", "0.5", "--rho", "1.0",
                      "--a", "0"]))
    # the ends of the exact sum's range: the noise scaled near the underflow
    # and the overflow thresholds, and order 7 on data spread over e^+-20,
    # where the weights and the values both take more than 6 slices
    rng = np.random.default_rng(19)
    ends = {"tiny.csv": ("0.5", data["noise.csv"][0] * 1e-290),
            "huge.csv": ("0.5", np.where(rng.random(CSV_NODES) < 0.5, -1e300, 1e300)),
            "wide.csv": ("7.0", rng.standard_normal(CSV_NODES)
                         * np.exp(rng.uniform(-20.0, 20.0, CSV_NODES)))}
    for csv, (alpha, f) in ends.items():
        write_csv(work / csv, x, f)
        commands.append((f"operator integral {csv} alpha {alpha}",
                         ["operator", "integral", csv, "--alpha", alpha, "--rho", "1.0",
                          "--a", "0"]))
    # sums past one piece of 25 slices: order 60, whose weights take 35, and
    # values spread over 2^-500..2^500, built in plain Python because numpy
    # ufuncs may round differently on different CPUs; and order 40 on
    # [0, 1e-8], whose weights all underflow to 0
    spread = [math.ldexp((-1) ** k * (1 + k / CSV_NODES), round(-500 + 1000 * k / (CSV_NODES - 1)))
              for k in range(CSV_NODES)]
    write_csv(work / "spread.csv", x, np.array(spread))
    (work / "short.csv").write_text("x,f\n0,1\n1e-8,1\n", encoding="utf-8")
    for csv, alpha in (("sin.csv", "60"), ("spread.csv", "0.5"), ("spread.csv", "60"),
                       ("short.csv", "40")):
        commands.append((f"operator integral {csv} alpha {alpha}",
                         ["operator", "integral", csv, "--alpha", alpha, "--rho", "1.0",
                          "--a", "0"]))

    # the last two lose their accuracy to cancellation and are refused
    for alpha, z in (("1", "1"), ("0.5", "-1.5"), ("1.5", "2.5"), ("1", "600"),
                     ("1", "-30"), ("0.9", "-20")):
        commands.append((f"ml {alpha} {z}", ["ml", alpha, z]))
    for args in (("1", "1", "4"), ("2", "3", "6")):
        commands.append((f"stirling {' '.join(args)}", ["stirling", *args]))
    return commands


def run_cli(src: Path) -> list[str]:
    """Print one line per CLI command; return the labels of the commands
    that crashed or were refused by argparse."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONHASHSEED", None)       # each process draws its own seed
    failed = []
    with tempfile.TemporaryDirectory(prefix="output_bytes_") as tmp:
        work = Path(tmp)
        for label, args in write_inputs(work):
            out = work / "out.csv"
            out.unlink(missing_ok=True)
            done = subprocess.run([sys.executable, "-m", "gfcalc", *args], cwd=work,
                                  env=env, capture_output=True)
            written = out.read_bytes() if out.exists() else None
            code = str(done.returncode).encode()
            print(f"{digest((code, done.stdout, done.stderr, written))}  {label}",
                  flush=True)
            lines = done.stderr.splitlines()
            if any(line.startswith((b"Traceback", b"usage:")) for line in lines):
                failed.append(label)
    return failed


def outcome(call) -> bytes:
    """The bytes of ``call()``'s value, or its refusal's type and text."""
    try:
        value = call()
    except Exception as exc:                    # noqa: BLE001 - recorded, not handled
        return f"{type(exc).__name__}: {exc}".encode()
    if hasattr(value, "tobytes"):
        return value.tobytes()
    return float(value).hex().encode()


def case_digest(solver, rhs: str, params: dict, alpha: float, rho: float, n: int) -> str:
    problem = solver.IVProblem(alpha=alpha, rho=rho,
                               y0=(0.5,) if alpha < 1.0 else (0.5, -0.25),
                               rhs=solver.make_rhs(rhs, params), h_star=1.0, K=1.0)
    config = solver.SolverConfig(n_nodes=n, tol=1e-12)
    parts = []
    try:
        y, report = solver.solve_picard(problem, config)
        parts += [y.values.tobytes(), report.deltas.tobytes(),
                  float(report.residual).hex().encode()]
    except Exception as exc:                    # noqa: BLE001 - recorded, not handled
        parts.append(f"{type(exc).__name__}: {exc}".encode())
        y = None
    parts.append(outcome(lambda: solver.solve_marching(problem, config).values))
    if y is not None:
        weights = solver.build_weights(y.grid, alpha)
        parts.append(outcome(lambda: solver.picard_apply(y, problem, weights).values))
        parts.append(outcome(lambda: solver.volterra_residual(y, problem)))
        parts.append(outcome(lambda: solver.oracle_residual(y, problem)))
    return digest(parts)


def run_lib() -> None:
    """Print one line per library case, then the digest of those lines."""
    from gfcalc import solver
    total = hashlib.sha256()
    for rhs, params in LIB_RHS:
        for alpha in LIB_ALPHAS:
            for rho in LIB_RHOS:
                for n in LIB_NODES:
                    line = (f"{case_digest(solver, rhs, params, alpha, rho, n)}  "
                            f"{rhs} {params} alpha {alpha} rho {rho} n {n}")
                    total.update(f"{line}\n".encode())
                    print(line, flush=True)
    cases = len(LIB_RHS) * len(LIB_ALPHAS) * len(LIB_RHOS) * len(LIB_NODES)
    print(f"{total.hexdigest()}  all {cases} cases")


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src")
    src = src.resolve()
    sys.path.insert(0, str(src))    # the CLI's processes get it as PYTHONPATH
    found = importlib.util.find_spec("gfcalc")
    if found is None or not Path(found.origin).resolve().is_relative_to(src):
        print(f"error: gfcalc does not import from {src}: {found and found.origin}",
              file=sys.stderr)
        return 1
    failed = run_cli(src)
    run_lib()
    for label in failed:
        print(f"error: {label} crashed or was refused by argparse", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
