"""One sha256 per gfcalc command over its exit code, stdout, stderr and file.

Runs ``python -m gfcalc`` solve, study, operator integral|deriv|caputo, ml
and stirling on fixed inputs, against the package in a given ``src``
directory, and prints one ``<sha256>  <label>`` line per command.  Two runs
on one tree must print the same lines, and so must two trees whose change
keeps every output's bytes, so a diff of two outputs names each command whose
bytes moved.  Each command runs in its own process with its own hash seed.

Inputs: a problem file for every rhs at an order below 1 and one between 1
and 2, with rho cycling through 0.5, 1 and 2, two at the ends of the
solver's range (y0 1e307, and alpha 149.5 with an overflowing Taylor
polynomial), and CSVs on 257 nodes:
sin(3x), seeded standard-normal noise, that noise times 1e-290, seeded signs
times 1e300, and noise spread over e^-20..e^20.  The operator cases include
ones of order 7, whose weights take more slices than the others, and the ml
cases two negative arguments whose series cancel past its accuracy target.
Uses only the standard library and numpy, and writes only to a temporary
directory.

    python tools/cli_bytes.py [SRC] > digests.txt     # SRC defaults to ./src
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RHS = {"zero": {}, "linear": {"lambda": -1.0}, "power_forcing": {"beta": 1.5, "c": 0.3},
       "sin": {"c": 1.0}, "logistic": {"lambda": 0.5}}
ORDERS = {0.6: "[0.5]", 1.4: "[0.5, -0.25]"}     # alpha: y0, ceil(alpha) entries
RHOS = (0.5, 1.0, 2.0)
NODES = 257


def problem_text(rhs: str, alpha: float, rho: float) -> str:
    lines = [f"problem.alpha = {alpha}", f"problem.rho = {rho}",
             f"problem.y0 = {ORDERS[alpha]}", f"problem.rhs = {rhs}"]
    lines += [f"problem.rhs.{name} = {value}" for name, value in RHS[rhs].items()]
    lines += ["problem.h_star = 1.0", "problem.K = 1.0",
              "solver.n_nodes = 129", "solver.tol = 1e-12"]
    return "\n".join(lines) + "\n"


def write_csv(path: Path, x: np.ndarray, f: np.ndarray) -> None:
    rows = ["x,f"] + [f"{xv!r},{fv!r}" for xv, fv in zip(x.tolist(), f.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_inputs(work: Path) -> list[tuple[str, list[str]]]:
    """Write the inputs into ``work`` and return (label, argv) per command,
    argv relative to ``work``."""
    commands = []
    for i, (rhs, alpha) in enumerate((r, a) for r in RHS for a in ORDERS):
        name = f"{rhs}-{alpha}.prob"
        (work / name).write_text(problem_text(rhs, alpha, RHOS[i % len(RHOS)]),
                                 encoding="utf-8")
        commands.append((f"solve {name}", ["solve", name, "-o", "out.csv"]))
        commands.append((f"study {name}", ["study", name, "--resolutions", "33,65"]))
    (work / "missing.prob").write_text(problem_text("linear", 0.6, 1.0).replace(
        "problem.K = 1.0\n", ""), encoding="utf-8")
    commands.append(("solve missing.prob", ["solve", "missing.prob", "-o", "out.csv"]))
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
    for name in ("huge.prob", "taylor.prob"):
        commands.append((f"solve {name}", ["solve", name, "-o", "out.csv"]))

    x = np.linspace(0.0, 1.0, NODES)
    data = {"sin.csv": (np.sin(3.0 * x), "0,3"),
            "noise.csv": (np.random.default_rng(2014).standard_normal(NODES), None)}
    for csv, (f, init) in data.items():
        write_csv(work / csv, x, f)
        init = init or f"{f[0]!r},0"
        for kind, alpha, rho, extra in (("integral", "0.5", "2.0", []),
                                        ("deriv", "0.6", "1.0", []),
                                        ("caputo", "1.5", "0.5", [f"--init={init}"]),
                                        ("integral", "7.0", "1.0", [])):
            argv = ["operator", kind, csv, "--alpha", alpha, "--rho", rho, "--a", "0"]
            commands.append((f"operator {kind} {csv} alpha {alpha}", argv + extra))
    commands.append(("operator caputo sin.csv without --init",
                     ["operator", "caputo", "sin.csv", "--alpha", "0.5", "--rho", "1.0",
                      "--a", "0"]))
    # the ends of the exact sum's range: the noise scaled near the underflow
    # and the overflow thresholds, and order 7 on data spread over e^+-20,
    # where the weights and the values both take more than 6 slices
    rng = np.random.default_rng(19)
    ends = {"tiny.csv": ("0.5", data["noise.csv"][0] * 1e-290),
            "huge.csv": ("0.5", np.where(rng.random(NODES) < 0.5, -1e300, 1e300)),
            "wide.csv": ("7.0", rng.standard_normal(NODES)
                         * np.exp(rng.uniform(-20.0, 20.0, NODES)))}
    for csv, (alpha, f) in ends.items():
        write_csv(work / csv, x, f)
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


def digest(code: int, stdout: bytes, stderr: bytes, written: bytes | None) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), stdout, stderr, written):
        if part is None:
            h.update(b"-")
        else:
            h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src")
    src = src.resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONHASHSEED", None)       # each process draws its own seed
    found = subprocess.run([sys.executable, "-c", "import gfcalc; print(gfcalc.__file__)"],
                           env=env, capture_output=True, text=True)
    if not found.stdout.startswith(str(src)):
        print(f"error: gfcalc does not import from {src}: {found.stdout or found.stderr}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="cli_bytes_") as tmp:
        work = Path(tmp)
        for label, args in write_inputs(work):
            out = work / "out.csv"
            out.unlink(missing_ok=True)
            done = subprocess.run([sys.executable, "-m", "gfcalc", *args], cwd=work,
                                  env=env, capture_output=True)
            written = out.read_bytes() if out.exists() else None
            print(f"{digest(done.returncode, done.stdout, done.stderr, written)}  {label}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
