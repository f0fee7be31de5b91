"""The gfcalc benchmark: one workload, one seed, one client.

    python3 perfbench/run.py --workload picard_solve --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; gfcalc is imported from ``src``.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` a
traced replay of the same operations gives the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs the workload at
tiny n.  See README.md beside this file.
"""

from __future__ import annotations

import os

import envinfo

# one BLAS/OpenMP thread, before numpy is imported here or in any child
for _var in envinfo.BLAS_PIN:
    os.environ[_var] = "1"

import argparse
import json
import pickle
import shutil
import signal
import statistics
import subprocess
import sys

import problems
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PROBE_N = 129
STEP_PROBE_DRAWS = 24
ML_PROBE_POINTS = 6


def run_client(spec, seconds: float, trace: bool) -> dict:
    """Run the workload in a fresh client process and return its result."""
    job = pickle.dumps({"spec": spec, "src_dir": SRC, "seconds": seconds,
                        "trace": trace})
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "client.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(job, timeout=seconds * 3 + 120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"client process exited with code {proc.returncode}")
    result = pickle.loads(out)
    if "error" in result:
        raise RuntimeError("client process failed:\n" + result["error"])
    return result


def tail(latencies: list[float]):
    """The highest percentile with at least ten samples above it:
    (value, percentile, samples).  Below eleven samples, the maximum."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 10, len(ordered) if len(ordered) <= 10 else 1)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered)


def step_probe(spec) -> str:
    """The guaranteed step against the existence theorem: how many of this
    run's draws had to be posed on the theorem's step, and how many draws
    over the full parameter ranges the solver refuses as drawn."""
    import numpy as np
    from gfcalc.solver import DomainExitError, SolverConfig, solve_picard
    ours = sum("h_star_drawn" in p for p in spec["pool"])
    rng = np.random.default_rng([spec["seed"], 11])
    drawn = [problems.draw_problem(rng, i, jitter=1.0) for i in range(STEP_PROBE_DRAWS)]
    outside = [p for p in drawn if not problems.within_guarantee(p)]
    refused = 0
    for p in outside:
        try:
            solve_picard(workloads.build_problem(p), SolverConfig(n_nodes=PROBE_N))
        except DomainExitError:
            refused += 1
    return (f"known defect: step_h uses exponent 1/alpha where the existence "
            f"theorem needs 1/(rho alpha), so for rho != 1 the guaranteed step can "
            f"be too long: {ours} of this run's {len(spec['pool'])} draws, which run "
            f"on the theorem's step instead; of {STEP_PROBE_DRAWS} full-range draws, "
            f"{len(outside)}, of which {refused} end in DomainExitError at n={PROBE_N} "
            f"as drawn.")


def ml_probe(seed: int) -> str:
    """gfcalc's Mittag-Leffler series against mpmath where it cancels."""
    import numpy as np
    from gfcalc.specialfn import ConvergenceError, mittag_leffler
    rng = np.random.default_rng([seed, 7])
    wrong, refused, worst = 0, 0, 0.0
    for _ in range(ML_PROBE_POINTS):
        alpha, z = float(rng.uniform(0.6, 1.5)), float(rng.uniform(-30.0, -5.0))
        want = problems.ml_mp(alpha, z)
        try:
            got = mittag_leffler(alpha, z)
        except ConvergenceError:
            refused += 1
            continue
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        wrong += rel > 1e-8
    return (f"known defect: mittag_leffler at {ML_PROBE_POINTS} points alpha in "
            f"[0.6, 1.5], z in [-30, -5]: {wrong} off by more than 1e-8 relative "
            f"(worst {worst:.2e}), {refused} refused.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny n ladders, for checking the benchmark itself")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the finally clauses stop the client
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "gfcalc", "__init__.py")):
        print(f"perfbench: no gfcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        spec = workloads.prepare(args.workload, args.seed, args.smoke, workdir)
        result = run_client(spec, args.seconds, bool(args.trace))
        notes = []
        if not args.trace:
            if args.workload != "operator_sweep":
                notes.append(step_probe(spec))
            if args.workload == "cli_study":
                notes.append(ml_probe(args.seed))
    except (RuntimeError, OSError, subprocess.SubprocessError,
            pickle.UnpicklingError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = result["latencies"]
    failures = result["failures"]
    ladder = workloads.ladder(spec)
    print(f"workload {args.workload}  seed {args.seed}  rounds {result['rounds']}  "
          f"ops {len(lat)}  closed loop, 1 client, n ladder {list(ladder)}")
    for msg in failures:
        print(f"FAILED {msg}")
    for note in notes:
        print(note)
    if args.trace:
        metrics = result["per_layer"]
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    else:
        value, pct, count = tail(lat)
        setup = result["setup"]
        rows = [
            ("setup_s", statistics.median(setup), "s",
             f"median of {len(setup)} fresh interpreters"),
            ("ops_per_s", len(lat) / sum(lat), "1/s", f"{len(lat)} ops"),
            ("op_p50_ms", statistics.median(lat) * 1e3, "ms", f"{len(lat)} ops"),
            ("op_tail_ms", value * 1e3, "ms",
             f"p{pct:.1f} of {count} ops, {count - round(pct * count / 100)} above"),
            ("peak_rss_mb", result["peak_rss_mb"], "MB",
             "child processes" if args.workload == "cli_study" else "client process"),
        ]
        for name, v, unit, note in rows:
            print(f"  {name:12s} {v:>14.6g} {unit:4s} {note}")
        print(f"  {'fail_ratio':12s} {len(failures) / len(lat):>14.6g} {'':4s} "
              f"{len(failures)} of {len(lat)} ops")
        metrics = {name: {"value": v, "unit": unit} for name, v, unit, _ in rows}
    print("env " + json.dumps(envinfo.collect(ROOT, args.seed, ladder)))
    print(json.dumps({"correct": not failures, "attempted": len(lat),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
