"""The four workloads: op schedules from the seed, their execution in the
client process, and the check each op's output must pass.

A workload runs in rounds.  A round is a fixed list of operations that
covers the workload's whole n ladder; :func:`round_ops` builds round r from
the seed alone, so a replay of the same rounds does the same work.  A cycle
is one round per pool problem, and a run is whole cycles.  The
parent process prepares references (:func:`prepare`); the client process
(``client.py``) times the operations one at a time, closed loop, and
checks every output after the timed loop ends.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import problems as P

LADDERS = {
    "picard_solve": (1025, 2049, 4097),
    "operator_sweep": (257, 513, 1025, 2049, 4097),
    "march_check": (1025, 2049),
    "cli_study": (1025,),
}
SMOKE_LADDERS = {
    "picard_solve": (33, 65),
    "operator_sweep": (33, 65),
    "march_check": (33, 65),
    "cli_study": (33,),
}
STUDY_RESOLUTIONS = (65, 129, 257)
SMOKE_STUDY_RESOLUTIONS = (9, 17)
WORKLOADS = tuple(LADDERS)

PICARD_TOL = 1e-12
RESIDUAL_BOUND = 1e-10     # report residual of a converged solve at tol 1e-12
MARCH_GAP = 1e-9           # criterion 07's marching-vs-Picard gap
ML_REL_TOL = 1e-12
# Problems per run; a cycle is one round per problem.  Four problems cover
# every rhs, both alpha ranges and every rho (problems.category).
POOLS = {"picard_solve": 4, "march_check": 4, "operator_sweep": 1, "cli_study": 4}
# Seconds one cycle takes at the seed commit on a 2-core Xeon (see README).
# A run does round(--seconds / CYCLE_S) whole cycles, the same work on every
# commit and every machine, so latency percentiles compare like with like.
CYCLE_S = {"picard_solve": 12.0, "march_check": 3.0, "operator_sweep": 1.5,
           "cli_study": 9.5}
OPERATOR_KINDS = ("integral", "riemann", "caputo")
# fresh interpreters timed for setup_s before the first cycle and after each
SETUP_PER_GAP = 2


def ladder(spec) -> tuple:
    return (SMOKE_LADDERS if spec["smoke"] else LADDERS)[spec["name"]]


def cycles(name: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[name]))


# ---------------------------------------------------------------------------
# parent side: inputs and references, outside any timing
# ---------------------------------------------------------------------------

def prepare(name: str, seed: int, smoke: bool, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    spec = {"name": name, "seed": seed, "smoke": smoke, "workdir": workdir}
    ns = ladder(spec)
    if name == "operator_sweep":
        return spec
    pool = spec["pool"] = P.problem_family(rng, POOLS[name])
    if name == "picard_solve":
        spec["refs"] = {(i, n): P.linear_reference(p, n)
                        for i, p in enumerate(pool) if p["rhs"] == "linear"
                        for n in ns}
    elif name == "march_check":
        from gfcalc.solver import SolverConfig, solve_picard
        spec["refs"] = {
            (i, n): solve_picard(build_problem(p),
                                 SolverConfig(n_nodes=n, tol=PICARD_TOL))[0].values
            for i, p in enumerate(pool) for n in ns}
    elif name == "cli_study":
        spec["ml"] = []
        for p in pool:
            # the arguments a linear problem's reference reaches on a step
            # the theorem guarantees: |lambda| s(h)^alpha <= Gamma(alpha+1)
            z = math.gamma(p["alpha"] + 1.0) * float(rng.uniform(-1.0, 0.25))
            spec["ml"].append((p["alpha"], z, P.ml_mp(p["alpha"], z)))
        spec["data_rho"] = [float(rng.choice(P.RHOS)) for _ in pool]
    return spec


def build_problem(p):
    from gfcalc.solver import IVProblem, make_rhs
    return IVProblem(alpha=p["alpha"], rho=p["rho"], y0=p["y0"],
                     rhs=make_rhs(p["rhs"], P.rhs_params(p)),
                     h_star=p["h_star"], K=p["K"])


def round_ops(spec, r: int) -> list[dict]:
    ns = ladder(spec)
    name = spec["name"]
    if name in ("picard_solve", "march_check"):
        kind = "picard" if name == "picard_solve" else "march"
        return [{"kind": kind, "i": r % len(spec["pool"]), "n": n} for n in ns]
    if name == "operator_sweep":
        rng = np.random.default_rng([spec["seed"], r])
        ops = []
        for j, n in enumerate(ns):
            for k, kind in enumerate(OPERATOR_KINDS):
                # a > 0, rho and the alpha range rotate across kinds and rounds
                pos = r * len(ns) * 3 + j * 3 + k
                case = P.operator_case(rng, kind, n, a_positive=pos % 2 == 1,
                                       rho=P.RHOS[(pos + r) % 3],
                                       arange=P.ALPHA_RANGES[(pos // 2) % 2])
                ops.append({"kind": kind, "case": case})
        return ops
    pool = len(spec["pool"])
    i = r % pool
    kinds = ["solve", "solve_rerun", "integral", "integral_rerun", "caputo", "ml",
             "bad_input"]
    if i == (r // pool) % pool:
        # study, the one heavy op, runs once a cycle, on each problem in turn:
        # a run has fewer studies than the ten samples above op_tail_ms, so
        # the tail does not follow a study's seed-dependent cost
        kinds.insert(6, "study")
    return [{"kind": kind, "i": i} for kind in kinds]


# ---------------------------------------------------------------------------
# client side: executing one operation
# ---------------------------------------------------------------------------

class LibraryOps:
    """picard_solve, march_check and operator_sweep: in-process calls.

    Every gfcalc function is looked up on its module at call time, so the
    tracer's wrappers are the ones called during a traced replay."""

    def __init__(self, spec):
        from gfcalc import fracops, solver
        self.spec = spec
        self.fracops = fracops
        self.solver = solver
        self._problems = {}

    def prepare(self, op):
        if op["kind"] in ("picard", "march"):
            key = op["i"]
            if key not in self._problems:
                self._problems[key] = build_problem(self.spec["pool"][key])
            op["problem"] = self._problems[key]
            op["config"] = self.solver.SolverConfig(n_nodes=op["n"], tol=PICARD_TOL)

    def run(self, op):
        fr, so = self.fracops, self.solver
        kind = op["kind"]
        if kind == "picard":
            sol, rep = so.solve_picard(op["problem"], op["config"])
            return {"x": sol.grid.x_nodes, "y": sol.values, "h": rep.h_used,
                    "converged": rep.converged, "residual": rep.residual}
        if kind == "march":
            return {"y": so.solve_marching(op["problem"], op["config"]).values}
        case = op["case"]
        grid = fr.make_grid(case["a"], case["b"], case["rho"], case["n"])
        f = fr.SampledFunction(grid, P.operator_input(case, grid.s_nodes))
        if kind == "integral":
            out = fr.gfi_apply(f, case["alpha"])
        elif kind == "riemann":
            out = fr.gfd_riemann(f, case["alpha"])
        else:
            out = fr.gfd_caputo(f, case["alpha"], P.operator_init(case))
        return {"s": grid.s_nodes, "y": out.values}

    def check(self, op, out, _round_outs) -> str | None:
        kind = op["kind"]
        if kind == "picard":
            return check_picard(self.spec, op, out)
        if kind == "march":
            gap = float(np.max(np.abs(out["y"] - self.spec["refs"][(op["i"], op["n"])])))
            return None if gap <= MARCH_GAP else f"marching differs from Picard by {gap:.3e}"
        case = op["case"]
        n = case["n"]
        mask = slice(None) if kind == "integral" else P.operator_mask(n)
        want = P.operator_expected(case, out["s"][mask])
        err = float(np.max(np.abs(out["y"][mask] - want)))
        tol = P.operator_tolerance(case)
        return None if err <= tol else f"power rule off by {err:.3e} > {tol:.1e}"


def check_picard(spec, op, out) -> str | None:
    p = spec["pool"][op["i"]]
    n = op["n"]
    if not out["converged"]:
        return "not converged"
    if not out["residual"] <= RESIDUAL_BOUND:
        return f"residual {out['residual']:.3e} > {RESIDUAL_BOUND:.0e}"
    tol = P.solve_tolerance(p, n)
    if p["rhs"] == "linear":
        ref = spec["refs"][(op["i"], n)]
        if abs(out["h"] - ref["h"]) > 1e-12 * ref["h"]:
            return f"step {out['h']!r} != {ref['h']!r}"
        if np.max(np.abs(out["x"][ref["idx"]] - ref["x"])) > 1e-12 * max(1.0, ref["h"]):
            return "grid nodes differ from the uniform-in-s grid"
        err = float(np.max(np.abs(out["y"][ref["idx"]] - ref["y"])))
    else:
        exact = P.exact_solution(p, out["x"])
        if exact is None:
            return None
        err = float(np.max(np.abs(out["y"] - exact)))
    return None if err <= tol else f"error {err:.3e} > {tol:.1e} against the closed form"


class CliOps:
    """cli_study: ``python -m gfcalc`` subcommands on generated files.

    ``inprocess`` runs the same argv through ``gfcalc.cli.main`` instead of
    a subprocess; the traced replay uses it."""

    def __init__(self, spec, src_dir: str):
        from gfcalc import cli
        self.spec = spec
        self.cli = cli
        self.inprocess = False
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        d = spec["workdir"]
        n = ladder(spec)[0]
        self.resolutions = ",".join(str(v) for v in (
            SMOKE_STUDY_RESOLUTIONS if spec["smoke"] else STUDY_RESOLUTIONS))
        self.files = {}
        for i, p in enumerate(spec["pool"]):
            prob = os.path.join(d, f"p{i}.prob")
            with open(prob, "w", encoding="utf-8") as fh:
                fh.write(P.problem_text(p, n, PICARD_TOL))
            rho = spec["data_rho"][i]
            case = {"c": 1.0 + 0.1 * i, "beta": 2, "c0": 0.0}
            s = np.linspace(0.0, P.s_of_x(1.0, rho), n)
            x = np.power(rho * s, 1.0 / rho)
            x[-1] = 1.0
            data = os.path.join(d, f"d{i}.csv")
            with open(data, "w", encoding="utf-8") as fh:
                fh.write("x,f\n")
                for xv, fv in zip(x, P.operator_input(case, P.s_of_x(x, rho))):
                    fh.write(f"{float(xv)!r},{float(fv)!r}\n")
            self.files[i] = (prob, data, rho)
        self.bad = os.path.join(d, "bad.prob")
        with open(self.bad, "w", encoding="utf-8") as fh:
            fh.write(P.problem_text(spec["pool"][0], n, PICARD_TOL)
                     .replace("solver.n_nodes", "solver.n_node"))

    def prepare(self, op):
        i = op["i"]
        prob, data, rho = self.files[i]
        d = self.spec["workdir"]
        alpha = self.spec["pool"][i]["alpha"]
        opargs = ["--alpha", repr(alpha), "--rho", repr(rho), "--a", "0"]
        integral_csv = os.path.join(d, "integral.csv")
        kind = op["kind"]
        op["expect"] = 0
        op["out"] = None
        if kind in ("solve", "solve_rerun"):
            op["out"] = os.path.join(d, f"{kind}.csv")
            op["argv"] = ["solve", prob, "-o", op["out"]]
        elif kind in ("integral", "integral_rerun"):
            op["stdout_to"] = integral_csv if kind == "integral" \
                else os.path.join(d, "integral_rerun.csv")
            op["argv"] = ["operator", "integral", data] + opargs
        elif kind == "caputo":
            init = ",".join(["0"] * math.ceil(alpha))
            op["argv"] = ["operator", "caputo", integral_csv] + opargs + ["--init", init]
        elif kind == "ml":
            a, z, _ = self.spec["ml"][i]
            op["argv"] = ["ml", repr(a), repr(z)]
        elif kind == "study":
            op["argv"] = ["study", prob, "--resolutions", self.resolutions]
        else:
            op["argv"] = ["solve", self.bad, "-o", os.path.join(d, "bad.csv")]
            op["expect"] = 1

    def run(self, op):
        target = op.get("stdout_to")
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op["argv"])
            stdout = out.getvalue().encode()
            if target:
                with open(target, "wb") as fh:
                    fh.write(stdout)
        elif target:
            with open(target, "wb") as fh:
                proc = subprocess.run([sys.executable, "-m", "gfcalc", *op["argv"]],
                                      stdout=fh, stderr=subprocess.PIPE,
                                      env=self.env, timeout=120)
            code = proc.returncode
            with open(target, "rb") as fh:
                stdout = fh.read()
        else:
            proc = subprocess.run([sys.executable, "-m", "gfcalc", *op["argv"]],
                                  capture_output=True, env=self.env, timeout=120)
            code, stdout = proc.returncode, proc.stdout
        written = b""
        if op["out"] and code == 0:
            with open(op["out"], "rb") as fh:
                written = fh.read()
        return {"code": code, "stdout": stdout, "file": written}

    def check(self, op, out, round_outs) -> str | None:
        if out["code"] != op["expect"]:
            return f"exit code {out['code']}, expected {op['expect']}"
        kind = op["kind"]
        if kind in ("solve", "solve_rerun"):
            bad = lossless_csv(out["file"], "x,y")
            if bad:
                return bad
        if kind in ("integral", "integral_rerun", "caputo"):
            bad = lossless_csv(out["stdout"], "x,result")
            if bad:
                return bad
        if kind.endswith("_rerun"):
            first = round_outs[kind[:-len("_rerun")]]
            if first is None or (out["file"], out["stdout"]) != (first["file"], first["stdout"]):
                return "rerun output differs from the first run"
        if kind == "ml":
            a, z, want = self.spec["ml"][op["i"]]
            got = float(out["stdout"].decode().strip())
            if abs(got - want) > ML_REL_TOL * abs(want):
                return f"E_{a:.4f}({z:.4f}) = {got!r}, mpmath gives {want!r}"
        if kind == "study":
            lines = out["stdout"].decode().strip().splitlines()
            ns = self.resolutions.split(",")
            if lines[0] != "n_nodes,sup_error,observed_order" or \
                    [ln.split(",")[0] for ln in lines[1:]] != ns:
                return "study table malformed"
            # the finest row has no error when the rhs has no closed form
            if not all(math.isfinite(float(ln.split(",")[1])) for ln in lines[1:len(ns)]):
                return "study error column not finite"
        return None


def lossless_csv(raw: bytes, header: str) -> str | None:
    """Every number in a gfcalc CSV must read back and print identically."""
    lines = raw.decode().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != header or len(body) < 3:
        return f"CSV header {body[:1]} != {header!r}"
    for ln in body[1:]:
        for field in ln.split(","):
            if f"{float(field):.16e}" != field:
                return f"CSV field {field!r} does not round-trip"
    return None


# ---------------------------------------------------------------------------
# the client process
# ---------------------------------------------------------------------------

def _pass(ex, spec, rounds):
    """Run the rounds numbered in ``rounds``; returns (ops, outputs, latencies)."""
    ops, outs, lat = [], [], []
    for r in rounds:
        batch = round_ops(spec, r)
        for op in batch:
            ex.prepare(op)
        for op in batch:
            t0 = time.perf_counter()
            try:
                out = ex.run(op)
            except Exception as exc:          # counted as a failed op
                out = exc
            lat.append(time.perf_counter() - t0)
            ops.append(op)
            outs.append(out)
    return ops, outs, lat


def measure_setup(src_dir: str, repeats: int, discard: int = 0) -> list[float]:
    """Seconds from starting a fresh interpreter to the end of
    ``import gfcalc``, ``repeats`` times after ``discard`` untimed starts
    (the first start may compile bytecode)."""
    code = ("import time, gfcalc; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC), gfcalc.__file__)")
    env = dict(os.environ, PYTHONPATH=src_dir)
    samples = []
    for _ in range(repeats + discard):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import gfcalc failed: {proc.stderr.strip()}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if not os.path.realpath(path.strip()).startswith(os.path.realpath(src_dir)):
            raise RuntimeError(f"gfcalc imported from {path.strip()}, not {src_dir}")
        samples.append(float(stamp) - t0)
    return samples[discard:]


def _warm_up(ex, spec):
    """Run the first operation once, untimed, so lazy imports and the first
    touch of the files are not in the first latency.  Its outcome is not
    counted; the timed run does the same operation again and checks it."""
    op = round_ops(spec, 0)[0]
    ex.prepare(op)
    try:
        ex.run(op)
    except Exception:                         # counted when the timed run repeats it
        pass


def _failures(ex, ops, outs) -> list[str]:
    failures = []
    round_outs = {}
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            msg = f"raised {type(out).__name__}: {out}"
            out = None
        else:
            try:
                msg = ex.check(op, out, round_outs)
            except (ValueError, IndexError, UnicodeDecodeError) as exc:
                msg = f"output unreadable: {exc}"
        round_outs[op["kind"]] = out
        if msg:
            failures.append(f"{describe(op)}: {msg}")
    return failures


def describe(op) -> str:
    if "case" in op:
        c = op["case"]
        return (f"{op['kind']} n={c['n']} a={c['a']:.3g} rho={c['rho']} "
                f"alpha={c['alpha']:.3g} beta={c['beta']}")
    if "n" in op:
        return f"{op['kind']} problem {op['i']} n={op['n']}"
    return f"{op['kind']} problem {op['i']}"


def client_main() -> int:
    """Entry point of the client process: reads a pickled job from stdin,
    runs one workload closed loop, and writes a pickled result to stdout."""
    job = pickle.load(sys.stdin.buffer)
    sys.path.insert(0, job["src_dir"])
    try:
        result = _client(job["spec"], job["src_dir"], job["seconds"], job["trace"])
    except Exception:
        result = {"error": traceback.format_exc()}
    pickle.dump(result, sys.stdout.buffer)
    return 0


def _client(spec, src_dir, seconds, trace):
    name = spec["name"]
    cli_workload = name == "cli_study"
    ex = CliOps(spec, src_dir) if cli_workload else LibraryOps(spec)
    n_cycles = cycles(name, seconds)
    if trace:
        # the traced run also replays what it timed, so it times less
        n_cycles = max(1, n_cycles // (3 if cli_workload else 2))
    pool = POOLS[name]
    rounds = n_cycles * pool
    _warm_up(ex, spec)
    # set-up time is sampled before the first cycle and after each one, so
    # its median covers the whole run as the latencies do
    setup = [] if trace else measure_setup(src_dir, SETUP_PER_GAP, discard=1)
    ops, outs, lat = [], [], []
    for c in range(n_cycles):
        for acc, part in zip((ops, outs, lat),
                             _pass(ex, spec, range(c * pool, (c + 1) * pool))):
            acc += part
        if not trace:
            setup += measure_setup(src_dir, SETUP_PER_GAP)
    result = {"latencies": lat, "rounds": rounds, "setup": setup,
              "failures": _failures(ex, ops, outs)}
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli_workload
                               else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if trace:
        result["per_layer"] = _traced_replay(ex, spec, rounds, lat, cli_workload)
    return result


def _traced_replay(ex, spec, rounds, sub_lat, cli_workload):
    import tracing

    extra = {}
    if cli_workload:
        # the same rounds in-process, untraced: the difference to the
        # subprocess latencies is interpreter start-up, imports and I/O
        ex.inprocess = True
        _, outs, base_lat = _pass(ex, spec, range(rounds))
        extra["cli.process_overhead_s"] = float(np.mean(np.subtract(sub_lat, base_lat)))
        extra["cli.csv_bytes_out"] = float(np.mean(
            [len(o["file"]) + (len(o["stdout"]) if o["stdout"].startswith(b"x,") else 0)
             for o in outs if isinstance(o, dict)]))
    else:
        base_lat = sub_lat
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, traced_lat = _pass(ex, spec, range(rounds))
    finally:
        tracer.uninstall()
    extra["trace.overhead_ratio"] = float(np.sum(traced_lat) / np.sum(base_lat))
    metrics = tracing.layer_metrics(tracer, len(traced_lat), extra)
    tracer.dump(os.path.join(os.path.dirname(spec["workdir"]),
                             f"spans-{spec['name']}.npz"))
    return metrics
