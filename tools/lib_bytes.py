"""One sha256 over the solver library's outputs on a fixed matrix of problems.

For each of 144 problems (six right-hand sides x alpha 0.4, 0.8, 1.3, 1.9 x
rho 0.5, 1, 2 x n 33, 257; y0 0.5, or (0.5, -0.25) above order 1; h_star 1,
K 1, tol 1e-12) it records the bytes of the Picard values and deltas, the
marching values, ``picard_apply`` of the Picard solution,
``volterra_residual`` and ``oracle_residual``, and the type and text of
every refusal instead of a value.  Two trees whose change keeps every
library output's bytes print the same digest; the per-case lines, printed
with ``--cases``, name the cases that moved.  Uses only numpy.

    python tools/lib_bytes.py [SRC] [--cases]     # SRC defaults to ./src
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

RHS = (("zero", {}), ("linear", {"lambda": -1.0}), ("linear", {"lambda": 3.0}),
       ("power_forcing", {"beta": 1.5, "c": 0.3}), ("sin", {"c": 1.0}),
       ("logistic", {"lambda": 0.5}))
ALPHAS = (0.4, 0.8, 1.3, 1.9)
RHOS = (0.5, 1.0, 2.0)
NODES = (33, 257)


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
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--cases"]
    src = Path(args[0] if args else Path(__file__).resolve().parents[1] / "src").resolve()
    sys.path.insert(0, str(src))
    from gfcalc import solver
    if not Path(solver.__file__).resolve().is_relative_to(src):
        print(f"error: gfcalc does not import from {src}: {solver.__file__}",
              file=sys.stderr)
        return 1
    total = hashlib.sha256()
    for rhs, params in RHS:
        for alpha in ALPHAS:
            for rho in RHOS:
                for n in NODES:
                    label = f"{rhs} {params} alpha {alpha} rho {rho} n {n}"
                    digest = case_digest(solver, rhs, params, alpha, rho, n)
                    total.update(f"{digest}  {label}\n".encode())
                    if "--cases" in argv:
                        print(f"{digest}  {label}", flush=True)
    print(f"{total.hexdigest()}  all {len(RHS) * len(ALPHAS) * len(RHOS) * len(NODES)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
