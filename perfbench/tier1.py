"""One-shot record of the library's tier-1 test run: its wall time and the
five slowest tests.  Informational only: it is not an end-to-end metric and
not part of the repeated workload runs.

    python3 perfbench/tier1.py --out perfbench/baseline/tier1.json

Run it from the root of a source checkout on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

import envinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DURATION = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=5", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = [{"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
               for m in map(DURATION.match, lines) if m]
    record = {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "exit_code": proc.returncode,
        "wall_s": round(wall, 2),
        "summary": lines[-1].strip("= ") if lines else "",
        "slowest": slowest,
        "env": {k: v for k, v in envinfo.collect(ROOT, 0, ()).items()
                if k not in ("seed", "ladder")},
    }
    text = json.dumps(record, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
