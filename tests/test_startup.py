"""What a fresh process loads: ``import gfcalc`` imports no numpy and no
submodule, and each command line command imports only the modules it uses.
Every check runs in its own interpreter, since this one has loaded them all."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def python(code, *args):
    """Run ``code`` in a fresh interpreter importing gfcalc from ``src`` and
    return its standard output; a failing run fails the test."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_numpy_and_no_submodule():
    loaded = python("""\
        import sys, gfcalc
        print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("gfcalc.")))
        """)
    assert loaded == "[]\n"


def test_from_import_of_a_submodule_loads_that_submodule_alone():
    def loaded(name):
        return python(f"""\
            import sys
            from gfcalc import {name}
            print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("gfcalc.")))
            """)

    assert loaded("cli") == "['gfcalc.cli', 'gfcalc.specialfn']\n"
    assert loaded("specialfn") == "['gfcalc.specialfn']\n"
    assert loaded("ComputationError") == "['gfcalc.specialfn']\n"
    assert loaded("fracops") == "['gfcalc.fracops', 'gfcalc.specialfn', 'numpy']\n"


# run each argv through cli.main and print [exit code, stdout, stderr] per run
MAIN_RUNS = """\
    import contextlib, io, json, sys
    if sys.argv[1] == "block":
        sys.modules["numpy"] = None     # any import of numpy now raises
    from gfcalc.cli import main
    runs = []
    for argv in json.loads(sys.argv[2]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append([code, out.getvalue(), err.getvalue()])
    print(json.dumps(runs))
    """


def test_ml_stirling_help_and_usage_errors_run_without_numpy():
    argvs = [["ml", "1", "1"], ["ml", "1", "-30"], ["stirling", "1", "1", "4"],
             ["--help"], ["stirling", "1"]]
    blocked = json.loads(python(MAIN_RUNS, "block", json.dumps(argvs)))
    assert blocked == json.loads(python(MAIN_RUNS, "allow", json.dumps(argvs)))
    ml_e, ml_refused, stirling, help_, usage = blocked
    assert ml_e == [0, "2.718281828459045\n", ""]
    assert ml_refused[0] == 2 and ml_refused[2].startswith("error: series loses ")
    assert stirling == [0, "1\n1\n1 1\n1 3 1\n1 7 6 1\n", ""]
    assert help_[0] == 0 and help_[1].startswith("usage: gfcalc")
    assert usage[0] == 1 and "error: the following arguments are required" in usage[2]


def test_operator_loads_neither_solver_nor_problemfile(tmp_path):
    data = tmp_path / "f.csv"
    data.write_text("x,f\n0,0\n0.5,0.25\n1,1\n", encoding="utf-8")
    loaded = python("""\
        import contextlib, io, sys
        from gfcalc.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["operator", "integral", sys.argv[1],
                         "--alpha", "0.5", "--rho", "1", "--a", "0"])
        print(code, sorted(m for m in sys.modules if m.startswith("gfcalc.")))
        """, str(data))
    assert loaded == "0 ['gfcalc.cli', 'gfcalc.fracops', 'gfcalc.specialfn']\n"


def test_star_import_and_dir_list_every_export_from_a_cold_start():
    report = python("""\
        import json, sys, gfcalc
        assert not any(m.startswith("gfcalc.") for m in sys.modules)
        listed = dir(gfcalc)
        namespace = {}
        exec("from gfcalc import *", namespace)
        print(json.dumps({
            "all": gfcalc.__all__,
            "bound": [n for n in gfcalc.__all__
                      if namespace.get(n, namespace) is getattr(gfcalc, n)],
            "listed": [n for n in gfcalc.__all__ if n in listed],
        }))
        """)
    names = json.loads(report)
    assert len(names["all"]) > 30 and "solve_picard" in names["all"]
    assert names["bound"] == names["all"]
    assert names["listed"] == names["all"]
