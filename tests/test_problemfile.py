"""Problem-file parsing: the flat section.key = value format."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gfcalc import problemfile
from gfcalc.problemfile import ProblemFileError, load_problem, parse_problem
from gfcalc.solver import IVProblem, SolverConfig, make_rhs

GOOD = """\
# linear test problem
problem.alpha = 0.5          # order
problem.rho = 1.0
problem.y0 = [1.0]

problem.rhs = linear
problem.rhs.lambda = -1.0
problem.h_star = 1.0
problem.K = 2.0
solver.n_nodes = 257
solver.tol = 1e-10
solver.max_iter = 150
solver.lipschitz_L = 1.0
"""


def test_full_file_round_trip():
    problem, config = parse_problem(GOOD)
    assert problem.alpha == 0.5
    assert problem.rho == 1.0
    assert problem.y0 == (1.0,)
    assert problem.rhs.name == "linear"
    assert dict(problem.rhs.params)["lambda"] == -1.0
    assert problem.h_star == 1.0
    assert problem.K == 2.0
    assert config.n_nodes == 257
    assert config.tol == 1e-10
    assert config.max_iter == 150
    assert config.lipschitz_L == 1.0


def test_optional_keys_default():
    text = "\n".join(line for line in GOOD.splitlines()
                     if not line.startswith(("solver.tol", "solver.max_iter",
                                             "solver.lipschitz_L")))
    _, config = parse_problem(text)
    assert config.tol == 1e-10
    assert config.max_iter == 200
    assert config.lipschitz_L is None


def test_multi_entry_y0():
    text = GOOD.replace("problem.alpha = 0.5", "problem.alpha = 1.5")
    text = text.replace("problem.y0 = [1.0]", "problem.y0 = [1.0, 0.5]")
    problem, _ = parse_problem(text)
    assert problem.y0 == (1.0, 0.5)
    assert problem.m == 2


def test_missing_required_key_named():
    text = "\n".join(line for line in GOOD.splitlines()
                     if not line.startswith("problem.alpha"))
    with pytest.raises(ProblemFileError, match="missing required key 'problem.alpha'"):
        parse_problem(text)


def test_duplicate_key_reports_both_lines():
    text = GOOD + "problem.alpha = 0.7\n"
    with pytest.raises(ProblemFileError, match=r"duplicate key 'problem.alpha' \(first set on line 2\)"):
        parse_problem(text)


def test_unknown_key_rejected():
    with pytest.raises(ProblemFileError, match="unknown key 'problem.gamma'"):
        parse_problem(GOOD + "problem.gamma = 1.0\n")


def test_bad_number_names_key_and_line():
    text = GOOD.replace("problem.rho = 1.0", "problem.rho = fast")
    with pytest.raises(ProblemFileError, match="line 3: problem.rho: expected a number"):
        parse_problem(text)


def test_bad_integer():
    text = GOOD.replace("solver.n_nodes = 257", "solver.n_nodes = 1e3")
    with pytest.raises(ProblemFileError, match="solver.n_nodes: expected an integer"):
        parse_problem(text)


def test_bad_y0_list():
    text = GOOD.replace("problem.y0 = [1.0]", "problem.y0 = 1.0")
    with pytest.raises(ProblemFileError, match="expected a bracketed list"):
        parse_problem(text)
    text = GOOD.replace("problem.y0 = [1.0]", "problem.y0 = []")
    with pytest.raises(ProblemFileError, match="list must not be empty"):
        parse_problem(text)


def test_unknown_rhs_lists_choices():
    text = GOOD.replace("problem.rhs = linear", "problem.rhs = cubic")
    text = text.replace("problem.rhs.lambda = -1.0", "")
    with pytest.raises(ProblemFileError, match="unknown rhs 'cubic'.*linear"):
        parse_problem(text)


def test_rhs_param_routing():
    text = GOOD.replace("problem.rhs = linear", "problem.rhs = power_forcing")
    text = text.replace("problem.rhs.lambda = -1.0",
                        "problem.rhs.beta = 1.5\nproblem.rhs.c = 0.3")
    problem, _ = parse_problem(text)
    params = dict(problem.rhs.params)
    assert problem.rhs.name == "power_forcing"
    assert params == {"beta": 1.5, "c": 0.3}


def test_missing_rhs_param_propagates():
    text = GOOD.replace("problem.rhs.lambda = -1.0", "")
    with pytest.raises(ProblemFileError, match="requires parameter 'lambda'"):
        parse_problem(text)


def test_problem_validation_propagates():
    text = GOOD.replace("problem.alpha = 0.5", "problem.alpha = -1.0")
    with pytest.raises(ProblemFileError, match="alpha must be finite"):
        parse_problem(text)


def test_config_validation_propagates():
    text = GOOD.replace("solver.n_nodes = 257", "solver.n_nodes = 1")
    with pytest.raises(ProblemFileError, match="n_nodes must be an int >= 2"):
        parse_problem(text)


def test_malformed_line():
    with pytest.raises(ProblemFileError, match="line 1.*section.key = value"):
        parse_problem("problem.alpha 0.5\n")


@pytest.mark.parametrize("line,message", [
    ("= 3", r"^line 1: expected 'section\.key = value', got '= 3'$"),
    ("problem.rhs. = 3", r"^line 1: empty rhs parameter name in 'problem\.rhs\.'$"),
])
def test_empty_key_refused(line, message):
    with pytest.raises(ProblemFileError, match=message):
        parse_problem(line + "\n" + GOOD)


def test_comments_and_blank_lines_ignored():
    text = "\n\n# full-line comment\n" + GOOD + "\n   # trailing\n"
    problem, _ = parse_problem(text)
    assert problem.alpha == 0.5


def test_load_problem_from_disk(tmp_path):
    path = tmp_path / "case.prob"
    path.write_text(GOOD, encoding="utf-8")
    problem, config = load_problem(str(path))
    assert problem.alpha == 0.5
    assert config.n_nodes == 257


def test_load_problem_drops_a_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "plain.prob", tmp_path / "bom.prob"
    plain.write_text(GOOD, encoding="utf-8")
    bom.write_text(GOOD, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_problem(str(bom)) == load_problem(str(plain))


def test_problem_errors_precede_solver_errors():
    text = GOOD.replace("problem.K = 2.0", "problem.K = 0")
    text = text.replace("solver.n_nodes = 257", "solver.n_nodes = x")
    with pytest.raises(ProblemFileError) as info:
        parse_problem(text)
    assert str(info.value) == "K must be finite and > 0, got 0.0"


def test_rhs_error_precedes_problem_value_errors():
    text = GOOD.replace("problem.rhs = linear", "problem.rhs = cubic")
    text = text.replace("problem.alpha = 0.5", "problem.alpha = x")
    with pytest.raises(ProblemFileError,
                       match=r"^line 6: problem\.rhs: unknown rhs 'cubic'"):
        parse_problem(text)


def _indented_block(text: str, opener: str) -> str:
    """The lines after ``opener`` up to the first unindented one, dedented."""
    lines = text.split(opener, 1)[1].splitlines()[1:]
    block = []
    for line in lines:
        if line and not line.startswith(" "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


def test_docstring_example_parses():
    example = _indented_block(problemfile.__doc__, "Example::")
    problem, config = parse_problem(example)
    assert problem.rhs == make_rhs("linear", {"lambda": -1.0})
    assert config.lipschitz_L == 1.0


def test_readme_problem_file_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("Problem files are flat", 1)[1]
    block = block.split("```\n", 2)[1]
    problem, config = parse_problem(block)
    assert problem.rhs == make_rhs("linear", {"lambda": -1.0})
    assert config.n_nodes == 257
    assert config.lipschitz_L == 1.0


def test_keys_are_the_dataclass_fields():
    fields = {f"{section}.{field.name}"
              for section, cls in (("problem", IVProblem), ("solver", SolverConfig))
              for field in dataclasses.fields(cls)}
    assert set(problemfile._KEYS) == fields
    assert set(problemfile._PARSERS) == fields - {"problem.rhs"}


def test_field_without_a_parser_fails_at_import():
    # a SolverConfig field of an annotation no parser reads, then a fresh import
    code = textwrap.dedent("""\
        import dataclasses, importlib, sys
        from gfcalc import solver
        solver.SolverConfig = dataclasses.make_dataclass(
            "SolverConfig", [("shift", "complex", dataclasses.field(default=0j))])
        sys.modules.pop("gfcalc.problemfile", None)     # not loaded by solver alone
        try:
            importlib.import_module("gfcalc.problemfile")
        except KeyError as exc:
            print("refused", exc)
        """)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == "refused 'complex'\n", done.stderr
