"""Flat text problem files for the initial value solver.

Format: one ``section.key = value`` per line, ``#`` starts a comment, blank
lines ignored.  Numbers are floats, ``y0`` is a bracketed list.  Example::

    problem.alpha = 0.5          # order, > 0
    problem.rho = 1.0
    problem.y0 = [1.0]           # ceil(alpha) entries
    problem.rhs = linear
    problem.rhs.lambda = -1.0
    problem.h_star = 1.0
    problem.K = 2.0
    solver.n_nodes = 257
    solver.tol = 1e-10           # optional; each stop is at tol * max(1, max|y|)
    solver.max_iter = 200        # optional
    solver.lipschitz_L = 1.0     # optional

Every field of ``IVProblem`` and ``SolverConfig`` is a key, ``problem.<field>``
and ``solver.<field>``, its value parsed by the field's annotation (``float``,
``int``, ``tuple``, ``float | None``), and a key is optional exactly when its
field has a default.  ``problem.rhs`` names a registered rhs and takes its
parameters from the ``problem.rhs.*`` keys.  Unknown, duplicate, or missing
required keys are errors naming the key.
"""

from __future__ import annotations

import dataclasses

from .solver import IVProblem, SolverConfig, make_rhs, rhs_names

__all__ = ["ProblemFileError", "parse_problem", "load_problem"]


class ProblemFileError(ValueError):
    """Malformed problem file; message names the offending line or key."""


def _fail(lineno: int | None, msg: str) -> ProblemFileError:
    where = f"line {lineno}: " if lineno is not None else ""
    return ProblemFileError(where + msg)


def _parse_float(key: str, raw: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _fail(lineno, f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str, lineno: int) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise _fail(lineno, f"{key}: expected an integer, got {raw!r}") from None


def _parse_list(key: str, raw: str, lineno: int) -> tuple:
    if not (raw.startswith("[") and raw.endswith("]")):
        raise _fail(lineno, f"{key}: expected a bracketed list like [1.0], got {raw!r}")
    inner = raw[1:-1].strip()
    if not inner:
        raise _fail(lineno, f"{key}: list must not be empty")
    return tuple(_parse_float(key, part.strip(), lineno)
                 for part in inner.split(","))


# the dataclasses are the schema: every field is a key, required exactly when
# it has no default, and its value is parsed by its annotation's parser
_KEYS = {f"{section}.{field.name}": field
         for section, cls in (("problem", IVProblem), ("solver", SolverConfig))
         for field in dataclasses.fields(cls)}
_RHS = "problem.rhs"     # resolved together with its problem.rhs.* parameters
_PARSER_OF = {"float": _parse_float, "float | None": _parse_float,
              "int": _parse_int, "tuple": _parse_list}
_PARSERS = {key: _PARSER_OF[field.type] for key, field in _KEYS.items() if key != _RHS}


def _values(section: str, entries: dict) -> dict:
    """The parsed value of each ``section`` key set in ``entries``, by field
    name in field order."""
    return {key.partition(".")[2]: parse(key, *entries[key])
            for key, parse in _PARSERS.items()
            if key.startswith(section + ".") and key in entries}


def parse_problem(text: str) -> tuple[IVProblem, SolverConfig]:
    """Parse problem-file text into (IVProblem, SolverConfig)."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _fail(lineno, f"expected 'section.key = value', got {rawline.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise _fail(lineno, f"expected 'section.key = value', got {rawline.strip()!r}")
        if key in entries:
            raise _fail(lineno, f"duplicate key {key!r} (first set on line {entries[key][1]})")
        entries[key] = (value, lineno)

    rhs_params: dict[str, float] = {}
    for key in list(entries):
        if key.startswith(_RHS + "."):
            pname = key[len(_RHS) + 1:]
            if not pname:
                raise _fail(entries[key][1], f"empty rhs parameter name in {key!r}")
            raw, lineno = entries.pop(key)
            rhs_params[pname] = _parse_float(key, raw, lineno)

    for key, (_, lineno) in entries.items():
        if key not in _KEYS:
            raise _fail(lineno, f"unknown key {key!r}")
    for key, field in _KEYS.items():
        if field.default is dataclasses.MISSING and key not in entries:
            raise _fail(None, f"missing required key {key!r}")

    rhs_name, rhs_line = entries.pop(_RHS)
    if rhs_name not in rhs_names():
        raise _fail(rhs_line, f"problem.rhs: unknown rhs {rhs_name!r}; "
                              f"known: {', '.join(rhs_names())}")
    # the problem, rhs first, is built and checked before any solver value is read
    try:
        rhs = make_rhs(rhs_name, rhs_params)
        problem = IVProblem(rhs=rhs, **_values("problem", entries))
        config = SolverConfig(**_values("solver", entries))
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None
    return problem, config


def load_problem(path: str) -> tuple[IVProblem, SolverConfig]:
    with open(path, "r", encoding="utf-8-sig") as fh:     # a leading BOM is dropped
        text = fh.read()
    return parse_problem(text)
