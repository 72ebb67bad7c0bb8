"""Problem and report files: schema validation and canonical JSON.

Problem files (schema ``jointfeas/problem/v1``) come in three kinds:

* ``finite-moment`` - variables with rational supports plus either
  moment ``constraints`` or an explicit ``distribution``.
* ``ghz``           - phase quadruples in half-pi units (defaulted).
* ``gaussian``      - dense correlation matrix with ``null`` marking
  missing entries; optional ``names`` (n distinct strings), and
  optional ``means`` and ``variances``, each a list of n exact numbers
  (every variance positive), checked and echoed but not used.

Exact values are written as ``"p/q"`` strings (integers allowed);
quadratic irrationals as ``{"poly": [c0, c1, c2], "interval": [lo, hi]}``
with the monic minimal polynomial c0 + c1 x + x^2 and a rational
enclosure selecting the root; angle shorthand
``{"minus_cos_degrees": n}`` is accepted for n a multiple of 30 or 45.

Validation is strict: unknown fields are rejected, and errors carry the
field path (e.g. ``constraints[2].target``).  Variable names and
constraints are checked by the same validator as
:class:`~jointfeas.feasibility.MomentProblem`, surd targets included.
Reports are written canonically by :func:`canonical_dumps`, in one
pass over the engine's own values: sorted ``str`` keys, a two-space
indent, ASCII-escaped strings, exact numbers as :func:`encode_exact`
spells them and a trailing newline, so a fixed engine build produces
byte-identical reports for identical inputs.  A report's ``input`` is
the problem object :func:`parse_problem` validated, not a copy.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from . import __version__
from .algebraic import ExactNumber, Surd, as_fraction, exact_text, make_surd, sqrt_fraction
from .errors import ValidationError
from .feasibility import MomentConstraint, MomentProblem, _check_atom_cap, _check_moment_problem
from .gaussian import DEFAULT_TOL, PartialCorrelationMatrix, _check_tol
from .ghz import GHZConfig, build_ghz_problem
from .probability import FiniteRandomVariable, JointDistribution, distribution_from_values

__all__ = [
    "PROBLEM_SCHEMA",
    "REPORT_SCHEMA",
    "canonical_dumps",
    "encode_exact",
    "exact_text",
    "load_problem_file",
    "parse_exact",
    "parse_problem",
    "render_report",
]

PROBLEM_SCHEMA = "jointfeas/problem/v1"
REPORT_SCHEMA = "jointfeas/report/v1"

# cos(n degrees) for the supported exact angles, as (rational, radicand) pairs
# encoding r * sqrt(d); d == 1 for rational cosines.
_COS_TABLE: dict[int, tuple[Fraction, int]] = {
    0: (Fraction(1), 1),
    30: (Fraction(1, 2), 3),
    45: (Fraction(1, 2), 2),
    60: (Fraction(1, 2), 1),
    90: (Fraction(0), 1),
    120: (Fraction(-1, 2), 1),
    135: (Fraction(-1, 2), 2),
    150: (Fraction(-1, 2), 3),
    180: (Fraction(-1), 1),
}


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(message, path=path)


def _expect_keys(obj: Mapping[str, Any], path: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, Mapping):
        raise _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - required - optional
    if unknown:
        raise _fail(path, f"unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise _fail(path, f"missing required fields {sorted(missing)}")


# ---------------------------------------------------------------------------
# Exact numbers
# ---------------------------------------------------------------------------


def parse_exact(value: Any, path: str = "value") -> ExactNumber:
    """Parse an exact number in any of the supported spellings."""
    if isinstance(value, bool):
        raise _fail(path, "booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise _fail(path, "floats are not exact; write the value as a 'p/q' string")
    if isinstance(value, str):
        try:
            return as_fraction(value)
        except ValidationError as exc:
            raise _fail(path, str(exc)) from None
    if isinstance(value, Mapping):
        if "minus_cos_degrees" in value:
            _expect_keys(value, path, {"minus_cos_degrees"}, set())
            deg = value["minus_cos_degrees"]
            if isinstance(deg, bool) or not isinstance(deg, int):
                raise _fail(path, "minus_cos_degrees must be an integer")
            reduced = deg % 360
            if reduced > 180:
                reduced = 360 - reduced
            if reduced not in _COS_TABLE:
                raise _fail(
                    path,
                    f"angle {deg} degrees is not supported; use multiples of 30 or 45",
                )
            r, d = _COS_TABLE[reduced]
            return make_surd(Fraction(0), -r, d)
        if "poly" in value:
            _expect_keys(value, path, {"poly", "interval"}, set())
            return _parse_poly_root(value["poly"], value["interval"], path)
        raise _fail(path, "unrecognized exact-number object")
    raise _fail(path, f"cannot read an exact number from {type(value).__name__}")


def _parse_poly_root(poly: Any, interval: Any, path: str) -> ExactNumber:
    if not isinstance(poly, Sequence) or isinstance(poly, str):
        raise _fail(f"{path}.poly", "expected a coefficient list")
    coeffs = [parse_exact(c, f"{path}.poly[{i}]") for i, c in enumerate(poly)]
    if any(isinstance(c, Surd) for c in coeffs):
        raise _fail(f"{path}.poly", "polynomial coefficients must be rational")
    if not isinstance(interval, Sequence) or len(interval) != 2:
        raise _fail(f"{path}.interval", "expected [lo, hi]")
    lo = parse_exact(interval[0], f"{path}.interval[0]")
    hi = parse_exact(interval[1], f"{path}.interval[1]")
    if isinstance(lo, Surd) or isinstance(hi, Surd):
        raise _fail(f"{path}.interval", "interval endpoints must be rational")
    if len(coeffs) == 2:
        # c0 + c1 x = 0
        if coeffs[1] == 0:
            raise _fail(f"{path}.poly", "degree-1 polynomial with zero leading coefficient")
        return -coeffs[0] / coeffs[1]
    if len(coeffs) != 3:
        raise _fail(f"{path}.poly", "only degree 1 or 2 polynomials are supported")
    c0, c1, c2 = coeffs
    if c2 == 0:
        raise _fail(f"{path}.poly", "degree-2 polynomial with zero leading coefficient")
    # roots: (-c1 +- sqrt(c1^2 - 4 c2 c0)) / (2 c2)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        raise _fail(f"{path}.poly", "polynomial has no real roots")
    half = sqrt_fraction(disc)
    for sign in (1, -1):
        root = (-c1 + sign * half) / (2 * c2)
        root_lo, root_hi = (root, root) if isinstance(root, Fraction) else root.enclosure()
        if lo <= root_lo and root_hi <= hi:
            return root
    raise _fail(f"{path}.interval", "interval does not isolate a root of the polynomial")


def encode_exact(value: ExactNumber) -> Any:
    """Canonical JSON form: 'p/q' strings, or poly+interval for surds."""
    if isinstance(value, Fraction):
        return exact_text(value)
    # monic minimal polynomial of a + b sqrt(d): x^2 - 2a x + (a^2 - b^2 d)
    c1 = -2 * value.a
    c0 = value.a * value.a - value.b * value.b * value.d
    lo, hi = value.enclosure()
    return {
        "poly": [exact_text(c0), exact_text(c1), "1"],
        "interval": [exact_text(lo), exact_text(hi)],
    }


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


def _parse_variables(spec: Any, path: str) -> tuple[FiniteRandomVariable, ...]:
    if not isinstance(spec, Sequence) or isinstance(spec, str) or not spec:
        raise _fail(path, "expected a non-empty list of variables")
    out = []
    for i, item in enumerate(spec):
        vpath = f"{path}[{i}]"
        _expect_keys(item, vpath, {"name", "support"}, set())
        name = item["name"]
        if not isinstance(name, str):
            raise _fail(f"{vpath}.name", "expected a string")
        support = item["support"]
        if not isinstance(support, Sequence) or isinstance(support, str):
            raise _fail(f"{vpath}.support", "expected a list of rationals")
        values = []
        for j, v in enumerate(support):
            parsed = parse_exact(v, f"{vpath}.support[{j}]")
            if isinstance(parsed, Surd):
                raise _fail(f"{vpath}.support[{j}]", "supports must be rational")
            values.append(parsed)
        try:
            out.append(FiniteRandomVariable(name, tuple(values)))
        except ValidationError as exc:
            raise _fail(vpath, str(exc)) from None
    return tuple(out)


def _parse_label(obj: Mapping[str, Any]) -> str:
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise _fail("label", "expected a string")
    return label


def _parse_atom_cap(options: Mapping[str, Any]) -> int | None:
    atom_cap = options.get("atom_cap")
    if atom_cap is not None:
        _check_atom_cap(atom_cap, "options.atom_cap")
    return atom_cap


def _parse_finite_moment(obj: Mapping[str, Any]) -> dict[str, Any]:
    _expect_keys(
        obj,
        "$",
        {"schema", "kind", "variables"},
        {"label", "constraints", "distribution", "options"},
    )
    variables = _parse_variables(obj["variables"], "variables")
    names = [v.name for v in variables]
    options = obj.get("options", {})
    _expect_keys(options, "options", set(), {"atom_cap", "allow_higher_order"})
    atom_cap = _parse_atom_cap(options)
    allow_higher = options.get("allow_higher_order", False)
    if not isinstance(allow_higher, bool):
        raise _fail("options.allow_higher_order", "expected true or false")

    has_constraints = "constraints" in obj
    has_distribution = "distribution" in obj
    if has_constraints == has_distribution:
        raise _fail("$", "exactly one of 'constraints' or 'distribution' is required")

    result: dict[str, Any] = {
        "kind": "finite-moment",
        "label": _parse_label(obj),
        "variables": variables,
        "atom_cap": atom_cap,
    }

    if has_constraints:
        spec = obj["constraints"]
        if not isinstance(spec, Sequence) or isinstance(spec, str):
            raise _fail("constraints", "expected a list")
        constraints = []
        for i, item in enumerate(spec):
            cpath = f"constraints[{i}]"
            _expect_keys(item, cpath, {"exponents", "target"}, {"relation"})
            exps = item["exponents"]
            if not isinstance(exps, Mapping) or not exps:
                raise _fail(f"{cpath}.exponents", "expected a non-empty object")
            for n, k in exps.items():
                if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
                    raise _fail(f"{cpath}.exponents.{n}", "exponents are positive integers")
            relation = item.get("relation", "==")
            if relation not in ("==", "<=", ">="):
                raise _fail(f"{cpath}.relation", "expected one of '==', '<=', '>='")
            constraints.append((dict(exps), parse_exact(item["target"], f"{cpath}.target"), relation))
        result["constraints"] = constraints
        if any(isinstance(t, Surd) for _, t, _ in constraints):
            # No MomentProblem, whose own checks give these paths, is built.
            _check_moment_problem(names, [(sorted(e.items()), r) for e, _, r in constraints], allow_higher)
        else:
            result["problem"] = MomentProblem(
                variables,
                tuple(MomentConstraint.of(e, t, r) for e, t, r in constraints),
                label=result["label"],
                allow_higher_order=allow_higher,
            )
    else:
        _check_moment_problem(names, (), allow_higher)
        spec = obj["distribution"]
        _expect_keys(spec, "distribution", {"mass"}, set())
        mass_obj = spec["mass"]
        if not isinstance(mass_obj, Mapping) or not mass_obj:
            raise _fail("distribution.mass", "expected a non-empty object")
        value_mass = {}
        keys: dict[tuple, str] = {}
        for key, p in mass_obj.items():
            mpath = f"distribution.mass[{key!r}]"
            parts = [s.strip() for s in str(key).split(",")]
            if len(parts) != len(variables):
                raise _fail(mpath, "outcome arity mismatch")
            outcome = tuple(parse_exact(s, mpath) for s in parts)
            if outcome in keys:
                raise _fail(mpath, f"repeats the outcome {keys[outcome]!r}")
            keys[outcome] = key
            value_mass[outcome] = parse_exact(p, mpath)
        try:
            result["distribution"] = distribution_from_values(variables, value_mass)
        except ValidationError as exc:
            raise _fail("distribution", str(exc)) from None
    return result


def _parse_ghz(obj: Mapping[str, Any]) -> dict[str, Any]:
    _expect_keys(obj, "$", {"schema", "kind"}, {"label", "quadruples", "options"})
    _expect_keys(obj.get("options", {}), "options", set(), {"atom_cap"})
    quadruples = obj.get("quadruples")
    if quadruples is None:
        config = GHZConfig()
    else:
        if not isinstance(quadruples, Sequence) or isinstance(quadruples, str):
            raise _fail("quadruples", "expected a list of four-phase lists")
        parsed = []
        for i, quad in enumerate(quadruples):
            if (
                not isinstance(quad, Sequence)
                or isinstance(quad, str)
                or len(quad) != 4
                or not all(isinstance(p, int) and not isinstance(p, bool) for p in quad)
            ):
                raise _fail(f"quadruples[{i}]", "expected four integer half-pi phases")
            parsed.append(tuple(quad))
        try:
            config = GHZConfig(tuple(parsed))
        except ValidationError as exc:
            raise _fail("quadruples", str(exc)) from None
    return {
        "kind": "ghz",
        "label": _parse_label(obj),
        "problem": build_ghz_problem(config),
        "atom_cap": _parse_atom_cap(obj.get("options", {})),
    }


def _exact_list(obj: Mapping[str, Any], key: str, n: int) -> list[ExactNumber] | None:
    """The optional field ``key``: a list of n exact numbers, or None when absent."""
    if key not in obj:
        return None
    values = obj[key]
    if not isinstance(values, list) or len(values) != n:
        raise _fail(key, f"expected a list of {n} exact numbers")
    return [parse_exact(v, f"{key}[{i}]") for i, v in enumerate(values)]


def _parse_matrix(matrix: Any) -> list[list[Fraction | None]]:
    """The exact entries of a square ``matrix``: rationals in [-1, 1], or None for missing."""
    if not isinstance(matrix, Sequence) or isinstance(matrix, str) or not matrix:
        raise _fail("matrix", "expected a non-empty list of rows")
    n = len(matrix)
    rows: list[list[Fraction | None]] = []
    for i, row in enumerate(matrix):
        if not isinstance(row, Sequence) or isinstance(row, str) or len(row) != n:
            raise _fail(f"matrix[{i}]", f"expected a row of {n} entries")
        exact_row: list[Fraction | None] = []
        for j, v in enumerate(row):
            path = f"matrix[{i}][{j}]"
            if v is None:
                exact_row.append(None)
                continue
            parsed = parse_exact(v, path)
            if isinstance(parsed, Surd):
                raise _fail(path, "correlations must be rational")
            if not -1 <= parsed <= 1:
                raise _fail(path, "known correlations must lie in [-1, 1]")
            exact_row.append(parsed)
        rows.append(exact_row)
    return rows


def _parse_gaussian(obj: Mapping[str, Any]) -> dict[str, Any]:
    _expect_keys(
        obj, "$", {"schema", "kind", "matrix"}, {"label", "names", "means", "variances", "options"}
    )
    _expect_keys(obj.get("options", {}), "options", set(), {"tol"})
    exact_entries = _parse_matrix(obj["matrix"])
    try:
        corr = PartialCorrelationMatrix.from_rows(exact_entries)
    except ValidationError as exc:
        raise _fail("matrix", str(exc)) from None
    n = corr.dimension
    names = obj.get("names", [f"X{i+1}" for i in range(n)])
    if (
        not isinstance(names, list)
        or not all(isinstance(name, str) for name in names)
        or len(names) != n
        or len(set(names)) != n
    ):
        raise _fail("names", f"expected a list of {n} distinct strings")
    tol = _check_tol(obj.get("options", {}).get("tol", DEFAULT_TOL), "options.tol")
    means = _exact_list(obj, "means", n)
    variances = _exact_list(obj, "variances", n)
    for i, v in enumerate(variances or ()):
        if not v > 0:
            raise _fail(f"variances[{i}]", "a variance must be positive")
    return {
        "kind": "gaussian",
        "label": _parse_label(obj),
        "names": list(names),
        "correlations": corr,
        "exact_entries": exact_entries,
        "means": means,
        "variances": variances,
        "tol": tol,
    }


def parse_problem(obj: Any) -> dict[str, Any]:
    """Validate a problem object and return its parsed contents.

    ``parsed["echo"]`` is ``obj`` itself, not a copy: the report echoes
    the object as validated, so it must not change before it is rendered.
    """
    if not isinstance(obj, Mapping):
        raise _fail("$", "problem file must be a JSON object")
    schema = obj.get("schema")
    if schema != PROBLEM_SCHEMA:
        raise _fail("schema", f"expected {PROBLEM_SCHEMA!r}, got {schema!r}")
    kind = obj.get("kind")
    if kind == "finite-moment":
        parsed = _parse_finite_moment(obj)
    elif kind == "ghz":
        parsed = _parse_ghz(obj)
    elif kind == "gaussian":
        parsed = _parse_gaussian(obj)
    else:
        raise _fail("kind", f"unknown kind {kind!r}")
    parsed["echo"] = obj
    return parsed


def load_problem_file(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            path=path,
        ) from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ValidationError(f"invalid JSON: {exc}", path=path) from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply", path=path) from None
    try:
        return parse_problem(obj)
    except RecursionError:  # exact-number objects nested in "poly" coefficients
        raise ValidationError("exact numbers nested too deeply", path=path) from None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def serialize_distribution(dist: JointDistribution) -> dict[str, Any]:
    return {
        "variables": [
            {"name": v.name, "support": [exact_text(x) for x in v.support]} for v in dist.variables
        ],
        "mass": serialize_mass(dist),
    }


def serialize_mass(dist: JointDistribution) -> dict[str, str]:
    """Each atom's mass, keyed by its comma-joined values."""
    return {
        ",".join(exact_text(x) for x in dist.values_at(atom)): exact_text(p) for atom, p in dist.mass.items()
    }


def render_report(command: str, problem_echo: Any, results: Mapping[str, Any]) -> str:
    """Canonical report text: identical inputs give identical bytes."""
    report = {
        "schema": REPORT_SCHEMA,
        "engine": {"name": "jointfeas", "version": __version__},
        "command": command,
        "input": problem_echo,
        "results": results,
    }
    return canonical_dumps(report)


def canonical_dumps(obj: Any) -> str:
    """The canonical JSON text of ``obj``, ending in a newline.

    Keys are ``str(key)``, sorted; arrays and objects are indented by two
    spaces; strings are ASCII-escaped and floats spelled as :mod:`json`
    spells them (``NaN``, ``Infinity``); exact numbers are written as
    :func:`encode_exact` spells them.  Any other value raises ``TypeError``.
    """
    return _text(obj, "\n") + "\n"


def _text(value: Any, newline: str) -> str:
    """The JSON text of ``value``, whose own lines start with ``newline``.

    Loops rather than comprehensions keep one Python frame per nesting
    level, fewer than the parser spends on the same exact-number objects.
    """
    if type(value) is str:  # most values are; the checks below are ABC isinstance tests
        return _quote(value)
    if isinstance(value, (Fraction, Surd)):
        return _text(encode_exact(value), newline)
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        inner = newline + "  "
        by_key = {}
        for key, item in value.items():
            by_key[str(key)] = item  # the last of keys equal as text wins
        parts = []
        for key, item in sorted(by_key.items()):
            parts.append(_quote(key) + ": " + _text(item, inner))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        parts = []
        for item in value:
            parts.append(_text(item, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _text(value.tolist(), newline)
    raise TypeError(f"cannot serialize {type(value).__name__}")
