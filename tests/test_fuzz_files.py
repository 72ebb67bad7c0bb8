"""Fuzz the problem-file front end: every document ends in exit 0, 1 or 2.

Each example builds a small well-formed document of one of the three
kinds, then replaces or deletes up to two of its fields (at any depth)
with a malformed value: a wrong type, null, a boolean, a float, an empty
list or object, a bad exact string, a surd where a rational is required,
or an exponent string.  The document then runs through ``cli.run`` for
``decide``, ``hidden-variable`` and ``inequalities``.  Exit 3 (an
internal error) is never an acceptable answer to a file.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from jointfeas import cli
from jointfeas.files import PROBLEM_SCHEMA

NAMES = ("X", "Y", "Z")
RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "2/4", "-1/3", 0, 1, -1])
SURDS = st.sampled_from(
    [{"minus_cos_degrees": 45}, {"minus_cos_degrees": 150}, {"poly": ["-3", "0", "1"], "interval": ["1", "2"]}]
)
MALFORMED = st.sampled_from(
    [
        None, True, False, 0.5, float("nan"), float("inf"), -7, 10**6, [], {}, [[]], ["1"],
        "", " ", "abc", "1/0", "1//2", "--1", "0x10", "1e5000", "1E-3", "-2.5e1", "1" + "0" * 5000,
        {"minus_cos_degrees": 30}, {"minus_cos_degrees": True}, {"minus_cos_degrees": "30"},
        {"poly": ["-2", "0", "1"], "interval": ["1", "2"]}, {"poly": "x"}, {"poly": [1, 2, 3], "interval": [0]},
        {"poly": ["1", "0", "1"], "interval": ["-1", "1"]}, {"unknown": 1},
    ]
)
EXACT = st.one_of(RATIONALS, SURDS)


@st.composite
def finite_moment(draw):
    names = NAMES[: draw(st.integers(1, 3))]
    values = st.lists(st.sampled_from(["-2", "-1", "0", "1/2", "1"]), min_size=1, max_size=3, unique=True)
    supports = [sorted(draw(values), key=Fraction) for _ in names]
    doc = {
        "schema": PROBLEM_SCHEMA,
        "kind": "finite-moment",
        "variables": [{"name": n, "support": s} for n, s in zip(names, supports)],
    }
    if draw(st.booleans()):
        outcome = st.tuples(*(st.sampled_from(s) for s in supports))
        outcomes = draw(st.lists(outcome, min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(outcomes), max_size=len(outcomes)))
        total = sum(weights)
        mass = {",".join(o): f"{w}/{total}" for o, w in zip(outcomes, weights)}
        doc["distribution"] = {"mass": mass}
    else:
        monomials = [{n: 1} for n in names] + [{n: 2} for n in names]
        monomials += [{a: 1, b: 1} for i, a in enumerate(names) for b in names[i + 1 :]]
        constraint = st.fixed_dictionaries(
            {"exponents": st.sampled_from(monomials), "target": EXACT},
            optional={"relation": st.sampled_from(["==", "<=", ">="])},
        )
        doc["constraints"] = draw(st.lists(constraint, max_size=6, unique_by=lambda c: str(c["exponents"])))
    if draw(st.booleans()):
        doc["options"] = {"atom_cap": draw(st.integers(1, 64)), "allow_higher_order": draw(st.booleans())}
    return doc


@st.composite
def ghz(draw):
    doc = {"schema": PROBLEM_SCHEMA, "kind": "ghz"}
    if draw(st.booleans()):
        default = [[0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1], [2, 0, 1, 1]]
        doc["quadruples"] = draw(st.lists(st.sampled_from(default), min_size=1, max_size=6, unique_by=str))
    return doc


@st.composite
def gaussian(draw):
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.none(), st.sampled_from(["0", "1/2", "-1/2", "9/10", "-1"]))
    matrix = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(entry)
    doc = {"schema": PROBLEM_SCHEMA, "kind": "gaussian", "matrix": matrix}
    if draw(st.booleans()):
        doc["names"] = [f"G{i}" for i in range(n)]
        doc["means"] = draw(st.lists(RATIONALS, min_size=n, max_size=n))
        doc["variances"] = draw(st.lists(st.sampled_from(["1", "4", "1/4"]), min_size=n, max_size=n))
    if draw(st.booleans()):
        doc["options"] = {"tol": draw(st.sampled_from([0, 1e-10, 1e-6]))}
    return doc


def _slots(value, path=()):
    """Every (container path, key) at which a value sits, the root object excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _slots(child, path + (key,))


COMMANDS = {
    "finite-moment": [
        ["decide"],
        ["hidden-variable"],
        ["inequalities"],
        ["inequalities", "--which", "bell_original,chsh"],
        ["inequalities", "--which", "triple_lower_bound_with_means"],
    ],
    "ghz": [["decide"], ["hidden-variable"], ["inequalities"]],
    "gaussian": [["inequalities"], ["inequalities", "--which", "correlation_determinant"], ["decide"]],
}


@st.composite
def runs(draw):
    """A command line and the document it reads, with up to two fields malformed."""
    kind = draw(st.sampled_from(sorted(COMMANDS)))
    command = draw(st.sampled_from(COMMANDS[kind]))
    builder = {"finite-moment": finite_moment, "ghz": ghz, "gaussian": gaussian}[kind]
    # the sampled values are shared objects, so edit copies of them
    doc = copy.deepcopy(draw(builder()))
    for _ in range(draw(st.integers(0, 2))):
        path, key = draw(st.sampled_from(list(_slots(doc))))
        parent = doc
        for step in path:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(MALFORMED))
    return command, doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run=runs())
def test_every_problem_file_ends_in_a_result_or_exit_2(tmp_path_factory, run):
    command, doc = run
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run([command[0], str(path), *command[1:]])
    assert status in (0, 1, 2), err.getvalue()
