import itertools
import json
import math
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import subprocess_env
from jointfeas import MomentConstraint, __version__, cli, expectation, feasibility, files, pm_one, point_mass
from jointfeas.algebraic import Surd, make_surd, sqrt_fraction
from jointfeas.errors import ValidationError
from jointfeas.geometry import RAY_BUDGET
from jointfeas.files import (
    PROBLEM_SCHEMA,
    REPORT_SCHEMA,
    canonical_dumps,
    encode_exact,
    parse_exact,
    parse_problem,
    render_report,
)
from jointfeas.cli import run

F = Fraction


def triple_file(moments, means=("0", "0", "0")):
    return {
        "schema": PROBLEM_SCHEMA,
        "kind": "finite-moment",
        "variables": [{"name": n, "support": ["-1", "1"]} for n in "XYZ"],
        "constraints": [
            {"exponents": {n: 1}, "target": m} for n, m in zip("XYZ", means)
        ]
        + [
            {"exponents": {a: 1, b: 1}, "target": e}
            for (a, b), e in zip((("X", "Y"), ("Y", "Z"), ("X", "Z")), moments)
        ],
    }


class TestExactParsing:
    def test_fraction_strings(self):
        assert parse_exact("-3/4") == F(-3, 4)
        assert parse_exact(7) == F(7)

    def test_floats_rejected(self):
        with pytest.raises(ValidationError):
            parse_exact(0.5)

    def test_minus_cos_degrees(self):
        v = parse_exact({"minus_cos_degrees": 30})
        assert isinstance(v, Surd) and v.d == 3 and v.b == F(-1, 2)
        assert parse_exact({"minus_cos_degrees": 60}) == F(-1, 2)
        assert parse_exact({"minus_cos_degrees": 90}) == 0
        assert parse_exact({"minus_cos_degrees": 135}) == sqrt_fraction(2) / 2
        with pytest.raises(ValidationError):
            parse_exact({"minus_cos_degrees": 10})
        for flag in (True, False):  # bool is an int subclass, not an angle
            with pytest.raises(ValidationError, match="minus_cos_degrees must be an integer"):
                parse_exact({"minus_cos_degrees": flag})

    def test_poly_interval_roundtrip(self):
        value = F(3, 2) - sqrt_fraction(3)
        encoded = encode_exact(value)
        assert encoded["poly"] == ["-3/4", "-3", "1"]
        back = parse_exact(encoded)
        assert back == value

    def test_rational_roundtrip_via_poly(self):
        v = parse_exact({"poly": ["-1/2", "1"], "interval": ["0", "1"]})
        assert v == F(1, 2)

    def test_interval_must_isolate(self):
        bad = {"poly": ["-3/4", "-3", "1"], "interval": ["10", "11"]}
        with pytest.raises(ValidationError):
            parse_exact(bad)


class TestProblemParsing:
    def test_unknown_field_rejected_with_path(self):
        obj = triple_file(["0", "0", "0"])
        obj["extra"] = 1
        with pytest.raises(ValidationError) as err:
            parse_problem(obj)
        assert "unknown fields" in str(err.value)

    def test_bad_schema(self):
        obj = triple_file(["0", "0", "0"])
        obj["schema"] = "nope"
        with pytest.raises(ValidationError):
            parse_problem(obj)

    def test_field_path_in_errors(self):
        obj = triple_file(["0", "0", "not-a-number"])
        with pytest.raises(ValidationError) as err:
            parse_problem(obj)
        assert "constraints[5].target" in str(err.value)

    def test_constraints_xor_distribution(self):
        obj = triple_file(["0", "0", "0"])
        obj["distribution"] = {"mass": {"-1,-1,-1": "1"}}
        with pytest.raises(ValidationError):
            parse_problem(obj)

    def test_distribution_parsing(self):
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": "X", "support": ["-1", "1"]}],
            "distribution": {"mass": {"-1": "1/4", "1": "3/4"}},
        }
        parsed = parse_problem(obj)
        dist = parsed["distribution"]
        assert dist.mass[(1,)] == F(3, 4)

    def test_surd_targets_flagged_non_rational(self):
        obj = triple_file([{"minus_cos_degrees": 30}, "0", "0"])
        parsed = parse_problem(obj)
        assert "problem" not in parsed
        assert len(parsed["constraints"]) == 6

    @pytest.mark.parametrize(
        "target", [{"minus_cos_degrees": 30}, "0", None], ids=["surd", "rational", "distribution"]
    )
    def test_each_finite_moment_load_checks_the_problem_once(self, monkeypatch, target):
        # The file layer checks only what builds no MomentProblem, whose
        # own check gives the same paths.
        calls = []
        real = feasibility._check_moment_problem
        spy = lambda *args: calls.append(args) or real(*args)  # noqa: E731
        monkeypatch.setattr(feasibility, "_check_moment_problem", spy)
        monkeypatch.setattr(files, "_check_moment_problem", spy)
        obj = triple_file([target, "0", "0"])
        if target is None:
            del obj["constraints"]
            obj["distribution"] = {"mass": {"-1,-1,-1": "1"}}
        parse_problem(obj)
        assert len(calls) == 1

    def test_ghz_default_and_quadruples(self):
        parsed = parse_problem({"schema": PROBLEM_SCHEMA, "kind": "ghz"})
        assert len(parsed["problem"].constraints) == 6
        parsed = parse_problem(
            {"schema": PROBLEM_SCHEMA, "kind": "ghz", "quadruples": [[0, 0, 0, 0]]}
        )
        assert len(parsed["problem"].constraints) == 1

    def test_gaussian_matrix(self):
        parsed = parse_problem(
            {
                "schema": PROBLEM_SCHEMA,
                "kind": "gaussian",
                "matrix": [["1", "1/2", None], ["1/2", "1", "1/2"], [None, "1/2", "1"]],
            }
        )
        corr = parsed["correlations"]
        assert corr.missing_positions() == [(0, 2)]


class TestCLI:
    def write(self, tmp_path, obj, name="problem.json"):
        path = tmp_path / name
        path.write_text(canonical_dumps(obj), encoding="utf-8")
        return str(path)

    def test_decide_exit_codes(self, tmp_path, capsys):
        feasible = self.write(tmp_path, triple_file(["1/2", "-1/2", "-1/2"]), "f.json")
        infeasible = self.write(tmp_path, triple_file(["-1/2", "-1/2", "-1/2"]), "i.json")
        assert run(["decide", feasible]) == 0
        assert run(["decide", infeasible]) == 1
        out = capsys.readouterr().out
        assert '"verdict": "infeasible"' in out

    def test_decide_report_is_deterministic(self, tmp_path):
        path = self.write(tmp_path, triple_file(["-1/2", "-1/2", "-1/2"]))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(["decide", path, "--oracle", "--out", str(out1)]) == 1
        assert run(["decide", path, "--oracle", "--out", str(out2)]) == 1
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["results"]["certificate_verified"] is True
        assert report["results"]["oracle"]["agrees"] is True

    def test_rerunning_on_echoed_input_reproduces_report(self, tmp_path):
        path = self.write(tmp_path, triple_file(["1/2", "-1/2", "-1/2"]))
        out1 = tmp_path / "r1.json"
        assert run(["decide", path, "--out", str(out1)]) == 0
        echoed = json.loads(out1.read_text())["input"]
        path2 = self.write(tmp_path, echoed, "echo.json")
        out2 = tmp_path / "r2.json"
        assert run(["decide", path2, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_file_is_status_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run(["decide", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        obj = triple_file(["0", "0", "0"])
        obj["constraints"][0]["exponents"] = {}
        assert run(["decide", self.write(tmp_path, obj)]) == 2

    def test_boolean_atom_cap_is_status_2(self, tmp_path, capsys):
        obj = triple_file(["0", "0", "0"])
        obj["options"] = {"atom_cap": True}
        assert run(["decide", self.write(tmp_path, obj)]) == 2
        assert "options.atom_cap" in capsys.readouterr().err
        ghz = {"schema": PROBLEM_SCHEMA, "kind": "ghz", "options": {"atom_cap": "many"}}
        assert run(["decide", self.write(tmp_path, ghz, "ghz.json")]) == 2
        assert "options.atom_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_minus_cos_degrees_is_status_2(self, tmp_path, capsys, flag):
        obj = triple_file([{"minus_cos_degrees": flag}, "0", "0"])
        assert run(["decide", self.write(tmp_path, obj)]) == 2
        assert "constraints[3].target" in capsys.readouterr().err

    @pytest.mark.parametrize("phase", [True, False])
    def test_boolean_ghz_phase_is_status_2(self, tmp_path, capsys, phase):
        ghz = {"schema": PROBLEM_SCHEMA, "kind": "ghz", "quadruples": [[phase, 0, 0, 0]]}
        assert run(["decide", self.write(tmp_path, ghz, "ghz.json")]) == 2
        assert "quadruples[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decide", "hidden-variable", "inequalities"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_atom_cap_flag_is_status_2(self, tmp_path, capsys, command, cap):
        path = self.write(tmp_path, triple_file(["1/2", "-1/2", "-1/2"]))
        assert run([command, path, "--atom-cap", cap]) == 2
        assert "--atom-cap" in capsys.readouterr().err

    def test_atom_cap_rule_is_shared_by_all_commands(self, tmp_path, capsys):
        # 8 atoms; the flag overrides the file's options.atom_cap
        obj = triple_file(["-1/2", "-1/2", "-1/2"])
        obj["options"] = {"atom_cap": 4}
        path = self.write(tmp_path, obj)
        for command in ("decide", "hidden-variable"):
            assert run([command, path]) == 2
            assert "above the cap 4" in capsys.readouterr().err
            assert run([command, path, "--atom-cap", "8"]) == 1
            capsys.readouterr()
        assert run(["inequalities", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["cross_check"] == {"skipped": "atom cap exceeded"}
        assert run(["inequalities", path, "--atom-cap", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["cross_check"]["decide_verdict"] == "infeasible"
        del obj["options"]
        path = self.write(tmp_path, obj, "uncapped.json")
        assert run(["inequalities", path, "--atom-cap", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["cross_check"] == {"skipped": "atom cap exceeded"}

    def test_oracle_over_its_ray_budget_is_a_skipped_row(self, tmp_path, capsys):
        # {-1, 0, 1} on four variables with zero means, squares 1/2 and pair
        # moments -1/10: 81 atoms, which decide settles at once, while the
        # oracle's double description grows past 39,000 rays.  The oracle
        # stops at its budget and the report says so; decide's verdict
        # sets the exit status.  A child with a timeout fails, where the
        # oracle without its budget would hang.
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": n, "support": ["-1", "0", "1"]} for n in "ABCD"],
            "constraints": [{"exponents": {n: 1}, "target": "0"} for n in "ABCD"]
            + [{"exponents": {n: 2}, "target": "1/2"} for n in "ABCD"]
            + [{"exponents": {a: 1, b: 1}, "target": "-1/10"} for a, b in itertools.combinations("ABCD", 2)],
        }
        path = self.write(tmp_path, obj)
        assert run(["decide", path]) == 0
        plain = json.loads(capsys.readouterr().out)["results"]
        proc = subprocess.run(
            [sys.executable, "-m", "jointfeas", "decide", path, "--oracle"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        results = json.loads(proc.stdout)["results"]
        assert results["verdict"] == "feasible" and results["witness"] == plain["witness"]
        assert results["oracle"] == {"skipped": f"double description holds more than {RAY_BUDGET} rays, the oracle's budget"}

    def test_oracle_over_its_atom_cap_is_a_skipped_row(self, tmp_path, capsys):
        # 3**8 = 6,561 atoms, past the oracle's 4,096-atom cap; decide
        # proves infeasibility by the range check.
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": f"X{i}", "support": ["-1", "0", "1"]} for i in range(8)],
            "constraints": [{"exponents": {"X0": 2}, "target": "2"}],
        }
        assert run(["decide", self.write(tmp_path, obj), "--oracle"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["verdict"] == "infeasible" and results["certificate_verified"]
        assert results["oracle"] == {"skipped": "oracle cap is 4096 atoms, problem has 6561"}

    def test_decide_leaves_the_degenerate_vertex_of_the_eighteen_cycle(self, tmp_path):
        # +-1 cycle n = 18 with every edge correlation -4/5: 262,144 atoms,
        # feasible, and every guide pivot after the second is degenerate.
        # The guide used to stall there; a child with a timeout fails
        # instead of hanging.
        names = [f"X{i}" for i in range(18)]
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": n, "support": ["-1", "1"]} for n in names],
            "constraints": [{"exponents": {n: 1}, "target": "0"} for n in names]
            + [{"exponents": {a: 1, b: 1}, "target": "-4/5"} for a, b in zip(names, names[1:] + names[:1])],
        }
        proc = subprocess.run(
            [sys.executable, "-m", "jointfeas", "decide", self.write(tmp_path, obj)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["results"]["verdict"] == "feasible"

    @pytest.mark.parametrize("names", [5, "XYZ", ["X", "Y", 3], ["X", "X", "Y"], ["X", "Y"]])
    def test_bad_gaussian_names_are_status_2(self, tmp_path, capsys, names):
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "gaussian",
            "matrix": [["1", "1/2", "1/2"], ["1/2", "1", "1/2"], ["1/2", "1/2", "1"]],
            "names": names,
        }
        # a TypeError would escape run() as a traceback with exit status 1
        assert run(["inequalities", self.write(tmp_path, obj)]) == 2
        assert "names:" in capsys.readouterr().err

    def test_zero_tolerance_reads_the_same_from_file_and_flag(self, tmp_path, capsys):
        # A singular matrix: its float lambda_min sits within rounding of 0,
        # so tol 0 and the default 1e-10 may disagree; file and flag may not.
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "gaussian",
            "matrix": [["1", "3/5", "4/5"], ["3/5", "1", "24/25"], ["4/5", "24/25", "1"]],
        }
        plain = self.write(tmp_path, obj, "plain.json")
        obj["options"] = {"tol": 0}
        zero = self.write(tmp_path, obj, "zero.json")
        verdicts = []
        for argv in (["inequalities", zero], ["inequalities", plain, "--tol", "0"]):
            assert run([*argv, "--which", "eigenvalue_feasible"]) == 0
            (row,) = json.loads(capsys.readouterr().out)["results"]["inequalities"]
            verdicts.append(row["verdict"])
        assert verdicts[0] == verdicts[1]

    PARTIAL = [["1", "1/2", None], ["1/2", "1", "1/2"], [None, "1/2", "1"]]
    KNOWN = [["1", "1/2", "1/2"], ["1/2", "1", "1/2"], ["1/2", "1/2", "1"]]

    @pytest.mark.parametrize(
        "matrix, which",
        [("PARTIAL", "eigenvalue_feasible"), ("KNOWN", "eigenvalue_feasible"), ("KNOWN", "correlation_determinant")],
    )
    @pytest.mark.parametrize("flag", ["-1", "nan", "inf"])
    def test_bad_tolerance_flag_is_status_2(self, tmp_path, capsys, flag, matrix, which):
        obj = {"schema": PROBLEM_SCHEMA, "kind": "gaussian", "matrix": getattr(self, matrix)}
        path = self.write(tmp_path, obj)
        assert run(["inequalities", path, "--which", which, f"--tol={flag}"]) == 2
        assert "--tol: tolerance must be a finite nonnegative number" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-1", "true", '"0"'])
    def test_bad_tolerance_option_is_status_2(self, tmp_path, capsys, token):
        # Python's json reads NaN and Infinity; the parser must still refuse them.
        obj = {"schema": PROBLEM_SCHEMA, "kind": "gaussian", "matrix": self.PARTIAL, "options": {"tol": 0}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj).replace('"tol": 0', f'"tol": {token}'), encoding="utf-8")
        assert run(["inequalities", str(path)]) == 2
        assert "options.tol: tolerance must be a finite nonnegative number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, values, path",
        [
            ("means", '["0", NaN, "0"]', "means[1]"),
            ("means", '["0", "0", Infinity]', "means[2]"),
            ("means", '[0.5, "0", "0"]', "means[0]"),
            ("means", '["0", "abc", "0"]', "means[1]"),
            ("means", '{"X1": "0"}', "means"),
            ("means", "null", "means"),
            ("variances", '["1", "1"]', "variances"),
            ("variances", '["1", -Infinity, "1"]', "variances[1]"),
            ("variances", '["1", "1", "0"]', "variances[2]"),
            ("variances", '["1", "-1/2", "1"]', "variances[1]"),
        ],
    )
    def test_bad_means_and_variances_are_status_2(self, tmp_path, capsys, field, values, path):
        # Python's json reads NaN and Infinity; they must not reach the echoed input.
        obj = {"schema": PROBLEM_SCHEMA, "kind": "gaussian", "matrix": self.KNOWN, field: "PLACEHOLDER"}
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(obj).replace('"PLACEHOLDER"', values), encoding="utf-8")
        assert run(["inequalities", str(problem)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    @pytest.mark.parametrize(
        "matrix, path",
        [
            ("[]", "matrix"),
            ('{"0": ["1"]}', "matrix"),
            ('[null, ["1/2", "1"]]', "matrix[0]"),
            ('[["1", "1/2"], true]', "matrix[1]"),
            ('[["1", "1/2"], 7]', "matrix[1]"),
            ('["ab", "cd"]', "matrix[0]"),
            ('[["1", "1/2"], ["1/2"]]', "matrix[1]"),
            ('[["1", "1%s"], ["0", "1"]]' % ("0" * 400), "matrix[0][1]"),
            ('[["1", "1/2"], ["-3/2", "1"]]', "matrix[1][0]"),
            ('[["1", "abc"], ["abc", "1"]]', "matrix[0][1]"),
            ('[["1", true], [true, "1"]]', "matrix[0][1]"),
            ('[["1", "1/2"], ["1/2", 0.5]]', "matrix[1][1]"),
            ('[["1", {"minus_cos_degrees": 30}], [{"minus_cos_degrees": 30}, "1"]]', "matrix[0][1]"),
            ('[["1", "1e5000"], ["1e5000", "1"]]', "matrix[0][1]"),
        ],
        ids=[
            "empty", "object", "null-row", "true-row", "number-row", "string-rows", "short-row",
            "huge-integer", "out-of-range", "bad-string", "boolean", "float", "surd", "exponent",
        ],
    )
    def test_bad_matrix_is_status_2_at_its_entry(self, tmp_path, capsys, matrix, path):
        problem = tmp_path / "problem.json"
        obj = {"schema": PROBLEM_SCHEMA, "kind": "gaussian", "matrix": "PLACEHOLDER"}
        problem.write_text(json.dumps(obj).replace('"PLACEHOLDER"', matrix), encoding="utf-8")
        assert run(["inequalities", str(problem)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda obj: obj["variables"][0]["support"].append("1e5000"), "variables[0].support[2]"),
            (lambda obj: obj["constraints"][0].update(target="1e-5000"), "constraints[0].target"),
            (lambda obj: obj["constraints"][3].update(target="-2.5E-1"), "constraints[3].target"),
        ],
        ids=["support", "target", "capital-E"],
    )
    def test_exponent_strings_are_status_2(self, tmp_path, capsys, edit, path):
        obj = triple_file(["0", "0", "0"])
        edit(obj)
        assert run(["decide", self.write(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and "exponents are not accepted" in err

    def test_oversized_integer_literal_is_status_2(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        text = json.dumps(triple_file(["0", "0", "0"])).replace('"target": "0"', '"target": 1' + "0" * 5000, 1)
        problem.write_text(text, encoding="utf-8")
        assert run(["decide", str(problem)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {problem}: invalid JSON:")

    @pytest.mark.parametrize(
        "head",
        [
            '"kind": "ghz"',
            '"kind": "finite-moment", "variables": [{"name": "X", "support": ["0"]}], "distribution": {"mass": {"0": "1"}}',
            '"kind": "gaussian", "matrix": [["1"]]',
        ],
        ids=["ghz", "finite-moment", "gaussian"],
    )
    @pytest.mark.parametrize("label", [7, "[" * 500 + "]" * 500], ids=["number", "nested-list"])
    def test_label_must_be_a_string(self, tmp_path, capsys, head, label):
        problem = tmp_path / "problem.json"
        problem.write_text(f'{{"schema": "{PROBLEM_SCHEMA}", {head}, "label": {label}}}', encoding="utf-8")
        assert run(["decide" if "matrix" not in head else "inequalities", str(problem)]) == 2
        assert capsys.readouterr().err == "error: label: expected a string\n"

    def test_deeply_nested_file_is_status_2(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert run(["decide", str(problem)]) == 2
        assert capsys.readouterr().err == f"error: {problem}: invalid JSON: nested too deeply\n"
        # a degree-1 "poly" coefficient may itself be a "poly" object
        target = '"1/2"'
        for _ in range(400):
            target = f'{{"poly": [{target}, "1"], "interval": ["-1", "1"]}}'
        obj = json.dumps(triple_file(["0", "0", "0"])).replace('"target": "0"', f'"target": {target}', 1)
        problem.write_text(obj, encoding="utf-8")
        assert run(["decide", str(problem)]) == 2
        assert capsys.readouterr().err == f"error: {problem}: exact numbers nested too deeply\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    @pytest.mark.parametrize("command", ["decide", "hidden-variable"])
    def test_report_values_past_the_int_digit_limit(self, tmp_path, command):
        # the witness masses need a denominator near q1 * q2, twice the digit limit
        q1, q2 = 10**3000 + 7, 10**3000 + 3 * 10**1500 + 1
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": n, "support": ["-1", "1"]} for n in "XY"],
            "constraints": [
                {"exponents": {"X": 1}, "target": f"1/{q1}"},
                {"exponents": {"Y": 1}, "target": f"1/{q2}"},
            ],
        }
        out = tmp_path / "report.json"
        limit = sys.get_int_max_str_digits()
        assert run([command, self.write(tmp_path, obj), "--out", str(out)]) == 0
        assert sys.get_int_max_str_digits() == limit
        results = json.loads(out.read_text())["results"]
        sys.set_int_max_str_digits(0)
        try:
            mass = {tuple(map(int, k.split(","))): F(p) for k, p in results["witness"]["mass"].items()}
        finally:
            sys.set_int_max_str_digits(limit)
        assert max(p.denominator for p in mass.values()) > 10**limit
        assert sum(mass.values()) == 1
        assert sum(p * x for (x, _), p in mass.items()) == F(1, q1)
        assert sum(p * y for (_, y), p in mass.items()) == F(1, q2)
        if command == "hidden-variable":
            assert all(results["verification"].values())

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    @pytest.mark.parametrize("spelling", ["1/{}", "{}", "-0.{}"])
    def test_a_target_past_the_int_digit_limit_is_named_and_cut(self, tmp_path, capsys, spelling):
        # Exit 2 at the target's field; the message names the limit and
        # quotes only the start of the value, not all of its digits.
        digits = sys.get_int_max_str_digits() + 700
        target = spelling.format("7" * digits)
        obj = triple_file(["0", "0", "0"])
        obj["constraints"][3]["target"] = target
        assert run(["decide", self.write(tmp_path, obj)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: constraints[3].target: not a rational number: {target[:40]!r}... ")
        assert f"({len(target)} characters)" in err
        assert f"has {digits} digits, past Python's limit of {digits - 700} digits" in err
        assert len(err) < 300

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    @pytest.mark.parametrize("command", ["decide", "hidden-variable", "inequalities"])
    def test_error_values_past_the_int_digit_limit(self, tmp_path, capsys, command):
        # the masses do not sum to 1, and their sum's denominator is near q1 * q2
        q1, q2 = 10**3000 + 7, 10**3000 + 3 * 10**1500 + 1
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": "X", "support": ["-1", "1"]}],
            "distribution": {"mass": {"-1": f"1/{q1}", "1": f"1/{q2}"}},
        }
        limit = sys.get_int_max_str_digits()
        assert run([command, self.write(tmp_path, obj)]) == 2
        assert sys.get_int_max_str_digits() == limit
        err = capsys.readouterr().err
        assert err.startswith("error: distribution: probabilities sum to ")
        assert err.endswith(", expected exactly 1\n")

    def test_exact_means_and_variances_are_accepted(self, tmp_path, capsys):
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "gaussian",
            "matrix": self.KNOWN,
            "means": ["0", -3, {"minus_cos_degrees": 30}],
            "variances": ["1/2", 2, "9"],
        }
        parsed = parse_problem(obj)
        assert parsed["means"] == [0, -3, -sqrt_fraction(Fraction(3, 4))]
        assert parsed["variances"] == [Fraction(1, 2), 2, 9]
        assert run(["inequalities", self.write(tmp_path, obj)]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["means"] == ["0", -3, {"minus_cos_degrees": 30}]

    @pytest.mark.parametrize("target", [{"minus_cos_degrees": 30}, "0"], ids=["surd", "rational"])
    @pytest.mark.parametrize(
        "edit,path",
        [
            (lambda obj: obj["constraints"].append({"exponents": {"W": 1}, "target": "0"}),
             "constraints[6].exponents.W"),
            (lambda obj: obj["constraints"].append({"exponents": {"X": 3}, "target": "0"}),
             "constraints[6].exponents.X"),
            (lambda obj: obj["constraints"].append(dict(obj["constraints"][1])), "constraints[6]"),
            (lambda obj: obj["variables"].append({"name": "Y", "support": ["0", "1"]}), "variables[3].name"),
        ],
        ids=["unknown-variable", "higher-order", "duplicate-constraint", "duplicate-variable"],
    )
    def test_constraint_errors_carry_their_path_for_any_target(self, tmp_path, capsys, target, edit, path):
        # A surd target builds no MomentProblem, yet the same checks run,
        # and either way the error names the offending field.
        obj = triple_file([target, "0", "0"])
        edit(obj)
        with pytest.raises(ValidationError) as err:
            parse_problem(obj)
        assert err.value.path == path
        assert run(["inequalities", self.write(tmp_path, obj)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    def test_distribution_duplicate_variable_carries_its_path(self, tmp_path, capsys):
        # The same path as a constraints file with the same variables.
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": "X", "support": ["-1", "1"]}, {"name": "X", "support": ["0", "1"]}],
            "distribution": {"mass": {"-1,0": "1"}},
        }
        with pytest.raises(ValidationError) as err:
            parse_problem(obj)
        assert err.value.path == "variables[1].name"
        assert run(["hidden-variable", self.write(tmp_path, obj)]) == 2
        assert capsys.readouterr().err.startswith("error: variables[1].name:")

    def test_boolean_exponent_is_status_2(self, tmp_path, capsys):
        obj = triple_file(["0", "0", "0"])
        obj["constraints"][0]["exponents"] = {"X": True}  # bool is an int subclass
        assert run(["decide", self.write(tmp_path, obj)]) == 2
        assert "constraints[0].exponents.X" in capsys.readouterr().err
        with pytest.raises(ValidationError):
            MomentConstraint.of({"X": True}, 0)
        with pytest.raises(ValidationError):
            expectation(point_mass((pm_one("X"),), (0,)), {"X": True})

    @pytest.mark.parametrize("flag", ["no", "false", 1, 0, None])
    def test_non_boolean_allow_higher_order_is_status_2(self, tmp_path, capsys, flag):
        obj = triple_file(["0", "0", "0"])
        obj["constraints"][0]["exponents"] = {"X": 3}
        obj["options"] = {"allow_higher_order": flag}
        assert run(["decide", self.write(tmp_path, obj)]) == 2
        assert "options.allow_higher_order" in capsys.readouterr().err
        obj["options"] = {"allow_higher_order": True}
        assert run(["decide", self.write(tmp_path, obj)]) == 0

    def test_internal_error_is_status_3(self, tmp_path, capsys, monkeypatch):
        def broken_gate(problem, **kwargs):
            raise AssertionError("simplex produced an invalid infeasibility certificate")

        monkeypatch.setattr(cli, "decide", broken_gate)
        path = self.write(tmp_path, triple_file(["-1/2", "-1/2", "-1/2"]))
        # an escaped exception used to exit 1, which reads as "infeasible"
        assert run(["decide", path]) == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: AssertionError: simplex produced")

    @pytest.mark.parametrize(
        "argv,status",
        [
            (["decide", "x.json", "--atom-cap", "abc"], 2),
            (["decide"], 2),
            (["no-such-command"], 2),
            (["--help"], 0),
            (["decide", "--help"], 0),
        ],
    )
    def test_argument_parsing_returns_its_status(self, capsys, argv, status):
        # argparse exits; run() turns that into a return value
        assert run(argv) == status
        captured = capsys.readouterr()
        assert ("usage: jointfeas" in captured.err) if status else ("usage: jointfeas" in captured.out)

    def test_parser_is_built_once_and_flags_do_not_leak(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        path = self.write(tmp_path, triple_file(["-1/2", "-1/2", "-1/2"]))
        out = tmp_path / "report.json"
        assert run(["decide", path, "--oracle", "--atom-cap", "4", "--out", str(out)]) == 2
        capsys.readouterr()
        # neither --atom-cap 4, --oracle nor --out carries over to the next run
        assert run(["decide", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "oracle" not in report["results"]
        assert not out.exists()
        args = cli.build_parser().parse_args(["decide", path])
        assert (args.atom_cap, args.oracle, args.out) == (None, False, None)

    def test_hidden_variable_from_distribution(self, tmp_path, capsys):
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": n, "support": ["-1", "0", "1"]} for n in "XYZ"],
            "distribution": {
                "mass": {
                    "-1,0,1": "1/6",
                    "1,-1,0": "1/6",
                    "0,1,-1": "1/6",
                    "1,0,-1": "1/6",
                    "-1,1,0": "1/6",
                    "0,-1,1": "1/6",
                }
            },
        }
        assert run(["hidden-variable", self.write(tmp_path, obj)]) == 0
        report = json.loads(capsys.readouterr().out)
        model = report["results"]["model"]
        assert model["deterministic"] is True
        assert len(model["lambda_points"]) == 6
        assert report["results"]["verification"]["factorization_full"] is True

    def test_repeated_outcome_is_status_2(self, tmp_path, capsys):
        # 1/2 and 2/4 name one outcome: read as one key, the masses would total 5/4
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": "X", "support": ["1/2", "1"]}],
            "distribution": {"mass": {"1/2": "1/4", "2/4": "1/2", "1": "1/2"}},
        }
        assert run(["hidden-variable", self.write(tmp_path, obj)]) == 2
        assert capsys.readouterr().err == "error: distribution.mass['2/4']: repeats the outcome '1/2'\n"

    def test_hidden_variable_infeasible_is_status_1(self, tmp_path, capsys):
        path = self.write(tmp_path, triple_file(["-1/2", "-1/2", "-1/2"]))
        assert run(["hidden-variable", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "certificate" in report["results"]

    def test_hidden_variable_on_ghz_default(self, tmp_path, capsys):
        path = self.write(tmp_path, {"schema": PROBLEM_SCHEMA, "kind": "ghz"})
        assert run(["hidden-variable", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["certificate_verified"] is True

    def test_inequalities_quantum_file(self, tmp_path, capsys):
        obj = triple_file(
            [
                {"minus_cos_degrees": 30},
                {"minus_cos_degrees": 30},
                {"minus_cos_degrees": 60},
            ]
        )
        assert run(["inequalities", self.write(tmp_path, obj), "--which", "bell_original"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = report["results"]["inequalities"]
        assert rows[0]["inequality"] == "bell_original"
        assert rows[0]["verdict"] == "violated"
        assert report["results"]["cross_check"]["skipped"] == "non-rational targets"

    def test_inequalities_cross_check_runs_decide(self, tmp_path, capsys):
        path = self.write(tmp_path, triple_file(["-1/2", "-1/2", "-1/2"]))
        assert run(["inequalities", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["cross_check"]["decide_verdict"] == "infeasible"
        verdicts = {r["inequality"]: r["verdict"] for r in report["results"]["inequalities"]}
        assert verdicts["bell_original"] == "satisfied"
        assert verdicts["triple_moment_bounds"] == "violated"

    def test_inequalities_missing_moments_named(self, tmp_path, capsys):
        obj = triple_file(["0", "0", "0"])
        del obj["constraints"][3]  # drop E(XY)
        assert run(["inequalities", self.write(tmp_path, obj)]) == 2
        assert "E(X*Y)" in capsys.readouterr().err

    def test_inequalities_read_each_moment_into_its_argument(self, tmp_path, capsys):
        pairs = [("A", "B"), ("A", "Bp"), ("Ap", "B"), ("Ap", "Bp")]
        chsh = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": n, "support": ["-1", "1"]} for n in ("A", "Ap", "B", "Bp")],
            "constraints": [
                {"exponents": {b: 1, a: 1}, "target": f"{k}/10"} for k, (a, b) in enumerate(pairs, 1)
            ],
        }
        triple = triple_file(["1/10", "1/5", "3/10"], means=("-1/10", "-1/5", "-3/10"))
        pair_inputs = {"exy": "1/10", "eyz": "1/5", "exz": "3/10"}
        expected = {
            "chsh": {"eab": "1/10", "eabp": "1/5", "eapb": "3/10", "eapbp": "2/5"},
            "spin1_strengthened": {"eab": "1/10", "eabp": "1/5", "eapb": "3/10", "eapbp": "2/5"},
            "triple_moment_bounds": pair_inputs,
            "triple_lower_bound_with_means": {**pair_inputs, "x0": "-1/10", "y0": "-1/5", "z0": "-3/10"},
            "bell_original": pair_inputs,
        }
        inputs = {}
        for obj in (chsh, triple):
            assert run(["inequalities", self.write(tmp_path, obj)]) == 0
            rows = json.loads(capsys.readouterr().out)["results"]["inequalities"]
            inputs.update({r["inequality"]: r["inputs"] for r in rows})
        assert inputs == expected

    def test_gaussian_inequalities(self, tmp_path, capsys):
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "gaussian",
            "matrix": [["1", "9/10", "-9/10"], ["9/10", "1", "9/10"], ["-9/10", "9/10", "1"]],
        }
        assert run(["inequalities", self.write(tmp_path, obj)]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = {r["inequality"]: r for r in report["results"]["inequalities"]}
        assert rows["eigenvalue_feasible"]["verdict"] == "violated"
        assert rows["correlation_determinant"]["verdict"] == "violated"

    def test_inequalities_all_on_a_partial_gaussian_matrix(self, tmp_path, capsys):
        # The README's gaussian example: `all` skips correlation_determinant,
        # which needs a fully known 3x3 matrix.
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "gaussian",
            "matrix": [["1", "9/10", None], ["9/10", "1", "9/10"], [None, "9/10", "1"]],
            "means": ["0", "1/2", "0"],
            "variances": ["1", "4", "1/4"],
            "options": {"tol": 1e-10},
        }
        assert run(["inequalities", self.write(tmp_path, obj)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]["inequalities"]
        assert (row["inequality"], row["method"]) == ("eigenvalue_feasible", "closed-form-midpoint")

    def test_inequalities_all_on_a_two_by_two_gaussian_matrix(self, tmp_path, capsys):
        obj = {"schema": PROBLEM_SCHEMA, "kind": "gaussian", "matrix": [["1", "1/2"], ["1/2", "1"]]}
        assert run(["inequalities", self.write(tmp_path, obj)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]["inequalities"]
        assert (row["inequality"], row["verdict"]) == ("eigenvalue_feasible", "satisfied")

    def test_named_determinant_on_a_partial_matrix_is_status_2(self, tmp_path, capsys):
        obj = {"schema": PROBLEM_SCHEMA, "kind": "gaussian", "matrix": self.PARTIAL}
        assert run(["inequalities", self.write(tmp_path, obj), "--which", "correlation_determinant"]) == 2
        assert capsys.readouterr().err == "error: correlation_determinant needs a fully known 3x3 matrix\n"

    def test_inequalities_all_on_two_variables_runs_no_form(self, tmp_path, capsys):
        obj = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": n, "support": ["-1", "1"]} for n in "XY"],
            "constraints": [{"exponents": {"X": 1, "Y": 1}, "target": "1/2"}],
        }
        path = self.write(tmp_path, obj)
        assert run(["inequalities", path]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["inequalities"] == []
        assert results["cross_check"]["decide_verdict"] == "feasible"
        # A named form outside its domain is still refused.
        assert run(["inequalities", path, "--which", "chsh"]) == 2
        assert capsys.readouterr().err == "error: chsh needs exactly four variables in the order A, A', B, B'\n"

    def test_zero_moment_file_all_satisfied(self, tmp_path, capsys):
        path = self.write(tmp_path, triple_file(["0", "0", "0"]))
        assert run(["inequalities", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(
            r["verdict"] == "satisfied" for r in report["results"]["inequalities"]
        )
        assert report["results"]["cross_check"]["decide_verdict"] == "feasible"

    def test_console_script_entry_point(self, tmp_path):
        path = self.write(tmp_path, triple_file(["1/2", "-1/2", "-1/2"]))
        proc = subprocess.run(
            [sys.executable, "-m", "jointfeas.cli", "decide", path],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert '"verdict": "feasible"' in proc.stdout

    @pytest.mark.parametrize("argv, status", [(["corpus"], 0), ([], 2)])
    def test_package_runs_as_a_module(self, argv, status):
        # Without a __main__, python -m jointfeas exited 1, which reads as "infeasible".
        proc = subprocess.run(
            [sys.executable, "-m", "jointfeas", *argv], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == status, proc.stderr


# ---------------------------------------------------------------------------
# The canonical writer against the two-pass form it replaced
# ---------------------------------------------------------------------------


def reference_jsonify(value):
    """A copy of ``value`` in JSON types, exact numbers spelled by ``encode_exact``."""
    if isinstance(value, (Fraction, Surd)):
        return encode_exact(value)
    if isinstance(value, Mapping):
        return {str(k): reference_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy arrays
        return reference_jsonify(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_dumps(obj):
    """The canonical text as the copy plus ``json.dumps`` wrote it."""
    return json.dumps(reference_jsonify(obj), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def reference_report(command, echo, results):
    return reference_dumps(
        {
            "schema": REPORT_SCHEMA,
            "engine": {"name": "jointfeas", "version": __version__},
            "command": command,
            "input": reference_jsonify(echo),
            "results": reference_jsonify(results),
        }
    )


class Label(str):
    """A caller's own string type."""


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, 0.1]
ODD_STRINGS = ["", "é", "日本", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\ud800", "\U0001f600", " "]

texts = st.one_of(st.text(max_size=6), st.sampled_from(ODD_STRINGS))
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
surds = st.builds(
    make_surd, st.fractions(max_denominator=30), st.fractions(max_denominator=30), st.integers(2, 40)
)
numpy_values = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    floats.map(np.float64),
    st.booleans().map(np.bool_),
    texts.map(np.str_),
    st.lists(st.integers(-(2**40), 2**40), max_size=4).map(np.array),
    st.lists(floats, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2)),
    st.lists(st.fractions(max_denominator=9), max_size=3).map(lambda v: np.array(v, dtype=object)),
)
# Short keys over a small alphabet so that text keys often equal str() of the others.
keys = st.one_of(
    st.text("0123/-TrueFalsNon", max_size=5),
    st.text("01-", max_size=2).map(Label),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.fractions(max_denominator=3),
)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, texts, texts.map(Label),
    st.fractions(), surds, numpy_values,
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(MappingProxyType),
    ),
    max_leaves=20,
)


class TestCanonicalWriter:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values)
    def test_dumps_matches_the_two_pass_reference(self, value):
        assert canonical_dumps(value) == reference_dumps(value)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(texts, values, st.dictionaries(keys, values, max_size=4))
    def test_render_report_matches_the_two_pass_reference(self, command, echo, results):
        assert render_report(command, echo, results) == reference_report(command, echo, results)

    @pytest.mark.parametrize(
        "value",
        [
            {1: "int", "1": "text"},
            {"1": "text", 1: "int"},
            {None: 0, "None": 1, True: 2, "True": 3},
            {F(1, 2): "exact", "1/2": "text", Label("1/2"): "label"},
            MappingProxyType({"b": (), "a": {}, "c": [[], {}]}),
            {"z": np.array([[1, 2], [3, 4]]), "y": np.array([], dtype=np.int64), "x": np.float64("nan")},
            [sqrt_fraction(2), -sqrt_fraction(F(1, 3)), F(-7, 3), -0.0, math.inf, -math.inf, 1e300],
            {Label("k"): Label("v\x01é"), "": ""},
        ],
    )
    def test_fixed_values_match_the_reference(self, value):
        assert canonical_dumps(value) == reference_dumps(value)

    @pytest.mark.parametrize(
        "bad", [object(), {1, 2}, b"bytes", 1j, frozenset()], ids=["object", "set", "bytes", "complex", "frozenset"]
    )
    def test_an_unsupported_value_raises_the_same_type_error(self, bad):
        value = {"a": [1, {"b": (F(1, 2), bad)}]}
        with pytest.raises(TypeError) as expected:
            reference_dumps(value)
        with pytest.raises(TypeError) as got:
            canonical_dumps(value)
        assert str(got.value) == str(expected.value) == f"cannot serialize {type(bad).__name__}"
        with pytest.raises(TypeError, match=f"cannot serialize {type(bad).__name__}"):
            render_report("decide", {}, value)

    def test_the_echo_is_the_validated_object(self):
        obj = triple_file(["0", "0", "0"])
        assert parse_problem(obj)["echo"] is obj

    def test_every_nesting_the_parser_accepts_renders(self, tmp_path, capsys):
        # The writer spends fewer frames per level than the parser, so a
        # file that parses also gets its report: exit 0, never 3.
        path = tmp_path / "problem.json"

        def decide_at(depth):
            target = '"1/2"'
            for _ in range(depth):
                target = f'{{"poly": [{target}, "1"], "interval": ["-1", "1"]}}'
            text = json.dumps(triple_file(["0", "0", "0"])).replace('"target": "0"', f'"target": {target}', 1)
            path.write_text(text, encoding="utf-8")
            code = run(["decide", str(path)])
            err = capsys.readouterr().err
            assert code == 0 or (code, err) == (2, f"error: {path}: exact numbers nested too deeply\n")
            return code

        low, high = 1, 400  # parses at low, not at high
        assert decide_at(low) == 0 and decide_at(high) == 2
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if decide_at(mid) == 0 else (low, mid)
        assert low > 100
