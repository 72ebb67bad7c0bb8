import json
import sys

from jointfeas import check, corpus, feasibility
from jointfeas.cli import run
from jointfeas.corpus import corpus_dir, load_cases, run_case, run_corpus


def test_bundled_corpus_all_pass():
    results = run_corpus()
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_every_case_carries_an_anchor():
    for case in load_cases():
        assert case["anchor"], case["id"]
        assert case["id"], case["_path"]


def test_coverage_of_required_topics():
    ids = {case["id"] for case in load_cases()}
    required = {
        "triple_moment_grid",
        "chsh_grid",
        "counterexample_three_valued",
        "counterexample_rescaled",
        "counterexample_nonzero_means",
        "bell_not_sufficient",
        "bell_not_necessary",
        "bell_quantum_bisector",
        "ghz_default",
        "gaussian_equicorrelation_boundary",
        "gaussian_violation",
        "pushforward_pair_sums",
        "exchangeable_grid",
    }
    assert required <= ids


def test_corpus_drift_detected(tmp_path, capsys):
    # copy a few light cases, edit one expected value, expect FAIL + exit 1
    src = corpus_dir()
    for name in (
        "bell_not_sufficient_inequality.json",
        "bell_not_necessary_inequality.json",
        "chsh_boundary.json",
    ):
        (tmp_path / name).write_text((src / name).read_text(encoding="utf-8"))
    target = tmp_path / "bell_not_sufficient_inequality.json"
    case = json.loads(target.read_text())
    case["expected"]["slack"] = "1/3"
    target.write_text(json.dumps(case))
    code = run(["corpus", "--dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  bell_not_sufficient_inequality" in out
    assert "expected '1/3'" in out


def test_corpus_json_summary(tmp_path, capsys):
    src = corpus_dir()
    for name in ("chsh_boundary.json", "bell_not_necessary_inequality.json"):
        (tmp_path / name).write_text((src / name).read_text(encoding="utf-8"))
    code = run(["corpus", "--json", "--dir", str(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] == payload["total"] == 2
    assert all(c["status"] == "PASS" for c in payload["cases"])


def test_feasible_corpus_problems_yield_factorizing_models():
    """The constructive direction, exhibited: every feasible moment
    problem in the corpus gives a witness whose deterministic model
    factorizes fully and recomposes the witness exactly."""
    from jointfeas import construct_deterministic, decide, verify_factorization
    from jointfeas.files import parse_problem

    exercised = 0
    for case in load_cases():
        if case["kind"] != "decide":
            continue
        parsed = parse_problem(case["problem"])
        result = decide(parsed["problem"])
        if not result.feasible:
            continue
        model = construct_deterministic(result.witness)
        assert verify_factorization(model, "full").ok
        assert verify_factorization(model, 2).ok
        assert model.mixture().mass == result.witness.mass
        exercised += 1
    assert exercised >= 3


def test_corpus_env_override(tmp_path, monkeypatch, capsys):
    src = corpus_dir()
    name = "chsh_boundary.json"
    (tmp_path / name).write_text((src / name).read_text(encoding="utf-8"))
    monkeypatch.setenv("JOINTFEAS_CORPUS", str(tmp_path))
    code = run(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 cases passed" in out


def test_gaussian_cases_honor_the_file_tolerance(tmp_path, capsys):
    # A singular matrix: its float lambda_min sits within rounding of 0, so
    # tol 0 reads violated where the default 1e-10 reads boundary feasible.
    # A corpus case must read what `jointfeas inequalities` reads on its file.
    problem = {
        "schema": "jointfeas/problem/v1",
        "kind": "gaussian",
        "matrix": [["1", "3/5", "4/5"], ["3/5", "1", "24/25"], ["4/5", "24/25", "1"]],
        "options": {"tol": 0},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    assert run(["inequalities", str(path), "--which", "eigenvalue_feasible"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["results"]["inequalities"]
    assert row["verdict"] == "violated"
    case = {
        "id": "singular_tol_zero",
        "anchor": "singular correlation matrix read with tolerance 0",
        "kind": "gaussian_eigen",
        "problem": problem,
        "expected": {
            "feasible": row["verdict"] == "satisfied",
            "boundary": row["boundary"],
            "lambda_min_between": [-1e-10, 1e-10],
        },
    }
    result = run_case(case)
    assert result.passed, result.mismatches


def test_gaussian_completion_cases_pass_the_file_tolerance(monkeypatch):
    seen = []
    real = corpus.complete_correlations

    def spy(corr, tol):
        seen.append(tol)
        return real(corr, tol)

    monkeypatch.setattr(corpus, "complete_correlations", spy)
    case = next(c for c in load_cases() if c["kind"] == "gaussian_completion")
    run_case({**case, "problem": {**case["problem"], "options": {"tol": 0.001}}})
    assert seen == [0.001]


def test_corpus_verifies_each_certificate_once(monkeypatch):
    # decide and the oracle return a certificate only once their gate has
    # accepted it, so the corpus must not check it again under any name.
    verified, infeasible = [], []
    real_verify, real_proved = check.verify_certificate, feasibility._proved

    def verify(problem, certificate):
        verified.append(certificate)
        return real_verify(problem, certificate)

    def proved(*args, **kwargs):
        result = real_proved(*args, **kwargs)
        if not result.feasible:
            infeasible.append(result.method)
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("jointfeas") and getattr(module, "verify_certificate", None) is real_verify:
            monkeypatch.setattr(module, "verify_certificate", verify)
    monkeypatch.setattr(feasibility, "_proved", proved)
    results = run_corpus()
    assert all(r.passed for r in results)
    assert "simplex" in infeasible
    assert len(verified) == len(infeasible)
