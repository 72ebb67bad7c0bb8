"""Checks on the benchmark itself: seeded inputs, known verdicts, repeatable counters.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from jointfeas import feasibility, files

import generate as gen
import run
import tracing
import workloads

SEED = 0

# Counters that depend only on the inputs, never on timing.
DETERMINISTIC = (
    "simplex.pivots",
    "feasibility.monomial_value.calls",
    "geometry.dual_rays.calls",
    "geometry.rays",
    "geometry.generators",
    "simplex.tableau_cells",
    "files.report_bytes",
)


def test_same_seed_gives_same_instances():
    assert gen.grid_sweep_inputs(SEED) == gen.grid_sweep_inputs(SEED)
    assert gen.lattice_ladder_inputs(SEED) == gen.lattice_ladder_inputs(SEED)
    assert gen.oracle_crosscheck_inputs(SEED) == gen.oracle_crosscheck_inputs(SEED)
    assert gen.grid_sweep_inputs(SEED) != gen.grid_sweep_inputs(SEED + 1)
    assert gen.lattice_ladder_inputs(SEED) != gen.lattice_ladder_inputs(SEED + 1)
    assert gen.oracle_crosscheck_inputs(SEED) != gen.oracle_crosscheck_inputs(SEED + 1)


def _small(instance: gen.Instance) -> bool:
    """GHZ subsets and lattices of at most 32 atoms, to keep the test quick."""
    if instance.doc["kind"] == "ghz":
        return True
    variables = instance.doc["variables"]
    return len(variables[0]["support"]) ** len(variables) <= 32


def test_decide_confirms_every_known_verdict():
    instances = [
        i for i in gen.lattice_ladder_inputs(SEED) + gen.oracle_crosscheck_inputs(SEED) if _small(i)
    ]
    assert {i.verdict for i in instances} == {gen.FEASIBLE, gen.INFEASIBLE}
    for instance in instances:
        result = feasibility.decide(files.parse_problem(instance.doc)["problem"])
        assert result.verdict == instance.verdict, instance.name
        if instance.verdict == gen.INFEASIBLE:
            assert result.method != "range-check", instance.name

    points = [p for p in gen.grid_sweep_inputs(SEED) if isinstance(p, gen.GridPoint)][:100]
    assert {p.verdict for p in points} == {gen.FEASIBLE, gen.INFEASIBLE}
    for point in points:
        assert feasibility.decide(workloads.grid_problem(point)).verdict == point.verdict


def test_speed_scale_uses_reference_samples_around_the_operation():
    speed = run.Speedometer()
    speed.times = [0.0, 1.0, 10.0, 11.0]
    speed.durations = [run.REFERENCE_NOMINAL_S, run.REFERENCE_NOMINAL_S, 2 * run.REFERENCE_NOMINAL_S, 2 * run.REFERENCE_NOMINAL_S]
    assert speed.scale(0.2, 0.8) == 1.0
    assert speed.scale(10.2, 10.5) == 0.5
    assert speed.scale(30.0, 31.0) == 0.5  # no sample in the window: the nearest earlier one


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _slice(workload: str, workdir: Path) -> list[workloads.Op]:
    build, _ = workloads.WORKLOADS[workload]
    ops = build(SEED, workdir)
    if workload == "grid_sweep":
        return ops[:30]
    keep = ("pm1-n3",) if workload == "oracle_crosscheck" else ("pm1-n4", "v3-n3", "ghz-0")
    return [op for op in ops if any(k in op.name for k in keep)][:12]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(workload, tmp_path, alarm):
    ops = _slice(workload, tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        plain, traced = run.run_traced_pass(ops, 60.0, tracer)
        assert all(r.passed for r in plain.results + traced.results)
        assert [r.observed for r in traced.results] == [r.observed for r in plain.results]
        counts.append({k: tracer.counts[k] for k in DETERMINISTIC})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    # the patches are gone once the pass ends
    assert feasibility.decide.__module__ == "jointfeas.feasibility"
    assert not hasattr(feasibility.decide, "__wrapped__")
