"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They run small, whole-block versions of every workload, so they take about
a minute.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import references
import run
import tracer
from workloads import GRID_SIZES, PROFILE_COMBOS, WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "iter/inversion", "pass/iter")


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        tracer.PER_LAYER
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result, details = run.run(workload, seed=3, seconds=0.0, trace=False, min_ops=1)
    assert result["correct"] and result["attempted"] == details["operations"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run_emits_every_layer_metric(workload):
    result, details = run.run(workload, seed=3, seconds=0.0, trace=True, trace_blocks=1)
    assert result["correct"] and details["absent"] == []
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_wrong_reference_is_caught_and_counted(monkeypatch):
    good, _ = run.run("invariants", seed=5, seconds=0.0, trace=False, min_ops=1)
    monkeypatch.setattr(references, "mu_g", lambda curve, a: 1.0)
    bad, details = run.run("invariants", seed=5, seconds=0.0, trace=False, min_ops=1)
    assert good["correct"] and not bad["correct"]
    assert bad["failed"] > good["failed"]
    assert bad["metrics"]["failed_frac"]["value"] > good["metrics"]["failed_frac"]["value"]
    assert details["operations_by_kind"]["invariants.catalog"]["fail"] == 4  # the four cusps


def test_known_defects_count_as_failed_but_not_incorrect():
    result, details = run.run("synthesis", seed=5, seconds=0.0, trace=False, min_ops=1)
    tallies = details["operations_by_kind"]
    assert result["correct"] and result["failed"] > 0
    assert result["failed"] == sum(t.get("known-defect", 0) for t in tallies.values())


def test_times_are_rescaled_by_the_calibration_kernel(monkeypatch):
    # A kernel twice as slow as the reference halves every reported time.
    monkeypatch.setattr(
        run.calibration, "time_kernel", lambda kernel: 2.0 * run.calibration.REF_KERNEL_S
    )
    ck = run.load_cuspkit()
    wl = WORKLOADS["invariants"](1)
    raw, scaled, kernels, blocks = run.timed_loop(
        ck, wl, wl.block(0), 0.0, 1, run.Tally(), run.calibration.mixed
    )
    assert blocks == 1 and len(kernels) == len(raw) >= 1
    assert scaled == [t / 2.0 for t in raw]


def test_profile_blocks_cover_every_stratum_of_a():
    wl = WORKLOADS["profile"](4)
    for index in range(3):
        ops = [op for op in wl.block(index) if not op.kind.startswith("probe.")]
        for n in GRID_SIZES:
            strata = sorted(int((op.inputs["a"] - 0.5) / 0.15) for op in ops if op.inputs["n"] == n)
            assert strata == list(range(len(PROFILE_COMBOS)))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_fixes_the_inputs(workload):
    def inputs(seed):
        wl = WORKLOADS[workload](seed)
        return [op.inputs for b in range(2) for op in wl.block(b)]

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


@pytest.mark.parametrize("workload", ["synthesis", "invariants"])
def test_traced_counts_repeat_for_a_seed(workload):
    def counts():
        result, _ = run.run(workload, seed=9, seconds=0.0, trace=True, trace_blocks=1)
        return {
            k: v["value"]
            for k, v in result["metrics"].items()
            if v["unit"] in EXACT_UNITS or k == "synthesis.rk4.kept_frac"
        }

    first = counts()
    assert first == counts()
    assert any(v > 0 for v in first.values())


def test_absent_target_is_reported_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(
        tracer, "TARGETS", tracer.TARGETS + (("gone.fn", "synthesis", "_removed_helper", None),)
    )
    result, details = run.run("invariants", seed=1, seconds=0.0, trace=True, trace_blocks=1)
    assert details["absent"] == ["synthesis._removed_helper"]
    assert result["correct"]
