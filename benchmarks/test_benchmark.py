"""Tests of the benchmark itself.

    python3 -m pytest benchmarks -q

The traced tests run each workload's pinned configuration twice (about half
a minute in all).
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys

import pytest

import run
import spans


@pytest.mark.parametrize("outside,inside", [(0.0, 0.0), (0.25, 0.125)])
def test_self_time_subtracts_direct_children(outside, inside):
    names = ["oscillation.oscillation_grid", "oscillation.oscillation_modulus",
             "space.step_expectation", "checks.reports_to_jsonl"]
    dump = {
        "names": names,
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1],
                  [1, 5.0, 6.0, -1], [3, 7.0, 9.0, -1]],
        "counters": {"ensemble.draws": 0, "ensemble.full_range_calls": 0,
                     "ensemble.size": 0, "checks.reports": 0},
        "span_cost_s": [outside, inside],
    }
    agg = spans.aggregate(dump)
    # Three oscillation spans; the grid and the first modulus call have a child each.
    assert agg["oscillation.self_s"] == pytest.approx(
        7.0 + 2.0 + 1.0 - 3 * inside - 2 * outside)
    assert agg["space.step_expectation.self_s"] == pytest.approx(1.0 - inside)
    assert agg["oscillation.oscillation_grid.calls"] == 1
    assert agg["oscillation.oscillation_modulus.calls"] == 1  # the other is inside the grid
    assert agg["checks.io_s"] == pytest.approx(2.0 - inside)
    assert agg["checks.self_s"] == 0.0
    assert agg["ensemble.redraw_ratio"] == 0.0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_runs_repeat_counters_and_match_reference(name, tmp_path):
    wl = run.WORKLOADS[name]
    seed = run.PINNED_SEED
    config = run.write_config(wl, seed, tmp_path / "config.json")
    children = [run.run_child(wl, seed, config, tmp_path, k, traced=True) for k in range(2)]
    reference = run.load_reference(name, seed)
    run.compare(children, reference)
    assert [c.problems for c in children] == [[], []]
    first, second = (c.layers for c in children)
    assert {k: first[k] for k in spans.EXACT_COUNTERS} == {
        k: second[k] for k in spans.EXACT_COUNTERS}

    # Any changed byte of an output fails the reference gate.
    out = tmp_path / "out0"
    target = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".jsonl"))[0]
    target.write_bytes(target.read_bytes().replace(b"\n", b"\r\n", 1))
    redo = run.Child(traced=False, exit=children[0].exit)
    redo.problems = run.check_outputs(wl, seed, out, redo)
    run.compare([redo], reference)
    assert "outputs or exit code differ from reference.json" in redo.problems


def test_single_chunk_ensemble_trips_the_cache_guard(tmp_path):
    wl = run.WORKLOADS["shift-avg"]
    small = dataclasses.replace(wl, params=dict(wl.params, n_paths=4096, n_steps=50))
    config = run.write_config(small, 3, tmp_path / "config.json")
    child = run.run_child(small, 3, config, tmp_path, 0, traced=True)
    assert any("PathEnsemble's cache" in p for p in child.problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "shift-avg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_span_costs_are_small_positive_times():
    assert all(0.0 < cost < 1e-4 for cost in spans.span_cost())
