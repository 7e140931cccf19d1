"""Frozen output bytes of the exact kinds.

The CSV/JSONL bytes of a fixed config and seed must survive a refactor of
the exact side unchanged, so a drift shows here rather than only in the
benchmark's reference check. Like ``benchmarks/reference.json``, these
sha256 digests are tied to the numpy version they were recorded with
(2.4.6): the bytes depend on its summation order and float formatting.
"""

import hashlib
import json

import pytest

from bmoforge.config import parse_config
from bmoforge.experiments import run_experiment

# The verify-battery workload's parameters of benchmarks/run.py.
_BENCHMARK_BATTERY = {"depth": 5, "branching": 2, "p_list": [1, 2, 3], "lambda_list": [0.3],
                      "process_kind": "gaussian", "random_transitions": True}

GOLDEN = {
    # Case 43 holds an exp-vmo record with log rhs 709.13, between the
    # saturating cut 709.0 and log DBL_MAX, written as rhs Infinity.
    "verify-finite-seed-13": (
        {"kind": "verify-finite", "seed": 13, "params": dict(_BENCHMARK_BATTERY, n_processes=44)},
        "f9d628f5f1b4c29ecb89554fc84caaf4aac497ab49a142fffb5f53c1c782ce1a",
        "4e09de32d805cbd54268c6cc6e48ccac70c810b60e5a4563fd0e52e2fac8d44a",
    ),
    "verify-finite-ternary": (
        {"kind": "verify-finite", "seed": 7,
         "params": {"depth": 4, "branching": 3, "n_processes": 20}},
        "edb33c224e2efd1df09eef242bd7c47bf2083d3847e7aa8e228fda68444ef20f",
        "099ab6bd71820d855aee577cda9906b3173af2eeb77654be2a221f208376f20d",
    ),
    "jn-check-seed-1009": (
        {"kind": "jn-check", "seed": 1009, "params": {"depth": 5}},
        "fb327720e69ab59e1e5793a29ec3a945168ae2aa6980fc7196db2974c4a4e37e",
        "e4dd4196494a5e9818c1d531af63585d84df66325db591e104e87270c9ef5617",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exact_kind_bytes_are_frozen(tmp_path, name):
    doc, checks_sha, summary_sha = GOLDEN[name]
    cfg = parse_config(json.dumps(doc))
    cfg.out = str(tmp_path)
    run_experiment(cfg)
    digest = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in ("checks.jsonl", "summary.csv")}
    assert digest == {"checks.jsonl": checks_sha, "summary.csv": summary_sha}
