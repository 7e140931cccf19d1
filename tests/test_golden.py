"""Frozen output bytes of the exact and Monte Carlo kinds.

The CSV/JSONL bytes of a fixed config and seed must survive a refactor
unchanged, so a drift shows here rather than only in the benchmark's
reference check, which runs no `rho-grid` or `quadrature` config. Like ``benchmarks/reference.json``, these
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


# Each Monte Carlo config crosses a chunk edge of its inner or path draws:
# 1,500 and 1,100 inner paths, a 5,000 x 777 ensemble, and 120 outer states
# so that the quantile proxy picks another state than the max. The quadrature
# and davie configs fail their acceptance bands at these sizes (ok false);
# only the bytes are pinned.
GOLDEN_MONTE_CARLO = {
    "rho-grid-inv-abs-clip": (
        {"kind": "rho-grid", "seed": 7,
         "params": {"field": "inv-abs-clip", "n_outer": 8, "n_inner": 1500,
                    "steps_per_unit": 300}},
        "grid.csv", "866e031a862128bd43e5562fe9bac93f5485d2fd824ad56a8bef1c13454a752e",
    ),
    "rho-grid-quantile": (
        {"kind": "rho-grid", "seed": 5,
         "params": {"field": "coordinate", "proxy": "quantile", "n_outer": 120, "n_inner": 40,
                    "steps_per_unit": 2000, "grid_times": [0.1, 0.7, 1.3]}},
        "grid.csv", "4954ff0c639a8b9485a51c9790274a746f2e79c65b7f1c89da7e3f957e82c9a6",
    ),
    "quadrature-anchors": (
        {"kind": "quadrature", "seed": 2,
         "params": {"field": "coordinate", "ns": [10, 20, 40], "fine_per_block": 7,
                    "n_outer": 4, "n_inner": 1100, "anchor_times": [0.0, 0.1, 0.3]}},
        "rates.csv", "b96ade7c66688642b81fe423173bb1a6bdc3f23e652a43ce9a24f316982de4de",
    ),
    "davie-sign": (
        {"kind": "davie", "seed": 1,
         "params": {"field": "sign", "n_paths": 5000, "n_steps": 777, "moments": [2, 4, 8]}},
        "moments.csv", "3142a098494c0c4b22fef54a48d82bca53c62bb588cd0903e2e7c6e23580ae77",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MONTE_CARLO))
def test_monte_carlo_kind_bytes_are_frozen(tmp_path, name):
    doc, output, sha = GOLDEN_MONTE_CARLO[name]
    cfg = parse_config(json.dumps(doc))
    cfg.out = str(tmp_path)
    run_experiment(cfg)
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == sha
