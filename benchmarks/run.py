"""bmoforge benchmark driver.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ``bmoforge`` is imported from
``src/``, nothing is installed. Each workload is one ``bmoforge`` CLI
experiment whose config is generated from ``--seed``. The driver launches
one child process at a time (``benchmarks/child.py``, ``--jobs 1``) until
``--seconds`` have passed, checks every child's outputs, and prints one line
per child, one line per metric and, last, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, medians over the children.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of ``spans.py``; the untraced ones give the tracing
overhead.

A child fails when it times out, exits with a code other than 0 or 1, writes
outputs that break the workload's invariants or disagree with its manifest
or exit code, writes different bytes than the run's first child, or differs
from ``reference.json`` (exit code and sha256 of every CSV/JSONL output,
recorded from the unmodified program for the seeds listed there). In traced
runs a child also fails when an exact counter differs from the first traced
child, when a Monte Carlo workload lets ``PathEnsemble`` serve a full-range
request (its cache would then hide the per-consumer regeneration the
benchmark is meant to measure), or when the traced check count disagrees with
the manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED_SEED = 1
# Never used while tuning a change; confirms a claim made on the pinned seed.
HELD_OUT_SEED = 1009
CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 3


def _ols_slope(x: list[float], y: list[float]) -> float:
    # Written out here rather than taken from bmoforge, which is under test.
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_shift_avg(params: dict, out: Path, extra: dict) -> tuple[list[str], bool]:
    """Samples are 2 * time spent in (-shift, 0): in [0, 2] and nondecreasing in shift."""
    shifts, ms = params["shifts"], params["moments"]
    rows = _read_csv(out / "moments.csv")
    if [(float(r["shift"]), int(r["m"])) for r in rows] != [(s, m) for s in shifts for m in ms]:
        return ["moments.csv rows are not shifts x moments"], False
    val = {(float(r["shift"]), int(r["m"])): float(r["value"]) for r in rows}
    problems = [f"moment {m} at shift {s} outside (0, 2^{m}]"
                for s in shifts for m in ms if not 0.0 < val[s, m] <= 2.0 ** m]
    problems += [f"moment {m} decreases in the shift" for m in ms
                 if any(val[b, m] < val[a, m] for a, b in zip(shifts, shifts[1:]))]
    problems += [f"fourth moment below squared second moment at shift {s}"
                 for s in shifts if val[s, 4] < val[s, 2] ** 2 * (1.0 - 1e-12)]
    slope = _ols_slope([math.log(s) for s in shifts], [math.log(val[s, 2]) for s in shifts])
    ratios = {s: val[s, 4] / (2.0 * val[s, 2] ** 2) for s in shifts}
    if not math.isclose(slope, extra["m2_slope"], rel_tol=1e-9):
        problems.append(f"manifest m2_slope {extra['m2_slope']} != fitted {slope}")
    if any(not math.isclose(r, extra["gamma_ratios"][str(s)], rel_tol=1e-12)
           for s, r in ratios.items()):
        problems.append("manifest gamma_ratios disagree with moments.csv")
    ok = 1.8 <= slope <= 2.2 and all(0.5 <= r <= 2.0 for r in ratios.values())
    return problems, ok


def _check_tamed_euler(params: dict, out: Path, extra: dict) -> tuple[list[str], bool]:
    """Sup errors are positive and ordered mean <= L2 <= L4 (power means)."""
    ns = sorted(params["ns"])
    rows = _read_csv(out / "rates.csv")
    if [int(r["n"]) for r in rows] != ns:
        return ["rates.csv rows are not the meshes"], False
    mean = [float(r["mean_sup_error"]) for r in rows]
    err = [float(r["stderr"]) for r in rows]
    problems = [f"n={r['n']}: not 0 < mean <= L2 <= L4, stderr >= 0" for r in rows
                if not (0.0 < float(r["mean_sup_error"]) <= float(r["L2"]) * (1 + 1e-12)
                        and float(r["L2"]) <= float(r["L4"]) * (1 + 1e-12)
                        and float(r["stderr"]) >= 0.0)]
    slope = _ols_slope([-math.log(n) for n in ns], [math.log(e) for e in mean])
    monotone = all(mean[k + 1] <= mean[k] + err[k] + err[k + 1] for k in range(len(ns) - 1))
    if not math.isclose(slope, extra["slope"], rel_tol=1e-9):
        problems.append(f"manifest slope {extra['slope']} != fitted {slope}")
    if extra["monotone_within_stderr"] != monotone:
        problems.append("manifest monotone_within_stderr disagrees with rates.csv")
    if extra["reference_n"] != params["fine_factor"] * ns[-1]:
        problems.append("manifest reference_n is not fine_factor * max(ns)")
    return problems, slope >= 0.4 and monotone


def _check_verify_battery(params: dict, out: Path, extra: dict) -> tuple[list[str], bool]:
    """summary.csv and the manifest agree with the per-check records."""
    with open(out / "checks.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    tally: dict[str, list[int]] = {}
    for rec in records:
        entry = tally.setdefault(rec["check"], [0, 0])
        entry[0] += 1
        entry[1] += 0 if rec["holds"] else 1
    summary = [(r["check"], [int(r["n_cases"]), int(r["violations"])])
               for r in _read_csv(out / "summary.csv")]
    violations = sum(v for _, v in tally.values())
    problems = []
    if summary != list(tally.items()):
        problems.append("summary.csv disagrees with checks.jsonl")
    if (extra["n_checks"], extra["violations"], extra["n_processes"]) != (
            len(records), violations, params["n_processes"]):
        problems.append("manifest counts disagree with checks.jsonl")
    return problems, violations == 0


@dataclass(frozen=True)
class Workload:
    kind: str
    params: dict
    # (params, output dir, manifest "extra") -> (problems, the run's acceptance predicate)
    check: Callable[[dict, Path, dict], tuple[list[str], bool]]

    @property
    def monte_carlo(self) -> bool:
        return "n_paths" in self.params


# Sizes are fixed; a change to them starts a new series. n_paths is four of
# the consumer's chunks (4096 paths for davie_functional, 256 for
# strong_error): a single chunk would be a full-range request, which
# PathEnsemble caches, hiding the regeneration per consumer call.
WORKLOADS = {
    "shift-avg": Workload(
        "davie",
        {"field": "sign", "shifts": [0.05, 0.1, 0.2, 0.4], "n_paths": 16384,
         "n_steps": 1000, "moments": [2, 4]},
        _check_shift_avg),
    "tamed-euler": Workload(
        "tamed-em",
        {"drift": "sign", "sigma": 1.0, "ns": [8, 16, 32, 64, 128, 256],
         "fine_factor": 64, "n_paths": 1024},
        _check_tamed_euler),
    "verify-battery": Workload(
        "verify-finite",
        {"depth": 5, "branching": 2, "n_processes": 200, "p_list": [1, 2, 3],
         "lambda_list": [0.3], "process_kind": "gaussian", "random_transitions": True},
        _check_verify_battery),
}

def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in benchmark_json()[kind]}


@dataclass
class Child:
    traced: bool
    exit: int | None = None
    wall_s: float = math.nan
    setup_s: float = math.nan
    run_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    work: float = math.nan
    digests: dict = field(default_factory=dict)
    layers: dict | None = None
    problems: list = field(default_factory=list)


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".csv", ".jsonl")}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BMOFORGE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def write_config(wl: Workload, seed: int, path: Path) -> Path:
    path.write_text(json.dumps({"kind": wl.kind, "seed": seed, "params": wl.params}),
                    encoding="utf-8")
    return path


def run_child(wl: Workload, seed: int, config: Path, work_dir: Path, index: int,
              traced: bool) -> Child:
    """Run one child and collect its measurements; outputs are checked later."""
    child = Child(traced=traced)
    out = work_dir / f"out{index}"
    result = work_dir / f"child{index}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), "1" if traced else "0",
           wl.kind, "--config", str(config), "--seed", str(seed), "--out", str(out),
           "--jobs", "1"]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
        return child
    child.wall_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    child.exit = proc.returncode
    if proc.returncode not in (0, 1) or not result.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        child.problems.append(f"exit {proc.returncode}: {tail[0]}")
        return child
    rec = json.loads(result.read_text(encoding="utf-8"))
    if rec["exit"] != proc.returncode:
        child.problems.append(f"CLI returned {rec['exit']}, process exited {proc.returncode}")
    child.setup_s = rec["parsed_at"] - spawned
    child.run_s = rec["run_s"]
    child.cpu_s = rec["cpu_s"]
    child.peak_rss_mb = rec["peak_rss_kb"] / 1024.0
    if traced:
        child.layers = spans.aggregate(rec["trace"])
    child.problems += check_outputs(wl, seed, out, child)
    return child


def check_outputs(wl: Workload, seed: int, out: Path, child: Child) -> list[str]:
    """Workload invariants, and agreement of outputs, manifest and exit code."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        problems, predicate = wl.check(wl.params, out, manifest["extra"])
        child.digests = _digests(out)
    except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
        return [f"unreadable outputs: {exc!r}"]
    if (manifest["kind"], manifest["seed"]) != (wl.kind, seed):
        problems.append("manifest kind or seed differs from the config")
    if manifest["ok"] != predicate:
        problems.append(f"manifest ok={manifest['ok']} but the outputs say {predicate}")
    if child.exit != (0 if manifest["ok"] else 1):
        problems.append(f"exit {child.exit} does not match manifest ok={manifest['ok']}")
    # Sample paths for Monte Carlo workloads, checks otherwise.
    child.work = float(wl.params["n_paths"] if wl.monte_carlo
                       else manifest["extra"]["n_checks"])
    if child.layers is not None:
        if wl.monte_carlo and child.layers["ensemble.full_range_calls"]:
            problems.append("a full-range increments() call let PathEnsemble's cache "
                            "serve draws; raise n_paths")
        if not wl.monte_carlo and child.layers["checks.reports"] != manifest["extra"]["n_checks"]:
            problems.append("traced report count differs from the manifest's n_checks")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload].get(str(seed))


def compare(children: list[Child], reference: dict | None) -> None:
    """Cross-child checks: reference outputs, determinism, exact counters."""
    first = next((c for c in children if c.digests), None)
    first_traced = next((c for c in children if c.layers is not None), None)
    for c in children:
        if not c.digests:
            continue
        if reference is not None and (c.exit, c.digests) != (
                reference["exit"], reference["sha256"]):
            c.problems.append("outputs or exit code differ from reference.json")
        if (c.exit, c.digests) != (first.exit, first.digests):
            c.problems.append("outputs differ from the run's first child")
        if c.layers is not None:
            moved = [k for k in spans.EXACT_COUNTERS
                     if c.layers[k] != first_traced.layers[k]]
            if moved:
                c.problems.append(f"exact counters moved between traced runs: {moved}")


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> list[Child]:
    wl = WORKLOADS[name]
    config = write_config(wl, seed, work_dir / "config.json")
    # Compile bytecode and warm the file cache; the timed children then pay
    # only what every CLI invocation pays.
    subprocess.run([sys.executable, "-c", "import bmoforge.cli"], cwd=ROOT,
                   env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    children: list[Child] = []
    deadline = time.monotonic() + seconds
    while True:
        n_traced = sum(c.traced for c in children)
        enough = (n_traced >= 2 and len(children) - n_traced >= 1) if trace \
            else len(children) >= MIN_CHILDREN
        traced = trace and len(children) % 2 == 1
        # Start no child that would likely end after the deadline, so that a
        # run lasts about --seconds however long its children take.
        walls = [c.wall_s for c in children if c.traced == traced and not math.isnan(c.wall_s)]
        expected = statistics.median(walls) if walls else 0.0
        if enough and time.monotonic() + expected >= deadline:
            break
        child = run_child(wl, seed, config, work_dir, len(children), traced)
        children.append(child)
        print(f"child {len(children)} {'traced' if traced else 'plain'}: "
              f"exit {child.exit}, setup {child.setup_s:.3f} s, run {child.run_s:.3f} s, "
              f"cpu {child.cpu_s:.3f} s, rss {child.peak_rss_mb:.1f} MiB", flush=True)
    reference = load_reference(name, seed)
    if reference is None:
        print(f"no reference outputs for seed {seed}; the other checks still apply")
    compare(children, reference)
    return children


def end_to_end_metrics(children: list[Child]) -> dict:
    values = {
        "run_s": statistics.median(c.run_s for c in children),
        "work_per_s": statistics.median(c.work / c.run_s for c in children),
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "setup_s": statistics.median(c.setup_s for c in children),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
    }
    return {k: {"value": values[k], "unit": unit}
            for k, unit in metric_units("end_to_end").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help=f"workload seed (pinned {PINNED_SEED}, held out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bmoforge" / "__init__.py").is_file():
        print(f"error: no bmoforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        children = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [c for c in children if c.problems]
    for k, c in enumerate(children, 1):
        for problem in c.problems:
            print(f"child {k} FAILED: {problem}")
    # A child is measured once its timings and manifest were read.
    measured = [c for c in children if not math.isnan(c.work)]
    if not measured:
        print("error: no child produced measurements", file=sys.stderr)
        return 1
    if args.trace:
        traced = [c for c in measured if c.traced]
        untraced = [c for c in measured if not c.traced]
        if not traced or not untraced:
            print("error: need a traced and an untraced child", file=sys.stderr)
            return 1
        metrics = spans.per_layer_metrics(metric_units("per_layer"),
                                          [c.layers for c in traced],
                                          [c.run_s for c in traced],
                                          [c.run_s for c in untraced])
    else:
        metrics = end_to_end_metrics(measured)
    for k, m in metrics.items():
        print(f"{k} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
