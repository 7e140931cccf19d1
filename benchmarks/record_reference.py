"""Record the reference outputs that ``run.py`` gates on.

    python3 benchmarks/record_reference.py

Runs one untraced child per workload and seed (0-31 and the held-out seed)
and writes, for each, the exit code and the sha256 of every CSV/JSONL output
to ``reference.json``. A child
whose outputs break the workload's invariants is not recorded. Record only
from a program whose outputs are known to be right; a change that alters
output bytes on purpose says so and re-records.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

# The table is rewritten whole, so every seed it gates must be listed here.
SEEDS = [*range(32), run.HELD_OUT_SEED]


def main() -> int:
    work_dir = run.ROOT / ".bench_runs" / f"record-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        for name, wl in run.WORKLOADS.items():
            table[name] = {}
            for seed in SEEDS:
                config = run.write_config(wl, seed, work_dir / f"{name}-{seed}.json")
                child = run.run_child(wl, seed, config, work_dir, seed, traced=False)
                if child.problems:
                    print(f"{name} seed {seed}: {child.problems}", file=sys.stderr)
                    return 1
                table[name][str(seed)] = {"exit": child.exit, "sha256": child.digests}
                print(f"{name} seed {seed}: exit {child.exit}", flush=True)
                shutil.rmtree(work_dir / f"out{seed}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    doc = {"program": "bmoforge 0.1.0", "workloads": table}
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
