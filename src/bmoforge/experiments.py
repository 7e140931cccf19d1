"""Config-driven experiment runner.

Each kind writes its outputs (CSV tables, a JSON-lines check report where
applicable) plus a manifest.json into the config's output directory. Output
bytes are a pure function of (config, seed, tool version): CSV files carry no
timestamps and floats are written with repr.

The case kinds draw every case from its own Philox stream, in index order,
and check consecutive cases as one stack: each engine and check makes one
array pass per group of cases, and the group's reports are written case by
case as if each case had been checked alone. A group holds as many cases as
fit the ensemble's chunk budget (:func:`_group_size`). Groups run serially;
the config's worker count is accepted and has no effect.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (
    CheckReport,
    _exp_vmo_lhs,
    _exp_vmo_report,
    case_report,
    control_domination_check,
    energy_check,
    garsia_check,
    jn_moment_check,
    jump_kappa_check,
    khasminskii_check,
    maximal_check,
    monotonicity_check,
    pathwise_increment_check,
    reports_to_jsonl,
    stopping_pair_bound_check,
    summarize_reports,
    superadditivity_check,
    triangle_check,
    write_summary_csv,
)
from .config import ExperimentConfig, config_hash
from .controls import variation_control
from . import ensemble
from .bounds import PartitionTooCoarseError
from .ensemble import PathEnsemble
from .estimators import (
    empirical_rho_grid,
    holder_exponent_fit,
    loglog_fit,
    scalar_field_registry,
)
from .oscillation import oscillation_grid
from .processes import (random_nondecreasing_process, random_process, random_space,
                        stack_processes)
from .rng import PURPOSE_MODEL, philox_stream
from .space import stack_spaces
from .schemes import (
    davie_functional,
    davie_moments,
    quadrature_modulus_proxy,
    strong_error,
)
from .sde import SdeModel, TamingPolicy, ellipticity_check

__all__ = ["RunManifest", "run_experiment"]


@dataclass
class RunManifest:
    kind: str
    config_hash: str
    tool_version: str
    seed: int
    started_at: str
    finished_at: str
    outputs: list[str]
    ok: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "bmoforge/manifest-v1",
            "kind": self.kind,
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "outputs": self.outputs,
            "ok": self.ok,
            "extra": self.extra,
        }


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# -- exact-suite case batteries ----------------------------------------------

# Why a check writes no report for a case, by check name.
_SKIP_REASONS = {"khasminskii-exp": "lam * rho >= 1 on a unit cell"}


def _make_case(config: ExperimentConfig, index: int):
    p = config.params
    rng = philox_stream(config.seed, PURPOSE_MODEL, index)
    space = random_space(rng, p["depth"], p["branching"],
                         random_transitions=p["random_transitions"])
    proc = random_process(space, rng, kind=p["process_kind"])
    return rng, space, proc


def _stack(spaces, processes):
    space = stack_spaces(spaces)
    return space, stack_processes(space, processes)


def _jn_battery(config: ExperimentConfig, indices) -> tuple[list[CheckReport], dict]:
    _, proc = _stack(*zip(*(_make_case(config, i)[1:] for i in indices)))
    grid = oscillation_grid(proc)
    batches = [jn_moment_check(proc, grid, r, pp)
               for pp in config.params["p_list"] for r in range(proc.depth)]
    return [case_report(b, i) for i in range(len(indices)) for b in batches], {}


def _verify_cases(config: ExperimentConfig, indices):
    """The group's processes and their nondecreasing companions as two
    stacks, the stack of the cases with a positive spread 2 max|V| (None
    when there is none), and each such case's (row, alpha, beta) for garsia.
    Each case's stream draws its process, its companion and then, for a
    positive spread, alpha and beta."""
    spaces, procs, companions, tails = [], [], [], []
    for row, i in enumerate(indices):
        rng, space, proc = _make_case(config, i)
        spaces.append(space)
        procs.append(proc)
        companions.append(random_nondecreasing_process(space, rng))
        spread = 2.0 * max(float(np.max(np.abs(v))) for v in proc.values)
        if spread > 0.0:
            tails.append((row, 0.25 * spread * (1.0 + float(rng.uniform(0.0, 1.0))),
                          0.25 * spread * (1.0 + float(rng.uniform(0.0, 1.0)))))
    space, proc = _stack(spaces, procs)
    rows = [row for row, _, _ in tails]
    tail = proc
    if len(rows) < len(procs):
        tail = _stack([spaces[i] for i in rows], [procs[i] for i in rows])[1] if rows else None
    return proc, stack_processes(space, companions), tail, tails


def _verify_battery(config: ExperimentConfig, indices) -> tuple[list[CheckReport], dict]:
    p = config.params
    proc, companion, tail_proc, tails = _verify_cases(config, indices)
    grid = oscillation_grid(proc)
    controls = {pp: variation_control(grid, pp) for pp in p["p_list"]}
    # The exp-vmo left-hand side depends on the process and lam, not on p.
    vmo_lhs = {lam: _exp_vmo_lhs(proc, lam) for lam in p["lambda_list"]}
    unit_control = controls[1] if 1 in controls else variation_control(grid, 1)
    batches = [
        jump_kappa_check(grid),
        monotonicity_check(grid),
        triangle_check(grid),
        pathwise_increment_check(proc, unit_control),
        stopping_pair_bound_check(grid),
        maximal_check(proc, grid),
    ]
    for pp in p["p_list"]:
        control = controls[pp]
        batches.append(superadditivity_check(control))
        batches.append(control_domination_check(grid, control))
        batches.append(jn_moment_check(proc, grid, 0, pp))
        batches += [_exp_vmo_report(vmo_lhs[lam], control, lam) for lam in p["lambda_list"]]
    # Appendix-style checks need a nondecreasing companion process.
    batches.append(energy_check(companion, min(p["p_list"])))
    khasminskii = [khasminskii_check(companion, lam) for lam in p["lambda_list"]]
    # Tail bound with the always-valid dominating variable 2 sup|V|.
    if tails:
        tail = garsia_check(tail_proc, 2.0 * np.abs(tail_proc.paths).max(axis=-1),
                            [a for _, a, _ in tails], [b for _, _, b in tails])
    tail_row = {i: row for row, (i, _, _) in enumerate(tails)}

    reports, skipped = [], {"khasminskii-exp": 0}
    for i in range(len(indices)):
        reports += [case_report(b, i) for b in batches]
        for b in khasminskii:
            try:
                reports.append(case_report(b, i))
            except PartitionTooCoarseError:
                skipped["khasminskii-exp"] += 1  # not applicable at this lam; not a violation
        if i in tail_row:
            reports.append(case_report(tail, tail_row[i]))
    return reports, skipped


def _group_size(params: dict) -> int:
    """Cases per stacked group: the ensemble's chunk budget over four times
    the exact side's work per case, n_leaves * (depth + 1)^2.

    Four, not one, because peak memory grows with the group while run time
    does not: in process, 200 binary depth-5 cases peaked about 3 MiB above
    checking them one at a time as one group of 200, about 1.4 MiB in groups
    of 113 and 0.3-0.5 MiB in groups of 56 (this budget), in 0.12-0.13 s
    each way.
    """
    work = params["branching"] ** params["depth"] * (params["depth"] + 1) ** 2
    return max(1, ensemble._CHUNK_ELEMENTS // (4 * work))


def _run_cases(config: ExperimentConfig, battery, out_dir: Path):
    p = config.params
    n, group = p["n_processes"], _group_size(p)
    reports, skipped = [], {}
    for start in range(0, n, group):
        group_reports, group_skipped = battery(config, range(start, min(start + group, n)))
        reports += group_reports
        for name, count in group_skipped.items():
            skipped[name] = skipped.get(name, 0) + count
    reports_to_jsonl(reports, out_dir / "checks.jsonl")
    rows = summarize_reports(reports)
    write_summary_csv(rows, out_dir / "summary.csv")
    ok = all(rep.holds for rep in reports)
    extra = {
        "n_processes": n,
        "n_checks": len(reports),
        "violations": sum(0 if rep.holds else 1 for rep in reports),
        "skipped": {name: {"count": count, "reason": _SKIP_REASONS[name]}
                    for name, count in skipped.items()},
    }
    return ["checks.jsonl", "summary.csv"], ok, extra


# -- Monte Carlo kinds --------------------------------------------------------

def _run_rho_grid(config: ExperimentConfig, out_dir: Path):
    p = config.params
    grid = empirical_rho_grid(
        scalar_field_registry[p["field"]], p["grid_times"], n_outer=p["n_outer"],
        n_inner=p["n_inner"], steps_per_unit=p["steps_per_unit"], seed=config.seed,
        proxy=p["proxy"],
    )
    rows = []
    n = len(grid.times)
    for i in range(n - 1):
        for j in range(i + 1, n):
            rows.append((i, j, float(grid.times[i]), float(grid.times[j]),
                         float(grid.values[i, j]), float(grid.stderrs[i, j])))
    _write_csv(out_dir / "grid.csv", ["i", "j", "s", "t", "value", "stderr"], rows)
    extra = {
        "monotone_violations": len(grid.monotone_violations),
        "proxy": p["proxy"],
    }
    try:
        fit = holder_exponent_fit(grid)
        extra["holder_slope"] = fit.slope
        extra["holder_slope_stderr"] = fit.slope_stderr
    except ValueError:
        extra["holder_slope"] = None
    ok = not grid.monotone_violations
    return ["grid.csv"], ok, extra


def _run_davie(config: ExperimentConfig, out_dir: Path):
    p = config.params
    g = scalar_field_registry[p["field"]]
    ensemble = PathEnsemble(n_paths=p["n_paths"], n_steps=p["n_steps"], seed=config.seed)
    shifts = [float(x) for x in p["shifts"]]
    rows = []
    m2 = {}
    ratios = {}
    for shift, samples in zip(shifts, davie_functional(g, shifts, ensemble)):
        moments = davie_moments(samples, ms=p["moments"])
        for m, est in moments.items():
            rows.append((shift, m, est.value, est.stderr))
        if 2 in moments:
            m2[shift] = moments[2].value
        if 2 in moments and 4 in moments and moments[2].value > 0.0:
            # Consistency of the Gamma(m/2+1) moment growth between m=2 and 4:
            # fourth moment over Gamma(3) * (second moment / Gamma(2))^2.
            ratios[shift] = moments[4].value / (2.0 * moments[2].value ** 2)
    _write_csv(out_dir / "moments.csv", ["shift", "m", "value", "stderr"], rows)
    extra = {"shifts": shifts, "gamma_ratios": ratios}
    ok = True
    if len(m2) >= 2 and all(v > 0.0 for v in m2.values()):
        fit = loglog_fit(np.log(sorted(m2)), np.log([m2[s] for s in sorted(m2)]))
        extra["m2_slope"] = fit.slope
        extra["m2_slope_stderr"] = fit.slope_stderr
        ok = 1.8 <= fit.slope <= 2.2
    if ratios:
        ok = ok and all(0.5 <= r <= 2.0 for r in ratios.values())
    return ["moments.csv"], ok, extra


def _run_quadrature(config: ExperimentConfig, out_dir: Path):
    p = config.params
    f = scalar_field_registry[p["field"]]
    result = quadrature_modulus_proxy(
        f, p["ns"], seed=config.seed, n_outer=p["n_outer"], n_inner=p["n_inner"],
        anchor_times=p["anchor_times"], fine_per_block=p["fine_per_block"],
    )
    _write_csv(out_dir / "rates.csv", ["n", "value", "stderr"],
               list(zip(result.ns, result.values, result.stderrs)))
    extra = {"anchor_times": p["anchor_times"]}
    ok = True
    if result.fit is not None:
        extra["exponent"] = result.fit.slope
        extra["exponent_stderr"] = result.fit.slope_stderr
        ok = 0.4 <= result.fit.slope <= 0.6
    return ["rates.csv"], ok, extra


def _run_tamed_em(config: ExperimentConfig, out_dir: Path):
    p = config.params
    model = SdeModel(drift=scalar_field_registry[p["drift"]], sigma=p["sigma"], x0=p["x0"])
    taming = TamingPolicy(scale=p["taming_scale"], exponent=p["taming_exponent"],
                          log_power=p["taming_log_power"])
    extra = {}
    if p["sigma"] > 0.0:
        extra["ellipticity"] = ellipticity_check(model, p["ellipticity_bound"])
    n_ref = p["fine_factor"] * max(p["ns"])
    ensemble = PathEnsemble(n_paths=p["n_paths"], n_steps=n_ref, seed=config.seed)
    result = strong_error(model, taming, p["ns"], ensemble)
    _write_csv(
        out_dir / "rates.csv",
        ["n", "mean_sup_error", "stderr", "L2", "L4"],
        list(zip(result.ns, result.mean_sup_error, result.stderr, result.l2, result.l4)),
    )
    extra["reference_n"] = n_ref
    extra["taming_diagnostic"] = {str(n): taming.decay_diagnostic(n) for n in result.ns}
    monotone = all(
        result.mean_sup_error[k + 1]
        <= result.mean_sup_error[k] + result.stderr[k] + result.stderr[k + 1]
        for k in range(len(result.ns) - 1)
    )
    extra["monotone_within_stderr"] = monotone
    if result.fit is None:
        # The b = 0 control must also couple exactly.
        ok = monotone and (p["drift"] != "zero" or max(result.mean_sup_error) == 0.0)
        extra["slope"] = None
    else:
        extra["slope"] = result.fit.slope
        extra["slope_stderr"] = result.fit.slope_stderr
        ok = result.fit.slope >= 0.4 and monotone
    return ["rates.csv"], ok, extra


_RUNNERS = {
    "verify-finite": lambda cfg, out: _run_cases(cfg, _verify_battery, out),
    "jn-check": lambda cfg, out: _run_cases(cfg, _jn_battery, out),
    "rho-grid": _run_rho_grid,
    "davie": _run_davie,
    "quadrature": _run_quadrature,
    "tamed-em": _run_tamed_em,
}


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Run one configured experiment; write outputs and manifest.json."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _now()
    outputs, ok, extra = _RUNNERS[config.kind](config, out_dir)
    manifest = RunManifest(
        kind=config.kind,
        config_hash=config_hash(config),
        tool_version=__version__,
        seed=config.seed,
        started_at=started,
        finished_at=_now(),
        outputs=outputs,
        ok=ok,
        extra=extra,
    )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
