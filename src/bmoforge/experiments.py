"""Config-driven experiment runner.

Each kind writes its outputs (CSV tables, a JSON-lines check report where
applicable) plus a manifest.json into the config's output directory. Output
bytes are a pure function of (config, seed, tool version): CSV files carry no
timestamps and floats are written with repr. Case batteries run serially;
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
from .bounds import PartitionTooCoarseError
from .ensemble import PathEnsemble
from .estimators import (
    empirical_rho_grid,
    holder_exponent_fit,
    loglog_fit,
    scalar_field_registry,
)
from .oscillation import oscillation_grid
from .processes import random_nondecreasing_process, random_process, random_space
from .rng import PURPOSE_MODEL, philox_stream
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

def _make_case(config: ExperimentConfig, index: int):
    p = config.params
    rng = philox_stream(config.seed, PURPOSE_MODEL, index)
    space = random_space(rng, p["depth"], p["branching"],
                         random_transitions=p["random_transitions"])
    proc = random_process(space, rng, kind=p["process_kind"])
    return rng, space, proc


def _jn_battery(config: ExperimentConfig, index: int) -> list[CheckReport]:
    _, space, proc = _make_case(config, index)
    grid = oscillation_grid(proc)
    return [jn_moment_check(proc, grid, r, pp)
            for pp in config.params["p_list"] for r in range(space.depth)]


def _verify_battery(config: ExperimentConfig, index: int) -> list[CheckReport]:
    rng, space, proc = _make_case(config, index)
    p = config.params
    grid = oscillation_grid(proc)
    controls = {pp: variation_control(grid, pp) for pp in p["p_list"]}
    # The exp-vmo left-hand side depends on the process and lam, not on p.
    vmo_lhs = {lam: _exp_vmo_lhs(proc, lam) for lam in p["lambda_list"]}
    unit_control = controls[1] if 1 in controls else variation_control(grid, 1)
    reports = [
        jump_kappa_check(grid),
        monotonicity_check(grid),
        triangle_check(grid),
        pathwise_increment_check(proc, unit_control),
        stopping_pair_bound_check(grid),
        maximal_check(proc, grid),
    ]
    for pp in p["p_list"]:
        control = controls[pp]
        reports.append(superadditivity_check(control))
        reports.append(control_domination_check(grid, control))
        reports.append(jn_moment_check(proc, grid, 0, pp))
        for lam in p["lambda_list"]:
            reports.append(_exp_vmo_report(vmo_lhs[lam], control, lam))

    # Appendix-style checks need a nondecreasing companion process.
    a = random_nondecreasing_process(space, rng)
    reports.append(energy_check(a, min(p["p_list"])))
    for lam in p["lambda_list"]:
        try:
            reports.append(khasminskii_check(a, lam))
        except PartitionTooCoarseError:
            pass  # inequality not applicable at this lam; not a violation

    # Tail bound with the always-valid dominating variable 2 sup|V|.
    u_leaf = 2.0 * np.abs(proc.paths).max(axis=1)
    spread = float(u_leaf.max())
    if spread > 0.0:
        alpha = 0.25 * spread * (1.0 + float(rng.uniform(0.0, 1.0)))
        beta = 0.25 * spread * (1.0 + float(rng.uniform(0.0, 1.0)))
        reports.append(garsia_check(proc, u_leaf, alpha, beta))
    return reports


def _run_cases(config: ExperimentConfig, battery, out_dir: Path):
    p = config.params
    reports = [rep for i in range(p["n_processes"]) for rep in battery(config, i)]
    reports_to_jsonl(reports, out_dir / "checks.jsonl")
    rows = summarize_reports(reports)
    write_summary_csv(rows, out_dir / "summary.csv")
    ok = all(rep.holds for rep in reports)
    extra = {
        "n_processes": p["n_processes"],
        "n_checks": len(reports),
        "violations": sum(0 if rep.holds else 1 for rep in reports),
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
