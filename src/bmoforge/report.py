"""Aggregate reporting over run manifests: one flat table combining per-check
summaries from exact suites and headline metrics from Monte Carlo runs, plus
inverse-variance pooling of slopes across runs of the same kind.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .estimators import pooled_slope

__all__ = ["report_summary", "REPORT_HEADER"]

REPORT_HEADER = ["run", "kind", "check", "n_cases", "violations", "worst_ratio",
                 "metric", "value", "stderr"]


def _check_row(run, kind, check, n_cases, violations, worst_ratio):
    return [run, kind, check, n_cases, violations, worst_ratio, "", "", ""]


def _metric_row(run, kind, metric, value, stderr=""):
    return [run, kind, "", "", "", "", metric, value, stderr]


def _load_manifest(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON manifest ({exc})") from exc
    missing = [k for k in ("kind", "config_hash")
               if not isinstance(manifest, dict) or k not in manifest]
    if missing:
        raise ValueError(f"{path}: manifest lacks {', '.join(missing)}")
    not_text = [k for k in ("kind", "config_hash") if not isinstance(manifest[k], str)]
    if not_text:
        raise ValueError(f"{path}: {', '.join(not_text)} must be a string")
    if not isinstance(manifest.get("extra", {}), dict):
        raise ValueError(f"{path}: extra must be an object")
    return manifest


def _rows_for_manifest(path: Path, manifest: dict) -> list[list]:
    kind = manifest["kind"]
    run = manifest["config_hash"][:12]
    out_dir = path.parent
    rows: list[list] = []
    if kind in ("verify-finite", "jn-check"):
        summary = out_dir / "summary.csv"
        with open(summary, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in ("check", "n_cases", "violations", "worst_ratio")
                       if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{summary}: summary lacks column {', '.join(missing)}")
            for rec in reader:
                rows.append(_check_row(run, kind, rec["check"], rec["n_cases"],
                                       rec["violations"], rec["worst_ratio"]))
        return rows
    extra = manifest.get("extra", {})
    if kind == "rho-grid":
        rows.append(_metric_row(run, kind, "monotone_violations",
                                extra.get("monotone_violations", "")))
        if extra.get("holder_slope") is not None:
            rows.append(_metric_row(run, kind, "holder_slope", extra["holder_slope"],
                                    extra.get("holder_slope_stderr", "")))
    elif kind == "davie":
        if "m2_slope" in extra:
            rows.append(_metric_row(run, kind, "m2_slope", extra["m2_slope"],
                                    extra.get("m2_slope_stderr", "")))
        ratios = extra.get("gamma_ratios") or {}
        if not (isinstance(ratios, dict) and all(type(x) in (int, float) for x in ratios.values())):
            raise ValueError(f"{path}: gamma_ratios must map shifts to numbers")
        if ratios:
            vals = list(ratios.values())
            rows.append(_metric_row(run, kind, "gamma_ratio_min", min(vals)))
            rows.append(_metric_row(run, kind, "gamma_ratio_max", max(vals)))
    elif kind == "quadrature":
        if "exponent" in extra:
            rows.append(_metric_row(run, kind, "exponent", extra["exponent"],
                                    extra.get("exponent_stderr", "")))
    elif kind == "tamed-em":
        if extra.get("slope") is not None:
            rows.append(_metric_row(run, kind, "slope", extra["slope"],
                                    extra.get("slope_stderr", "")))
        rows.append(_metric_row(run, kind, "monotone_within_stderr",
                                int(bool(extra.get("monotone_within_stderr", False)))))
    rows.append(_metric_row(run, kind, "ok", int(bool(manifest.get("ok", False)))))
    return rows


def _pooled_rows(loaded) -> list[list]:
    fits = []
    for path, manifest in loaded:
        extra = manifest.get("extra", {})
        if manifest["kind"] == "davie" and "m2_slope" in extra:
            fit = (extra["m2_slope"], extra.get("m2_slope_stderr", 0.0))
            if not all(type(x) in (int, float) for x in fit):  # bool is not a number here
                raise ValueError(f"{path}: m2_slope and m2_slope_stderr must be numbers")
            fits.append(fit)
    if len(fits) < 2:
        return []
    slope, err = pooled_slope(fits)
    return [_metric_row("pooled", "davie", "m2_slope_pooled", slope, err)]


def _text_table(rows: list[list]) -> str:
    cells = [REPORT_HEADER] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[k]) for r in cells) for k in range(len(REPORT_HEADER))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def report_summary(manifest_paths, out_path=None) -> tuple[list[list], str]:
    """Build the aggregate table; optionally write it as CSV.

    Returns (rows, text_table). Unreadable manifests or referenced summaries
    raise OSError; a malformed manifest or summary raises ValueError: one
    that is not JSON, lacks a string ``kind`` or ``config_hash``, has an
    ``extra`` that is not an object, a summary without the summary columns,
    ``davie`` gamma ratios that are not numbers, or a pooled ``davie`` slope
    that is not a number.
    """
    loaded = [(path, _load_manifest(path)) for path in map(Path, manifest_paths)]
    rows = [row for path, manifest in loaded for row in _rows_for_manifest(path, manifest)]
    rows.extend(_pooled_rows(loaded))
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(REPORT_HEADER)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return rows, _text_table(rows)
