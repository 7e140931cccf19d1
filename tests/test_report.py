import json

import pytest

from bmoforge import report
from bmoforge.report import REPORT_HEADER, report_summary


def make_manifest(dir_path, kind, extra, ok=True, tag="00"):
    dir_path.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": "bmoforge/manifest-v1",
        "kind": kind,
        "config_hash": tag * 32,
        "tool_version": "0",
        "seed": 1,
        "started_at": "t0",
        "finished_at": "t1",
        "outputs": [],
        "ok": ok,
        "extra": extra,
    }
    path = dir_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_exact_suite_rows_come_from_summary_csv(tmp_path):
    d = tmp_path / "run"
    p = make_manifest(d, "jn-check", {})
    (d / "summary.csv").write_text(
        "check,n_cases,violations,worst_ratio\njn-moment,6,0,0.5\n"
    )
    rows, text = report_summary([p])
    assert rows[0][:6] == [
        "00" * 6, "jn-check", "jn-moment", "6", "0", "0.5"
    ]
    assert text.splitlines()[0].split() == REPORT_HEADER
    assert "-" in text.splitlines()[1]


def test_metric_rows_and_pooling(tmp_path):
    a = make_manifest(tmp_path / "a", "davie",
                      {"m2_slope": 2.0, "m2_slope_stderr": 0.1,
                       "gamma_ratios": {"0.1": 0.9, "0.2": 1.4}}, tag="aa")
    b = make_manifest(tmp_path / "b", "davie",
                      {"m2_slope": 2.2, "m2_slope_stderr": 0.2}, tag="bb")
    rows, _ = report_summary([a, b])
    by_metric = {(r[0], r[6]): r for r in rows}
    assert by_metric[("aa" * 6, "m2_slope")][7] == 2.0
    assert by_metric[("aa" * 6, "gamma_ratio_min")][7] == 0.9
    assert by_metric[("aa" * 6, "gamma_ratio_max")][7] == 1.4
    pooled = by_metric[("pooled", "m2_slope_pooled")]
    assert pooled[7] == pytest.approx(2.04)
    assert by_metric[("aa" * 6, "ok")][7] == 1


def test_tamed_and_quadrature_rows(tmp_path):
    t = make_manifest(tmp_path / "t", "tamed-em",
                      {"slope": 0.55, "slope_stderr": 0.02,
                       "monotone_within_stderr": True}, tag="cc")
    q = make_manifest(tmp_path / "q", "quadrature",
                      {"exponent": 0.5, "exponent_stderr": 0.01},
                      ok=False, tag="dd")
    rows, _ = report_summary([t, q])
    by_metric = {(r[0], r[6]): r for r in rows}
    assert by_metric[("cc" * 6, "slope")][7] == 0.55
    assert by_metric[("cc" * 6, "monotone_within_stderr")][7] == 1
    assert by_metric[("dd" * 6, "exponent")][7] == 0.5
    assert by_metric[("dd" * 6, "ok")][7] == 0


def test_rho_grid_rows_and_csv_output(tmp_path):
    r = make_manifest(tmp_path / "r", "rho-grid",
                      {"monotone_violations": 0, "holder_slope": 0.92,
                       "holder_slope_stderr": 0.04}, tag="ee")
    out = tmp_path / "agg.csv"
    rows, _ = report_summary([r], out_path=str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(REPORT_HEADER)
    assert len(lines) == 1 + len(rows)
    assert any("0.92" in line for line in lines)


def test_each_manifest_is_loaded_once(tmp_path, monkeypatch):
    paths = [make_manifest(tmp_path / "a", "davie", {"m2_slope": 2.0, "m2_slope_stderr": 0.1},
                           tag="aa"),
             make_manifest(tmp_path / "b", "davie", {"m2_slope": 2.2, "m2_slope_stderr": 0.2},
                           tag="bb"),
             make_manifest(tmp_path / "c", "quadrature", {"exponent": 0.5}, tag="cc")]
    expected = report_summary(paths)
    loaded = []

    def counted(path):
        loaded.append(path)
        return load(path)

    load = report._load_manifest
    monkeypatch.setattr(report, "_load_manifest", counted)
    assert report_summary(paths) == expected
    assert len(loaded) == len(paths)


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        report_summary([str(tmp_path / "absent.json")])
