import csv
import json
import sys

import pytest

from bmoforge import experiments
from bmoforge.config import config_hash, parse_config
from bmoforge.experiments import run_experiment
from bmoforge.space import FiniteFilteredSpace


def run_text(tmp_path, name, text):
    cfg = parse_config(text)
    cfg.out = str(tmp_path / name)
    manifest = run_experiment(cfg)
    return cfg, manifest


JN_SMALL = """
[experiment]
kind = jn-check
seed = 314

[jn-check]
depth = 2
branching = 2
n_processes = 3
p_list = 1, 2
process_kind = walk
"""


def test_jn_check_outputs_and_determinism(tmp_path):
    cfg, manifest = run_text(tmp_path, "a", JN_SMALL)
    _, again = run_text(tmp_path, "b", JN_SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for name in ("checks.jsonl", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert manifest.ok is True
    assert manifest.outputs == ["checks.jsonl", "summary.csv"]
    assert manifest.config_hash == config_hash(cfg)
    assert manifest.extra["violations"] == 0
    on_disk = json.loads((out_a / "manifest.json").read_text())
    assert on_disk["schema"] == "bmoforge/manifest-v1"
    assert on_disk["ok"] is True
    assert on_disk["seed"] == 314
    assert on_disk["started_at"] <= on_disk["finished_at"]


def test_verify_finite_small(tmp_path):
    text = """
[experiment]
kind = verify-finite
seed = 99

[verify-finite]
depth = 2
branching = 2
n_processes = 2
p_list = 2
lambda_list = 0.02
process_kind = gaussian
"""
    _, manifest = run_text(tmp_path, "v", text)
    assert manifest.ok is True
    assert manifest.extra["violations"] == 0
    assert manifest.extra["n_checks"] > 0
    lines = (tmp_path / "v" / "checks.jsonl").read_text().strip().split("\n")
    assert len(lines) == manifest.extra["n_checks"]
    assert all(json.loads(line)["holds"] for line in lines)


def test_verify_battery_builds_one_grid(monkeypatch):
    cfg = parse_config("""
[experiment]
kind = verify-finite
seed = 1

[verify-finite]
depth = 5
n_processes = 1
""")
    built = []
    for name, module in list(sys.modules.items()):
        fn = getattr(module, "oscillation_grid", None)
        if name.startswith("bmoforge") and fn is not None:
            def counted(*args, _fn=fn, **kwargs):
                built.append(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, "oscillation_grid", counted)
    reports, _ = experiments._verify_battery(cfg, range(1))
    assert len(built) == 1
    assert len(reports) > 10


def test_verify_battery_step_expectation_count(monkeypatch, tmp_path):
    # One batched step per level and backward sweep, 13 sweeps at depth 5,
    # whatever the number of cases in the group: the grid (every window and
    # deterministic pair), the running maximum's modulus, the companion's 5
    # one-step cell moduli, garsia's E[U | F_k] and its hypothesis sweep, and
    # 8 conditional expectations of leaf variables (3 jn-moment, maximal,
    # 2 energy, 2 garsia tail). A run over two groups takes twice that.
    text = """
[experiment]
kind = verify-finite
seed = 1

[verify-finite]
depth = 5
branching = 2
n_processes = {n}
"""
    calls = []
    step = FiniteFilteredSpace.step_expectation

    def counted(self, values, k):
        calls.append(k)
        return step(self, values, k)

    monkeypatch.setattr(FiniteFilteredSpace, "step_expectation", counted)
    for n in (1, 3):
        calls.clear()
        cfg = parse_config(text.format(n=n))
        assert experiments._group_size(cfg.params) >= n
        experiments._verify_battery(cfg, range(n))
        assert len(calls) == 65
    calls.clear()
    # Two cases per group: three cases run as two groups.
    monkeypatch.setattr(experiments.ensemble, "_CHUNK_ELEMENTS", 2 * 4 * 32 * 36)
    run_text(tmp_path, "two", text.format(n=3))
    assert len(calls) == 130


def test_verify_battery_builds_each_trajectory_matrix_once(monkeypatch):
    # 12 lifts to leaf granularity at depth 5: the 6 levels of the process's
    # trajectory matrix and the 6 of the nondecreasing companion's. Every
    # check reads the two cached matrices.
    cfg = parse_config("""
[experiment]
kind = verify-finite
seed = 1

[verify-finite]
depth = 5
branching = 2
n_processes = 1
""")
    calls = []
    lift = FiniteFilteredSpace.broadcast_to_leaves

    def counted(self, values, level):
        calls.append(level)
        return lift(self, values, level)

    monkeypatch.setattr(FiniteFilteredSpace, "broadcast_to_leaves", counted)
    experiments._verify_battery(cfg, range(1))
    assert len(calls) == 12


def test_verify_battery_computes_exp_vmo_lhs_once_per_lambda(monkeypatch):
    # The exp-vmo left-hand side does not depend on p: one sweep per lam
    # serves the reports of all three p.
    cfg = parse_config("""
[experiment]
kind = verify-finite
seed = 1

[verify-finite]
depth = 4
n_processes = 1
p_list = 1, 2, 3
lambda_list = 0.3, 0.7
""")
    lams = []
    lhs = experiments._exp_vmo_lhs

    def counted(process, lam):
        lams.append(lam)
        return lhs(process, lam)

    monkeypatch.setattr(experiments, "_exp_vmo_lhs", counted)
    reports, _ = experiments._verify_battery(cfg, range(1))
    assert lams == [0.3, 0.7]
    vmo = [rep.witness for rep in reports if rep.name == "exp-vmo"]
    assert [(w["p"], w["lam"]) for w in vmo] == [(p, lam) for p in (1, 2, 3) for lam in (0.3, 0.7)]


def test_verify_battery_past_the_enumeration_limit():
    # A ternary depth-5 tree is far past what enumeration could check; the
    # exact engine still runs the whole battery.
    cfg = parse_config("""
[experiment]
kind = verify-finite
seed = 1

[verify-finite]
depth = 5
branching = 3
n_processes = 1
""")
    reports, _ = experiments._verify_battery(cfg, range(1))
    assert len(reports) > 10
    assert all(rep.holds for rep in reports)


def test_rho_grid_constant_field(tmp_path):
    text = """
[experiment]
kind = rho-grid
seed = 5

[rho-grid]
field = one
grid_times = 0.5, 1.0, 2.0
n_outer = 2
n_inner = 4
steps_per_unit = 4
"""
    _, manifest = run_text(tmp_path, "rg", text)
    assert manifest.ok is True
    assert manifest.extra["monotone_violations"] == 0
    assert manifest.extra["holder_slope"] == pytest.approx(1.0, rel=1e-9)
    rows = (tmp_path / "rg" / "grid.csv").read_text().strip().split("\n")
    assert rows[0] == "i,j,s,t,value,stderr"
    assert len(rows) == 4  # header + 3 pairs


def test_davie_small(tmp_path):
    text = """
[experiment]
kind = davie
seed = 7

[davie]
field = sign
shifts = 0.1, 0.2
n_paths = 200
n_steps = 16
"""
    _, manifest = run_text(tmp_path, "dv", text)
    assert "m2_slope" in manifest.extra
    assert set(manifest.extra["gamma_ratios"]) == {0.1, 0.2}
    rows = (tmp_path / "dv" / "moments.csv").read_text().strip().split("\n")
    assert rows[0] == "shift,m,value,stderr"
    assert len(rows) == 5  # header + 2 shifts x 2 moments


def test_quadrature_small_no_fit(tmp_path):
    text = """
[experiment]
kind = quadrature
seed = 3

[quadrature]
field = sign
ns = 2, 4
n_outer = 2
n_inner = 8
anchor_times = 0.0, 0.5
fine_per_block = 2
"""
    _, manifest = run_text(tmp_path, "q", text)
    assert manifest.ok is True  # no fit on two meshes, nothing to violate
    assert "exponent" not in manifest.extra
    rows = (tmp_path / "q" / "rates.csv").read_text().strip().split("\n")
    assert rows[0] == "n,value,stderr"
    assert len(rows) == 3


def test_tamed_em_zero_drift_control(tmp_path):
    text = """
[experiment]
kind = tamed-em
seed = 11

[tamed-em]
drift = zero
ns = 2, 4
fine_factor = 2
n_paths = 4
"""
    _, manifest = run_text(tmp_path, "control", text)
    assert manifest.ok is True
    assert manifest.extra["slope"] is None
    assert manifest.extra["ellipticity"] == {"holds": True, "bound": 4.0}
    assert manifest.extra["reference_n"] == 8
    assert set(manifest.extra["taming_diagnostic"]) == {"2", "4"}


def test_tamed_em_records_failing_ellipticity(tmp_path):
    text = """
[experiment]
kind = tamed-em
seed = 11

[tamed-em]
drift = zero
sigma = 3.0
ellipticity_bound = 4
ns = 2, 4
fine_factor = 2
n_paths = 4
"""
    _, manifest = run_text(tmp_path, "wide", text)
    assert manifest.extra["ellipticity"] == {"holds": False, "bound": 4.0}


def test_tamed_em_deterministic_ode(tmp_path):
    text = """
[experiment]
kind = tamed-em
seed = 2

[tamed-em]
drift = neg-linear
sigma = 0.0
x0 = 1.0
ns = 4, 8, 16
fine_factor = 4
n_paths = 2
"""
    _, manifest = run_text(tmp_path, "ode", text)
    assert manifest.ok is True
    assert "ellipticity" not in manifest.extra  # skipped for sigma = 0
    assert manifest.extra["slope"] == pytest.approx(1.2232428749504214, rel=1e-9)
    assert manifest.extra["monotone_within_stderr"] is True


def test_verify_finite_counts_khasminskii_skips(tmp_path):
    # Each (case, lam) pair writes one khasminskii-exp record or counts as a
    # skip in the manifest; checks.jsonl and summary.csv carry no skips.
    text = """
[experiment]
kind = verify-finite
seed = 1

[verify-finite]
depth = 5
branching = 2
n_processes = 30
lambda_list = 0.3, 0.9
random_transitions = true
"""
    _, manifest = run_text(tmp_path, "skips", text)
    skipped = manifest.extra["skipped"]
    assert list(skipped) == ["khasminskii-exp"]
    assert skipped["khasminskii-exp"]["reason"] == "lam * rho >= 1 on a unit cell"
    with open(tmp_path / "skips" / "summary.csv", encoding="utf-8") as fh:
        rows = {row["check"]: int(row["n_cases"]) for row in csv.DictReader(fh)}
    count = skipped["khasminskii-exp"]["count"]
    assert count > 0 and rows["khasminskii-exp"] > 0
    assert count + rows["khasminskii-exp"] == 30 * 2
    on_disk = json.loads((tmp_path / "skips" / "manifest.json").read_text())
    assert on_disk["extra"]["skipped"] == skipped
    _, jn = run_text(tmp_path, "jn", JN_SMALL)
    assert jn.extra["skipped"] == {}
