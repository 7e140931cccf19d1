import json

import pytest

from bmoforge.cli import SEED_ENV, main

JN_TINY = """
[experiment]
kind = jn-check
seed = 11

[jn-check]
depth = 1
branching = 2
n_processes = 1
p_list = 1
process_kind = walk
"""

FAILING_TAMED = """
[experiment]
kind = tamed-em
seed = 4

[tamed-em]
drift = const
sigma = 0.0
ns = 4, 16, 64
fine_factor = 4
n_paths = 2
taming_scale = 0.01
taming_exponent = 0.4
taming_log_power = 0.0
"""


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def manifest_seed(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())["seed"]


def test_run_with_config(tmp_path, capsys):
    cfg = write(tmp_path, JN_TINY)
    code = main(["jn-check", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    out = capsys.readouterr().out
    assert "jn-check: ok" in out
    assert (tmp_path / "run" / "checks.jsonl").exists()
    assert manifest_seed(tmp_path / "run") == 11


def test_exit_one_when_check_fails(tmp_path, capsys):
    cfg = write(tmp_path, FAILING_TAMED)
    code = main(["tamed-em", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "FAILED" in capsys.readouterr().out


def test_kind_mismatch_and_bad_config(tmp_path, capsys):
    cfg = write(tmp_path, JN_TINY)
    code = main(["davie", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "subcommand" in capsys.readouterr().err
    bad = write(tmp_path, JN_TINY.replace("depth = 1", "depth = 9"), "bad.ini")
    code = main(["jn-check", "--config", bad])
    assert code == 2
    assert "depth" in capsys.readouterr().err


def test_seed_required_without_config(capsys):
    code = main(["jn-check"])
    assert code == 2
    assert SEED_ENV in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = write(tmp_path, JN_TINY)
    main(["jn-check", "--config", cfg, "--out", str(tmp_path / "c")])
    assert manifest_seed(tmp_path / "c") == 11
    monkeypatch.setenv(SEED_ENV, "22")
    main(["jn-check", "--config", cfg, "--out", str(tmp_path / "e")])
    assert manifest_seed(tmp_path / "e") == 22
    main(["jn-check", "--config", cfg, "--seed", "33", "--out", str(tmp_path / "f")])
    assert manifest_seed(tmp_path / "f") == 33


def test_jobs_flag_keeps_outputs_identical(tmp_path):
    cfg = write(tmp_path, JN_TINY.replace("n_processes = 1", "n_processes = 6"))
    main(["jn-check", "--config", cfg, "--out", str(tmp_path / "one"), "--jobs", "1"])
    main(["jn-check", "--config", cfg, "--out", str(tmp_path / "eight"), "--jobs", "8"])
    for name in ("checks.jsonl", "summary.csv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "eight" / name).read_bytes()


def test_report_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, JN_TINY)
    main(["jn-check", "--config", cfg, "--out", str(tmp_path / "run")])
    capsys.readouterr()
    table_csv = tmp_path / "table.csv"
    code = main(["report", str(tmp_path / "run" / "manifest.json"),
                 "--out", str(table_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("run")
    assert "jn-check" in out
    header = table_csv.read_text().split("\n", 1)[0]
    assert header == "run,kind,check,n_cases,violations,worst_ratio,metric,value,stderr"


def test_report_missing_manifest(tmp_path, capsys):
    code = main(["report", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind,section", [
    ("tamed-em", "ns = 3, 5\nfine_factor = 2\n"),
    ("quadrature", "ns = 3, 8\n"),
])
def test_mesh_mismatch_exits_two(tmp_path, capsys, kind, section):
    cfg = write(tmp_path, f"[experiment]\nkind = {kind}\nseed = 1\n\n[{kind}]\n{section}")
    code = main([kind, "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "ns: every mesh must divide" in err
    assert not (tmp_path / "run").exists()


def one_problem(capsys):
    """The single ``  - `` violation line of a rejected run's stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    problems = [line for line in err.splitlines() if line.startswith("  - ")]
    assert len(problems) == 1
    return problems[0]


@pytest.mark.parametrize("kind,section", [
    ("tamed-em", "ns = 256\nfine_factor = 4096\nn_paths = 1000000\n"),
    ("davie", "n_paths = 10000000\nn_steps = 1000000\n"),
])
def test_ensemble_past_the_draw_cap_exits_two(tmp_path, capsys, kind, section):
    cfg = write(tmp_path, f"[experiment]\nkind = {kind}\nseed = 1\n\n[{kind}]\n{section}")
    code = main([kind, "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert "normal draws exceeds the ensemble cap" in one_problem(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind,section,problem", [
    ("davie", "moments = 2, 3\n", "moments: orders must be even"),
    ("rho-grid", "grid_times = 0.5, 0.25, 1.0\n", "grid_times: must hold"),
    ("rho-grid", "grid_times = 0.25, 0.25, 1.0\n", "grid_times: must hold"),
    ("rho-grid", "grid_times = 0.5\n", "grid_times: must hold"),
    ("rho-grid", "proxy = quantile\nn_outer = 99\n", "proxy: quantile equals max"),
])
def test_list_rule_violation_exits_two(tmp_path, capsys, kind, section, problem):
    cfg = write(tmp_path, f"[experiment]\nkind = {kind}\nseed = 1\n\n[{kind}]\n{section}")
    code = main([kind, "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert one_problem(capsys).startswith(f"  - {problem}")
    assert not (tmp_path / "run").exists()


def test_ternary_tree_past_the_enumeration_limit_runs(tmp_path, capsys):
    # 3.89e8 stopping times on [0, 4]: too many to enumerate, none needed.
    cfg = write(tmp_path, JN_TINY.replace("depth = 1", "depth = 4").replace(
        "branching = 2", "branching = 3"))
    code = main(["jn-check", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    assert "jn-check: ok" in capsys.readouterr().out
    assert (tmp_path / "run" / "checks.jsonl").exists()


@pytest.mark.parametrize("text", [
    # Alone, the seed used to reach [experiment] and the run started with it.
    "[DEFAULT]\nseed = 3\n\n[experiment]\nkind = jn-check\n",
    # Beside [jn-check], it used to fail as an unknown jn-check key.
    "[DEFAULT]\nseed = 3\n" + JN_TINY.replace("seed = 11\n", ""),
    # A kind parameter used to fail as an unknown key in [experiment].
    "[DEFAULT]\nn_processes = 2\n" + JN_TINY,
], ids=["seed-alone", "seed-beside-kind-section", "kind-key"])
def test_default_section_exits_two(tmp_path, capsys, text):
    cfg = write(tmp_path, text)
    code = main(["jn-check", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert one_problem(capsys).startswith("  - [DEFAULT]: unsupported section")
    assert not (tmp_path / "run").exists()


def test_enumeration_cap_is_an_unknown_key(tmp_path, capsys):
    cfg = write(tmp_path, JN_TINY + "enumeration_cap = 1000000\n")
    code = main(["jn-check", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert one_problem(capsys).startswith("  - enumeration_cap: unknown key for kind")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case,message", [
    ("missing", "cannot read {}: No such file or directory"),
    ("directory", "cannot read {}: Is a directory"),
    ("latin-1", "{} is not UTF-8 text"),
])
def test_unreadable_config_exits_two(tmp_path, capsys, case, message):
    path = tmp_path / "exp.ini"
    if case == "directory":
        path.mkdir()
    elif case == "latin-1":
        path.write_bytes(JN_TINY.replace("walk", "walk # caf\xe9").encode("latin-1"))
    code = main(["jn-check", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert one_problem(capsys).startswith("  - config: " + message.format(path))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case,message", [
    ("directory", "Is a directory"),
    ("not-json", "not a JSON manifest"),
    ("no-kind", "manifest lacks kind"),
])
def test_bad_manifest_exits_two(tmp_path, capsys, case, message):
    path = tmp_path / "manifest.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_text("{" if case == "not-json" else '{"config_hash": "ab"}')
    code = main(["report", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize("source", ["--out", "out"])
def test_out_naming_a_file_exits_two(tmp_path, capsys, source):
    target = tmp_path / "taken"
    target.write_text("keep me\n")
    text, flags = JN_TINY, ["--out", str(target)]
    if source == "out":
        text, flags = JN_TINY.replace("seed = 11", f"seed = 11\nout = {target}"), []
    code = main(["jn-check", "--config", write(tmp_path, text), *flags])
    assert code == 2
    assert one_problem(capsys) == f"  - {source}: {target} exists and is not a directory"
    assert target.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "taken"]


@pytest.mark.parametrize("out", ["", "   "], ids=["empty", "spaces"])
def test_blank_out_flag_exits_two(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    code = main(["jn-check", "--seed", "1", "--out", out])
    assert code == 2
    assert one_problem(capsys) == f"  - --out: expected a nonempty path (got {out!r})"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,env,problem", [
    (["--jobs", "0"], None, "--jobs: must lie in [1, 256] (got 0)"),
    (["--jobs", "100000"], None, "--jobs: must lie in [1, 256] (got 100000)"),
    (["--seed", "-1"], None, "--seed: must lie in [0, 18446744073709551615] (got -1)"),
    ([], "abc", f"{SEED_ENV}: expected int (got 'abc')"),
], ids=["jobs-zero", "jobs-huge", "seed-negative", "env-seed-text"])
def test_bad_override_exits_two(tmp_path, capsys, monkeypatch, flags, env, problem):
    if env is not None:
        monkeypatch.setenv(SEED_ENV, env)
    seed = [] if env is not None or "--seed" in flags else ["--seed", "3"]
    code = main(["jn-check", *seed, *flags, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    problems = [line for line in err.splitlines() if line.startswith("  - ")]
    assert problems == [f"  - {problem}"]
    assert not (tmp_path / "run").exists()
