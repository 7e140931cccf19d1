import json
from types import SimpleNamespace

import pytest

import bmoforge.cli as cli
from bmoforge.cli import SEED_ENV, main
from bmoforge.config import KIND_SCHEMAS, KINDS

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


def test_tamed_em_without_a_fit_passes_when_monotone(tmp_path, capsys):
    # Two meshes fit no rate: the errors must fall within stderr instead.
    cfg = write(tmp_path, "[experiment]\nkind = tamed-em\nseed = 1\n"
                          "[tamed-em]\ndrift = sign\nns = 2, 4\nfine_factor = 8\n"
                          "n_paths = 200\n")
    code = main(["tamed-em", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0
    assert "tamed-em: ok" in capsys.readouterr().out
    extra = json.loads((tmp_path / "run" / "manifest.json").read_text())["extra"]
    assert extra["slope"] is None and extra["monotone_within_stderr"] is True


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


@pytest.mark.parametrize("source", ["--seed", SEED_ENV])
def test_seedless_config_takes_a_later_seed(tmp_path, monkeypatch, source):
    flags = ["--seed", "3"]
    if source == SEED_ENV:
        monkeypatch.setenv(SEED_ENV, "3")
        flags = []
    cfg = write(tmp_path, JN_TINY.replace("seed = 11\n", ""))
    code = main(["jn-check", "--config", cfg, *flags, "--out", str(tmp_path / "run")])
    assert code == 0
    assert manifest_seed(tmp_path / "run") == 3


@pytest.mark.parametrize("line,flags,problem", [
    ("seed = -1", ["--seed", "3"], "seed: must lie in"),
    ("seed = 11\njobs = 0", ["--jobs", "1"], "jobs: must lie in"),
    ("seed = 11\nout =", ["--out", "run"], "out: expected a nonempty path"),
], ids=["seed", "jobs", "out"])
@pytest.mark.parametrize("overridden", [True, False], ids=["overridden", "alone"])
def test_file_value_is_checked_only_when_it_takes_effect(tmp_path, capsys, monkeypatch,
                                                          line, flags, problem, overridden):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, JN_TINY.replace("seed = 11", line))
    code = main(["jn-check", "--config", cfg, *(flags if overridden else [])])
    if overridden:
        assert code == 0
        assert len(list(tmp_path.glob("*/manifest.json"))) == 1
    else:
        assert code == 2
        assert one_problem(capsys).startswith(f"  - {problem}")
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.ini"]


def test_bare_run_params_share_no_list_with_the_schema(tmp_path, monkeypatch):
    seen = []

    def record(config):
        seen.append(config)
        return SimpleNamespace(ok=True, config_hash="0" * 64)

    monkeypatch.setattr(cli, "run_experiment", record)
    for kind in KINDS:
        assert main([kind, "--seed", "1", "--out", str(tmp_path / kind)]) == 0
    shared = [f"{c.kind}.{k}" for c in seen for k, v in c.params.items()
              if isinstance(v, list) and v is KIND_SCHEMAS[c.kind][k].default]
    assert len(seen) == len(KINDS) and shared == []


def test_main_parses_the_config_file_once_then_runs_it(tmp_path, monkeypatch):
    # A timing harness replaces these two attributes to split set-up from run.
    calls = []

    def recorder(name, fn):
        def recorded(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(cli, "parse_config_file", recorder("parse", cli.parse_config_file))
    monkeypatch.setattr(cli, "run_experiment", recorder("run", cli.run_experiment))
    cfg = write(tmp_path, JN_TINY)
    assert main(["jn-check", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert [name for name, _, _ in calls] == ["parse", "run"]
    assert calls[0][1:] == ((cfg,), {})
    assert len(calls[1][1]) == 1 and calls[1][2] == {}


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
    ("rho-grid", "grid_times = 0.25, 0.25, 1.0\n", "grid_times: entries must be distinct"),
    ("rho-grid", "grid_times = 0.5\n", "grid_times: must hold"),
    ("rho-grid", "proxy = quantile\nn_outer = 99\n", "proxy: quantile equals max"),
    # TamingPolicy refuses this clip level, which used to be a traceback.
    ("tamed-em", "taming_log_power = 0\n", "taming_log_power: must be > 0"),
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
    ("extra-list", "extra must be an object"),
    ("config-hash-int", "config_hash must be a string"),
    ("summary-without-check", "summary lacks column check"),
    ("non-numeric-slope", "m2_slope and m2_slope_stderr must be numbers"),
    ("gamma-ratios-list", "gamma_ratios must map shifts to numbers"),
])
def test_bad_manifest_exits_two(tmp_path, capsys, case, message):
    path = tmp_path / "manifest.json"
    paths = [path]
    doc = {"kind": "davie", "config_hash": "ab" * 32}
    if case == "directory":
        path.mkdir()
    elif case in ("not-json", "no-kind"):
        path.write_text("{" if case == "not-json" else '{"config_hash": "ab"}')
    else:
        if case == "extra-list":
            doc["extra"] = [1, 2]
        elif case == "config-hash-int":
            doc["config_hash"] = 1234
        elif case == "gamma-ratios-list":
            doc["extra"] = {"gamma_ratios": [0.9, 1.2]}
        elif case == "summary-without-check":
            doc["kind"] = "jn-check"
            (tmp_path / "summary.csv").write_text(
                "name,n_cases,violations,worst_ratio\njn-moment,6,0,0.5\n")
        else:  # pooling needs two davie runs
            doc["extra"] = {"m2_slope": "2.0"}
            paths.append(tmp_path / "other" / "manifest.json")
        for p in paths:
            p.parent.mkdir(exist_ok=True)
            p.write_text(json.dumps(doc))
    code = main(["report", *map(str, paths)])
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


@pytest.mark.parametrize("below", [False, True], ids=["link", "below-link"])
def test_out_at_a_dangling_symlink_exits_two(tmp_path, capsys, monkeypatch, below):
    # mkdir raises FileExistsError on a dangling link, so validation rejects it first.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dangle").symlink_to("nowhere")
    code = main(["jn-check", "--seed", "1", "--out", "dangle/sub" if below else "dangle"])
    assert code == 2
    assert one_problem(capsys) == "  - --out: dangle is a dangling symbolic link"
    assert [p.name for p in tmp_path.iterdir()] == ["dangle"]


def test_out_with_a_too_long_name_exits_two(tmp_path, capsys, monkeypatch):
    # Looking the path up raises ENAMETOOLONG, where os.path.lexists says False.
    monkeypatch.chdir(tmp_path)
    out = "a" * 300 + "/runs"
    code = main(["jn-check", "--seed", "1", "--out", out])
    assert code == 2
    assert one_problem(capsys) == f"  - --out: {out}: File name too long"
    assert list(tmp_path.iterdir()) == []


def test_out_with_a_nul_byte_exits_two(tmp_path, capsys, monkeypatch):
    # mkdir raises on a NUL byte, so validation rejects it first.
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, '{"kind": "jn-check", "seed": 1, "out": "a\\u0000b"}', "exp.json")
    code = main(["jn-check", "--config", cfg])
    assert code == 2
    assert one_problem(capsys) == "  - out: a path cannot hold a NUL byte (got 'a\\x00b')"
    assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]


@pytest.mark.parametrize("out", ["", "   "], ids=["empty", "spaces"])
def test_blank_out_flag_exits_two(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    code = main(["jn-check", "--seed", "1", "--out", out])
    assert code == 2
    assert one_problem(capsys) == f"  - --out: expected a nonempty path (got {out!r})"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,env,problem", [
    (["--jobs", "0"], None, "--jobs: must lie in [1, 256] (got '0')"),
    (["--jobs", "100000"], None, "--jobs: must lie in [1, 256] (got '100000')"),
    (["--jobs", "two"], None, "--jobs: expected int (got 'two')"),
    (["--seed", "-1"], None, "--seed: must lie in [0, 18446744073709551615] (got '-1')"),
    (["--seed", "abc"], None, "--seed: expected int (got 'abc')"),
    ([], "abc", f"{SEED_ENV}: expected int (got 'abc')"),
], ids=["jobs-zero", "jobs-huge", "jobs-text", "seed-negative", "seed-text", "env-seed-text"])
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


NAN_CASES = [
    ("davie", "shifts = 0.1, nan, 0.2\n", "shifts"),
    ("verify-finite", "lambda_list = nan\nn_processes = 3\n", "lambda_list"),
    ("tamed-em", "sigma = nan\n", "sigma"),
    ("tamed-em", "x0 = nan\n", "x0"),
    ("rho-grid", "grid_times = 0.5, nan\n", "grid_times"),
    ("quadrature", "anchor_times = 0.0, nan\n", "anchor_times"),
]


@pytest.mark.parametrize("kind,section,key", NAN_CASES,
                         ids=[f"{kind}-{key}" for kind, _, key in NAN_CASES])
def test_nan_float_exits_two(tmp_path, capsys, kind, section, key):
    # NaN fails no range comparison, so each of these used to run: with nan
    # rows or false bound violations, or a traceback.
    cfg = write(tmp_path, f"[experiment]\nkind = {kind}\nseed = 1\n\n[{kind}]\n{section}")
    code = main([kind, "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert one_problem(capsys).startswith(f"  - {key}: expected a ")
    assert not (tmp_path / "run").exists()


def test_json_nan_float_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, '{"kind": "tamed-em", "seed": 1, "params": {"x0": NaN}}', "exp.json")
    code = main(["tamed-em", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert one_problem(capsys) == "  - x0: expected a finite float (got nan)"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", [["davie"], {"a": 1}], ids=["list", "object"])
def test_unhashable_json_kind_exits_two(tmp_path, capsys, kind):
    cfg = write(tmp_path, json.dumps({"kind": kind, "seed": 1}), "exp.json")
    code = main(["davie", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    problem = one_problem(capsys)
    assert problem.startswith("  - kind: must be one of [")
    assert problem.endswith(f"(got {kind!r})")
    assert not (tmp_path / "run").exists()
