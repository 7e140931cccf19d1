import json

import pytest

from bmoforge.config import (
    KIND_SCHEMAS,
    ConfigError,
    config_hash,
    parse_config,
    parse_config_file,
)
from bmoforge.ensemble import _MAX_TOTAL_DRAWS

DAVIE_TEXT = """
[experiment]
kind = davie
seed = 20240811
out = runs/davie
jobs = 2

[davie]
field = sign
shifts = 0.05, 0.1, 0.2, 0.4
n_paths = 100000
n_steps = 1000
"""


def test_parse_sectioned_text():
    cfg = parse_config(DAVIE_TEXT)
    assert cfg.kind == "davie"
    assert cfg.seed == 20240811
    assert cfg.out == "runs/davie"
    assert cfg.params["shifts"] == [0.05, 0.1, 0.2, 0.4]
    assert cfg.params["n_paths"] == 100000
    assert cfg.params["moments"] == [2, 4]  # default filled in


def test_defaults_are_not_shared():
    a = parse_config("[experiment]\nkind = jn-check\nseed = 1\n")
    b = parse_config("[experiment]\nkind = jn-check\nseed = 1\n")
    a.params["p_list"].append(9)
    assert b.params["p_list"] == [1, 2, 3]


def test_unknown_key_lists_known():
    with pytest.raises(ConfigError, match="unknown key for kind") as exc:
        parse_config("[experiment]\nkind = davie\nseed = 1\n\n[davie]\nnpaths = 10\n")
    assert any("known:" in v for v in exc.value.violations)


def test_multiple_violations_reported_together():
    text = ("[experiment]\nkind = davie\nseed = 1\n\n"
            "[davie]\nn_paths = 1\nn_steps = zero\nbogus = 3\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    joined = "\n".join(exc.value.violations)
    assert "n_paths" in joined and "n_steps" in joined and "bogus" in joined
    assert len(exc.value.violations) == 3


def test_experiment_section_validation():
    with pytest.raises(ConfigError, match="missing \\[experiment\\]"):
        parse_config("[davie]\nfield = sign\n")
    with pytest.raises(ConfigError, match="kind: required"):
        parse_config("[experiment]\nseed = 1\n")
    with pytest.raises(ConfigError, match="seed: required"):
        parse_config("[experiment]\nkind = davie\n")
    with pytest.raises(ConfigError, match="unknown key in \\[experiment\\]"):
        parse_config("[experiment]\nkind = davie\nseed = 1\nthreads = 4\n")
    with pytest.raises(ConfigError, match="unexpected section"):
        parse_config("[experiment]\nkind = davie\nseed = 1\n\n[quadrature]\nn_outer = 4\n")
    with pytest.raises(ConfigError, match="kind: must be one of"):
        parse_config("[experiment]\nkind = frobnicate\nseed = 1\n")


def test_range_checks():
    with pytest.raises(ConfigError, match="depth"):
        parse_config("[experiment]\nkind = jn-check\nseed = 1\n\n[jn-check]\ndepth = 6\n")
    with pytest.raises(ConfigError, match="jobs"):
        parse_config("[experiment]\nkind = davie\nseed = 1\njobs = 0\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[experiment]\nkind = davie\nseed = -1\n")
    with pytest.raises(ConfigError, match="offending"):
        parse_config("[experiment]\nkind = davie\nseed = 1\n\n[davie]\nmoments = 2, 11\n")
    with pytest.raises(ConfigError, match="nonempty"):
        parse_config("[experiment]\nkind = davie\nseed = 1\n\n[davie]\nmoments = ,\n")


def test_choice_and_bool_coercion():
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config("[experiment]\nkind = rho-grid\nseed = 1\n\n[rho-grid]\nfield = cube\n")
    text = ("[experiment]\nkind = verify-finite\nseed = 1\n\n"
            "[verify-finite]\nrandom_transitions = no\n")
    assert parse_config(text).params["random_transitions"] is False
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(text.replace("no", "maybe"))


def test_json_config():
    cfg = parse_config(
        '{"kind": "quadrature", "seed": 5, "params": {"ns": [8, 16], "n_outer": 4.0}}'
    )
    assert cfg.params["ns"] == [8, 16]
    assert cfg.params["n_outer"] == 4  # integral float accepted
    assert cfg.out == "runs"
    with pytest.raises(ConfigError, match="jobs: must lie in"):
        parse_config('{"kind": "quadrature", "seed": 5, "jobs": 257}')
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config('{"kind": "davie", "seed": 1, "extra": 2}')
    with pytest.raises(ConfigError, match="params: must be an object"):
        parse_config('{"kind": "davie", "seed": 1, "params": [1]}')
    with pytest.raises(ConfigError, match="json:"):
        parse_config('{"kind": ')
    with pytest.raises(ConfigError, match="expected int"):
        parse_config('{"kind": "davie", "seed": 1, "params": {"n_steps": true}}')


def test_parse_config_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(DAVIE_TEXT)
    assert parse_config(parse_config_file(p)) == parse_config(DAVIE_TEXT)


def test_hash_tracks_science_only():
    base = parse_config(DAVIE_TEXT)
    h = config_hash(base)
    assert len(h) == 64 and h == config_hash(base)
    moved = parse_config(DAVIE_TEXT.replace("runs/davie", "elsewhere").replace("jobs = 2", "jobs = 8"))
    assert config_hash(moved) == h
    reseeded = parse_config(DAVIE_TEXT.replace("20240811", "20240812"))
    assert config_hash(reseeded) != h
    tweaked = parse_config(DAVIE_TEXT.replace("n_steps = 1000", "n_steps = 500"))
    assert config_hash(tweaked) != h


def mesh_violations(kind, params):
    doc = {"kind": kind, "seed": 1, "params": params}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    return exc.value.violations


def test_tamed_em_meshes_must_divide_the_reference():
    assert mesh_violations("tamed-em", {"ns": [3, 5], "fine_factor": 2}) == [
        "ns: every mesh must divide fine_factor * max(ns) = 10; offending: [3]"]
    cfg = parse_config(json.dumps(
        {"kind": "tamed-em", "seed": 1, "params": {"ns": [3, 5], "fine_factor": 3}}))
    assert cfg.params["ns"] == [3, 5]


def test_quadrature_meshes_and_anchors():
    violations = mesh_violations("quadrature", {"ns": [3, 8], "anchor_times": [0.0, 0.5]})
    assert violations == [
        "ns: every mesh must divide max(ns) = 8; offending: [3]",
        "anchor_times: 0.5 is not a mesh point of ns [3]",
    ]
    violations = mesh_violations("quadrature", {"ns": [4, 8], "anchor_times": [0.125, 1.0]})
    assert violations == [
        "anchor_times: 0.125 is not a mesh point of ns [4]",
        "anchor_times: must lie in [0, 1) (got 1.0)",
    ]


def test_ensembles_past_the_draw_cap_are_rejected():
    assert _MAX_TOTAL_DRAWS == 2**33
    davie = {"n_paths": 2**20, "n_steps": 2**13}
    tamed = {"ns": [1, 2, 4], "fine_factor": 2**12, "n_paths": 2**19}
    # Exactly at the cap is accepted.
    for kind, params in (("davie", davie), ("tamed-em", tamed)):
        cfg = parse_config(json.dumps({"kind": kind, "seed": 1, "params": params}))
        assert cfg.params["n_paths"] == params["n_paths"]
    assert mesh_violations("davie", dict(davie, n_steps=2**13 + 1)) == [
        f"n_paths: n_paths * n_steps = {2**33 + 2**20} normal draws exceeds "
        f"the ensemble cap {2**33}"]
    assert mesh_violations("tamed-em", dict(tamed, n_paths=2**19 + 1)) == [
        f"n_paths: n_paths * fine_factor * max(ns) = {2**33 + 2**14} normal draws "
        f"exceeds the ensemble cap {2**33}"]
    # A mesh problem and the cap are reported together.
    violations = mesh_violations("tamed-em", {"ns": [3, 5], "fine_factor": 4096,
                                              "n_paths": 10**6})
    assert [v.split(":")[0] for v in violations] == ["ns", "n_paths"]


def test_case_kinds_take_every_tree_in_range():
    for kind in ("verify-finite", "jn-check"):
        # The engine has no enumeration cap: the largest trees, 3**5 and 4**5
        # leaves, are accepted.
        for branching in (3, 4):
            cfg = parse_config(json.dumps(
                {"kind": kind, "seed": 1, "params": {"depth": 5, "branching": branching}}))
            assert (cfg.params["depth"], cfg.params["branching"]) == (5, branching)
        (problem,) = mesh_violations(kind, {"enumeration_cap": 10**6})
        assert problem.startswith(f"enumeration_cap: unknown key for kind {kind!r}")
    # A rejected depth reports only its own violation.
    violations = mesh_violations("jn-check", {"depth": 9, "branching": 3})
    assert len(violations) == 1 and violations[0].startswith("depth: must lie")


def test_mesh_checks_skip_rejected_keys():
    # A rejected key reports its own violation, not a mesh problem of its default.
    violations = mesh_violations("quadrature", {"ns": [8], "anchor_times": "x"})
    assert len(violations) == 1 and violations[0].startswith("anchor_times: expected")
    violations = mesh_violations("tamed-em", {"ns": [3, 5], "fine_factor": 1})
    assert len(violations) == 1 and violations[0].startswith("fine_factor: must lie")
    violations = mesh_violations("tamed-em", {"ns": [256], "fine_factor": 4096,
                                              "n_paths": 10**7})
    assert len(violations) == 1 and violations[0].startswith("n_paths: must lie")
    violations = mesh_violations("davie", {"n_paths": 10**7, "n_steps": 10**7})
    assert len(violations) == 1 and violations[0].startswith("n_steps: must lie")


def test_davie_moments_must_be_even():
    assert mesh_violations("davie", {"moments": [2, 3, 4, 7]}) == [
        "moments: orders must be even; offending: [3, 7]"]
    cfg = parse_config(json.dumps({"kind": "davie", "seed": 1, "params": {"moments": [8, 2]}}))
    assert cfg.params["moments"] == [8, 2]
    # An out-of-range order reports its own violation only.
    (problem,) = mesh_violations("davie", {"moments": [3, 9]})
    assert problem.startswith("moments: entries must lie")


def test_rho_grid_quantile_needs_100_outer_states():
    # The estimator's quantile index ceil(0.99 * n) - 1 is the max until n = 100.
    assert mesh_violations("rho-grid", {"proxy": "quantile", "n_outer": 99}) == [
        "proxy: quantile equals max unless n_outer >= 100 (got n_outer = 99)"]
    assert mesh_violations("rho-grid", {"proxy": "quantile"}) == [
        "proxy: quantile equals max unless n_outer >= 100 (got n_outer = 64)"]
    cfg = parse_config(json.dumps(
        {"kind": "rho-grid", "seed": 1, "params": {"proxy": "quantile", "n_outer": 100}}))
    assert (cfg.params["proxy"], cfg.params["n_outer"]) == ("quantile", 100)
    parse_config(json.dumps({"kind": "rho-grid", "seed": 1, "params": {"n_outer": 2}}))
    # A rejected n_outer reports its own violation only.
    (problem,) = mesh_violations("rho-grid", {"proxy": "quantile", "n_outer": 1})
    assert problem.startswith("n_outer: must lie")


def test_rho_grid_times_must_increase():
    for times in ([0.5, 0.25, 1.0], [0.5]):
        assert mesh_violations("rho-grid", {"grid_times": times}) == [
            f"grid_times: must hold at least two strictly increasing times (got {times!r})"]
    cfg = parse_config(json.dumps(
        {"kind": "rho-grid", "seed": 1, "params": {"grid_times": [0.0, 0.5]}}))
    assert cfg.params["grid_times"] == [0.0, 0.5]
    # An out-of-range time reports its own violation only.
    (problem,) = mesh_violations("rho-grid", {"grid_times": [-0.5]})
    assert problem.startswith("grid_times: entries must lie")


# One case per list-valued key of every kind.
REPEATS = [
    ("verify-finite", "p_list", [1, 1], [1]),
    ("verify-finite", "lambda_list", [0.3, 0.3], [0.3]),
    ("jn-check", "p_list", [2, 1, 2], [2]),
    ("rho-grid", "grid_times", [0.25, 0.25, 1.0], [0.25]),
    ("davie", "shifts", [0.1, 0.1], [0.1]),
    ("davie", "moments", [2, 4, 2, 4], [2, 4]),
    ("quadrature", "ns", [8, 16, 8], [8]),
    ("quadrature", "anchor_times", [0.0, 0.5, 0.0], [0.0]),
    ("tamed-em", "ns", [4, 4, 8], [4]),
]


def test_every_list_key_has_a_repeat_case():
    lists = {(kind, key) for kind, schema in KIND_SCHEMAS.items()
             for key, spec in schema.items() if spec.kind.endswith("_list")}
    assert lists == {(kind, key) for kind, key, _, _ in REPEATS}


@pytest.mark.parametrize("kind,key,entries,repeated", REPEATS,
                         ids=[f"{kind}-{key}" for kind, key, _, _ in REPEATS])
def test_list_entries_must_be_distinct(kind, key, entries, repeated):
    # One line: a rule between keys or on the list's order skips a rejected key.
    assert mesh_violations(kind, {key: entries}) == [
        f"{key}: entries must be distinct; repeated: {repeated} (got {entries!r})"]
    text = ", ".join(map(str, entries))
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[experiment]\nkind = {kind}\nseed = 1\n[{kind}]\n{key} = {text}\n")
    assert exc.value.violations == [
        f"{key}: entries must be distinct; repeated: {repeated} (got {text!r})"]
