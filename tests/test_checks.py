import json
import math

import numpy as np
import pytest

from bmoforge.bounds import PartitionTooCoarseError
from bmoforge.checks import (
    check_tolerance,
    control_domination_check,
    energy_check,
    energy_constant,
    exp_vmoa_check,
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
    triangle_check,
    write_summary_csv,
)
from bmoforge.controls import variation_control
from bmoforge.oscillation import oscillation_grid
from bmoforge.processes import (
    AdaptedProcess,
    deterministic_process,
    random_nondecreasing_process,
    random_process,
    random_space,
)
from bmoforge.space import build_tree


def fair_walk():
    sp = build_tree(2, 2)
    return AdaptedProcess(
        space=sp,
        values=[np.zeros(1), np.array([1.0, -1.0]), np.array([2.0, 0.0, 0.0, -2.0])],
    )


def jn(process, r, p):
    return jn_moment_check(process, oscillation_grid(process), r, p)


def random_case(seed, kind="gaussian", depth=3):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=depth, branching=2, random_transitions=True)
    return random_process(sp, rng, kind=kind)


def test_check_tolerance():
    assert check_tolerance(2.0) == pytest.approx(2e-9 + 1e-12)
    assert check_tolerance(-2.0) == pytest.approx(2e-9 + 1e-12)
    assert check_tolerance(math.inf) == math.inf


def test_jn_moment_fair_walk_frozen():
    # E max_k |V_k - V_0| = (2 + 1 + 1 + 2)/4 = 1.5 against 1! (11 * 1)^1.
    rep = jn(fair_walk(), 0, 1)
    assert rep.holds
    assert rep.lhs == pytest.approx(1.5)
    assert rep.rhs == pytest.approx(11.0)
    assert rep.witness["rho"] == pytest.approx(1.0)
    rep2 = jn(fair_walk(), 0, 2)
    assert rep2.lhs == pytest.approx(2.5)
    assert rep2.rhs == pytest.approx(242.0)


def test_jn_moment_validation():
    with pytest.raises(ValueError, match="outside"):
        jn(fair_walk(), 5, 1)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["gaussian", "walk", "integers"])
def test_jn_moment_random_corpus(seed, kind):
    v = random_case(seed, kind)
    grid = oscillation_grid(v)
    for r in range(v.depth):
        for p in (1, 2, 3):
            assert jn_moment_check(v, grid, r, p).holds


def test_khasminskii_frozen():
    # A_k = 0.1 k on a depth-2 tree. The left-limit anchor reaches back one
    # level, so the cell moduli of [0,1,2] are 0.1 and 0.2:
    # rhs = 1 / (0.9 * 0.8), lhs = e^0.2.
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 0.1, 0.2])
    rep = khasminskii_check(a, 0, 1.0, [0, 1, 2])
    assert rep.holds
    assert rep.lhs == pytest.approx(math.exp(0.2))
    assert rep.rhs == pytest.approx(1.0 / 0.72)
    assert rep.witness["cell_moduli"] == pytest.approx([0.1, 0.2])
    # The single-cell partition also holds: e^0.2 <= (1 - 0.2)^-1.
    coarse = khasminskii_check(a, 0, 1.0, [0, 2])
    assert coarse.holds
    assert coarse.rhs == pytest.approx(1.25)


def test_khasminskii_partition_too_coarse():
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 0.1, 0.2])
    with pytest.raises(PartitionTooCoarseError, match="too coarse"):
        khasminskii_check(a, 0, 6.0, [0, 2])


def test_khasminskii_validation():
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="partition"):
        khasminskii_check(a, 0, 1.0, [0, 1])
    with pytest.raises(ValueError, match="lam"):
        khasminskii_check(a, 0, 0.0, [0, 1, 2])
    with pytest.raises(ValueError, match="nondecreasing"):
        khasminskii_check(fair_walk(), 0, 1.0, [0, 1, 2])


@pytest.mark.parametrize("seed", [3, 4])
def test_khasminskii_random_corpus(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=3, branching=2, random_transitions=True)
    a = random_nondecreasing_process(sp, rng, scale=0.2)
    partition = list(range(4))
    for lam in (0.5, 1.0):
        try:
            assert khasminskii_check(a, 0, lam, partition).holds
        except PartitionTooCoarseError:
            pass  # unit cells can still be too coarse for this draw


def test_energy_frozen():
    # A_k = k: lhs = (A_2 - A_0)^2 = 4, c* = 2, rhs = 2! c*^2 = 8.
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 1.0, 2.0])
    assert energy_constant(a) == pytest.approx(2.0)
    rep = energy_check(a, 0, p=2)
    assert rep.holds
    assert rep.lhs == pytest.approx(4.0)
    assert rep.rhs == pytest.approx(8.0)


def test_energy_hypothesis_rejected():
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="hypothesis fails"):
        energy_check(a, 0, c=1.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        energy_check(fair_walk(), 0)


@pytest.mark.parametrize("seed", [5, 6])
def test_energy_random_corpus(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=3, branching=2, random_transitions=True)
    a = random_nondecreasing_process(sp, rng, kind="bernoulli")
    for s in range(4):
        for p in (1, 2, 3):
            assert energy_check(a, s, p=p).holds


def test_garsia_frozen():
    # U = 2 sup|V - V_0| dominates every conditional increment of the fair
    # walk; alpha = beta = 1 gives lhs = P(X* >= 2) = 0.5, rhs = E(U; X* >= 1) = 3.
    v = fair_walk()
    u = 2.0 * np.abs(v.path_matrix()).max(axis=1)
    rep = garsia_check(v, u, 0.0, 0, alpha=1.0, beta=1.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(3.0)


def test_garsia_hypothesis_failure_names_a_pair():
    v = fair_walk()
    with pytest.raises(ValueError, match="domination hypothesis fails.*level 0"):
        garsia_check(v, 0.1 * np.ones(4), 0.0, 0, alpha=0.5, beta=0.5)


def test_garsia_validation():
    v = fair_walk()
    u = np.ones(4)
    with pytest.raises(ValueError, match="alpha and beta"):
        garsia_check(v, u, 0.0, 0, alpha=0.0, beta=1.0)
    with pytest.raises(ValueError, match="leaf-indexed"):
        garsia_check(v, np.ones(3), 0.0, 0, alpha=1.0, beta=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        garsia_check(v, -u, 0.0, 0, alpha=1.0, beta=1.0)


@pytest.mark.parametrize("seed", [7, 8])
def test_garsia_random_corpus(seed):
    v = random_case(seed, "uniform")
    paths = v.path_matrix()
    u = 2.0 * np.abs(paths - paths[:, :1]).max(axis=1)
    spread = float(u.max()) + 0.1
    rep = garsia_check(v, u, v.values[0][0], 0, alpha=0.3 * spread, beta=0.2 * spread)
    assert rep.holds


def test_maximal_check_holds_on_corpus():
    for seed in (9, 10):
        v = random_case(seed, "walk")
        rep = maximal_check(v, oscillation_grid(v), 0, v.depth)
        assert rep.holds
        assert rep.witness["sup_holds"]


def test_structural_checks_on_corpus():
    for seed in (11, 12):
        v = random_case(seed, "heavy")
        grid = oscillation_grid(v)
        assert jump_kappa_check(grid).holds
        assert monotonicity_check(grid).holds
        assert triangle_check(grid).holds
        assert pathwise_increment_check(v, variation_control(grid, 1.0)).holds
        assert stopping_pair_bound_check(grid, 0, v.depth).holds
        for p in (1.0, 2.0):
            control = variation_control(grid, p)
            assert control_domination_check(grid, control).holds


def test_exp_vmoa_on_small_deterministic():
    sp = build_tree(2, 2)
    v = deterministic_process(sp, [0.0, 0.01, 0.02])
    rep = exp_vmoa_check(v, variation_control(oscillation_grid(v), 2.0), lam=1.0)
    assert rep.holds
    assert rep.rhs >= 2.0


def test_exp_vmoa_random_corpus():
    v = random_case(13, "walk")
    control = variation_control(oscillation_grid(v), 2.0)
    for lam in (0.25, 0.5):
        assert exp_vmoa_check(v, control, lam=lam).holds


def test_report_serialization(tmp_path):
    reps = [jn(fair_walk(), 0, 1), jump_kappa_check(oscillation_grid(fair_walk()))]
    path = tmp_path / "checks.jsonl"
    reports_to_jsonl(reps, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert row["check"] == "jn-moment"
    assert row["holds"] is True
    assert row["lhs"] == pytest.approx(1.5)


def test_summarize_and_csv(tmp_path):
    reps = [jn(fair_walk(), 0, p) for p in (1, 2)]
    reps.append(jump_kappa_check(oscillation_grid(fair_walk())))
    rows = summarize_reports(reps)
    assert [r["check"] for r in rows] == ["jn-moment", "jump-kappa"]
    assert rows[0]["n_cases"] == 2
    assert rows[0]["violations"] == 0
    assert rows[0]["worst_ratio"] == pytest.approx(1.5 / 11.0)
    out = tmp_path / "summary.csv"
    write_summary_csv(rows, out)
    text = out.read_text()
    assert text.splitlines()[0] == "check,n_cases,violations,worst_ratio"
    assert "jn-moment,2,0," in text
