import contextlib
import json
import math

import numpy as np
import pytest

from bmoforge.bounds import PartitionTooCoarseError
from bmoforge.checks import (
    CheckReport,
    _cond_log_mean_exp,
    _exp_vmo_lhs,
    _worst_case_report,
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
    superadditivity_check,
    triangle_check,
    write_summary_csv,
)
from bmoforge.controls import variation_control
from bmoforge.oscillation import _stop_level_values, oscillation_grid
from bmoforge.processes import (
    AdaptedProcess,
    random_nondecreasing_process,
    random_process,
    random_space,
)
from bmoforge.space import build_tree

from oracles import brute_force_energy_constant, brute_force_garsia_gap, deterministic_process


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


def test_check_tolerance_on_arrays_is_the_scalar_rule():
    rhs = np.array([0.0, -0.0, 2.0, -2.0, 1e300, 5e-324, math.inf, -math.inf, math.nan])
    tol = check_tolerance(rhs)
    assert tol.shape == rhs.shape
    for r, t in zip(rhs.tolist(), tol.tolist()):
        scalar = check_tolerance(r)
        assert (math.isnan(t) and math.isnan(scalar)) or t.hex() == scalar.hex()
    assert check_tolerance(-math.inf) == math.inf
    assert math.isnan(check_tolerance(math.nan))


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
    # level, so the moduli of the unit cells [0,1] and [1,2] are 0.1 and 0.2:
    # rhs = 1 / (0.9 * 0.8), lhs = e^0.2.
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 0.1, 0.2])
    rep = khasminskii_check(a, 1.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(math.exp(0.2))
    assert rep.rhs == pytest.approx(1.0 / 0.72)
    assert rep.witness["cell_moduli"] == pytest.approx([0.1, 0.2])


def test_khasminskii_partition_too_coarse():
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 0.1, 0.2])
    with pytest.raises(PartitionTooCoarseError, match="too coarse"):
        khasminskii_check(a, 6.0)


def test_khasminskii_validation():
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="lam"):
        khasminskii_check(a, 0.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        khasminskii_check(fair_walk(), 1.0)


@pytest.mark.parametrize("seed", [3, 4])
def test_khasminskii_random_corpus(seed):
    # Unit-scale increments need small rates for lam * rho < 1 on unit cells.
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=3, branching=2, random_transitions=True)
    a = random_nondecreasing_process(sp, rng)
    ran = 0
    for lam in (0.1, 0.2):
        try:
            report = khasminskii_check(a, lam)
        except PartitionTooCoarseError:
            continue  # unit cells can still be too coarse for this draw
        assert report.holds
        ran += 1
    assert ran == 2


def test_energy_frozen():
    # A_k = k: lhs = (A_2 - A_0)^2 = 4, c* = 2, rhs = 2! c*^2 = 8.
    sp = build_tree(2, 2)
    a = deterministic_process(sp, [0.0, 1.0, 2.0])
    assert energy_constant(a) == pytest.approx(2.0)
    rep = energy_check(a, 2)
    assert rep.holds
    assert rep.lhs == pytest.approx(4.0)
    assert rep.rhs == pytest.approx(8.0)


def test_energy_hypothesis_rejected():
    with pytest.raises(ValueError, match="nondecreasing"):
        energy_check(fair_walk(), 2)


def zero_one_increments(sp, rng):
    """Nondecreasing process from 0 with increments 0 or 1, so that many
    nodes do not move."""
    values = [np.zeros(1)]
    for k in range(1, sp.depth + 1):
        inc = rng.choice([0.0, 1.0], size=sp.level_size(k))
        values.append(np.repeat(values[-1], sp.branching) + inc)
    return AdaptedProcess(space=sp, values=values)


@pytest.mark.parametrize("seed", [5, 6])
def test_energy_random_corpus(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=3, branching=2, random_transitions=True)
    ran = 0
    for a in (zero_one_increments(sp, rng), random_nondecreasing_process(sp, rng)):
        for p in (1, 2, 3):
            assert energy_check(a, p).holds
            ran += 1
    assert ran == 6


@pytest.mark.parametrize("depth,branching,seed", [(3, 2, 31), (2, 3, 32)])
def test_energy_constant_matches_enumeration(depth, branching, seed):
    # The stop-atom sweep against every stopping time S in [0, depth] and
    # every stop node u of S.
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=depth, branching=branching, random_transitions=True)
    for a in (zero_one_increments(sp, rng), random_nondecreasing_process(sp, rng)):
        assert energy_constant(a) == pytest.approx(brute_force_energy_constant(a), abs=1e-12)


def test_garsia_frozen():
    # U = 2 sup|V - V_0| dominates every conditional increment of the fair
    # walk; alpha = beta = 1 gives lhs = P(X* >= 2) = 0.5, rhs = E(U; X* >= 1) = 3.
    v = fair_walk()
    u = 2.0 * np.abs(v.paths).max(axis=1)
    rep = garsia_check(v, u, alpha=1.0, beta=1.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(3.0)


def test_garsia_hypothesis_failure_names_a_pair():
    v = fair_walk()
    with pytest.raises(ValueError, match="domination hypothesis fails.*level 0"):
        garsia_check(v, 0.1 * np.ones(4), alpha=0.5, beta=0.5)


def test_garsia_validation():
    v = fair_walk()
    u = np.ones(4)
    with pytest.raises(ValueError, match="alpha and beta"):
        garsia_check(v, u, alpha=0.0, beta=1.0)
    with pytest.raises(ValueError, match="leaf-indexed"):
        garsia_check(v, np.ones(3), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        garsia_check(v, -u, alpha=1.0, beta=1.0)


@pytest.mark.parametrize("seed", [7, 8])
def test_garsia_random_corpus(seed):
    v = random_case(seed, "uniform")
    paths = v.paths
    u = 2.0 * np.abs(paths - paths[:, :1]).max(axis=1)
    spread = float(u.max()) + 0.1
    rep = garsia_check(v, u, alpha=0.3 * spread, beta=0.2 * spread)
    assert rep.holds


def test_maximal_check_holds_on_corpus():
    for seed in (9, 10):
        v = random_case(seed, "walk")
        rep = maximal_check(v, oscillation_grid(v))
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
        assert stopping_pair_bound_check(grid).holds
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


# -- stacked sweeps and array case scans against per-row oracles --------------


def loop_worst_case_report(name, key, cases, first=None):
    """Reference case scan: a Python loop over (lhs, rhs, where) cases."""
    worst = (0.0, 0.0, first)
    holds = True
    for lhs, rhs, where in cases:
        if lhs > rhs + check_tolerance(rhs):
            holds = False
        if lhs - rhs > worst[0] - worst[1]:
            worst = (float(lhs), float(rhs), where)
    rhs = worst[1]
    return CheckReport(name, holds, worst[0], rhs, check_tolerance(rhs), {key: worst[2]})


def loop_structural_reports(process, grid, control, unit_control):
    d, rho, w, paths = grid.depth, grid.rho, control.w, process.paths
    return [
        loop_worst_case_report("modulus-monotone", "windows", (
            (rho[u, v], rho[s, t], [s, t, u, v])
            for s in range(d + 1) for t in range(s, d + 1)
            for u in range(s, t + 1) for v in range(u, t + 1))),
        loop_worst_case_report("modulus-triangle", "split", (
            (rho[s, t], rho[s, u] + rho[u, t], [s, u, t])
            for s in range(d + 1) for t in range(s, d + 1) for u in range(s, t + 1))),
        loop_worst_case_report("pathwise-increment", "window", (
            (float(np.max(np.abs(paths[:, t] - paths[:, s]))),
             22.0 * float(unit_control.w[s, t]), [s, t])
            for s in range(d) for t in range(s + 1, d + 1)), first=[0, 0]),
        loop_worst_case_report("control-superadditive", "split", (
            (w[s, u] + w[u, t], w[s, t], [s, u, t])
            for s in range(d + 1) for t in range(s, d + 1) for u in range(s, t + 1))),
        loop_worst_case_report("control-dominates-increments", "window", (
            (float(grid.pairs[s, t]), float(w[s, t]) ** (1.0 / control.p), [s, t])
            for s in range(d) for t in range(s + 1, d + 1))),
    ]


def as_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def test_worst_case_report_matches_the_loop():
    rng = np.random.default_rng(40)
    where = np.arange(24).reshape(12, 2)
    cases = {
        # Three cases tie at the largest gap: the first one is reported.
        "ties": (np.array([1.0, 3.0, 0.5, 3.0, 2.0, 3.0] * 2),
                 np.array([0.0, 1.0, 0.5, 1.0, 0.0, 1.0] * 2)),
        "all-hold": (rng.uniform(0.0, 1.0, 12), rng.uniform(1.0, 2.0, 12)),
        "zero-gaps": (np.ones(12), np.ones(12)),
        "infinite": (np.array([5.0, np.inf, 1.0, np.inf] * 3),
                     np.array([np.inf, -np.inf, 2.0, np.inf] * 3)),
        "nan": (np.array([np.nan, 1.0, 4.0, np.nan] * 3), np.array([0.0, np.nan, 3.5, np.nan] * 3)),
        "violations": (rng.normal(size=12), rng.normal(size=12)),
    }
    for label, (lhs, rhs) in cases.items():
        for first in (None, [0, 0]):
            report = _worst_case_report(label, "where", lhs, rhs, where, first=first)
            cases = zip(lhs.tolist(), rhs.tolist(), where.tolist())
            oracle = loop_worst_case_report(label, "where", cases, first=first)
            assert as_json(report) == as_json(oracle), label
            assert report.holds == oracle.holds
            if isinstance(report.witness["where"], list):
                assert all(type(x) is int for x in report.witness["where"])
    zero = _worst_case_report("zero", "where", np.ones(12), np.ones(12), where, first=[0, 0])
    assert (zero.lhs, zero.rhs, zero.witness) == (0.0, 0.0, {"where": [0, 0]})
    inf = _worst_case_report("inf", "where", [np.inf], [-np.inf], where[:1])
    assert inf.tolerance == math.inf and inf.holds and inf.witness == {"where": [0, 1]}
    nan = _worst_case_report("nan", "where", [np.nan, 2.0], [0.0, 1.0], where[:2])
    assert nan.witness == {"where": [2, 3]}


@pytest.mark.parametrize("depth,branching", [(0, 2), (1, 2), (2, 3), (4, 2), (5, 2), (3, 4)])
def test_structural_checks_match_the_loop(depth, branching):
    rng = np.random.default_rng(41 + depth)
    sp = random_space(rng, depth=depth, branching=branching, random_transitions=True)
    v = random_process(sp, rng, kind="heavy")
    grid = oscillation_grid(v)
    unit = variation_control(grid, 1)
    for p in (1, 2.0, 3):
        control = variation_control(grid, p)
        # Force violations and ties into the grid as well as the clean case.
        for broken in (False, True):
            if broken and depth:
                grid.rho[0, depth] *= 0.5
                control.w[0, depth] *= 0.5
            reports = [monotonicity_check(grid), triangle_check(grid),
                       pathwise_increment_check(v, unit), superadditivity_check(control),
                       control_domination_check(grid, control)]
            oracle = loop_structural_reports(v, grid, control, unit)
            assert [as_json(r) for r in reports] == [as_json(r) for r in oracle]


def loop_cond_log_mean_exp(space, leaf_exponents, level):
    """Reference log-mean-exp of one leaf row, conditioned on F_level."""
    g = np.asarray(leaf_exponents, dtype=float)
    b = space.branching
    for k in range(space.depth - 1, level - 1, -1):
        g2 = g.reshape(space.level_size(k), b)
        m = g2.max(axis=1)
        g = m + np.log((space.transitions[k] * np.exp(g2 - m[:, None])).sum(axis=1))
    return g


@pytest.mark.parametrize("depth,branching,kind",
                         [(5, 2, "gaussian"), (4, 3, "walk"), (3, 4, "heavy")])
def test_exp_vmo_lhs_stacks_every_r(depth, branching, kind):
    rng = np.random.default_rng(42 + depth)
    sp = random_space(rng, depth=depth, branching=branching, random_transitions=True)
    v = random_process(sp, rng, kind=kind)
    paths = v.paths
    for lam in (0.3, 2.0):
        log_lhs, worst_r = -math.inf, 0
        rows = []
        for r in range(depth + 1):
            anchor = v.paths[:, r]
            sup_dev = np.abs(paths[:, r:] - anchor[:, None]).max(axis=1)
            rows.append(lam * sup_dev)
            val = float(np.max(loop_cond_log_mean_exp(sp, lam * sup_dev, r)))
            if val > log_lhs:
                log_lhs, worst_r = val, r
        stacked_lhs, stacked_r = _exp_vmo_lhs(v, lam)
        assert (stacked_lhs.hex(), stacked_r) == (log_lhs.hex(), worst_r)
        for r, g in enumerate(_cond_log_mean_exp(sp, rows)):
            assert g.tobytes() == loop_cond_log_mean_exp(sp, rows[r], r).tobytes()


@pytest.mark.parametrize("depth,branching,s", [(5, 2, 0), (5, 2, 2), (4, 3, 1)])
def test_garsia_hypothesis_gaps_stack_every_stop_level(depth, branching, s):
    rng = np.random.default_rng(43 + s)
    sp = random_space(rng, depth=depth, branching=branching, random_transitions=True)
    v = random_process(sp, rng, kind="uniform")
    u = rng.uniform(0.0, 2.0, sp.n_leaves)
    eu = [sp.cond_expectation(u, k) for k in range(depth + 1)]
    anchors = {j: v.left_limit(j)[None] for j in range(s, depth + 1)}
    stacked = _stop_level_values(v, anchors, s, depth, cost=eu)
    for j in range(s, depth + 1):
        payoffs = [np.abs(v.values[k] - np.repeat(v.left_limit(j), branching ** (k - j))) - eu[k]
                   for k in range(j, depth + 1)]
        gap = payoffs[-1]
        for k in range(depth - 1, j - 1, -1):
            gap = np.maximum(payoffs[k - j], sp.step_expectation(gap, k))
        assert stacked[j - s].shape == (1, sp.level_size(j))
        assert stacked[j - s][0].tobytes() == gap.tobytes()


@pytest.mark.parametrize("depth,branching,seed", [(3, 2, 33), (2, 3, 34)])
def test_garsia_hypothesis_gap_matches_enumeration(depth, branching, seed):
    # The largest domination gap of the Snell sweep against every stopping
    # pair s <= S <= T <= depth and every stop node u of S; garsia_check
    # rejects its hypothesis exactly when that gap is positive at s = 0.
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=depth, branching=branching, random_transitions=True)
    v = random_process(sp, rng, kind="uniform")
    rejected = []
    for u in (rng.uniform(0.0, 2.0, sp.n_leaves), rng.uniform(2.0, 3.0, sp.n_leaves)):
        eu = [sp.cond_expectation(u, k) for k in range(depth + 1)]
        brute = [brute_force_garsia_gap(v, u, s) for s in range(depth + 1)]
        for s in range(depth + 1):
            anchors = {j: v.left_limit(j)[None] for j in range(s, depth + 1)}
            gap = max(float(np.max(g)) for g in _stop_level_values(v, anchors, s, depth, cost=eu))
            assert gap == pytest.approx(brute[s], abs=1e-12)
        rejected.append(brute[0] > 1e-12)
        with (pytest.raises(ValueError, match="domination hypothesis fails")
              if rejected[-1] else contextlib.nullcontext()):
            garsia_check(v, u, alpha=1.0, beta=1.0)
    assert rejected == [True, False]
