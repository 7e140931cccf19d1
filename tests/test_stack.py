"""A stack of cases gives each case the bits it gets alone.

Every exact engine and check takes a stack of cases on a leading case axis
(``stack_spaces`` / ``stack_processes``). These tests build mixed stacks
(all five process kinds, branching 2-4, depth 1-5) and compare every
stacked output with the one-case call, bit for bit, and the case kinds'
output files across group sizes.
"""

import json

import numpy as np
import pytest

from bmoforge import experiments
from bmoforge.checks import (
    CheckBatch,
    _exp_vmo_lhs,
    case_report,
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
    stopping_pair_bound_check,
    superadditivity_check,
    triangle_check,
)
from bmoforge.config import parse_config
from bmoforge.controls import variation_control
from bmoforge.experiments import run_experiment
from bmoforge.oscillation import OscillationData, oscillation_grid, oscillation_modulus
from bmoforge.processes import (
    maximal_process,
    random_nondecreasing_process,
    random_process,
    random_space,
    stack_processes,
)
from bmoforge.space import stack_spaces

KINDS = ["gaussian", "walk", "uniform", "integers", "heavy"]
SHAPES = [(1, 2), (2, 4), (3, 3), (4, 2), (5, 2), (2, 3)]


def corpus(depth, branching, n=7):
    """n cases cycling through the process kinds, their stack, and the stack
    of their nondecreasing companions."""
    rng = np.random.default_rng(100 * depth + branching)
    spaces = [random_space(rng, depth, branching, random_transitions=True) for _ in range(n)]
    procs = [random_process(sp, rng, kind=KINDS[i % 5]) for i, sp in enumerate(spaces)]
    comps = [random_nondecreasing_process(sp, rng) for sp in spaces]
    space = stack_spaces(spaces)
    return procs, comps, stack_processes(space, procs), stack_processes(space, comps)


def as_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def same_reports(batch, singles):
    """Case i of the batch reports exactly what the one-case call returns
    or raises."""
    assert isinstance(batch, CheckBatch)
    assert len(batch.witness) == len(singles)
    for i, single in enumerate(singles):
        if isinstance(single, Exception):
            with pytest.raises(type(single)) as caught:
                case_report(batch, i)
            assert str(caught.value) == str(single)
        else:
            assert as_json(case_report(batch, i)) == as_json(single)


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:  # PartitionTooCoarseError is one
        return exc


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("depth,branching", SHAPES)
def test_engines_stack_bitwise(depth, branching):
    procs, comps, stack, comp_stack = corpus(depth, branching)
    grid = oscillation_grid(stack)
    singles = [oscillation_grid(v) for v in procs]
    for name in ("rho", "rho_left", "pairs", "pairs_left", "jumps", "max_jump"):
        for i, single in enumerate(singles):
            assert bits(getattr(grid, name)[i]) == bits(getattr(single, name)), (name, i)
    for p in (1, 2, 3, 2.5):
        w = variation_control(grid, p).w
        for i, single in enumerate(singles):
            assert bits(w[i]) == bits(variation_control(single, p).w)
    for lam in (0.3, 1.7):
        lhs, r = _exp_vmo_lhs(stack, lam)
        for i, v in enumerate(procs):
            one_lhs, one_r = _exp_vmo_lhs(v, lam)
            assert (bits(lhs[i]), int(r[i])) == (bits(one_lhs), int(one_r))
    for s, t in ((0, depth), (depth - 1, depth), (0, 0)):
        moduli = oscillation_modulus(stack, s, t)
        assert [bits(m) for m in moduli] == [bits(oscillation_modulus(v, s, t)) for v in procs]
    running = maximal_process(stack)
    for i, v in enumerate(procs):
        assert [bits(a[i]) for a in running.values] == [bits(a) for a in maximal_process(v).values]
    assert [bits(c) for c in energy_constant(comp_stack)] == [
        bits(energy_constant(a)) for a in comps]


@pytest.mark.parametrize("depth,branching", SHAPES)
def test_checks_stack_bitwise(depth, branching):
    procs, comps, stack, comp_stack = corpus(depth, branching)
    grid = oscillation_grid(stack)
    grids = [oscillation_grid(v) for v in procs]
    for check in (jump_kappa_check, monotonicity_check, triangle_check,
                  stopping_pair_bound_check):
        same_reports(check(grid), [check(g) for g in grids])
    unit = variation_control(grid, 1)
    same_reports(pathwise_increment_check(stack, unit),
                 [pathwise_increment_check(v, variation_control(g, 1))
                  for v, g in zip(procs, grids)])
    same_reports(maximal_check(stack, grid), [maximal_check(v, g) for v, g in zip(procs, grids)])
    for p in (1, 2, 3):
        control = variation_control(grid, p)
        controls = [variation_control(g, p) for g in grids]
        same_reports(superadditivity_check(control), [superadditivity_check(c) for c in controls])
        same_reports(control_domination_check(grid, control),
                     [control_domination_check(g, c) for g, c in zip(grids, controls)])
        for r in range(depth + 1):
            same_reports(jn_moment_check(stack, grid, r, p),
                         [jn_moment_check(v, g, r, p) for v, g in zip(procs, grids)])
        for lam in (0.3, 0.05):
            same_reports(exp_vmoa_check(stack, control, lam),
                         [exp_vmoa_check(v, c, lam) for v, c in zip(procs, controls)])
        same_reports(energy_check(comp_stack, p), [energy_check(a, p) for a in comps])
    # Rates at which some cases' unit cells are too coarse and others not.
    for lam in (0.05, 0.3, 0.6):
        same_reports(khasminskii_check(comp_stack, lam),
                     [outcome(khasminskii_check, a, lam) for a in comps])
    # A dominating U for every case, then one too small on the odd cases.
    for odd in (2.0, 0.3):
        scale = np.where(np.arange(len(procs)) % 2, odd, 2.0)[:, None]
        u = scale * np.abs(stack.paths).max(axis=-1) + 0.01
        alpha = [0.2 + 0.1 * i for i in range(len(procs))]
        beta = [0.5 + 0.05 * i for i in range(len(procs))]
        same_reports(garsia_check(stack, u, alpha, beta),
                     [outcome(garsia_check, v, u[i], alpha[i], beta[i])
                      for i, v in enumerate(procs)])


def test_stacks_reject_mismatched_cases():
    procs, _, stack, _ = corpus(2, 2, n=3)
    with pytest.raises(ValueError, match="share depth and branching"):
        stack_spaces([procs[0].space, random_space(np.random.default_rng(0), 3, 2)])
    with pytest.raises(ValueError, match="stacked trees"):
        stack_processes(stack.space, procs[:1] * 2)


def test_variation_control_keeps_scalar_powers():
    # numpy's array power is not numpy's scalar power bit for bit on every
    # machine (0.8534422874604821 ** 2 differs in its last bit with AVX-512):
    # the control raises each entry as a scalar, and control domination
    # takes Python's float power.
    x = 0.8534422874604821
    rho = np.full((2, 3, 3), np.nan)
    rho[:, [0, 1, 2], [0, 1, 2]] = 0.0
    rho[:, 0, 1] = rho[:, 1, 2] = rho[:, 0, 2] = x
    # Conditional increments rho + 1 violate the control at every window,
    # most at [0, 1].
    grid = OscillationData(rho=rho, rho_left=rho, pairs=rho + 1.0, pairs_left=rho,
                           jumps=np.ones((2, 2)), max_jump=np.ones(2))
    for p in (2, 3):
        w = variation_control(grid, p).w
        assert w[:, 0, 1].tolist() == [x ** p, x ** p]
        assert w[:, 0, 2].tolist() == [x ** p + x ** p] * 2
    control = variation_control(grid, 3)
    batch = control_domination_check(grid, control)
    assert [case_report(batch, i).witness for i in range(2)] == [{"window": [0, 1]}] * 2
    assert [case_report(batch, i).rhs for i in range(2)] == [(x ** 3) ** (1.0 / 3)] * 2


VERIFY = {"kind": "verify-finite", "seed": 5,
          "params": {"depth": 3, "branching": 3, "n_processes": 9, "p_list": [1, 2],
                     "lambda_list": [0.2, 0.5], "random_transitions": True}}
JN = {"kind": "jn-check", "seed": 6,
      "params": {"depth": 4, "branching": 2, "n_processes": 9, "p_list": [1, 3]}}


def run_bytes(tmp_path, doc, name):
    cfg = parse_config(json.dumps(doc))
    cfg.out = str(tmp_path / name)
    manifest = run_experiment(cfg)
    return [(tmp_path / name / f).read_bytes() for f in manifest.outputs], manifest.extra


@pytest.mark.parametrize("kind", ["gaussian", "walk", "uniform", "integers", "heavy"])
@pytest.mark.parametrize("doc", [VERIFY, JN], ids=["verify-finite", "jn-check"])
def test_case_kinds_write_the_same_bytes_in_any_group_size(tmp_path, monkeypatch, doc, kind):
    doc = dict(doc, params=dict(doc["params"], process_kind=kind))
    p = doc["params"]
    per_case = 4 * p["branching"] ** p["depth"] * (p["depth"] + 1) ** 2
    outputs = {}
    for group in (1, 4, 9):
        monkeypatch.setattr(experiments.ensemble, "_CHUNK_ELEMENTS", group * per_case)
        assert experiments._group_size(p) == group
        outputs[group] = run_bytes(tmp_path, doc, f"g{group}")
    assert outputs[1] == outputs[4] == outputs[9]


@pytest.mark.parametrize("doc", [VERIFY, JN], ids=["verify-finite", "jn-check"])
def test_one_case_alone_writes_its_records_in_a_group(tmp_path, doc):
    # n_processes = 1 is a one-row stack; its records are the first case's
    # records of a run whose group holds all nine cases.
    (one, _), extra = run_bytes(tmp_path, dict(doc, params=dict(doc["params"], n_processes=1)),
                                "one")
    (nine, _), _ = run_bytes(tmp_path, doc, "nine")
    assert extra["n_checks"] == len(one.splitlines()) > 0
    assert nine.splitlines()[:extra["n_checks"]] == one.splitlines()


def test_zero_spread_cases_skip_garsia_in_any_group(tmp_path, monkeypatch):
    # A process that is 0 at every node has spread 2 max|V| = 0: it draws no
    # garsia rates and writes no garsia-tail record, alone or inside a group
    # with other cases, and the other cases keep their bytes.
    make = experiments.random_process

    def zero_on_some(space, rng, kind):
        proc = make(space, rng, kind=kind)
        if rng.uniform() < 0.5:
            return type(proc)(proc.space, [0.0 * v for v in proc.values])
        return proc

    monkeypatch.setattr(experiments, "random_process", zero_on_some)
    p = VERIFY["params"]
    per_case = 4 * p["branching"] ** p["depth"] * (p["depth"] + 1) ** 2
    outputs = {}
    for group in (1, 4, 9):
        monkeypatch.setattr(experiments.ensemble, "_CHUNK_ELEMENTS", group * per_case)
        outputs[group] = run_bytes(tmp_path, VERIFY, f"g{group}")
    assert outputs[1] == outputs[4] == outputs[9]
    records = [json.loads(line) for line in outputs[1][0][0].splitlines()]
    tails = sum(r["check"] == "garsia-tail" for r in records)
    assert 0 < tails < p["n_processes"]
