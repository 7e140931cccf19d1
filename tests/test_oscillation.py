import numpy as np
import pytest

from bmoforge.oscillation import _stop_level_values, oscillation_grid, oscillation_modulus
from bmoforge.processes import AdaptedProcess, random_process, random_space
from bmoforge.space import FiniteFilteredSpace, build_tree

from oracles import (
    EnumerationInfeasibleError,
    StoppingTime,
    brute_force_modulus,
    deterministic_process,
    enumerate_stopping_times,
    pair_oscillation,
)


def left_modulus(process, s, t):
    """Modulus over [s, t] with the left-limit anchor only, from a Snell
    sweep of its own: the sums ``rho_left`` must reproduce bit for bit."""
    anchors = {j: process.left_limit(j)[None] for j in range(s, t + 1)}
    return max(0.0, *(float(np.max(g)) for g in _stop_level_values(process, anchors, s, t)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("both_anchors", [True, False])
def test_modulus_matches_enumeration(seed, both_anchors):
    # Both anchors: oscillation_modulus; the left-limit anchor only: rho_left.
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=3, branching=2, random_transitions=True)
    v = random_process(sp, rng, kind="gaussian")
    rho_left = oscillation_grid(v).rho_left
    for s in range(4):
        for t in range(s, 4):
            if both_anchors:
                fast, brute = oscillation_modulus(v, s, t), brute_force_modulus(v, s, t)
            else:
                fast, brute = rho_left[s, t], brute_force_modulus(v, s, t, ("grid",))
            assert fast == pytest.approx(brute, abs=1e-12)


def test_modulus_matches_enumeration_ternary():
    rng = np.random.default_rng(7)
    sp = random_space(rng, depth=2, branching=3, random_transitions=True)
    v = random_process(sp, rng, kind="uniform")
    rho_left = oscillation_grid(v).rho_left
    for s in range(3):
        for t in range(s, 3):
            assert oscillation_modulus(v, s, t) == pytest.approx(
                brute_force_modulus(v, s, t), abs=1e-12)
            assert rho_left[s, t] == pytest.approx(
                brute_force_modulus(v, s, t, ("grid",)), abs=1e-12)


@pytest.mark.parametrize("depth,branching,kind,seed", [
    (5, 2, "gaussian", 21),
    (5, 2, "heavy", 22),
    (3, 3, "walk", 23),
    (5, 3, "gaussian", 24),
    (5, 4, "uniform", 25),
    (8, 2, "gaussian", 29),
    (6, 3, "integers", 30),
])
def test_grid_equals_window_moduli_bitwise(depth, branching, kind, seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, depth=depth, branching=branching, random_transitions=True)
    v = random_process(sp, rng, kind=kind)
    data = oscillation_grid(v)
    for s in range(depth + 1):
        for t in range(s, depth + 1):
            assert data.rho[s, t] == oscillation_modulus(v, s, t)
            assert data.rho_left[s, t] == left_modulus(v, s, t)


def test_grid_step_expectation_count(monkeypatch):
    # One backward sweep from level 5 to 0 carries every Snell and
    # deterministic-pair row (stop level, convention, horizon) on leading
    # axes: one batched step per level, 5 at depth 5, where one call per row
    # and level took 140.
    rng = np.random.default_rng(5)
    sp = random_space(rng, depth=5, branching=2, random_transitions=True)
    v = random_process(sp, rng, kind="gaussian")
    calls = []
    step = FiniteFilteredSpace.step_expectation

    def counted(self, values, k):
        calls.append(k)
        return step(self, values, k)

    monkeypatch.setattr(FiniteFilteredSpace, "step_expectation", counted)
    oscillation_grid(v)
    assert calls == [4, 3, 2, 1, 0]


def test_fair_walk_modulus():
    # Fair +-1 walk from 0, depth 2. Stopping as late as possible gives
    # E|V_T - anchor| = 1 and no pair does better.
    sp = build_tree(2, 2)
    v = AdaptedProcess(
        space=sp,
        values=[np.zeros(1), np.array([1.0, -1.0]), np.array([2.0, 0.0, 0.0, -2.0])],
    )
    assert oscillation_modulus(v, 0, 2) == pytest.approx(1.0)


def test_deterministic_drift_modulus():
    # V_k = k: the pair (0, depth) realizes |V_t - V_0| = depth exactly.
    sp = build_tree(2, 2)
    v = deterministic_process(sp, [0.0, 1.0, 2.0])
    assert oscillation_modulus(v, 0, 2) == pytest.approx(2.0)
    data = oscillation_grid(v)
    assert np.nanmax(data.pairs_left) == pytest.approx(2.0)
    assert np.nanmax(data.pairs) == pytest.approx(2.0)


def test_grid_jumps_quadratic():
    sp = build_tree(3, 2)
    v = deterministic_process(sp, [0.0, 1.0, 4.0, 9.0])
    data = oscillation_grid(v)
    np.testing.assert_array_equal(data.jumps, [1.0, 3.0, 5.0])
    assert data.kappa == pytest.approx(5.0)
    flat = oscillation_grid(deterministic_process(build_tree(0, 2), [3.0]))
    assert flat.jumps.shape == (0,)
    assert flat.kappa == 0.0


def test_grid_pairs_exact():
    # E_1 |V_2 - V_0| on the worst level-1 atom of the hand example.
    sp = build_tree(2, 2)
    v = AdaptedProcess(
        space=sp,
        values=[np.zeros(1), np.array([1.0, -2.0]), np.array([0.5, 3.0, -1.0, -4.0])],
    )
    data = oscillation_grid(v)
    # anchor V_{1-} = V_0 = 0; atom 0: (0.5 + 3)/2 = 1.75, atom 1: (1+4)/2 = 2.5.
    assert data.pairs_left[1, 2] == pytest.approx(2.5)
    # anchor V_1 itself: atom 0: (0.5+2)/2 = 1.25, atom 1: (1+2)/2 = 1.5.
    assert data.pairs[1, 2] == pytest.approx(1.5)
    assert np.isnan(data.pairs[2, 1])
    assert np.isnan(data.pairs_left[2, 1])


def test_pair_grid_holds_every_pair_modulus():
    # Oracle: condition each anchored payoff down from the leaves in one
    # cond_expectation call, with the anchors broadcast to the leaves.
    for depth, branching, seed in ((3, 2, 27), (2, 3, 28)):
        rng = np.random.default_rng(seed)
        sp = random_space(rng, depth=depth, branching=branching, random_transitions=True)
        v = random_process(sp, rng)
        data = oscillation_grid(v)
        for j in range(depth + 1):
            own = sp.broadcast_to_leaves(v.values[j], j)
            left = sp.broadcast_to_leaves(v.left_limit(j), j)
            for k in range(depth + 1):
                if k < j:
                    assert np.isnan(data.pairs[j, k])
                    assert np.isnan(data.pairs_left[j, k])
                    continue
                vk = v.paths[:, k]
                for pairs, anchor in ((data.pairs, own), (data.pairs_left, left)):
                    oracle = np.max(sp.cond_expectation(np.abs(vk - anchor), j))
                    assert pairs[j, k] == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_deterministic_pairs_lower_bound_the_modulus():
    rng = np.random.default_rng(11)
    sp = random_space(rng, depth=3, branching=2, random_transitions=True)
    v = random_process(sp, rng, kind="heavy")
    data = oscillation_grid(v)
    for s in range(4):
        for t in range(s, 4):
            b_det = np.nanmax(data.pairs_left[s:t + 1, s:t + 1])
            assert b_det <= oscillation_modulus(v, s, t) + 1e-12


def test_grid_shape_and_conventions():
    rng = np.random.default_rng(3)
    sp = build_tree(3, 2)
    v = random_process(sp, rng, kind="gaussian")
    data = oscillation_grid(v)
    assert data.depth == 3
    assert np.isnan(data.rho[2, 1])
    # Root diagonal entry is 0 under the V_{0-} = V_0 convention.
    assert data.rho[0, 0] == 0.0
    assert data.window(1, 3) == pytest.approx(oscillation_modulus(v, 1, 3))
    # Two independent routes to the largest jump agree.
    assert data.max_jump == pytest.approx(data.kappa)
    assert data.window(1, 3, left_limit=True) == data.rho_left[1, 3]
    for s, t in ((2, 1), (-1, 2), (0, 4)):
        with pytest.raises(ValueError, match="outside"):
            data.window(s, t)


def test_modulus_monotone_in_window_inclusion():
    rng = np.random.default_rng(4)
    sp = build_tree(3, 2)
    v = random_process(sp, rng, kind="walk")
    data = oscillation_grid(v)
    for s in range(4):
        for t in range(s, 4):
            for s2 in range(s, t + 1):
                for t2 in range(s2, t + 1):
                    assert data.rho[s2, t2] <= data.rho[s, t] + 1e-12


def test_intra_anchors_only_add():
    rng = np.random.default_rng(9)
    sp = build_tree(3, 2)
    v = random_process(sp, rng, kind="integers")
    data = oscillation_grid(v)
    for s in range(4):
        for t in range(s, 4):
            assert data.rho_left[s, t] <= oscillation_modulus(v, s, t) + 1e-12


def test_pair_oscillation_validation():
    sp = build_tree(2, 2)
    v = deterministic_process(sp, [0.0, 1.0, 2.0])
    early = StoppingTime(sp, (0, 2), np.zeros(4, dtype=int))
    late = StoppingTime(sp, (0, 2), np.full(4, 2))
    with pytest.raises(ValueError, match="T >= S"):
        pair_oscillation(v, late, early)
    with pytest.raises(ValueError, match="convention"):
        pair_oscillation(v, early, late, convention="center")


def test_cap_guards_only_enumeration():
    # A ternary depth-5 window holds too many stopping times to enumerate,
    # but the Snell engine needs no enumeration.
    rng = np.random.default_rng(26)
    sp = random_space(rng, depth=5, branching=3, random_transitions=True)
    v = random_process(sp, rng, kind="gaussian")
    with pytest.raises(EnumerationInfeasibleError, match=r"\[0, 5\]"):
        enumerate_stopping_times(sp, 0, 5)
    data = oscillation_grid(v)
    assert data.rho.shape == (6, 6)
    assert np.all(np.isfinite(data.rho[np.triu_indices(6)]))


def test_constant_process_zero_modulus():
    sp = build_tree(3, 2)
    v = deterministic_process(sp, [2.0, 2.0, 2.0, 2.0])
    data = oscillation_grid(v)
    assert np.nanmax(data.rho) == 0.0
    assert data.kappa == 0.0
