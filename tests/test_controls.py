import numpy as np
import pytest

from bmoforge.controls import variation_control
from bmoforge.oscillation import OscillationData, oscillation_grid
from bmoforge.processes import random_process, random_space


def hand_grid():
    # Hand grid: rho[0,1] = 1, rho[1,2] = 1, rho[0,2] = 1.5; the control
    # reads rho only.
    rho = np.array([[0.0, 1.0, 1.5], [np.nan, 0.0, 1.0], [np.nan, np.nan, 0.0]])
    return OscillationData(rho=rho, rho_left=rho, pairs=rho, pairs_left=rho,
                           jumps=np.ones(2), max_jump=1.0)


def test_variation_control_frozen():
    grid = hand_grid()
    # p = 2: max(1.5^2, 1 + 1) = 2.25; p = 1: max(1.5, 2) = 2.
    c2 = variation_control(grid, 2.0)
    assert c2.w[0, 2] == pytest.approx(2.25)
    assert c2.total == pytest.approx(2.25)
    assert c2.depth == 2
    assert c2.w[0, 1] == pytest.approx(1.0)
    c1 = variation_control(grid, 1.0)
    assert c1.w[0, 2] == pytest.approx(2.0)


def test_variation_control_accepts_grid_object():
    rng = np.random.default_rng(2)
    sp = random_space(rng, depth=3, branching=2)
    grid = oscillation_grid(random_process(sp, rng, kind="walk"))
    control = variation_control(grid, 2.0)
    assert control.w.shape == grid.rho.shape


def test_control_dominates_cells_and_is_superadditive():
    rng = np.random.default_rng(4)
    sp = random_space(rng, depth=3, branching=2, random_transitions=True)
    grid = oscillation_grid(random_process(sp, rng, kind="gaussian"))
    for p in (1.0, 2.0, 3.0):
        control = variation_control(grid, p)
        d = control.depth
        for s in range(d + 1):
            # Degenerate windows are not partition cells.
            assert control.w[s, s] == 0.0
            for t in range(s + 1, d + 1):
                assert control.w[s, t] >= grid.rho[s, t] ** p - 1e-12
                for u in range(s, t + 1):
                    assert control.w[s, u] + control.w[u, t] <= control.w[s, t] + 1e-12


def test_variation_control_validation():
    with pytest.raises(ValueError, match="p must be"):
        variation_control(hand_grid(), 0.5)
