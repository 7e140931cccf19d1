import numpy as np
import pytest

from bmoforge.processes import (
    AdaptedProcess,
    maximal_process,
    random_nondecreasing_process,
    random_process,
    random_space,
)
from bmoforge.space import build_tree

from oracles import deterministic_process


def walk_example():
    # Binary depth 2: V_0 = 0, V_1 = (1, -2), V_2 = (0.5, 3, -1, -4).
    sp = build_tree(2, 2)
    return sp, AdaptedProcess(
        space=sp,
        values=[np.zeros(1), np.array([1.0, -2.0]), np.array([0.5, 3.0, -1.0, -4.0])],
    )


def test_validation():
    sp = build_tree(2, 2)
    with pytest.raises(ValueError, match="value levels"):
        AdaptedProcess(space=sp, values=[np.zeros(1), np.zeros(2)])
    with pytest.raises(ValueError, match="shape"):
        AdaptedProcess(space=sp, values=[np.zeros(1), np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError, match="non-finite"):
        AdaptedProcess(space=sp, values=[np.zeros(1), np.array([1.0, np.nan]), np.zeros(4)])


def test_left_limit_convention():
    _, v = walk_example()
    # V_{0-} = V_0 at the root, V_{k-} = V_{k-1} lifted one level elsewhere.
    np.testing.assert_array_equal(v.left_limit(0), [0.0])
    np.testing.assert_array_equal(v.left_limit(1), [0.0, 0.0])
    np.testing.assert_array_equal(v.left_limit(2), [1.0, 1.0, -2.0, -2.0])


def test_path_matrix_and_increments():
    _, v = walk_example()
    paths = v.paths
    expected = np.array(
        [[0, 1, 0.5], [0, 1, 3], [0, -2, -1], [0, -2, -4]], dtype=float
    )
    np.testing.assert_array_equal(paths, expected)
    incs = v.increments()
    np.testing.assert_array_equal(incs[0], [1.0, -2.0])
    np.testing.assert_array_equal(incs[1], [-0.5, 2.0, 1.0, -2.0])
    # Pathwise diffs of the trajectory matrix agree with the increment arrays.
    np.testing.assert_array_equal(np.diff(paths, axis=1)[:, 1], incs[1])


def test_maximal_process_exact():
    sp, v = walk_example()
    m = maximal_process(v)
    np.testing.assert_array_equal(m.values[0], [0.0])
    np.testing.assert_array_equal(m.values[1], [1.0, 2.0])
    np.testing.assert_array_equal(m.values[2], [1.0, 3.0, 2.0, 4.0])
    assert m.is_nondecreasing()


@pytest.mark.parametrize("branching, depth", [(2, 5), (3, 4), (4, 3), (2, 0)])
def test_paths_is_the_level_stack(branching, depth):
    sp = random_space(np.random.default_rng(branching), depth, branching, random_transitions=True)
    v = random_process(sp, np.random.default_rng(depth), kind="heavy")
    oracle = np.stack([np.repeat(v.values[k], branching ** (depth - k))
                       for k in range(depth + 1)], axis=1)
    assert v.paths.shape == (sp.n_leaves, depth + 1)
    assert v.paths.tobytes() == oracle.tobytes()
    assert v.paths is v.paths  # built once, shared by every reader
    with pytest.raises(ValueError, match="read-only"):
        v.paths[0, 0] = 1.0


def _running_max_by_level(space, process):
    # Oracle: M_0 = 0 and M_k = max(M_{k-1} lifted one level, |V_k - V_0|).
    v0 = process.values[0][0]
    out = [np.zeros(1)]
    for k in range(1, space.depth + 1):
        dev = np.abs(process.values[k] - v0)
        out.append(np.maximum(np.repeat(out[-1], space.branching), dev))
    return out


@pytest.mark.parametrize("branching, depth, kind", [
    (2, 5, "gaussian"), (3, 4, "walk"), (4, 3, "heavy"), (2, 0, "uniform"), (3, 2, "integers"),
])
def test_maximal_process_matches_the_level_recursion(branching, depth, kind):
    sp = random_space(np.random.default_rng(7), depth, branching, random_transitions=True)
    v = random_process(sp, np.random.default_rng(11), kind=kind)
    m = maximal_process(v)
    oracle = _running_max_by_level(sp, v)
    assert [a.tobytes() for a in m.values] == [a.tobytes() for a in oracle]


def test_is_nondecreasing_at_the_tolerance():
    # Per level: min(V_k - V_{k-1}) >= -tol. An increment of exactly -1e-12
    # (V_1 - V_0 = -1e-12 with V_0 = 0) passes; one ulp more fails.
    sp = build_tree(2, 2)
    for drop, expected in ((-1e-12, True), (np.nextafter(-1e-12, -1.0), False)):
        v = AdaptedProcess(space=sp, values=[np.zeros(1), np.array([drop, 1.0]),
                                             np.array([drop, drop, 1.0, 2.0])])
        per_level = all(np.min(inc) >= -1e-12 for inc in v.increments())
        assert per_level is expected
        assert v.is_nondecreasing() is expected


def test_deterministic_process():
    sp = build_tree(2, 2)
    v = deterministic_process(sp, [0.0, 1.0, 4.0])
    np.testing.assert_array_equal(v.values[2], np.full(4, 4.0))
    with pytest.raises(ValueError, match="per level"):
        deterministic_process(sp, [0.0, 1.0])


def test_value_at_leaves():
    _, v = walk_example()
    np.testing.assert_array_equal(v.paths[:, 1], [1.0, 1.0, -2.0, -2.0])


def test_random_space_transitions_bounded():
    rng = np.random.default_rng(0)
    sp = random_space(rng, depth=3, branching=3, random_transitions=True)
    for rows in sp.transitions:
        assert rows.min() >= 0.1 / 3 - 1e-12
        np.testing.assert_allclose(rows.sum(axis=1), 1.0)
    uniform = random_space(rng, depth=2, branching=2)
    assert np.allclose(uniform.transitions[0], 0.5)


@pytest.mark.parametrize("kind", ["gaussian", "walk", "uniform", "integers", "heavy"])
def test_random_process_kinds(kind):
    sp = build_tree(3, 2)
    v = random_process(sp, np.random.default_rng(1), kind=kind)
    assert v.depth == 3
    assert all(np.isfinite(lvl).all() for lvl in v.values)


def test_random_walk_steps_uniform_magnitude():
    sp = build_tree(3, 2)
    v = random_process(sp, np.random.default_rng(2), kind="walk")
    mags = np.concatenate([np.abs(inc) for inc in v.increments()])
    assert np.allclose(mags, mags[0])
    assert 0.5 <= mags[0] <= 1.5


def test_random_process_unknown_kind():
    sp = build_tree(1, 2)
    with pytest.raises(ValueError, match="unknown process kind"):
        random_process(sp, np.random.default_rng(0), kind="cauchy")


def test_random_nondecreasing():
    sp = build_tree(4, 2)
    v = random_nondecreasing_process(sp, np.random.default_rng(3))
    assert v.is_nondecreasing()
    assert v.values[0][0] >= 0.0


def test_is_nondecreasing_detects_drops():
    _, v = walk_example()
    assert not v.is_nondecreasing()
