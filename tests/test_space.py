import numpy as np
import pytest

from bmoforge.space import FiniteFilteredSpace, build_tree

from oracles import atom_probs


def test_uniform_tree_shapes():
    sp = build_tree(3, 2)
    assert sp.depth == 3
    assert sp.branching == 2
    assert sp.n_leaves == 8
    assert [sp.level_size(k) for k in range(4)] == [1, 2, 4, 8]
    for k, rows in enumerate(sp.transitions):
        assert rows.shape == (2**k, 2)
        assert np.allclose(rows, 0.5)


def test_atom_probs_uniform():
    sp = build_tree(3, 2)
    for k in range(4):
        np.testing.assert_allclose(atom_probs(sp)[k], 2.0**-k)
        assert abs(atom_probs(sp)[k].sum() - 1.0) < 1e-12


def weighted_tree():
    # The same transition row (0.3, 0.7) at every node.
    return build_tree(2, 2, [np.tile([0.3, 0.7], (2**k, 1)) for k in range(2)])


def test_atom_probs_weighted():
    # One transition row reused at every node: level probs are products.
    sp = weighted_tree()
    np.testing.assert_allclose(atom_probs(sp)[1], [0.3, 0.7])
    np.testing.assert_allclose(atom_probs(sp)[2], [0.09, 0.21, 0.21, 0.49])


def test_expectation_exact():
    sp = weighted_tree()
    # indicator of the last leaf
    ind = np.zeros(4)
    ind[3] = 1.0
    assert sp.cond_expectation(ind, 0)[0] == pytest.approx(0.49)
    lvl1 = sp.cond_expectation(ind, 1)
    np.testing.assert_allclose(lvl1, [0.0, 0.7])


def test_cond_expectation_tower():
    rng = np.random.default_rng(5)
    sp = build_tree(4, 3)
    x = rng.normal(size=sp.n_leaves)
    for j in range(5):
        for k in range(j, 5):
            inner = sp.broadcast_to_leaves(sp.cond_expectation(x, k), k)
            lhs = sp.cond_expectation(inner, j)
            rhs = sp.cond_expectation(x, j)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_cond_expectation_of_measurable_is_identity():
    sp = build_tree(3, 2)
    v = np.array([1.0, -2.0, 0.5, 3.0])
    lifted = sp.broadcast_to_leaves(v, 2)
    np.testing.assert_allclose(sp.cond_expectation(lifted, 2), v)


def test_per_level_transition_lists():
    # Ragged per-level arrays: one (1,2) row then a (2,2) block.
    levels = [np.array([[0.5, 0.5]]), np.array([[0.2, 0.8], [0.6, 0.4]])]
    sp = build_tree(2, 2, levels)
    np.testing.assert_allclose(atom_probs(sp)[2], [0.1, 0.4, 0.3, 0.2])


def test_build_tree_validation():
    with pytest.raises(ValueError, match="depth"):
        build_tree(-1, 2)
    with pytest.raises(ValueError, match="branching"):
        build_tree(2, 1)
    with pytest.raises(ValueError, match="transition levels"):
        build_tree(3, 2, [np.full((1, 2), 0.5)])


def test_space_validation():
    good = [np.full((1, 2), 0.5), np.full((2, 2), 0.5)]
    with pytest.raises(ValueError, match="transition levels"):
        FiniteFilteredSpace(depth=3, branching=2, transitions=good)
    bad_sum = [np.array([[0.4, 0.4]]), np.full((2, 2), 0.5)]
    with pytest.raises(ValueError, match="sum to 1"):
        FiniteFilteredSpace(depth=2, branching=2, transitions=bad_sum)
    bad_sign = [np.array([[1.0, 0.0]]), np.full((2, 2), 0.5)]
    with pytest.raises(ValueError, match="non-positive"):
        FiniteFilteredSpace(depth=2, branching=2, transitions=bad_sign)
    bad_shape = [np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
    with pytest.raises(ValueError, match="shape"):
        FiniteFilteredSpace(depth=2, branching=2, transitions=bad_shape)


@pytest.mark.parametrize("branching", [2, 3, 4])
def test_step_expectation_stacks_rows_bitwise(branching):
    # Stacked rows take the per-row sums; for b >= 3 their order matters.
    rng = np.random.default_rng(branching)
    levels = [rng.dirichlet(np.ones(branching), size=branching**k) for k in range(4)]
    sp = build_tree(4, branching, levels)
    for k in range(4):
        n, b = sp.level_size(k), branching
        rows = rng.normal(size=(2, 3, n * b))
        for stack in (rows, rows[:, 1:]):
            out = sp.step_expectation(stack, k)
            assert out.shape == stack.shape[:-1] + (n,)
            for i in np.ndindex(stack.shape[:-1]):
                row = stack[i]
                assert out[i].tobytes() == sp.step_expectation(row, k).tobytes()
                assert out[i].tobytes() == (row.reshape(n, b) * levels[k]).sum(axis=1).tobytes()
    with pytest.raises(ValueError):
        sp.step_expectation(np.zeros((2, sp.level_size(2) + 1)), 1)
    with pytest.raises(ValueError):
        sp.step_expectation(np.zeros((sp.level_size(2), 1)), 1)


def test_level_and_leaf_errors():
    sp = build_tree(2, 2)
    with pytest.raises(ValueError, match="leaf values"):
        sp.cond_expectation(np.zeros(3), 1)
    with pytest.raises(ValueError, match="outside"):
        sp.cond_expectation(np.zeros(4), 3)
