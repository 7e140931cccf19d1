import numpy as np
import pytest

from bmoforge.space import build_tree

from oracles import (
    EnumerationInfeasibleError,
    StoppingTime,
    enumerate_stopping_pairs,
    enumerate_stopping_times,
    subtree_rule_count,
)


def test_subtree_rule_counts_binary():
    # count(0) = 1, count(d) = 1 + count(d-1)^2.
    assert [subtree_rule_count(2, w) for w in range(6)] == [1, 2, 5, 26, 677, 458330]


def test_subtree_rule_counts_ternary():
    assert [subtree_rule_count(3, w) for w in range(4)] == [1, 2, 9, 730]


def test_enumeration_counts_match_closed_form():
    sp = build_tree(3, 2)
    assert len(enumerate_stopping_times(sp, 0, 2)) == 5
    assert len(enumerate_stopping_times(sp, 1, 3)) == 25
    assert len(enumerate_stopping_times(sp, 2, 2)) == 1


def test_enumerated_rules_are_distinct_and_valid():
    sp = build_tree(3, 2)
    rules = enumerate_stopping_times(sp, 0, 3)
    assert len(rules) == 26
    seen = {tuple(r.atom_levels.tolist()) for r in rules}
    assert len(seen) == 26
    for r in rules:
        assert r.window == (0, 3)


def test_single_level_window_has_one_rule():
    sp = build_tree(2, 2)
    (rule,) = enumerate_stopping_times(sp, 1, 1)
    assert rule.atom_levels.tolist() == [1, 1]
    assert rule.stop_nodes() == [(1, 0), (1, 1)]


def test_cap_refuses_wide_windows():
    sp = build_tree(5, 2)
    with pytest.raises(EnumerationInfeasibleError, match="458330"):
        enumerate_stopping_times(sp, 0, 5, cap=10**5)
    # The default cap admits the same window.
    assert subtree_rule_count(2, 5) < 10**6


def test_window_validation():
    sp = build_tree(2, 2)
    with pytest.raises(ValueError, match="outside"):
        enumerate_stopping_times(sp, 1, 3)
    with pytest.raises(ValueError, match="outside"):
        enumerate_stopping_times(sp, 2, 1)


def test_adaptedness_rejected():
    sp = build_tree(1, 2)
    # Leaf 0 claims a stop at level 0; that is a root decision, so leaf 1
    # would have to claim it too.
    with pytest.raises(ValueError, match="not adapted"):
        StoppingTime(sp, (0, 1), np.array([0, 1]))
    with pytest.raises(ValueError, match="leave the window"):
        StoppingTime(sp, (1, 1), np.array([0, 1]))
    with pytest.raises(ValueError, match="every level-t atom"):
        StoppingTime(sp, (0, 1), np.array([0]))


def test_stop_nodes_antichain():
    sp = build_tree(2, 2)
    rule = StoppingTime(sp, (0, 2), np.array([1, 1, 2, 2]))
    assert rule.stop_nodes() == [(1, 0), (2, 2), (2, 3)]


def test_dominates():
    sp = build_tree(2, 2)
    rules = enumerate_stopping_times(sp, 0, 2)
    latest = StoppingTime(sp, (0, 2), np.full(4, 2))
    earliest = StoppingTime(sp, (0, 2), np.zeros(4, dtype=int))
    for r in rules:
        assert latest.dominates(r)
        assert r.dominates(earliest)
    assert not earliest.dominates(latest)


def test_pair_count_binary_width_two():
    # Pairs (S, T) with S <= T on one subtree satisfy
    # pairs(d) = count(d) + pairs(d-1)^2: 1, 3, 14, 222.
    sp = build_tree(2, 2)
    pairs = list(enumerate_stopping_pairs(sp, 0, 2))
    assert len(pairs) == 14
    for s_rule, t_rule in pairs:
        assert t_rule.dominates(s_rule)


def test_pair_count_binary_width_three():
    sp = build_tree(3, 2)
    assert sum(1 for _ in enumerate_stopping_pairs(sp, 0, 3)) == 222


def test_pairs_cover_the_square_exactly():
    # Cross-check the lazy generator against the quadratic filter.
    sp = build_tree(2, 2)
    rules = enumerate_stopping_times(sp, 0, 2)
    brute = {
        (tuple(a.atom_levels.tolist()), tuple(b.atom_levels.tolist()))
        for a in rules
        for b in rules
        if b.dominates(a)
    }
    lazy = {
        (tuple(a.atom_levels.tolist()), tuple(b.atom_levels.tolist()))
        for a, b in enumerate_stopping_pairs(sp, 0, 2)
    }
    assert lazy == brute
