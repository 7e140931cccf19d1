"""Finite filtered probability spaces on rooted trees.

A space is a uniform-branching tree of a given depth. Level k carries the
atoms of the filtration at time k; the leaves of level ``depth`` are the
elementary outcomes. Every expectation on such a space is a finite weighted
sum, so conditional expectations are exact up to floating point.

A stack of trees of one depth and branching is one space whose transition
arrays carry a leading case axis; every array on it keeps that axis right
before its atom axis, so one call steps every case with the sums each case
takes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FiniteFilteredSpace", "build_tree", "stack_spaces"]

_PROB_TOL = 1e-12


@dataclass
class FiniteFilteredSpace:
    """Rooted tree with per-edge transition probabilities.

    ``transitions[k]`` has shape ``(branching**k, branching)``; row ``i`` is
    the child distribution of node ``i`` at level ``k``. A stack of trees
    has shape ``(cases, branching**k, branching)`` at every level.
    """

    depth: int
    branching: int
    transitions: list[np.ndarray]

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if len(self.transitions) != self.depth:
            raise ValueError(
                f"expected {self.depth} transition levels, got {len(self.transitions)}"
            )
        clean = []
        for k, rows in enumerate(self.transitions):
            rows = np.asarray(rows, dtype=float)
            cases = clean[0].shape[:-2] if clean else rows.shape[:-2]
            if rows.shape != cases + (self.level_size(k), self.branching) or len(cases) > 1:
                raise ValueError(
                    f"transition level {k} has shape {rows.shape}, "
                    f"expected {cases + (self.level_size(k), self.branching)}"
                )
            if np.any(rows <= 0.0):
                raise ValueError(f"transition level {k} has non-positive entries")
            sums = rows.sum(axis=-1)
            if np.max(np.abs(sums - 1.0)) > _PROB_TOL:
                raise ValueError(f"transition level {k} rows do not sum to 1")
            clean.append(rows)
        self.transitions = clean

    # -- structure ---------------------------------------------------------

    def level_size(self, k: int) -> int:
        return self.branching**k

    @property
    def n_leaves(self) -> int:
        return self.level_size(self.depth)

    # -- expectations ------------------------------------------------------

    def step_expectation(self, values: np.ndarray, k: int) -> np.ndarray:
        """One backward step: level-(k+1) values to level-k conditional means.

        The last axis of ``values`` is indexed by level-(k+1) atoms and, on
        a stacked space, the one before it by case; leading axes stack
        independent rows, each stepped with the same sums.
        """
        values = np.asarray(values, dtype=float)
        shape = values.shape[:-1] + (self.level_size(k), self.branching)
        return (values.reshape(shape) * self.transitions[k]).sum(axis=-1)

    def cond_expectation(self, leaf_values: np.ndarray, level: int) -> np.ndarray:
        """Exact conditional expectation of a leaf variable given level
        ``level``, per case along the leading axes."""
        leaf_values = np.asarray(leaf_values, dtype=float)
        if leaf_values.shape[-1:] != (self.n_leaves,):
            raise ValueError(f"expected {self.n_leaves} leaf values, got {leaf_values.shape}")
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        out = leaf_values
        for k in range(self.depth - 1, level - 1, -1):
            out = self.step_expectation(out, k)
        return out

    def broadcast_to_leaves(self, values: np.ndarray, level: int) -> np.ndarray:
        """Lift a level-``level`` variable to leaf granularity, along its last axis."""
        values = np.asarray(values, dtype=float)
        return np.repeat(values, self.branching ** (self.depth - level), axis=-1)


def build_tree(
    depth: int,
    branching: int = 2,
    transition_probs=None,
) -> FiniteFilteredSpace:
    """Construct a uniform-branching filtered space.

    ``transition_probs`` is None (every child equally likely) or a list of
    ``depth`` per-level arrays, level k of shape ``(branching**k, branching)``.
    """
    # FiniteFilteredSpace checks the rest; this guards the default rows' division.
    if branching < 2:
        raise ValueError("branching must be >= 2")
    levels: list[np.ndarray] = []
    if transition_probs is None:
        row = np.full(branching, 1.0 / branching)
        for k in range(depth):
            levels.append(np.tile(row, (branching**k, 1)))
    else:
        levels = [np.asarray(t, dtype=float) for t in transition_probs]
    return FiniteFilteredSpace(depth=depth, branching=branching, transitions=levels)


def stack_spaces(spaces) -> FiniteFilteredSpace:
    """One space holding the trees of ``spaces``, in order, on a leading case
    axis; they must share depth and branching."""
    depth, branching = spaces[0].depth, spaces[0].branching
    if any((sp.depth, sp.branching) != (depth, branching) for sp in spaces):
        raise ValueError("stacked trees must share depth and branching")
    return FiniteFilteredSpace(
        depth=depth, branching=branching,
        transitions=[np.stack([sp.transitions[k] for sp in spaces]) for k in range(depth)])
