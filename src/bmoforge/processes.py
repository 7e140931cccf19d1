"""Adapted processes on finite filtered spaces, plus corpus generators.

A process assigns one value per tree node, so measurability with respect to
the level filtration is structural. Time is the level index; the embedded
right-continuous step process is constant on [k, k+1). Left limits follow
the convention ``V_{k-} = V_{k-1}`` with ``V_{0-} = V_0``.

A process on a stacked space (``space.stack_spaces``) holds one
process per case: every value array gains a leading case axis, and every
function here maps over it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .space import FiniteFilteredSpace, build_tree

__all__ = [
    "AdaptedProcess",
    "maximal_process",
    "random_space",
    "random_process",
    "random_nondecreasing_process",
    "stack_processes",
]


@dataclass
class AdaptedProcess:
    """Node-indexed values: ``values[k]`` has one entry per level-k atom,
    after a leading case axis when the process is a stack of cases."""

    space: FiniteFilteredSpace
    values: list[np.ndarray]

    def __post_init__(self):
        if len(self.values) != self.space.depth + 1:
            raise ValueError(
                f"expected {self.space.depth + 1} value levels, got {len(self.values)}"
            )
        clean = []
        for k, v in enumerate(self.values):
            v = np.asarray(v, dtype=float)
            cases = clean[0].shape[:-1] if clean else v.shape[:-1]
            if v.shape != cases + (self.space.level_size(k),) or len(cases) > 1:
                raise ValueError(f"level {k} has shape {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"level {k} has non-finite values")
            clean.append(v)
        space_cases = self.space.transitions[0].shape[:-2] if self.space.depth else ()
        if space_cases not in ((), clean[0].shape[:-1]):
            raise ValueError(f"{space_cases[0]} stacked trees for values of shape {clean[0].shape}")
        self.values = clean

    @property
    def depth(self) -> int:
        return self.space.depth

    @property
    def case_shape(self) -> tuple:
        """``(cases,)`` for a stack of cases, ``()`` for one process."""
        return self.values[0].shape[:-1]

    @functools.cached_property
    def paths(self) -> np.ndarray:
        """Shape ``(n_leaves, depth+1)`` after the case axis: the full
        trajectory of each path, built once and read-only, since every
        reader shares it."""
        lifted = [self.space.broadcast_to_leaves(v, k) for k, v in enumerate(self.values)]
        out = np.stack(lifted, axis=-1)
        out.flags.writeable = False
        return out

    def left_limit(self, level: int) -> np.ndarray:
        """Values of ``V_{level-}`` indexed by level-``level`` atoms."""
        if level == 0:
            return self.values[0].copy()
        return np.repeat(self.values[level - 1], self.space.branching, axis=-1)

    def increments(self) -> list[np.ndarray]:
        """Per-level jumps ``V_k - V_{k-1}`` indexed by level-k atoms."""
        return [self.values[k] - self.left_limit(k) for k in range(1, self.depth + 1)]

    def is_nondecreasing(self) -> bool:
        """Whether every path of every case is nondecreasing, up to 1e-12."""
        return bool(np.all(np.diff(self.paths, axis=-1) >= -1e-12))


def maximal_process(process: AdaptedProcess) -> AdaptedProcess:
    """Running maximum of ``|V_k - V_0|`` along each path, as a process."""
    space = process.space
    paths = process.paths
    run = np.maximum.accumulate(np.abs(paths - paths[..., :1]), axis=-1)
    # Leaf i lies in level-k atom i // b**(d-k): take every b**(d-k)-th leaf.
    d, b = space.depth, space.branching
    return AdaptedProcess(space=space, values=[run[..., ::b ** (d - k), k] for k in range(d + 1)])


def stack_processes(space: FiniteFilteredSpace, processes) -> AdaptedProcess:
    """The processes, in order, as one process on ``space``, the stack of
    their spaces."""
    return AdaptedProcess(space=space, values=[np.stack([v.values[k] for v in processes])
                                               for k in range(space.depth + 1)])


def random_space(rng: np.random.Generator, depth: int, branching: int = 2,
                 random_transitions: bool = False) -> FiniteFilteredSpace:
    """Uniform tree, or one with Dirichlet transition rows bounded away from 0."""
    if not random_transitions:
        return build_tree(depth, branching)
    levels = []
    for k in range(depth):
        rows = rng.dirichlet(np.ones(branching), size=branching**k)
        rows = 0.9 * rows + 0.1 / branching  # keep transitions bounded away from zero
        levels.append(rows)
    return build_tree(depth, branching, levels)


def random_process(space: FiniteFilteredSpace, rng: np.random.Generator,
                   kind: str = "gaussian") -> AdaptedProcess:
    """Randomized adapted process families used by verification corpora.

    Kinds: ``gaussian`` (iid node values), ``walk`` (signed-increment walk),
    ``uniform`` (iid U[-1,1] values), ``integers`` (small integer values),
    ``heavy`` (student-t node values).
    """
    values = []
    if kind in ("gaussian", "uniform", "integers", "heavy"):
        for k in range(space.depth + 1):
            n = space.level_size(k)
            if kind == "gaussian":
                v = rng.normal(0.0, 1.0, size=n)
            elif kind == "uniform":
                v = rng.uniform(-1.0, 1.0, size=n)
            elif kind == "integers":
                v = rng.integers(-3, 4, size=n).astype(float)
            else:
                v = rng.standard_t(df=3, size=n)
            values.append(v)
    elif kind == "walk":
        values.append(np.zeros(1))
        step = rng.uniform(0.5, 1.5)
        for k in range(1, space.depth + 1):
            inc = rng.choice([-step, step], size=space.level_size(k))
            values.append(np.repeat(values[k - 1], space.branching) + inc)
    else:
        raise ValueError(f"unknown process kind {kind!r}")
    return AdaptedProcess(space=space, values=values)


def random_nondecreasing_process(space: FiniteFilteredSpace,
                                 rng: np.random.Generator) -> AdaptedProcess:
    """Nondecreasing adapted process: |N(0, 1)| at the root and |N(0, 1)|
    increments at every node."""
    values = [np.abs(rng.normal(0.0, 1.0, size=1))]
    for k in range(1, space.depth + 1):
        inc = np.abs(rng.normal(0.0, 1.0, size=space.level_size(k)))
        values.append(np.repeat(values[k - 1], space.branching) + inc)
    return AdaptedProcess(space=space, values=values)
