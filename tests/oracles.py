"""Literal-enumeration oracles for the exact side.

The package computes every supremum over stopping times by a polynomial
Snell sweep. The oracles here compute the same suprema from their defining
formulas: they enumerate every stopping time (or stopping pair) of a window
and evaluate each one on the tree's atoms.

A stopping time with values in the level window [s, t] is a first-hit rule:
each path stops at the first labelled node it meets, and every path must
stop by level t. Enumeration is exponential in the window width, so all
entry points take a cap and refuse infeasible windows loudly rather than
grinding. The cap belongs to this literal enumeration only; the Snell
engine in :mod:`bmoforge.oscillation` needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from bmoforge.processes import AdaptedProcess
from bmoforge.space import FiniteFilteredSpace

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationInfeasibleError(RuntimeError):
    """Raised when a window holds more stopping times than the cap allows."""


def atom_probs(space: FiniteFilteredSpace) -> list[np.ndarray]:
    """Absolute atom probabilities per level: entry k holds one probability
    per level-k atom, and they sum to one."""
    probs = [np.ones(1)]
    for k in range(space.depth):
        probs.append(np.repeat(probs[k], space.branching) * space.transitions[k].ravel())
    return probs


def deterministic_process(space: FiniteFilteredSpace, level_values) -> AdaptedProcess:
    """Process equal to ``level_values[k]`` on every level-k atom."""
    if len(level_values) != space.depth + 1:
        raise ValueError("need one value per level")
    return AdaptedProcess(
        space=space,
        values=[np.full(space.level_size(k), float(level_values[k])) for k in range(space.depth + 1)],
    )


def subtree_rule_count(branching: int, width: int) -> int:
    """Number of stopping rules on one subtree over a window of given width.

    Satisfies count(0) = 1 and count(d) = 1 + count(d-1)**branching: either
    stop at the subtree root, or recurse independently into each child.
    """
    n = 1
    for _ in range(width):
        n = 1 + n**branching
    return n


def _check_window(space: FiniteFilteredSpace, s: int, t: int) -> None:
    if not 0 <= s <= t <= space.depth:
        raise ValueError(f"window [{s}, {t}] outside [0, {space.depth}]")


def _check_cap(space: FiniteFilteredSpace, s: int, t: int, cap: int) -> None:
    # The level-s subtrees choose their rules independently.
    log_count = space.level_size(s) * math.log(subtree_rule_count(space.branching, t - s))
    if log_count > math.log(cap):
        count = f"exp({log_count:.1f})" if log_count > 700 else str(round(math.exp(log_count)))
        raise EnumerationInfeasibleError(
            f"enumeration infeasible: window [{s}, {t}] holds {count} stopping times, "
            f"cap is {cap}"
        )


@dataclass
class StoppingTime:
    """First-hit stopping rule with values in the level window [s, t].

    ``atom_levels[i]`` is the stop level of the i-th level-t atom (paths that
    agree up to level t stop together, so this is the finest granularity a
    window-[s, t] stopping time can see).
    """

    space: FiniteFilteredSpace
    window: tuple[int, int]
    atom_levels: np.ndarray

    def __post_init__(self):
        s, t = self.window
        _check_window(self.space, s, t)
        self.atom_levels = np.asarray(self.atom_levels, dtype=np.int16)
        if self.atom_levels.shape != (self.space.level_size(t),):
            raise ValueError("atom_levels must cover every level-t atom")
        if self.atom_levels.min() < s or self.atom_levels.max() > t:
            raise ValueError("stop levels leave the window")
        if not self._is_adapted():
            raise ValueError("stop rule is not adapted: atoms of a common node disagree")

    def _is_adapted(self) -> bool:
        # Stopping at level j must be decided by the level-j node: all level-t
        # atoms under one level-j node that claims level j must claim it together.
        s, t = self.window
        b = self.space.branching
        lev = self.atom_levels
        for j in range(s, t):
            block = b ** (t - j)
            grouped = lev.reshape(-1, block)
            stops_here = grouped == j
            bad = np.logical_xor(stops_here.any(axis=1), stops_here.all(axis=1))
            if bad.any():
                return False
        return True

    def stop_nodes(self) -> list[tuple[int, int]]:
        """The antichain of (level, node index) atoms where this rule stops."""
        _, t = self.window
        b = self.space.branching
        nodes = []
        for j in sorted(set(self.atom_levels.tolist())):
            block = b ** (t - j)
            grouped = self.atom_levels.reshape(-1, block)
            for i in np.nonzero((grouped == j).all(axis=1))[0]:
                nodes.append((j, int(i)))
        return nodes

    def dominates(self, other: "StoppingTime") -> bool:
        """Pathwise ``self >= other`` (checked on level-t atoms)."""
        return bool(np.all(self.atom_levels >= other.atom_levels))


def _subtree_rules(branching: int, width: int, level: int) -> list[np.ndarray]:
    """All stop-level arrays on one subtree window of the given width."""
    if width == 0:
        return [np.array([level], dtype=np.int16)]
    child_rules = _subtree_rules(branching, width - 1, level + 1)
    n_atoms = branching**width
    rules = [np.full(n_atoms, level, dtype=np.int16)]
    for combo in product(child_rules, repeat=branching):
        rules.append(np.concatenate(combo))
    return rules


def enumerate_stopping_times(
    space: FiniteFilteredSpace,
    s: int,
    t: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[StoppingTime]:
    """Every stopping time with values in the level window [s, t].

    Distinct level-s subtrees choose their rules independently, so the total
    count is ``subtree_rule_count(b, t-s) ** (b**s)``. Raises
    :class:`EnumerationInfeasibleError` when that exceeds ``cap``.
    """
    _check_window(space, s, t)
    _check_cap(space, s, t, cap)
    per_root = _subtree_rules(space.branching, t - s, s)
    out = []
    for combo in product(per_root, repeat=space.level_size(s)):
        out.append(StoppingTime(space, (s, t), np.concatenate(combo)))
    return out


def _continuations(space: FiniteFilteredSpace, rule: StoppingTime, t: int):
    """All stopping times T >= rule with values in [rule window start, t]."""
    s, _ = rule.window
    b = space.branching
    nodes = rule.stop_nodes()
    per_node_rules = [_subtree_rules(b, t - lev, lev) for lev, _ in nodes]
    # Order of level-t atoms under each stop node: contiguous blocks in node order.
    blocks = []
    for (lev, idx), rules in zip(nodes, per_node_rules):
        blocks.append(((lev, idx), rules))
    for combo in product(*[rules for _, rules in blocks]):
        atom_levels = np.empty(space.level_size(t), dtype=np.int16)
        for ((lev, idx), _), arr in zip(blocks, combo):
            width_atoms = b ** (t - lev)
            atom_levels[idx * width_atoms:(idx + 1) * width_atoms] = arr
        yield StoppingTime(space, (s, t), atom_levels)


def enumerate_stopping_pairs(
    space: FiniteFilteredSpace,
    s: int,
    t: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
):
    """Yield every pair (S, T) of window-[s,t] stopping times with S <= T.

    Brute-force oracle for the optimal-stopping engine; feasible only on
    small windows.
    """
    for S in enumerate_stopping_times(space, s, t, cap=cap):
        for T in _continuations(space, S, t):
            yield S, T


def _node_mean(probs_t: np.ndarray, x_t: np.ndarray, block: int, idx: int) -> float:
    """E_u x for a level-t variable ``x_t``, where node u covers the ``block``
    level-t atoms from ``idx * block`` on and ``probs_t`` holds the level-t
    atom probabilities."""
    sel = slice(idx * block, (idx + 1) * block)
    w = probs_t[sel]
    return float(np.sum(w * x_t[sel]) / np.sum(w))


def _stopped_values(process: AdaptedProcess, stop_t: StoppingTime) -> np.ndarray:
    """V_T per level-t atom, t the end of T's window."""
    _, t = stop_t.window
    b = process.space.branching
    lev = stop_t.atom_levels
    return np.array([process.values[int(lev[m])][m // b ** (t - int(lev[m]))]
                     for m in range(lev.size)])


def pair_oscillation(
    process: AdaptedProcess,
    stop_s: StoppingTime,
    stop_t: StoppingTime,
    convention: str = "grid",
) -> float:
    """ess-sup over atoms of F_S of E_S |V_T - anchor| for one stopping pair.

    ``convention`` is ``"grid"`` (anchor V_{S-}) or ``"intra"`` (anchor V_S).
    """
    if not stop_t.dominates(stop_s):
        raise ValueError("requires T >= S pathwise")
    space = process.space
    _, t = stop_s.window
    v_stop = _stopped_values(process, stop_t)
    probs_t = atom_probs(space)[t]
    best = 0.0
    for lev, idx in stop_s.stop_nodes():
        if convention == "grid":
            anchor = process.left_limit(lev)[idx]
        elif convention == "intra":
            anchor = process.values[lev][idx]
        else:
            raise ValueError(f"unknown convention {convention!r}")
        block = space.branching ** (t - lev)
        best = max(best, _node_mean(probs_t, np.abs(v_stop - anchor), block, idx))
    return best


def brute_force_modulus(process: AdaptedProcess, s: int, t: int,
                        conventions=("grid", "intra")) -> float:
    """Literal supremum over every stopping pair, the defining formula."""
    best = 0.0
    for stop_s, stop_t in enumerate_stopping_pairs(process.space, s, t):
        for conv in conventions:
            best = max(best, pair_oscillation(process, stop_s, stop_t, convention=conv))
    return best


def brute_force_energy_constant(process: AdaptedProcess) -> float:
    """Max over every stopping time S in [0, depth] and every stop node u of
    S of E_u(A_tau) - A_{u-}."""
    space = process.space
    tau = space.depth
    probs = atom_probs(space)[tau]
    best = -math.inf
    for stop in enumerate_stopping_times(space, 0, tau):
        for lev, idx in stop.stop_nodes():
            gain = _node_mean(probs, process.values[tau], space.branching ** (tau - lev), idx)
            best = max(best, gain - float(process.left_limit(lev)[idx]))
    return best


def brute_force_garsia_gap(process: AdaptedProcess, u_leaf, s: int) -> float:
    """Max over every stopping pair s <= S <= T <= depth and every stop node
    u of S of E_u|V_T - V_{u-}| - E_u U, the largest gap of the Garsia
    domination hypothesis."""
    space = process.space
    tau = space.depth
    u_leaf = np.asarray(u_leaf, dtype=float)
    probs = atom_probs(space)[tau]
    best = -math.inf
    for stop_s, stop_t in enumerate_stopping_pairs(space, s, tau):
        v_stop = _stopped_values(process, stop_t)
        for lev, idx in stop_s.stop_nodes():
            block = space.branching ** (tau - lev)
            anchor = process.left_limit(lev)[idx]
            gap = (_node_mean(probs, np.abs(v_stop - anchor), block, idx)
                   - _node_mean(probs, u_leaf, block, idx))
            best = max(best, gap)
    return best
