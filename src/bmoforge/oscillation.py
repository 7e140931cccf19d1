"""Exact oscillation moduli over stopping-time windows.

The window modulus of an adapted process V over levels [s, t] is

    sup over stopping pairs s <= S <= T <= t of
        ess-sup E_S | V_T - anchor(S) |

where the anchor is the left limit ``V_{S-}`` (grid convention) and, because
the embedded step process also admits stopping times strictly inside a grid
interval, the own value ``V_S`` (intra-interval convention). Both are always
taken; only ``OscillationData.rho_left`` drops the intra convention, which
underestimates the modulus of the embedded process.

The supremum over pairs factors through stop atoms: every node u at a level
j in [s, t] is a stop atom of some S, and conditionally on stopping at u the
supremum over continuations T is a finite optimal-stopping problem solved
exactly by backward induction. The result therefore equals the brute-force
supremum over every stopping pair, at polynomial cost and with no
enumeration, on a tree of any size.

Every function here takes one process or a stack of cases
(``processes.stack_processes``) and keeps the case axis: a stacked sweep
makes the ``step_expectation`` calls of one case, and each case keeps the
sums it takes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .processes import AdaptedProcess

__all__ = [
    "oscillation_modulus",
    "oscillation_grid",
    "OscillationData",
]


def _anchors(process: AdaptedProcess, j: int) -> np.ndarray:
    """Stop-atom anchors at level j, one row per convention (the left limit,
    then the own value), each row shaped like ``process.values[j]``."""
    return np.array([process.left_limit(j), process.values[j]])


def _stacked_payoffs(process: AdaptedProcess, anchors: dict, lo: int, k: int) -> np.ndarray:
    """|V_k - anchor| for every stop level j in [lo, k], shaped (j, anchor row,
    case, level-k atom); each anchor in ``anchors[j]`` covers its atom's
    level-k descendants."""
    vk = process.values[k]
    out = np.empty((k - lo + 1,) + anchors[k].shape)
    for j in range(lo, k + 1):
        a = anchors[j]
        np.subtract(vk.reshape(vk.shape[:-1] + (a.shape[-1], -1)), a[..., None],
                    out=out[j - lo].reshape(a.shape + (-1,)))
    return np.abs(out, out=out)


def _stop_level_values(process: AdaptedProcess, anchors: dict, s: int, t: int,
                       cost=None) -> list[np.ndarray]:
    """Snell values of the best continuation in [j, t] after a stop at level
    j, for every stop level j in [s, t], in one backward sweep from t to s.

    The payoff at level k is |V_k - anchor| - ``cost[k]`` (no cost when None)
    for each anchor row of ``anchors[j]``. Entry j - s of the result holds
    the level-j values of stop level j, one row per anchor: the rows of stop
    level j finish at level j.
    """
    done = []
    for k in range(t, s - 1, -1):
        payoff = _stacked_payoffs(process, anchors, s, k)
        if cost is not None:
            payoff -= cost[k]
        g = payoff if k == t else np.maximum(
            payoff, process.space.step_expectation(g[:k - s + 1], k))
        done.append(g[k - s])
    return done[::-1]


def oscillation_modulus(process: AdaptedProcess, s: int, t: int):
    """Exact window modulus of ``process`` over levels [s, t], one per case:
    t - s ``step_expectation`` calls, every stop level and anchor stacked."""
    if not 0 <= s <= t <= process.space.depth:
        raise ValueError(f"window [{s}, {t}] outside [0, {process.space.depth}]")
    anchors = {j: _anchors(process, j) for j in range(s, t + 1)}
    per_stop = [g.max(axis=(0, -1)) for g in _stop_level_values(process, anchors, s, t)]
    return np.max([np.zeros(process.case_shape), *per_stop], axis=0)[()]


@dataclass
class OscillationData:
    """Window moduli, deterministic-pair moduli and jumps of one process.

    ``rho[s, t]`` is the exact modulus over [s, t] for s <= t (NaN below the
    diagonal), with both anchor conventions; ``rho_left[s, t]`` takes the
    left-limit anchor only. Diagonal entries are the single-time jump terms
    E_S|V_S - V_{S-}| with S = s, zero at s = 0 by the ``V_{0-} = V_0``
    convention. ``pairs[j, k]`` is ess-sup E_j|V_k - V_j| for the
    deterministic pair j <= k and ``pairs_left[j, k]`` the same with anchor
    V_{j-} (NaN below the diagonal). ``jumps[k - 1]`` is ess-sup
    |V_k - V_{k-1}|; ``max_jump`` is the largest jump read off the trajectory
    matrix instead. A stack of cases puts the case axis first on every
    array.
    """

    rho: np.ndarray
    rho_left: np.ndarray
    pairs: np.ndarray
    pairs_left: np.ndarray
    jumps: np.ndarray
    max_jump: float

    @property
    def depth(self) -> int:
        return self.rho.shape[-1] - 1

    @property
    def kappa(self):
        """Largest single-step oscillation, the limit of window moduli over
        shrinking windows straddling one grid time; 0 at depth 0."""
        return np.max(self.jumps, axis=-1, initial=0.0)[()]

    def window(self, s: int, t: int, left_limit: bool = False):
        """Modulus over [s, t]; ``left_limit`` selects ``rho_left``."""
        if not 0 <= s <= t <= self.depth:
            raise ValueError(f"window [{s}, {t}] outside [0, {self.depth}]")
        return (self.rho_left if left_limit else self.rho)[..., s, t]


def oscillation_grid(process: AdaptedProcess) -> OscillationData:
    """Exact window and deterministic-pair moduli for every grid pair
    0 <= s <= t <= depth, and the per-level jumps.

    The modulus over [s, t] is the max over stop levels j in [s, t] of the
    Snell value ``M[j, t]`` of stopping at level j and continuing up to t, so
    each ``M[j, t]`` is computed once per anchor convention and ``rho`` and
    ``rho_left`` are its exact maxima over j (suffix maxima down each
    column). The deterministic pair (j, t) conditions the same anchored
    payoff without the stopping option. One backward sweep from level d to
    0 carries every (quantity, stop level, convention, horizon) row, so a
    grid costs d ``step_expectation`` calls at depth d; each row keeps the
    sums of its own backward induction, and every ``rho`` entry equals
    :func:`oscillation_modulus` on its window bit for bit.
    """
    space = process.space
    d = process.depth
    cases = process.case_shape
    anchors = {j: _anchors(process, j) for j in range(d + 1)}
    # stop[c, j, t]: Snell value M[j, t] under convention c (0 left limit, 1 own
    # value); pairs[c, j, t]: the deterministic pair (j, t) under the same
    # anchor. The case axis trails until the end.
    stop = np.full((2, d + 1, d + 1) + cases, np.nan)
    pairs = np.full((2, d + 1, d + 1) + cases, np.nan)
    for k in range(d, -1, -1):
        # rows[q, j, c, t - k]: at level k, the Snell value (q = 0) and the
        # deterministic pair (q = 1) of stop level j <= k and horizon t >= k.
        payoff = _stacked_payoffs(process, anchors, 0, k)[:, :, None]
        fresh = np.broadcast_to(payoff, (2,) + payoff.shape)
        if k == d:
            rows = fresh
        else:
            rows = space.step_expectation(rows[:, :k + 1], k)
            np.maximum(payoff, rows[0], out=rows[0])
            rows = np.concatenate([fresh, rows], axis=3)
        stop[:, k, k:], pairs[:, k, k:] = rows[:, k].max(axis=-1)
    rho = np.full((d + 1, d + 1) + cases, np.nan)
    rho_left = np.full((d + 1, d + 1) + cases, np.nan)
    for t in range(d + 1):
        left, own = (np.maximum.accumulate(m[t::-1, t], axis=0)[::-1] for m in stop)
        rho_left[:t + 1, t] = left
        rho[:t + 1, t] = np.maximum(left, own)
    jumps = np.empty(cases + (d,))
    for k, inc in enumerate(process.increments()):
        jumps[..., k] = np.max(np.abs(inc), axis=-1)
    # Independent route to the largest jump: pathwise jumps off the full
    # trajectory matrix, rather than per-level increment arrays.
    max_jump = np.max(np.abs(np.diff(process.paths, axis=-1)), axis=(-2, -1), initial=0.0)[()]

    def case_first(a):
        return np.moveaxis(a, (0, 1), (-2, -1))

    return OscillationData(rho=case_first(rho), rho_left=case_first(rho_left),
                           pairs=case_first(pairs[1]), pairs_left=case_first(pairs[0]),
                           jumps=jumps, max_jump=max_jump)
