"""Inequality checkers on finite filtered spaces.

Every checker compares an exactly computed left-hand side against a
closed-form bound and returns a :class:`CheckReport`. Comparisons use the
uniform tolerance :func:`check_tolerance`; exponential-moment checks compare
in log space, against the log-scale bounds of :mod:`bmoforge.bounds`, so that
large rates saturate instead of overflowing.

Every checker also takes a stack of cases (``processes.stack_processes`` and
the grids and controls built from it) and then returns a :class:`CheckBatch`:
one array pass for the whole stack, with the scalar bounds evaluated per
case. :func:`case_report` gives case i's report, the one the checker returns
on that case alone.

The domination hypothesis of the good-lambda lemma is verified before the
conclusion is tested, by one backward Snell sweep over stop atoms that takes
the supremum over every stopping pair, and a violating stopping pair is
reported when verification fails. The energy lemma takes the smallest
uniform conditional-increment bound, the maximum over stop atoms of one
backward sweep, so its hypothesis holds by construction.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (PartitionTooCoarseError, energy_bound, jn_moment_bound,
                     khasminskii_log_bound, maximal_bound, maximal_sup_bound, pathwise_bound,
                     saturating_exp, stopping_pair_bound, vmo_log_bound)
from .controls import OscillationControl
from .oscillation import (OscillationData, _stacked_payoffs, _stop_level_values,
                          oscillation_modulus)
from .processes import AdaptedProcess, maximal_process

__all__ = [
    "CheckReport",
    "CheckBatch",
    "case_report",
    "check_tolerance",
    "jn_moment_check",
    "maximal_check",
    "garsia_check",
    "energy_constant",
    "energy_check",
    "khasminskii_check",
    "exp_vmoa_check",
    "pathwise_increment_check",
    "stopping_pair_bound_check",
    "jump_kappa_check",
    "monotonicity_check",
    "triangle_check",
    "superadditivity_check",
    "control_domination_check",
    "reports_to_jsonl",
    "summarize_reports",
    "write_summary_csv",
]


def check_tolerance(rhs):
    """Slack allowed when testing lhs <= rhs: |rhs| * 1e-9 + 1e-12, for a
    float or elementwise for an array (inf at +-inf, NaN at NaN)."""
    return abs(rhs) * 1e-9 + 1e-12


@dataclass(slots=True)
class CheckReport:
    """Outcome of one inequality check."""

    name: str
    holds: bool
    lhs: float
    rhs: float
    tolerance: float
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "holds": bool(self.holds),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "tolerance": float(self.tolerance),
            "witness": self.witness,
        }


class CheckBatch:
    """Outcomes of one check over a stack of cases: entry i of each field
    belongs to case i. A case in ``errors`` has no report; the check raises
    that exception on the case alone (a failed hypothesis, a partition too
    coarse)."""

    # A plain class: a dataclass would add the exec of its generated methods
    # to the import of every CLI run.
    __slots__ = ("name", "holds", "lhs", "rhs", "tolerance", "witness", "errors")

    def __init__(self, name: str, holds: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
                 tolerance: np.ndarray, witness: list[dict], errors: dict[int, Exception]):
        self.name, self.holds, self.lhs, self.rhs = name, holds, lhs, rhs
        self.tolerance, self.witness, self.errors = tolerance, witness, errors


def case_report(batch: CheckBatch, i: int) -> CheckReport:
    """Case i of a stacked check, as the check reports that case alone;
    raises the case's error instead when it has one."""
    if i in batch.errors:
        error = batch.errors[i]
        # A fresh exception, so that its traceback holds no reference to the batch.
        raise type(error)(*error.args)
    return CheckReport(name=batch.name, holds=bool(batch.holds[i]), lhs=float(batch.lhs[i]),
                       rhs=float(batch.rhs[i]), tolerance=float(batch.tolerance[i]),
                       witness=batch.witness[i])


def _entries(x) -> list:
    """One Python value per case of a per-case array (one for a single case)."""
    return np.ravel(x).tolist()


def _outcome(name, lhs, rhs, witness, holds=None, errors=None):
    """A :class:`CheckReport` when ``lhs`` is one number, else a
    :class:`CheckBatch` over its cases. ``rhs``, ``witness`` and ``holds``
    hold one entry per case; ``holds`` defaults to lhs <= rhs + tolerance."""
    stacked = np.ndim(lhs) > 0
    lhs = np.ravel(np.asarray(lhs, dtype=float))
    rhs = np.ravel(np.asarray(rhs, dtype=float))
    tolerance = check_tolerance(rhs)
    if holds is None:
        holds = lhs <= rhs + tolerance
    batch = CheckBatch(name=name, holds=np.ravel(holds), lhs=lhs, rhs=rhs, tolerance=tolerance,
                       witness=witness, errors=errors or {})
    return batch if stacked else case_report(batch, 0)


@functools.lru_cache(maxsize=None)
def _scan_cases(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Index arrays (s, t, u, ...) of the chains s <= u <= ... <= t of n grid
    points in [0, d] (s < t when n = 2), in lexicographic order of (s, t, u, ...)."""
    s, t, *inner = np.indices((d + 1,) * n)
    chain = [s, *inner, t]
    mask = s < t if n == 2 else np.logical_and.reduce([a <= b for a, b in zip(chain, chain[1:])])
    return tuple(x[mask] for x in (s, t, *inner))


def _worst_case_report(name, key, lhs, rhs, where, first=None):
    """Report over cases i with ``lhs[i] <= rhs[i]`` along the last axis (the
    axes before it stack checked cases): holds iff every case does.

    The reported case is the first with the largest lhs - rhs, starting from
    lhs = rhs = 0 at ``first``; its row of the integer array ``where`` is the
    witness under ``key``. A case whose lhs - rhs is NaN is never reported.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    with np.errstate(invalid="ignore"):
        holds = ~np.any(lhs > rhs + check_tolerance(rhs), axis=-1)
        gap = lhs - rhs
    # Slot 0 is the starting case; argmax keeps the first of equal gaps.
    pad = np.zeros(lhs.shape[:-1] + (1,))
    gap = np.concatenate([pad, np.where(np.isnan(gap), -np.inf, gap)], axis=-1)
    at = np.argmax(gap, axis=-1)[..., None]
    worst_lhs, worst_rhs = (np.take_along_axis(np.concatenate([pad, x], axis=-1), at, -1)[..., 0]
                            for x in (lhs, rhs))
    witness = [{key: first if k == 0 else where[k - 1].tolist()} for k in _entries(at)]
    return _outcome(name, worst_lhs, worst_rhs, witness, holds=holds)


def _log_report(name, log_lhs, log_rhs, witness, errors=None):
    """:func:`_outcome` of a comparison on the log scale, one ``log_rhs`` per
    case: the equivalent of the linear tolerance, so that saturating values
    still compare meaningfully."""
    log_rhs = np.asarray(log_rhs, dtype=float)
    holds = (np.ravel(log_lhs) <= log_rhs + 1e-9) | (log_rhs == math.inf)
    lhs = np.reshape([saturating_exp(x) for x in _entries(log_lhs)], np.shape(log_lhs))
    return _outcome(name, lhs, [saturating_exp(x) for x in log_rhs.tolist()], witness,
                    holds=holds, errors=errors)


def _cond_log_mean_exp(space, leaf_exponents) -> list[np.ndarray]:
    """log E[ exp(g_i) | F_i ] for stacked leaf rows g_0, g_1, ... (each
    shaped like a leaf variable of ``space``), computed stably level by level
    in one backward sweep: row i finishes at level i, and the finished rows
    are returned in order."""
    g = np.asarray(leaf_exponents, dtype=float)
    done = [None] * len(g)
    for k in range(space.depth, -1, -1):
        if k < space.depth:
            g2 = g[:k + 1]
            g2 = g2.reshape(g2.shape[:-1] + (space.level_size(k), space.branching))
            m = g2.max(axis=-1)
            g = m + np.log((space.transitions[k] * np.exp(g2 - m[..., None])).sum(axis=-1))
        if k < len(done):
            done[k] = g[k]
    return done


# -- moment and exponential checks ----------------------------------------


def jn_moment_check(process: AdaptedProcess, grid: OscillationData, r: int, p: int):
    """Conditional p-th moment of the forward running maximum vs p!(11 rho)^p.

    ``rho`` is the modulus over [r, depth], read from ``grid``.
    """
    space = process.space
    tau = space.depth
    if not 0 <= r <= tau:
        raise ValueError(f"r = {r} outside [0, {tau}]")
    paths = process.paths
    dev = np.abs(paths[..., r:] - paths[..., r:r + 1]).max(axis=-1) ** p
    lhs_atoms = space.cond_expectation(dev, r)
    rho = _entries(grid.window(r, tau))
    worst = _entries(np.argmax(lhs_atoms, axis=-1))
    return _outcome("jn-moment", np.max(lhs_atoms, axis=-1), [jn_moment_bound(x, p) for x in rho],
                    [{"r": r, "p": p, "rho": x, "atom": a} for x, a in zip(rho, worst)])


def maximal_check(process: AdaptedProcess, grid: OscillationData):
    """Modulus of the running maximum vs 11x the modulus of V, over [0, depth].

    The modulus of V is read from ``grid``, the running maximum's computed
    by :func:`oscillation_modulus`. Also verifies the intermediate bound: the
    expected sup of |V_r - V_0| over r in [0, depth] is at most 4x the
    modulus of V.
    """
    space = process.space
    t = space.depth
    rho_v = _entries(grid.window(0, t))
    rho_star = oscillation_modulus(maximal_process(process), 0, t)
    paths = process.paths
    sup_dev = np.abs(paths - paths[..., :1]).max(axis=-1)
    lhs_mid = _entries(space.cond_expectation(sup_dev, 0)[..., 0])
    rhs_mid = [maximal_sup_bound(x) for x in rho_v]
    mid_holds = [a <= b + check_tolerance(b) for a, b in zip(lhs_mid, rhs_mid)]
    rhs = np.array([maximal_bound(x) for x in rho_v])
    return _outcome(
        "maximal-modulus", rho_star, rhs,
        [{"s": 0, "t": t, "sup_lhs": a, "sup_rhs": b, "sup_holds": h}
         for a, b, h in zip(lhs_mid, rhs_mid, mid_holds)],
        holds=(np.ravel(rho_star) <= rhs + check_tolerance(rhs)) & mid_holds,
    )


def _snell_argmax_nodes(space, payoffs, j, case, root_idx) -> list[tuple[int, int]]:
    """Stop nodes of a rule attaining the subtree optimal-stopping value of
    case ``case``, the rule stopping at the latest at level depth."""
    t = space.depth
    values = [payoffs[t - j]]
    for k in range(t - 1, j - 1, -1):
        values.append(np.maximum(payoffs[k - j], space.step_expectation(values[-1], k)))
    values.reverse()  # values[k - j] now holds the level-k value array
    payoffs, values = ([x.reshape(-1, x.shape[-1])[case] for x in rows]
                       for rows in (payoffs, values))
    nodes = []
    stack = [(j, root_idx)]
    while stack:
        k, i = stack.pop()
        if k == t or payoffs[k - j][i] >= values[k - j][i] - 1e-12:
            nodes.append((k, i))
        else:
            base = i * space.branching
            stack.extend((k + 1, base + c) for c in range(space.branching))
    return sorted(nodes)


def garsia_check(process: AdaptedProcess, u_leaf, alpha, beta):
    """Distributional bound beta P(X* >= alpha+beta) <= E(U ; X* >= alpha).

    Here X* is the pathwise sup of |V_r - V_0| over levels r in [0, depth].
    The domination hypothesis E_S|V_T - V_{S-}| <= E_S U is first verified
    over every stopping pair S <= T <= depth; a violating pair is reported if
    it fails. A stack takes one ``alpha`` and ``beta`` per case.
    """
    space = process.space
    tau = space.depth
    alpha, beta = (np.asarray(x, dtype=float) for x in (alpha, beta))
    if np.any(alpha <= 0.0) or np.any(beta <= 0.0):
        raise ValueError("alpha and beta must be > 0")
    u_leaf = np.asarray(u_leaf, dtype=float)
    if u_leaf.shape != process.case_shape + (space.n_leaves,):
        raise ValueError("U must be a leaf-indexed variable")
    if np.min(u_leaf) < 0.0:
        raise ValueError("U must be nonnegative")

    # Levels of E[U | F_k], k = 0 .. tau.
    eu = [u_leaf]
    for k in range(tau - 1, -1, -1):
        eu.append(space.step_expectation(eu[-1], k))
    eu.reverse()

    # Hypothesis sweep: for every stop atom u at level j and every
    # continuation rule T on its subtree, E_u|V_T - V_{u-}| - E_u U <= 0.
    # The sup over T is an exact optimal-stopping value per node, for every
    # stop level j in one backward sweep; a case fails at its first such j.
    anchors = {j: process.left_limit(j)[None] for j in range(tau + 1)}
    errors = {}
    for j, (gap,) in enumerate(_stop_level_values(process, anchors, 0, tau, cost=eu)):
        gap = gap.reshape(-1, gap.shape[-1])
        for i in np.flatnonzero(gap.max(axis=1) > 1e-12).tolist():
            if i in errors:
                continue
            worst = int(np.argmax(gap[i]))
            payoffs = [_stacked_payoffs(process, anchors, j, k)[0, 0] - eu[k]
                       for k in range(j, tau + 1)]
            rule = _snell_argmax_nodes(space, payoffs, j, i, worst)
            errors[i] = ValueError(
                "domination hypothesis fails: stopping pair with S at node "
                f"(level {j}, atom {worst}) and T stopping at {rule} exceeds "
                f"E_S U by {gap[i, worst]:.3e}"
            )

    paths = process.paths
    x_star = np.abs(paths - paths[..., :1]).max(axis=-1)
    p_tail = space.cond_expectation((x_star >= (alpha + beta)[..., None]).astype(float), 0)
    rhs = space.cond_expectation(u_leaf * (x_star >= alpha[..., None]), 0)[..., 0]
    return _outcome(
        "garsia-tail", beta * p_tail[..., 0], rhs,
        [{"s": 0, "alpha": a, "beta": b, "atom": 0} for a, b in
         zip(_entries(np.broadcast_to(alpha, process.case_shape)),
             _entries(np.broadcast_to(beta, process.case_shape)))],
        errors=errors,
    )


def energy_constant(process: AdaptedProcess):
    """Smallest c with E_S(A_tau - A_{S-}) <= c over all stopping times S,
    one per case.

    The supremum is attained at a stop atom, so it equals the max over nodes
    u of E_u(A_tau) - A_{u-}.
    """
    space = process.space
    tau = space.depth
    ea = process.values[tau]
    best = np.full(process.case_shape, -math.inf)
    for j in range(tau, -1, -1):
        if j < tau:
            ea = space.step_expectation(ea, j)
        best = np.maximum(best, np.max(ea - process.left_limit(j), axis=-1))
    return best[()]


def energy_check(process: AdaptedProcess, p: int):
    """Energy inequality: E (A_tau - A_0)^p <= p! c^p.

    ``c`` is the smallest constant dominating E_S(A_tau - A_{S-}) for every
    stopping time S, computed exhaustively by the stop-atom sweep of
    :func:`energy_constant`.
    """
    space = process.space
    if p < 1 or int(p) != p:
        raise ValueError("p must be a positive integer")
    if not process.is_nondecreasing():
        raise ValueError("process must be nondecreasing")
    c = _entries(energy_constant(process))
    paths = process.paths
    lhs = space.cond_expectation((paths[..., space.depth] - paths[..., 0]) ** p, 0)[..., 0]
    return _outcome("energy-moment", lhs, [energy_bound(x, p) for x in c],
                    [{"s": 0, "p": int(p), "c": x, "atom": 0} for x in c])


def khasminskii_check(process: AdaptedProcess, lam: float):
    """Exponential moment E exp(lam (A_tau - A_0)) vs the per-cell product bound.

    rhs multiplies (1 - lam * rho_cell)^(-1) over the unit cells [k, k+1] of
    [0, depth]. Requires a nondecreasing process, and lam * rho_cell < 1 on
    every cell: a case where that fails raises
    :class:`~bmoforge.bounds.PartitionTooCoarseError` in place of its report.
    """
    space = process.space
    tau = space.depth
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    if not process.is_nondecreasing():
        raise ValueError("process must be nondecreasing")
    paths = process.paths
    log_lhs = _cond_log_mean_exp(space, [lam * (paths[..., tau] - paths[..., 0])])[0][..., 0]
    moduli = np.empty((np.size(log_lhs), tau))
    for k in range(tau):
        moduli[:, k] = np.ravel(oscillation_modulus(process, k, k + 1))
    moduli = moduli.tolist()
    log_rhs = np.full(len(moduli), np.nan)
    errors = {}
    for i, cells in enumerate(moduli):
        try:
            log_rhs[i] = khasminskii_log_bound(lam, cells)
        except PartitionTooCoarseError as exc:
            errors[i] = exc.with_traceback(None)
    unit_cells = [[k, k + 1] for k in range(tau)]
    return _log_report(
        "khasminskii-exp", log_lhs, log_rhs,
        [{"r": 0, "lam": lam, "cells": unit_cells, "cell_moduli": m} for m in moduli],
        errors=errors,
    )


def _exp_vmo_lhs(process: AdaptedProcess, lam: float) -> tuple:
    """log of the largest ess-sup E_r exp(lam * sup_{r<=k<=tau} |V_k - V_r|)
    over levels r, and the first r attaining it, with every r in one sweep;
    one of each per case."""
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    paths = process.paths
    sup_dev = np.stack([np.abs(paths[..., r:] - paths[..., r:r + 1]).max(axis=-1)
                        for r in range(process.depth + 1)])
    vals = np.stack([np.max(g, axis=-1)
                     for g in _cond_log_mean_exp(process.space, lam * sup_dev)])
    return np.max(vals, axis=0)[()], np.argmax(vals, axis=0)[()]


def _exp_vmo_report(lhs: tuple, control: OscillationControl, lam: float):
    """:func:`exp_vmoa_check` from its left-hand side, which depends on the
    process and lam only, so one serves every control."""
    log_lhs, worst_r = lhs
    totals = _entries(control.total)
    return _log_report(
        "exp-vmo", log_lhs, [vmo_log_bound(lam, control.p, x) for x in totals],
        [{"lam": lam, "p": control.p, "w_total": x, "worst_r": r}
         for x, r in zip(totals, _entries(worst_r))],
    )


def exp_vmoa_check(process: AdaptedProcess, control: OscillationControl, lam: float):
    """Uniform conditional exponential moment of the forward running sup.

    For every level r, ess-sup E_r exp(lam * sup_{r<=k<=tau} |V_k - V_r|)
    must stay below 2^(1 + (22 lam)^p * w_total) with w_total the total of
    ``control``, the p-variation control of the exact modulus grid.
    """
    return _exp_vmo_report(_exp_vmo_lhs(process, lam), control, lam)


# -- structural checks -----------------------------------------------------


def pathwise_increment_check(process: AdaptedProcess, control: OscillationControl):
    """Pathwise |V_t - V_s| <= 22 * w[s, t] with ``control`` the 1-variation control."""
    if control.p != 1:
        raise ValueError(f"needs the p = 1 variation control (got p = {control.p})")
    paths = process.paths
    s, t = _scan_cases(process.depth, 2)
    lhs = np.abs(paths[..., t] - paths[..., s]).max(axis=-2)
    return _worst_case_report("pathwise-increment", "window", lhs,
                              pathwise_bound(control.w[..., s, t]),
                              np.stack([s, t], axis=1), first=[0, 0])


def stopping_pair_bound_check(grid: OscillationData):
    """Stopping-pair modulus vs 2B + 3C from deterministic data only, over
    [0, depth].

    B is the largest deterministic-pair modulus (left-limit anchors) and C
    the largest single jump, both read from ``grid``; the supremum over
    stopping pairs (left-limit anchors), ``grid.rho_left[0, depth]``, must
    not exceed 2B + 3C.
    """
    t = grid.depth
    b_det = _entries(np.nanmax(grid.pairs_left, axis=(-2, -1)))
    kappa = _entries(grid.kappa)
    return _outcome(
        "stopping-pair-bound",
        grid.window(0, t, left_limit=True),
        [stopping_pair_bound(b, c) for b, c in zip(b_det, kappa)],
        [{"s": 0, "t": t, "B": b, "C": c} for b, c in zip(b_det, kappa)],
    )


def jump_kappa_check(grid: OscillationData):
    """Vanishing-window modulus equals the largest pathwise jump, exactly.

    Compares the two routes :func:`oscillation_grid` takes to the same
    quantity: ``kappa`` from per-level increments, ``max_jump`` from the
    trajectory matrix.
    """
    return _outcome("jump-kappa", grid.max_jump, _entries(grid.kappa),
                    [{} for _ in range(np.size(grid.max_jump))],
                    holds=np.abs(grid.max_jump - grid.kappa) <= 1e-12)


def monotonicity_check(grid: OscillationData):
    """Window modulus is monotone under window inclusion."""
    s, t, u, v = _scan_cases(grid.depth, 4)
    return _worst_case_report("modulus-monotone", "windows", grid.rho[..., u, v],
                              grid.rho[..., s, t], np.stack([s, t, u, v], axis=1))


def triangle_check(grid: OscillationData):
    """Window modulus satisfies rho[s,t] <= rho[s,u] + rho[u,t]."""
    s, t, u = _scan_cases(grid.depth, 3)
    rho = grid.rho
    return _worst_case_report("modulus-triangle", "split", rho[..., s, t],
                              rho[..., s, u] + rho[..., u, t], np.stack([s, u, t], axis=1))


def superadditivity_check(control: OscillationControl):
    """w[s,u] + w[u,t] <= w[s,t] for every split point."""
    s, t, u = _scan_cases(control.depth, 3)
    w = control.w
    return _worst_case_report("control-superadditive", "split", w[..., s, u] + w[..., u, t],
                              w[..., s, t], np.stack([s, u, t], axis=1))


def control_domination_check(grid: OscillationData, control: OscillationControl):
    """Deterministic conditional increments obey E_s|V_t - V_s| <= w[s,t]^(1/p).

    E_s|V_t - V_s| is read from ``grid.pairs``.
    """
    s, t = _scan_cases(control.depth, 2)
    cells = control.w[..., s, t]
    # Python's float power, whose bits np.power need not reproduce.
    rhs = np.reshape([x ** (1.0 / control.p) for x in _entries(cells)], cells.shape)
    return _worst_case_report("control-dominates-increments", "window", grid.pairs[..., s, t],
                              rhs, np.stack([s, t], axis=1))


# -- report IO -------------------------------------------------------------


def reports_to_jsonl(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_dict(), sort_keys=True))
            fh.write("\n")


def summarize_reports(reports) -> list[dict]:
    """Aggregate rows (check, n_cases, violations, worst_ratio) by check name."""
    buckets: dict[str, list[CheckReport]] = {}
    for report in reports:
        buckets.setdefault(report.name, []).append(report)
    rows = []
    for name, group in buckets.items():
        ratios = []
        for rep in group:
            if rep.rhs > 0.0 and math.isfinite(rep.rhs):
                ratios.append(rep.lhs / rep.rhs)
            elif rep.lhs <= rep.tolerance:
                ratios.append(0.0)
            elif math.isinf(rep.rhs):
                ratios.append(0.0)
            else:
                ratios.append(math.inf)
        rows.append(
            {
                "check": name,
                "n_cases": len(group),
                "violations": sum(0 if rep.holds else 1 for rep in group),
                "worst_ratio": max(ratios) if ratios else 0.0,
            }
        )
    return rows


def write_summary_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["check", "n_cases", "violations", "worst_ratio"])
        for row in rows:
            writer.writerow(
                [row["check"], row["n_cases"], row["violations"], repr(float(row["worst_ratio"]))]
            )
