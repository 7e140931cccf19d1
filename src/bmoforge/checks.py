"""Inequality checkers on finite filtered spaces.

Every checker compares an exactly computed left-hand side against a
closed-form bound and returns a :class:`CheckReport`. Comparisons use the
uniform tolerance :func:`check_tolerance`; exponential-moment checks compare
in log space, against the log-scale bounds of :mod:`bmoforge.bounds`, so that
large rates saturate instead of overflowing.

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

from .bounds import (energy_bound, jn_moment_bound, khasminskii_log_bound, maximal_bound,
                     maximal_sup_bound, pathwise_bound, saturating_exp, stopping_pair_bound,
                     vmo_log_bound)
from .controls import OscillationControl
from .oscillation import (OscillationData, _stacked_payoffs, _stop_level_values,
                          oscillation_modulus)
from .processes import AdaptedProcess, maximal_process

__all__ = [
    "CheckReport",
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


@dataclass
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


def _report(name, lhs, rhs, witness=None) -> CheckReport:
    tol = check_tolerance(rhs)
    return CheckReport(
        name=name,
        holds=bool(lhs <= rhs + tol),
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=tol,
        witness=witness or {},
    )


@functools.lru_cache(maxsize=None)
def _scan_cases(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Index arrays (s, t, u, ...) of the chains s <= u <= ... <= t of n grid
    points in [0, d] (s < t when n = 2), in lexicographic order of (s, t, u, ...)."""
    s, t, *inner = np.indices((d + 1,) * n)
    chain = [s, *inner, t]
    mask = s < t if n == 2 else np.logical_and.reduce([a <= b for a, b in zip(chain, chain[1:])])
    return tuple(x[mask] for x in (s, t, *inner))


def _worst_case_report(name, key, lhs, rhs, where, first=None) -> CheckReport:
    """Report over cases i with ``lhs[i] <= rhs[i]``: holds iff every case does.

    The reported case is the first with the largest lhs - rhs, starting from
    lhs = rhs = 0 at ``first``; its row of the integer array ``where`` is the
    witness under ``key``. A case whose lhs - rhs is NaN is never reported.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    with np.errstate(invalid="ignore"):
        holds = not np.any(lhs > rhs + check_tolerance(rhs))
        gap = lhs - rhs
    # Slot 0 is the starting case; argmax keeps the first of equal gaps.
    gap = np.concatenate([[0.0], np.where(np.isnan(gap), -np.inf, gap)])
    i = int(np.argmax(gap)) - 1
    worst = (0.0, 0.0, first) if i < 0 else (float(lhs[i]), float(rhs[i]), where[i].tolist())
    report = _report(name, worst[0], worst[1], {key: worst[2]})
    report.holds = holds
    return report


def _log_report(name, log_lhs, log_rhs, witness=None) -> CheckReport:
    # Equivalent of the linear tolerance, applied on the log scale so that
    # saturating values still compare meaningfully.
    holds = log_lhs <= log_rhs + 1e-9 or log_rhs == math.inf
    return CheckReport(
        name=name,
        holds=bool(holds),
        lhs=saturating_exp(log_lhs),
        rhs=saturating_exp(log_rhs),
        tolerance=check_tolerance(saturating_exp(log_rhs)),
        witness=witness or {},
    )


def _cond_log_mean_exp(space, leaf_exponents) -> list[np.ndarray]:
    """log E[ exp(g_i) | F_i ] for stacked leaf rows g_0, g_1, ..., computed
    stably level by level in one backward sweep: row i finishes at level i,
    and the finished rows are returned in order."""
    g = np.asarray(leaf_exponents, dtype=float)
    done = [None] * len(g)
    for k in range(space.depth, -1, -1):
        if k < space.depth:
            g2 = g[:k + 1].reshape(-1, space.level_size(k), space.branching)
            m = g2.max(axis=-1)
            g = m + np.log((space.transitions[k] * np.exp(g2 - m[..., None])).sum(axis=-1))
        if k < len(done):
            done[k] = g[k]
    return done


# -- moment and exponential checks ----------------------------------------


def jn_moment_check(process: AdaptedProcess, grid: OscillationData, r: int,
                    p: int) -> CheckReport:
    """Conditional p-th moment of the forward running maximum vs p!(11 rho)^p.

    ``rho`` is the modulus over [r, depth], read from ``grid``.
    """
    space = process.space
    tau = space.depth
    if not 0 <= r <= tau:
        raise ValueError(f"r = {r} outside [0, {tau}]")
    paths = process.paths
    dev = np.abs(paths[:, r:] - paths[:, r:r + 1]).max(axis=1) ** p
    lhs_atoms = space.cond_expectation(dev, r)
    rho = grid.window(r, tau)
    rhs = jn_moment_bound(rho, p)
    worst = int(np.argmax(lhs_atoms))
    return _report(
        "jn-moment",
        float(lhs_atoms[worst]),
        rhs,
        {"r": r, "p": p, "rho": rho, "atom": worst},
    )


def maximal_check(process: AdaptedProcess, grid: OscillationData) -> CheckReport:
    """Modulus of the running maximum vs 11x the modulus of V, over [0, depth].

    The modulus of V is read from ``grid``, the running maximum's computed
    by :func:`oscillation_modulus`. Also verifies the intermediate bound: the
    expected sup of |V_r - V_0| over r in [0, depth] is at most 4x the
    modulus of V.
    """
    space = process.space
    t = space.depth
    rho_v = grid.window(0, t)
    rho_star = oscillation_modulus(maximal_process(process), 0, t)
    paths = process.paths
    sup_dev = np.abs(paths - paths[:, :1]).max(axis=1)
    lhs_mid = float(space.cond_expectation(sup_dev, 0)[0])
    rhs_mid = maximal_sup_bound(rho_v)
    mid_holds = lhs_mid <= rhs_mid + check_tolerance(rhs_mid)
    report = _report(
        "maximal-modulus",
        rho_star,
        maximal_bound(rho_v),
        {"s": 0, "t": t, "sup_lhs": lhs_mid, "sup_rhs": rhs_mid, "sup_holds": bool(mid_holds)},
    )
    report.holds = bool(report.holds and mid_holds)
    return report


def _snell_argmax_nodes(space, payoffs, j, root_idx) -> list[tuple[int, int]]:
    """Stop nodes of a rule attaining the subtree optimal-stopping value, the
    rule stopping at the latest at level depth."""
    t = space.depth
    values = [payoffs[t - j]]
    for k in range(t - 1, j - 1, -1):
        values.append(np.maximum(payoffs[k - j], space.step_expectation(values[-1], k)))
    values.reverse()  # values[k - j] now holds the level-k value array
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


def garsia_check(process: AdaptedProcess, u_leaf, alpha: float, beta: float) -> CheckReport:
    """Distributional bound beta P(X* >= alpha+beta) <= E(U ; X* >= alpha).

    Here X* is the pathwise sup of |V_r - V_0| over levels r in [0, depth].
    The domination hypothesis E_S|V_T - V_{S-}| <= E_S U is first verified
    over every stopping pair S <= T <= depth; a violating pair is reported if
    it fails.
    """
    space = process.space
    tau = space.depth
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be > 0")
    u_leaf = np.asarray(u_leaf, dtype=float)
    if u_leaf.shape != (space.n_leaves,):
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
    # stop level j in one backward sweep.
    anchors = {j: process.left_limit(j)[None] for j in range(tau + 1)}
    for j, (gap,) in enumerate(_stop_level_values(process, anchors, 0, tau, cost=eu)):
        worst = int(np.argmax(gap))
        if gap[worst] > 1e-12:
            payoffs = [_stacked_payoffs(process, anchors, j, k)[0, 0] - eu[k]
                       for k in range(j, tau + 1)]
            rule = _snell_argmax_nodes(space, payoffs, j, worst)
            raise ValueError(
                "domination hypothesis fails: stopping pair with S at node "
                f"(level {j}, atom {worst}) and T stopping at {rule} exceeds "
                f"E_S U by {gap[worst]:.3e}"
            )

    paths = process.paths
    x_star = np.abs(paths - paths[:, :1]).max(axis=1)
    p_tail = space.cond_expectation((x_star >= alpha + beta).astype(float), 0)[0]
    rhs = space.cond_expectation(u_leaf * (x_star >= alpha), 0)[0]
    return _report(
        "garsia-tail",
        float(beta * p_tail),
        float(rhs),
        {"s": 0, "alpha": alpha, "beta": beta, "atom": 0},
    )


def energy_constant(process: AdaptedProcess) -> float:
    """Smallest c with E_S(A_tau - A_{S-}) <= c over all stopping times S.

    The supremum is attained at a stop atom, so it equals the max over nodes
    u of E_u(A_tau) - A_{u-}.
    """
    space = process.space
    tau = space.depth
    ea = process.values[tau]
    best = -math.inf
    for j in range(tau, -1, -1):
        if j < tau:
            ea = space.step_expectation(ea, j)
        best = max(best, float(np.max(ea - process.left_limit(j))))
    return best


def energy_check(process: AdaptedProcess, p: int) -> CheckReport:
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
    c = energy_constant(process)
    paths = process.paths
    lhs = space.cond_expectation((paths[:, space.depth] - paths[:, 0]) ** p, 0)[0]
    return _report(
        "energy-moment",
        float(lhs),
        energy_bound(c, p),
        {"s": 0, "p": int(p), "c": float(c), "atom": 0},
    )


def khasminskii_check(process: AdaptedProcess, lam: float) -> CheckReport:
    """Exponential moment E exp(lam (A_tau - A_0)) vs the per-cell product bound.

    rhs multiplies (1 - lam * rho_cell)^(-1) over the unit cells [k, k+1] of
    [0, depth]. Requires a nondecreasing process and lam * rho_cell < 1 on
    every cell.
    """
    space = process.space
    tau = space.depth
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    if not process.is_nondecreasing():
        raise ValueError("process must be nondecreasing")
    moduli = [oscillation_modulus(process, k, k + 1) for k in range(tau)]
    log_rhs = khasminskii_log_bound(lam, moduli)  # raises PartitionTooCoarseError
    paths = process.paths
    log_lhs = float(_cond_log_mean_exp(space, [lam * (paths[:, tau] - paths[:, 0])])[0][0])
    return _log_report(
        "khasminskii-exp",
        log_lhs,
        log_rhs,
        {"r": 0, "lam": lam, "cells": [[k, k + 1] for k in range(tau)], "cell_moduli": moduli},
    )


def _exp_vmo_lhs(process: AdaptedProcess, lam: float) -> tuple[float, int]:
    """log of the largest ess-sup E_r exp(lam * sup_{r<=k<=tau} |V_k - V_r|)
    over levels r, and the first r attaining it, with every r in one sweep."""
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    paths = process.paths
    sup_dev = np.stack([np.abs(paths[:, r:] - paths[:, r:r + 1]).max(axis=1)
                        for r in range(process.depth + 1)])
    vals = [float(np.max(g)) for g in _cond_log_mean_exp(process.space, lam * sup_dev)]
    worst_r = int(np.argmax(vals))
    return vals[worst_r], worst_r


def _exp_vmo_report(lhs: tuple[float, int], control: OscillationControl,
                    lam: float) -> CheckReport:
    """:func:`exp_vmoa_check` from its left-hand side, which depends on the
    process and lam only, so one serves every control."""
    log_lhs, worst_r = lhs
    return _log_report(
        "exp-vmo",
        log_lhs,
        vmo_log_bound(lam, control.p, control.total),
        {"lam": lam, "p": control.p, "w_total": control.total, "worst_r": worst_r},
    )


def exp_vmoa_check(process: AdaptedProcess, control: OscillationControl,
                   lam: float) -> CheckReport:
    """Uniform conditional exponential moment of the forward running sup.

    For every level r, ess-sup E_r exp(lam * sup_{r<=k<=tau} |V_k - V_r|)
    must stay below 2^(1 + (22 lam)^p * w_total) with w_total the total of
    ``control``, the p-variation control of the exact modulus grid.
    """
    return _exp_vmo_report(_exp_vmo_lhs(process, lam), control, lam)


# -- structural checks -----------------------------------------------------


def pathwise_increment_check(process: AdaptedProcess, control: OscillationControl) -> CheckReport:
    """Pathwise |V_t - V_s| <= 22 * w[s, t] with ``control`` the 1-variation control."""
    if control.p != 1:
        raise ValueError(f"needs the p = 1 variation control (got p = {control.p})")
    paths = process.paths
    s, t = _scan_cases(process.depth, 2)
    lhs = np.abs(paths[:, t] - paths[:, s]).max(axis=0)
    return _worst_case_report("pathwise-increment", "window", lhs, pathwise_bound(control.w[s, t]),
                              np.stack([s, t], axis=1), first=[0, 0])


def stopping_pair_bound_check(grid: OscillationData) -> CheckReport:
    """Stopping-pair modulus vs 2B + 3C from deterministic data only, over
    [0, depth].

    B is the largest deterministic-pair modulus (left-limit anchors) and C
    the largest single jump, both read from ``grid``; the supremum over
    stopping pairs (left-limit anchors), ``grid.rho_left[0, depth]``, must
    not exceed 2B + 3C.
    """
    t = grid.depth
    b_det = float(np.nanmax(grid.pairs_left))
    return _report(
        "stopping-pair-bound",
        grid.window(0, t, left_limit=True),
        stopping_pair_bound(b_det, grid.kappa),
        {"s": 0, "t": t, "B": b_det, "C": grid.kappa},
    )


def jump_kappa_check(grid: OscillationData) -> CheckReport:
    """Vanishing-window modulus equals the largest pathwise jump, exactly.

    Compares the two routes :func:`oscillation_grid` takes to the same
    quantity: ``kappa`` from per-level increments, ``max_jump`` from the
    trajectory matrix.
    """
    report = _report("jump-kappa", grid.max_jump, grid.kappa)
    report.holds = bool(abs(grid.max_jump - grid.kappa) <= 1e-12)
    return report


def monotonicity_check(grid: OscillationData) -> CheckReport:
    """Window modulus is monotone under window inclusion."""
    s, t, u, v = _scan_cases(grid.depth, 4)
    return _worst_case_report("modulus-monotone", "windows", grid.rho[u, v], grid.rho[s, t],
                              np.stack([s, t, u, v], axis=1))


def triangle_check(grid: OscillationData) -> CheckReport:
    """Window modulus satisfies rho[s,t] <= rho[s,u] + rho[u,t]."""
    s, t, u = _scan_cases(grid.depth, 3)
    rho = grid.rho
    return _worst_case_report("modulus-triangle", "split", rho[s, t], rho[s, u] + rho[u, t],
                              np.stack([s, u, t], axis=1))


def superadditivity_check(control: OscillationControl) -> CheckReport:
    """w[s,u] + w[u,t] <= w[s,t] for every split point."""
    s, t, u = _scan_cases(control.depth, 3)
    w = control.w
    return _worst_case_report("control-superadditive", "split", w[s, u] + w[u, t], w[s, t],
                              np.stack([s, u, t], axis=1))


def control_domination_check(grid: OscillationData, control: OscillationControl) -> CheckReport:
    """Deterministic conditional increments obey E_s|V_t - V_s| <= w[s,t]^(1/p).

    E_s|V_t - V_s| is read from ``grid.pairs``.
    """
    s, t = _scan_cases(control.depth, 2)
    # Python's float power, whose bits np.power need not reproduce.
    rhs = [float(x) ** (1.0 / control.p) for x in control.w[s, t]]
    return _worst_case_report("control-dominates-increments", "window", grid.pairs[s, t], rhs,
                              np.stack([s, t], axis=1))


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
