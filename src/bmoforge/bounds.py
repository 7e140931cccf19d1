"""Closed-form oscillation bounds.

Pure scalar formulas, kept separate from the engines that estimate or verify
them. Each paper constant is one named module constant, read by the one
bound function that uses it, so that a change to a constant reaches every
check built on it. The exponential bounds are evaluated in log space and
return logs; :func:`saturating_exp` maps a log back, saturating to ``inf``
instead of raising overflow errors.
"""

from __future__ import annotations

import math

__all__ = [
    "PartitionTooCoarseError", "saturating_exp", "jn_moment_bound", "maximal_bound",
    "maximal_sup_bound", "pathwise_bound", "stopping_pair_bound", "energy_bound",
    "khasminskii_log_bound", "vmo_log_bound",
]

_LN2 = math.log(2.0)

# The paper's constants, each read by the one bound function named after it.
JN_CONSTANT = 11.0
MAXIMAL_CONSTANT = 11.0
MAXIMAL_SUP_CONSTANT = 4.0
PATHWISE_CONSTANT = 22.0
VMO_CONSTANT = 22.0
STOPPING_PAIR_B, STOPPING_PAIR_C = 2.0, 3.0
ENERGY_CONSTANT = 1.0  # the factor on c in p! c^p


class PartitionTooCoarseError(ValueError):
    """A cell modulus is too large for the requested exponential rate."""


def saturating_exp(log_value: float) -> float:
    """exp(log_value), or ``inf`` above 709.0, just below log DBL_MAX."""
    return math.inf if log_value > 709.0 else math.exp(log_value)


def jn_moment_bound(rho: float, p: int) -> float:
    """Moment bound p! * (11 rho)^p for a window with modulus ``rho``."""
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    if p < 1 or int(p) != p:
        raise ValueError("p must be a positive integer")
    p = int(p)
    if rho == 0.0:
        return 0.0
    return saturating_exp(math.lgamma(p + 1) + p * math.log(JN_CONSTANT * rho))


def maximal_bound(rho: float) -> float:
    """Bound 11 rho on the modulus of the running maximum."""
    return MAXIMAL_CONSTANT * rho


def maximal_sup_bound(rho: float) -> float:
    """Bound 4 rho on the conditional expected sup of |V_r - V_{s-}|."""
    return MAXIMAL_SUP_CONSTANT * rho


def pathwise_bound(w):
    """Bound 22 w on |V_t - V_s|, elementwise over the 1-variation control."""
    return PATHWISE_CONSTANT * w


def stopping_pair_bound(b_det: float, c_jump: float) -> float:
    """Bound 2B + 3C on the stopping-pair modulus."""
    return STOPPING_PAIR_B * b_det + STOPPING_PAIR_C * c_jump


def energy_bound(c: float, p: int) -> float:
    """Energy bound p! c^p on E_s (A_tau - A_s)^p."""
    return math.factorial(int(p)) * (ENERGY_CONSTANT * float(c)) ** p


def khasminskii_log_bound(lam: float, cell_moduli) -> float:
    """Log of the product bound prod_k (1 - lam * rho_k)^(-1) over cells.

    Raises :class:`PartitionTooCoarseError` when any ``lam * rho_k >= 1``:
    the exponential moment over that cell cannot be controlled at this rate
    and the partition must be refined.
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    log_total = 0.0
    for k, rho in enumerate(cell_moduli):
        if rho < 0.0:
            raise ValueError(f"cell {k} has negative modulus")
        x = lam * rho
        if x >= 1.0:
            raise PartitionTooCoarseError(
                f"partition too coarse: lam * rho = {x:.6g} >= 1 at cell {k}"
            )
        log_total -= math.log1p(-x)
    return log_total


def vmo_log_bound(lam: float, p: float, w_total: float) -> float:
    """Log of the exponential moment bound 2^(1 + (22 lam)^p * w_total)."""
    if lam < 0.0 or w_total < 0.0:
        raise ValueError("lam and w_total must be >= 0")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    return _LN2 * (1.0 + (VMO_CONSTANT * lam) ** p * w_total)
