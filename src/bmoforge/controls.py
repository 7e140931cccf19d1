"""Superadditive variation controls built from window-modulus grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oscillation import OscillationData

__all__ = ["OscillationControl", "variation_control"]


@dataclass
class OscillationControl:
    """p-variation control ``w`` of a modulus grid.

    ``w[s, t]`` is the supremum of ``sum_k rho[u_k, u_{k+1}]^p`` over grid
    partitions of [s, t]; it is superadditive in adjacent windows by
    construction and dominates ``rho^p`` cell by cell.
    """

    w: np.ndarray
    p: float

    @property
    def depth(self) -> int:
        return self.w.shape[0] - 1

    @property
    def total(self) -> float:
        return float(self.w[0, self.depth])


def variation_control(grid: OscillationData, p: float) -> OscillationControl:
    """Interval dynamic program for the p-variation control of ``grid.rho``.

    w[s, t] = max( rho[s, t]^p, max over s < u < t of w[s, u] + w[u, t] ).
    ``p`` is stored as given, so an integer exponent stays an integer.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    rho = grid.rho
    d = grid.depth
    w = np.zeros_like(rho)
    for width in range(1, d + 1):
        for s in range(0, d - width + 1):
            t = s + width
            best = rho[s, t] ** p
            for u in range(s + 1, t):
                best = max(best, w[s, u] + w[u, t])
            w[s, t] = best
    return OscillationControl(w=w, p=p)
