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
    construction and dominates ``rho^p`` cell by cell. The control of a
    stack of grids puts the case axis first.
    """

    w: np.ndarray
    p: float

    @property
    def depth(self) -> int:
        return self.w.shape[-1] - 1

    @property
    def total(self):
        return self.w[..., 0, self.depth][()]


def variation_control(grid: OscillationData, p: float) -> OscillationControl:
    """Interval dynamic program for the p-variation control of ``grid.rho``.

    w[s, t] = max( rho[s, t]^p, max over s < u < t of w[s, u] + w[u, t] ),
    for every case at once.
    ``p`` is stored as given, so an integer exponent stays an integer.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    rho = grid.rho
    d = grid.depth
    w = np.zeros_like(rho)
    i, j = np.triu_indices(d + 1, 1)
    cells = rho[..., i, j]
    # numpy's scalar power, entry by entry: np.power on the array need not
    # give the same bits.
    w[..., i, j] = np.reshape([x ** p for x in cells.ravel()], cells.shape)
    for width in range(2, d + 1):
        for s in range(d - width + 1):
            t = s + width
            splits = w[..., s, s + 1:t] + w[..., s + 1:t, t]
            np.maximum(w[..., s, t], splits.max(axis=-1), out=w[..., s, t])
    return OscillationControl(w=w, p=p)
