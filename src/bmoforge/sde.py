"""SDE models with constant diagonal noise, and the drift taming policy.

``SdeModel(drift, sigma, ...)`` is dX = drift(t, X) dt + sigma dW, with a
vectorized ``drift(t, x)`` mapping a scalar time and states of shape
(n, dim) to (n, dim), and a constant noise scale sigma: one value, or one
per coordinate. Noise that depends on time or state, or mixes coordinates,
is out of scope, so ellipticity is the closed form 1/B <= sigma_i^2 <= B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SdeModel",
    "TamingPolicy",
    "ellipticity_check",
]


@dataclass
class SdeModel:
    """dX = drift dt + sigma dW; ``sigma`` is stored with shape (dim,)."""

    drift: Callable[[float, np.ndarray], np.ndarray]
    sigma: float | np.ndarray
    dim: int = 1
    x0: float | np.ndarray = 0.0
    horizon: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        x0 = np.broadcast_to(np.asarray(self.x0, dtype=float), (self.dim,)).copy()
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        self.x0 = x0
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape not in ((), (self.dim,)):
            raise ValueError(f"sigma must be a scalar or have shape ({self.dim},)")
        if not np.all(np.isfinite(sigma)) or np.any(sigma < 0.0):
            raise ValueError("sigma must be finite and >= 0")
        self.sigma = np.broadcast_to(sigma, (self.dim,)).copy()

    def initial_states(self, n_paths: int) -> np.ndarray:
        return np.tile(self.x0, (n_paths, 1))


def ellipticity_check(model: SdeModel, bound: float) -> dict:
    """Test 1/bound <= sigma_i^2 <= bound for every coordinate, with 1e-12
    slack at both ends; the witness names the first coordinate that fails."""
    if bound < 1.0:
        raise ValueError("bound must be >= 1")
    sq = model.sigma**2
    bad = np.flatnonzero((sq < 1.0 / bound - 1e-12) | (sq > bound + 1e-12))
    witness = ({"coordinate": int(bad[0]), "sigma_squared": float(sq[bad[0]])}
               if bad.size else None)
    return {"holds": witness is None, "bound": bound, "witness": witness}


@dataclass(frozen=True)
class TamingPolicy:
    """Step-count dependent clip level M_n = scale * n^exponent / log(n+1)^log_power.

    The defaults keep M_n * n^(-1/2) -> 0 while M_n -> infinity, which is the
    regime the tamed scheme needs for unbounded drifts.
    """

    scale: float = 1.0
    exponent: float = 0.5
    log_power: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be > 0")
        if not 0.0 < self.exponent <= 0.5:
            raise ValueError("exponent must lie in (0, 1/2]")
        if self.log_power < 0.0:
            raise ValueError("log_power must be >= 0")
        if self.exponent == 0.5 and self.log_power == 0.0:
            raise ValueError("need exponent < 1/2 or log_power > 0 so the "
                             "normalized clip level decays")

    def clip_level(self, n_steps: int) -> float:
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        return self.scale * n_steps**self.exponent / math.log(n_steps + 1.0) ** self.log_power

    def decay_diagnostic(self, n_steps: int) -> float:
        """M_n / sqrt(n); must tend to zero as the grid refines."""
        return self.clip_level(n_steps) / math.sqrt(n_steps)
