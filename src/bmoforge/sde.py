"""The scalar SDE model with constant noise, and the drift taming policy.

``SdeModel(drift, sigma, x0)`` is dX = drift(X) dt + sigma dW on [0, 1],
driven by a one-dimensional Brownian motion W, with a vectorized
``drift(x)`` mapping states of shape (n,) to (n,), and a constant noise
scale sigma. Drifts that read time, and noise that depends on time or state,
are out of scope, so ellipticity is the closed form 1/B <= sigma^2 <= B.
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
    """dX = drift dt + sigma dW, X_0 = x0."""

    drift: Callable[[np.ndarray], np.ndarray]
    sigma: float
    x0: float = 0.0

    def __post_init__(self):
        self.sigma, self.x0 = float(self.sigma), float(self.x0)
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and >= 0")


def ellipticity_check(model: SdeModel, bound: float) -> dict:
    """Test 1/bound <= sigma^2 <= bound, with 1e-12 slack at both ends."""
    if bound < 1.0:
        raise ValueError("bound must be >= 1")
    sq = model.sigma**2
    return {"holds": 1.0 / bound - 1e-12 <= sq <= bound + 1e-12, "bound": bound}


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
