"""SDE model containers and the drift taming policy.

Coefficient callables are vectorized: ``drift(t, x)`` and ``diffusion(t, x)``
take a scalar time and a state array of shape (n, dim) and return (n, dim).
Diffusions are diagonal: the returned array holds the per-coordinate noise
scales, so dispersion matrices that mix coordinates are out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import PURPOSE_MODEL, philox_stream

__all__ = [
    "SdeModel",
    "TamingPolicy",
    "ellipticity_check",
]

CoefficientFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass
class SdeModel:
    """dX = drift dt + diffusion dW with diagonal, elliptic diffusion."""

    drift: CoefficientFn
    diffusion: CoefficientFn
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

    def initial_states(self, n_paths: int) -> np.ndarray:
        return np.tile(self.x0, (n_paths, 1))


def ellipticity_check(
    model: SdeModel,
    bound: float,
    seed: int = 0,
    n_probe: int = 512,
    state_scale: float = 10.0,
) -> dict:
    """Sample the squared diffusion over random times and states and test
    that every diagonal entry lies in [1/bound, bound].

    This is a probe, not a proof: it certifies the hypothesis only at the
    sampled points and reports the worst offender when it fails.
    """
    if bound < 1.0:
        raise ValueError("bound must be >= 1")
    rng = philox_stream(seed, PURPOSE_MODEL, 0)
    times = rng.uniform(0.0, model.horizon, size=n_probe)
    states = rng.uniform(-state_scale, state_scale, size=(n_probe, model.dim))
    lo, hi = 1.0 / bound, bound
    worst = None
    ok = True
    for k in range(n_probe):
        sig = np.asarray(model.diffusion(float(times[k]), states[k : k + 1]), dtype=float)
        sq = sig[0] ** 2
        bad = (sq < lo - 1e-12) | (sq > hi + 1e-12)
        if bad.any():
            ok = False
            i = int(np.argmax(bad))
            worst = {"time": float(times[k]), "state": states[k].tolist(),
                     "coordinate": i, "sigma_squared": float(sq[i])}
            break
    return {"holds": ok, "bound": bound, "n_probe": n_probe, "witness": worst}


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
