"""Monte Carlo estimators: nested conditional moments, empirical modulus
grids, and log-log rate fits.

A field is a vectorized callable ``f(values)`` applied elementwise to scalar
Brownian values of any shape; no field reads time. ``scalar_field_registry``
provides the named fields that every Monte Carlo kind looks up, and the
tamed scheme uses them as drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import chunk_rows, left_point_slices
from .rng import PURPOSE_INNER, PURPOSE_OUTER, philox_stream

__all__ = [
    "MomentEstimate",
    "RateFit",
    "EmpiricalOscillationGrid",
    "scalar_field_registry",
    "inner_means",
    "markov_conditional_moment",
    "empirical_rho_grid",
    "holder_exponent_fit",
    "rate_fit",
    "loglog_fit",
    "pooled_slope",
]


@dataclass
class MomentEstimate:
    value: float
    stderr: float


@dataclass
class RateFit:
    """Least-squares fit of log(error) against log(1/n)."""

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float


# -- integrand fields -------------------------------------------------------

def _inv_abs_clip(x):
    with np.errstate(divide="ignore"):
        return np.minimum(1.0 / np.abs(x), 100.0)


# ``one`` (a ``field`` choice) and ``const`` (a ``drift`` choice) name the same
# field; both spellings stay because config files and hashes carry them.
scalar_field_registry = {
    "zero": np.zeros_like,
    "one": np.ones_like,
    "const": np.ones_like,
    "coordinate": lambda x: np.asarray(x, dtype=float),
    "neg-linear": np.negative,
    "sign": np.sign,
    "inv-abs-clip": _inv_abs_clip,
}


# -- nested conditional moments ---------------------------------------------

def inner_means(fun, states, seed: int, sub: int, n_inner: int, n_steps: int, h: float):
    """Inner mean of |fun(b)| over Brownian continuations from each state.

    For outer state o, ``n_inner`` paths of ``n_steps`` steps of size ``h``
    are drawn from stream (seed, inner, o, sub), in chunks of
    ``chunk_rows(n_steps)`` paths; ``fun`` maps the left points of each
    chunk's row slices (:func:`~bmoforge.ensemble.left_point_slices`), shape
    (paths, n_steps), to shape (..., paths). Returns (means, stderrs), each of
    shape (..., len(states)), the stderr being std(ddof=1) / sqrt(n_inner).
    Each state draws from one stream in order and each path's values are
    its own, so results depend on neither the chunk nor the slice size.
    """
    if not len(states):
        raise ValueError("need at least one outer state")
    rows = chunk_rows(n_steps)
    means = errs = samples = None
    for o, x0 in enumerate(states):
        rng = philox_stream(seed, PURPOSE_INNER, o, sub)
        for lo in range(0, n_inner, rows):
            inc = rng.standard_normal((min(rows, n_inner - lo), n_steps))
            inc *= math.sqrt(h)
            # Slice-sized temporaries of fun stay in cache and keep their
            # pages; chunk-sized (2 MiB) ones go back to the system when
            # freed and are faulted in anew for every chunk.
            for k, b in left_point_slices(inc, x0):
                vals = np.abs(fun(b))
                if samples is None:
                    samples = np.empty(vals.shape[:-1] + (n_inner,))
                    means = np.empty(vals.shape[:-1] + (len(states),))
                    errs = np.empty_like(means)
                samples[..., lo + k : lo + k + b.shape[0]] = vals
        means[..., o] = samples.mean(axis=-1)
        errs[..., o] = samples.std(axis=-1, ddof=1) / math.sqrt(n_inner)
    return means, errs


def markov_conditional_moment(
    f,
    span: float,
    x_law,
    n_inner: int,
    n_steps: int,
    seed: int,
    proxy: str = "max",
    stream_index: int = 0,
) -> MomentEstimate:
    """Worst-case conditional first moment of | integral_s^t f(X_r) dr | for
    a window of length ``span`` = t - s: the field does not read time, so the
    moment depends on the window through its length alone.

    For each outer state x the inner mean over Brownian continuations from x
    is estimated by :func:`inner_means` with a left-point Riemann sum on
    ``n_steps`` uniform steps. The essential supremum over the conditioning
    state is then proxied by the max (default) or the 0.99 quantile over the
    outer samples; the reported stderr is the inner-mean standard error at
    the selected outer sample. Outer states are scalars (one-dimensional
    Brownian motion).
    """
    if span <= 0.0:
        raise ValueError("need span > 0")
    if n_inner < 2 or n_steps < 1:
        raise ValueError("n_inner must be >= 2 and n_steps >= 1")
    x_arr = np.atleast_1d(np.asarray(x_law, dtype=float))
    if x_arr.ndim != 1:
        raise ValueError(f"outer states have shape {x_arr.shape}; each must be a scalar (dim 1)")
    n_outer = x_arr.shape[0]
    h = span / n_steps
    means, errs = inner_means(lambda b: f(b).sum(axis=1) * h, x_arr, seed,
                              stream_index, n_inner, n_steps, h)
    if proxy == "max":
        pick = int(np.argmax(means))
    elif proxy == "quantile":
        order = np.argsort(means)
        pick = int(order[min(n_outer - 1, int(math.ceil(0.99 * n_outer)) - 1)])
    else:
        raise ValueError(f"unknown proxy {proxy!r}")
    return MomentEstimate(value=float(means[pick]), stderr=float(errs[pick]))


@dataclass
class EmpiricalOscillationGrid:
    """Monte Carlo modulus surrogate over deterministic time pairs."""

    times: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    monotone_violations: list[dict] = field(default_factory=list)


def empirical_rho_grid(
    f,
    grid_times,
    n_outer: int,
    n_inner: int,
    steps_per_unit: int,
    seed: int,
    proxy: str = "max",
) -> EmpiricalOscillationGrid:
    """Estimate the conditional-modulus surrogate for every grid pair s < t.

    Outer states are Brownian values sampled at the grid times from streams
    (seed, outer, path); each pair then gets an independent inner estimate via
    :func:`markov_conditional_moment`. Pairs violating inclusion monotonicity
    beyond three combined standard errors are flagged.
    """
    times = np.asarray(list(grid_times), dtype=float)
    if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("grid_times must be increasing and nonnegative")
    n = len(times)
    # Only the first gap, from time 0, can be zero: the positive ones are a suffix.
    gaps = np.diff(times, prepend=0.0)
    steps = np.sqrt(gaps[gaps > 0.0])
    states = np.zeros((n_outer, n))
    for o in range(n_outer):
        z = philox_stream(seed, PURPOSE_OUTER, o).standard_normal(len(steps))
        states[o, n - len(steps):] = np.cumsum(z * steps)
    values = np.full((n, n), np.nan)
    stderrs = np.full((n, n), np.nan)
    pair_id = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            span = times[j] - times[i]
            est = markov_conditional_moment(
                f,
                float(span),
                states[:, i],
                n_inner=n_inner,
                n_steps=max(1, int(round(steps_per_unit * span))),
                seed=seed,
                proxy=proxy,
                stream_index=pair_id + 1,
            )
            values[i, j] = est.value
            stderrs[i, j] = est.stderr
            pair_id += 1
    violations = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            for a in range(i, j):
                for b in range(a + 1, j + 1):
                    if (i, j) == (a, b):
                        continue
                    slack = 3.0 * (stderrs[a, b] + stderrs[i, j])
                    if values[a, b] > values[i, j] + slack:
                        violations.append(
                            {"inner": [int(a), int(b)], "outer": [int(i), int(j)],
                             "inner_value": float(values[a, b]), "outer_value": float(values[i, j])}
                        )
    return EmpiricalOscillationGrid(times=times, values=values, stderrs=stderrs,
                                    monotone_violations=violations)


def holder_exponent_fit(grid: EmpiricalOscillationGrid) -> RateFit:
    """Fit log(value) against log(t - s) over all estimated grid pairs."""
    xs, ys = [], []
    n = len(grid.times)
    for i in range(n - 1):
        for j in range(i + 1, n):
            v = grid.values[i, j]
            if np.isfinite(v) and v > 0.0:
                xs.append(math.log(grid.times[j] - grid.times[i]))
                ys.append(math.log(v))
    if len(xs) < 2:
        raise ValueError("need at least two positive grid values to fit")
    return loglog_fit(np.array(xs), np.array(ys))


# -- rate fitting ------------------------------------------------------------

def loglog_fit(x: np.ndarray, y: np.ndarray) -> RateFit:
    """Plain least squares of y against x with slope stderr and r^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need two 1-d arrays of equal length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise ValueError("x values are all equal")
    slope = float(np.sum(dx * dy)) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum(dy * dy))
    r_squared = 1.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    dof = len(x) - 2
    slope_stderr = math.sqrt(ss_res / dof / sxx) if dof > 0 else 0.0
    return RateFit(slope=slope, intercept=intercept, r_squared=r_squared, slope_stderr=slope_stderr)


def rate_fit(ns, errors) -> RateFit:
    """Convergence-rate fit: slope of log(error) against log(1/n).

    A positive slope means the error decays like n^(-slope).
    """
    ns = np.asarray(list(ns), dtype=float)
    errors = np.asarray(list(errors), dtype=float)
    if len(ns) < 3:
        raise ValueError("need at least three (n, error) points")
    if np.any(ns <= 0.0):
        raise ValueError("ns must be positive")
    if np.any(errors <= 0.0):
        raise ValueError("errors must be positive to fit in log space")
    return loglog_fit(-np.log(ns), np.log(errors))


def pooled_slope(fits) -> tuple[float, float]:
    """Inverse-variance pooling of (slope, stderr) pairs; returns (slope, stderr)."""
    fits = list(fits)
    if not fits:
        raise ValueError("need at least one fit")
    weights = [1.0 / max(err, 1e-12) ** 2 for _, err in fits]
    total = sum(weights)
    slope = sum(w * s for w, (s, _) in zip(weights, fits)) / total
    return slope, math.sqrt(1.0 / total)
