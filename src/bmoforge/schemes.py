"""Numerical schemes on one-dimensional Brownian ensembles over [0, 1]: the
quadrature-error process, the shift-averaging functional, the coupled
strong-error experiment for the tamed explicit Euler scheme, and the
conditional modulus proxy of the quadrature error.

All solvers consume increments from a :class:`~bmoforge.ensemble.PathEnsemble`
and evaluate solutions on the ensemble's fine grid; coarse meshes must divide
the fine step count exactly, otherwise a mesh mismatch is raised. The
path-major consumers read Brownian values at the left points per chunk of
paths, from :meth:`~bmoforge.ensemble.PathEnsemble.left_point_chunks`; the
modulus proxy gets its inner means from
:func:`~bmoforge.estimators.inner_means`, the loop it shares with the Markov
moment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ensemble import PathEnsemble
from .estimators import MomentEstimate, RateFit, inner_means, rate_fit
from .rng import PURPOSE_OUTER, philox_stream
from .sde import SdeModel, TamingPolicy

__all__ = [
    "quadrature_error",
    "davie_functional",
    "davie_moments",
    "strong_error",
    "StrongErrorResult",
    "quadrature_modulus_proxy",
    "QuadratureModulusResult",
]


def _mesh_ratio(n_fine: int, n_coarse: int) -> int:
    if n_coarse < 1 or n_fine % n_coarse != 0:
        raise ValueError(
            f"mesh mismatch: coarse mesh {n_coarse} does not divide the fine "
            f"step count {n_fine}"
        )
    return n_fine // n_coarse


def _quadrature_sums(f, b: np.ndarray, ratios, h: float) -> np.ndarray:
    """Left-point sums of f(B_t) - f(B at the last mesh point) per mesh
    ratio, shape (len(ratios), paths), with f(B_t) evaluated once."""
    plain = np.asarray(f(b), dtype=float)
    out = np.empty((len(ratios), b.shape[0]))
    for row, r in zip(out, ratios):
        anchored = np.repeat(b[:, ::r], r, axis=1)
        row[:] = (plain - np.asarray(f(anchored), dtype=float)).sum(axis=1) * h
    return out


# Fine steps per time block, and paths per group, of the strong-error sweep.
_TIME_BLOCK = 256
_PATH_GROUP = 4096


def _brownian_blocks(ensemble: PathEnsemble, start: int, stop: int):
    """Yield ``(t0, w)`` over the time blocks of paths [start, stop).

    ``w`` holds the Brownian values at fine points t0 .. t0 + m, time-major
    with shape (m + 1, paths); row 0 repeats the previous block's last
    row and each later row adds one row of increments, the same left-to-right
    sums as a cumsum over the whole path. The buffer is reused: read it before
    the next block is drawn.
    """
    buf = np.zeros((min(_TIME_BLOCK, ensemble.n_steps) + 1, stop - start))
    t0 = m = 0
    for inc in ensemble.time_blocks(start, stop, _TIME_BLOCK):
        buf[0] = buf[m]
        m = inc.shape[0]
        for k in range(m):
            np.add(buf[k], inc[k], out=buf[k + 1])
        yield t0, buf[: m + 1]
        t0 += m


def _clipped_drift(model: SdeModel, level: float, x: np.ndarray):
    b = np.asarray(model.drift(x), dtype=float)
    # np.clip's values without its Python-level wrapper.
    b = np.maximum(b, -level)
    return np.minimum(b, level, out=b)


class _EulerMesh:
    """Explicit Euler on a mesh of n steps with the drift frozen at the
    coarse anchor state, advanced over time blocks of the fine grid.

    The noise is additive: with u = sigma * w the shared noise values, the
    solution at fine point a + k of a coarse step opened at a is
    (b * t_k + c) + u_{a+k}, where b is the drift at the step's opening state
    x_a, c = x_a - u_a and t_k = k * h. The noise term is a pure
    read of u, so solutions on nested meshes couple bitwise when the drift
    contribution vanishes. A coarse step may straddle time blocks: (c, b)
    and the anchor carry over.
    """

    def __init__(self, model: SdeModel, level: float, n: int, n_fine: int, n_paths: int):
        self.model, self.level = model, level
        self.ratio = _mesh_ratio(n_fine, n)
        self.drift_times = (1.0 / n_fine) * np.arange(1, self.ratio + 1)
        self.state = np.full(n_paths, model.x0)
        self.anchor = -self.ratio  # fine index where the current coarse step opened
        self.c = self.b = None

    def advance(self, u: np.ndarray, t0: int, out: np.ndarray) -> None:
        """Write the solution at fine points t0 + 1 .. t0 + m into ``out``.

        ``u`` is sigma times a block of :func:`_brownian_blocks`, shape
        (m + 1, paths); ``out`` has shape (m, paths).
        """
        if self.ratio == 1:
            return self._advance_steps(u, out)
        ratio, m = self.ratio, out.shape[0]
        pos = 0
        while pos < m:
            done = t0 + pos - self.anchor  # fine steps of this coarse step written
            if done == ratio:
                self.anchor, done = t0 + pos, 0
                self.b = _clipped_drift(self.model, self.level, self.state)
                self.c = self.state - u[pos]
            k = min(ratio - done, m - pos)
            seg = out[pos : pos + k]
            # b * t + c + u in that order: the same sums as (c + b * t) + u.
            np.multiply(self.drift_times[done : done + k, None], self.b, out=seg)
            seg += self.c
            seg += u[pos + 1 : pos + k + 1]
            pos += k
            if done + k == ratio:
                self.state = seg[-1].copy()

    def _advance_steps(self, u: np.ndarray, out: np.ndarray) -> None:
        """:meth:`advance` for ratio 1, one fine step at a time with the same
        sums: row k of ``out`` is h * b + (x - u_k) + u_{k+1}, with b the
        drift at the previous row x."""
        h, x, c = self.drift_times[0], self.state, np.empty_like(self.state)
        for k in range(out.shape[0]):
            b = _clipped_drift(self.model, self.level, x)
            np.subtract(x, u[k], out=c)
            x = np.multiply(h, b, out=out[k])
            x += c
            x += u[k + 1]
        self.state = x.copy()


# -- quadrature error --------------------------------------------------------

def quadrature_error(f, ensemble: PathEnsemble, ns) -> np.ndarray:
    """Per-path terminal value of the mesh-point quadrature error, per mesh.

    V_1 = integral_0^1 [f(B_r) - f(B at the last mesh-n point)] dr
    computed as a left-point Riemann sum on the fine grid, for every mesh n
    in ``ns``. Each path chunk is drawn once and f(B_t) evaluated once for
    all meshes. Returns an array of shape (len(ns), n_paths).
    """
    ratios = [_mesh_ratio(ensemble.n_steps, n) for n in ns]
    if not ratios:
        raise ValueError("ns must be nonempty")
    h = ensemble.dt
    out = np.empty((len(ratios), ensemble.n_paths))
    for start, b in ensemble.left_point_chunks():
        out[:, start : start + b.shape[0]] = _quadrature_sums(f, b, ratios, h)
    return out


# -- shift averaging ---------------------------------------------------------

def davie_functional(g, shifts, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path samples of integral_0^1 [g(B_t + x) - g(B_t)] dt for every
    shift x in ``shifts``, shape (len(shifts), n_paths).

    Each path chunk is drawn once and g(B_t) evaluated once for all shifts.
    The averaging bound needs |g| <= 1; out-of-range values are clipped, with
    one warning per call.
    """
    shifts = list(shifts)
    if not shifts:
        raise ValueError("shifts must be nonempty")
    h = ensemble.dt
    samples = np.empty((len(shifts), ensemble.n_paths))
    warned = False
    for start, b in ensemble.left_point_chunks():
        m = b.shape[0]
        plain = np.asarray(g(b), dtype=float)
        if np.may_share_memory(plain, b):
            plain = plain.copy()  # the clip below must not reach b
        plain_peak = np.abs(plain).max(initial=0.0)
        for k, shift in enumerate(shifts):
            shifted = np.asarray(g(b + shift), dtype=float)
            peak = max(np.abs(shifted).max(initial=0.0), plain_peak)
            if peak > 1.0 + 1e-12:
                if not warned:
                    warnings.warn(f"integrand exceeds magnitude 1 (max {peak:.6g}); clipping",
                                  stacklevel=2)
                    warned = True
                np.clip(shifted, -1.0, 1.0, out=shifted)
                np.clip(plain, -1.0, 1.0, out=plain)
            shifted -= plain
            samples[k, start : start + m] = shifted.sum(axis=1) * h
            del shifted
    return samples


def davie_moments(samples: np.ndarray, ms=(2, 4)) -> dict[int, MomentEstimate]:
    """Empirical even moments of the shift-functional samples, with stderr."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise ValueError("need at least two samples")
    out = {}
    for m in ms:
        if m < 1 or m % 2 != 0:
            raise ValueError("moment orders must be positive even integers")
        powered = samples**m
        out[m] = MomentEstimate(value=float(powered.mean()),
                                stderr=float(powered.std(ddof=1) / math.sqrt(n)))
    return out


# -- coupled strong error ----------------------------------------------------

@dataclass
class StrongErrorResult:
    ns: list[int]
    mean_sup_error: list[float]
    stderr: list[float]
    l2: list[float]
    l4: list[float]
    fit: RateFit | None = None


def strong_error(
    model: SdeModel,
    taming: TamingPolicy,
    ns,
    ensemble: PathEnsemble,
) -> StrongErrorResult:
    """Self-convergence of the tamed scheme against a coupled finer reference.

    The reference is the same scheme on the ensemble's fine grid, at least
    twice as fine as max(ns); every n must divide it. Coarse and
    reference solutions for one path consume the same increments, so the
    b = 0 control has error exactly zero.

    One time-major sweep per group of paths advances the reference and every
    mesh block by block, each path's increments drawn once. Per time block,
    sigma * w is computed once and read by the reference (one loop iteration
    per fine step) and by every mesh; each mesh's distance to the reference
    is folded into a running per-path sup.
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1:
        raise ValueError("ns must be positive integers")
    n_ref = ensemble.n_steps
    for n in ns:
        _mesh_ratio(n_ref, n)
    if n_ref < 2 * ns[-1]:
        raise ValueError(f"the reference mesh {n_ref} must be at least 2 * max(ns) = {2 * ns[-1]}")
    level_ref = taming.clip_level(n_ref)
    levels = [taming.clip_level(n) for n in ns]
    # Both solutions start at x0, so the running sup starts at 0.
    sup_err = np.zeros((len(ns), ensemble.n_paths))
    for start in range(0, ensemble.n_paths, _PATH_GROUP):
        stop = min(start + _PATH_GROUP, ensemble.n_paths)
        rows = min(_TIME_BLOCK, n_ref)
        ref_block, seg = np.empty((2, rows, stop - start))
        noise = np.empty((rows + 1, stop - start))
        ref = _EulerMesh(model, level_ref, n_ref, n_ref, stop - start)
        meshes = [_EulerMesh(model, level, n, n_ref, stop - start)
                  for n, level in zip(ns, levels)]
        for t0, w in _brownian_blocks(ensemble, start, stop):
            m = w.shape[0] - 1
            u = np.multiply(model.sigma, w, out=noise[: m + 1])
            ref.advance(u, t0, ref_block[:m])
            for k, mesh in enumerate(meshes):
                mesh.advance(u, t0, seg[:m])
                diff = np.subtract(seg[:m], ref_block[:m], out=seg[:m])
                err = sup_err[k, start:stop]
                np.maximum(err, np.abs(diff, out=diff).max(axis=0), out=err)
    means, errs, l2s, l4s = [], [], [], []
    n_paths = ensemble.n_paths
    for k in range(len(ns)):
        e = sup_err[k]
        means.append(float(e.mean()))
        errs.append(float(e.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf)
        l2s.append(float(np.sqrt(np.mean(e**2))))
        l4s.append(float(np.mean(e**4) ** 0.25))
    fit = rate_fit(ns, means) if len(ns) >= 3 and all(v > 0.0 for v in means) else None
    return StrongErrorResult(ns=ns, mean_sup_error=means, stderr=errs, l2=l2s, l4=l4s, fit=fit)


# -- conditional modulus proxy for the quadrature process --------------------

@dataclass
class QuadratureModulusResult:
    ns: list[int]
    values: list[float]
    stderrs: list[float]
    fit: RateFit | None = None


def quadrature_modulus_proxy(
    f,
    ns,
    seed: int,
    n_outer: int = 64,
    n_inner: int = 256,
    anchor_times=(0.0, 0.25, 0.5, 0.75),
    fine_per_block: int = 4,
) -> QuadratureModulusResult:
    """Worst conditional first moment of the tail quadrature error, per mesh.

    For each anchor time s and each sampled state of B_s, the inner mean of
    |V_1 - V_s| is estimated on fresh continuations; the modulus proxy for a
    mesh n is the max over anchors and outer states. All meshes reuse the
    same continuations (anchored sums only differ), so the fitted exponent is
    read off a coupled family.

    Every anchor time must sit on every coarse mesh, and every mesh must
    divide the finest one. The inner means come from
    :func:`~bmoforge.estimators.inner_means`, one call per anchor with all
    meshes' sums as rows; results do not depend on its chunk size.
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns:
        raise ValueError("ns must not be empty")
    if ns[0] < 1:
        raise ValueError("ns must be positive")
    n_max = ns[-1]
    for n in ns:
        _mesh_ratio(n_max, n)
    anchor_times = [float(s) for s in anchor_times]
    if not anchor_times:
        raise ValueError("anchor_times must not be empty")
    for s in anchor_times:
        if not 0.0 <= s < 1.0:
            raise ValueError("anchor times must lie in [0, 1)")
        for n in ns:
            if abs(round(s * n) - s * n) > 1e-9:
                raise ValueError(f"anchor time {s} is not a mesh point of n={n}")
    f_unit = n_max * fine_per_block
    h = 1.0 / f_unit
    ratios = [f_unit // n for n in ns]
    # Inner mean and its stderr per mesh and (anchor, outer state), anchor-major.
    per_anchor = []
    for s_idx, s in enumerate(anchor_times):
        n_fine = round((1.0 - s) * f_unit)
        states = [philox_stream(seed, PURPOSE_OUTER, o, s_idx).standard_normal() * math.sqrt(s)
                  if s > 0.0 else 0.0 for o in range(n_outer)]
        per_anchor.append(inner_means(lambda b: _quadrature_sums(f, b, ratios, h),
                                      states, seed, s_idx + 1, n_inner, n_fine, h))
    means, sds = (np.concatenate(arrs, axis=1) for arrs in zip(*per_anchor))
    pick = (np.arange(len(ns)), means.argmax(axis=1))  # the first pair attaining the max
    vals = means[pick].tolist()
    fit = rate_fit(ns, vals) if len(ns) >= 3 and all(v > 0.0 for v in vals) else None
    return QuadratureModulusResult(ns=ns, values=vals, stderrs=sds[pick].tolist(), fit=fit)
