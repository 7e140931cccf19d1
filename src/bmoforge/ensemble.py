"""Ensembles of one-dimensional Brownian paths on [0, 1], with per-path
reproducible streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import PURPOSE_OUTER, philox_stream, philox_streams

__all__ = ["PathEnsemble", "chunk_rows", "left_points"]

# Hard cap on total draws at construction; full materialization has its own cap.
_MAX_TOTAL_DRAWS = 2**33
_MAX_MATERIALIZE_BYTES = 2**31  # 2 GiB

# Elements (2 MiB of float64) in one chunk of every path-major draw, ensemble
# paths and inner paths alike, so that the per-chunk temporaries stay in cache.
_CHUNK_ELEMENTS = 2**18

# Fine steps per block of PathEnsemble.time_blocks.
_TIME_BLOCK = 256


def chunk_rows(n_steps: int) -> int:
    """Paths per chunk of paths of ``n_steps`` steps, at least one."""
    return max(1, _CHUNK_ELEMENTS // n_steps)


def left_points(inc: np.ndarray, x0: float = 0.0) -> np.ndarray:
    """Brownian values at t_0 .. t_{n-1} from increments of shape (paths, n):
    each row's running sums from the left, started at 0, then x0 added."""
    b = np.zeros(inc.shape)
    np.cumsum(inc[:, :-1], axis=1, out=b[:, 1:])
    if x0:
        b += x0
    return b


@dataclass
class PathEnsemble:
    """Lazy ensemble of Brownian increments on a uniform grid over [0, 1].

    Increment arrays are regenerated on demand from the per-path streams and
    nothing is cached: every call draws afresh and returns a new array, so a
    chunked consumer never holds more than its chunk while a small ensemble
    can still materialize everything at once. Consumers that need several
    functionals of the same paths compute them from one draw per chunk. Path
    i always receives the same increments for a given seed, independent of
    chunking or worker count.
    """

    n_paths: int
    n_steps: int
    seed: int
    # Not a field: benchmarks/spans.py reads it to count draws in traced runs.
    dim = 1

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths, n_steps must be positive")
        total = self.n_paths * self.n_steps
        if total > _MAX_TOTAL_DRAWS:
            raise ValueError(
                f"resource cap exceeded: {total} normal draws requested, cap is {_MAX_TOTAL_DRAWS}"
            )

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    def increments(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Increments of paths [start, stop), shape (paths, n_steps)."""
        stop = self.n_paths if stop is None else stop
        if not 0 <= start <= stop <= self.n_paths:
            raise ValueError(f"path range [{start}, {stop}) out of bounds")
        n = stop - start
        need = n * self.n_steps * 8
        if need > _MAX_MATERIALIZE_BYTES:
            raise MemoryError(
                f"resource cap exceeded: materializing {need} bytes of increments, "
                f"cap is {_MAX_MATERIALIZE_BYTES}; iterate in chunks instead"
            )
        out = np.empty((n, self.n_steps))
        streams = philox_streams(self.seed, PURPOSE_OUTER, range(start, stop))
        for row, stream in zip(out, streams):
            stream.standard_normal(out=row)
        out *= math.sqrt(self.dt)
        return out

    def time_blocks(self, start: int, stop: int):
        """Yield ``(t0, w)`` over the time blocks of paths [start, stop).

        ``w`` holds the Brownian values at fine points t0 .. t0 + m,
        time-major with shape (m + 1, paths), m = ``_TIME_BLOCK`` steps but
        for a shorter last block; row 0 repeats the previous block's last row
        (0 in the first block). Each path's stream is opened once and drawn
        m normals at a time, and a stream drawn in pieces returns the same
        numbers as one draw, so the joined rows equal a cumsum of
        ``increments(start, stop)`` bit for bit. The buffer is reused: read
        it before the next block is drawn.
        """
        if not 0 <= start <= stop <= self.n_paths:
            raise ValueError(f"path range [{start}, {stop}) out of bounds")
        n = stop - start
        block = min(_TIME_BLOCK, self.n_steps)
        need = n * (block + 1) * 8
        if need > _MAX_MATERIALIZE_BYTES:
            raise MemoryError(
                f"resource cap exceeded: materializing {need} bytes of Brownian values, "
                f"cap is {_MAX_MATERIALIZE_BYTES}; use fewer paths"
            )
        streams = [philox_stream(self.seed, PURPOSE_OUTER, start + offset) for offset in range(n)]
        scale = math.sqrt(self.dt)
        # standard_normal(out=) needs a contiguous target, so each path draws
        # into its own row before the block is scaled into w time-major.
        draws = np.empty((n, block))
        w = np.zeros((block + 1, n))
        m = 0
        for t0 in range(0, self.n_steps, block):
            w[0] = w[m]
            m = min(block, self.n_steps - t0)
            for row, stream in zip(draws, streams):
                stream.standard_normal(out=row[:m])
            np.multiply(draws[:, :m].T, scale, out=w[1 : m + 1])
            # inc + prev, the same bits as prev + inc.
            for k in range(m):
                w[k + 1] += w[k]
            yield t0, w[: m + 1]

    def left_point_chunks(self):
        """Yield (start, b) over consecutive chunks of ``chunk_rows`` paths,
        ``b`` the :func:`left_points` of the chunk's paths. A chunk's
        increments are dropped before ``b`` is yielded, so a consumer holds
        no draws while it works on ``b``."""
        rows = chunk_rows(self.n_steps)
        for start in range(0, self.n_paths, rows):
            stop = min(start + rows, self.n_paths)
            yield start, left_points(self.increments(start, stop))
