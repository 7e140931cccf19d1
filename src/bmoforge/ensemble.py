"""Brownian path ensembles with per-path reproducible streams."""

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


def chunk_rows(row_elements: int) -> int:
    """Paths per chunk of paths of ``row_elements`` elements, at least one."""
    return max(1, _CHUNK_ELEMENTS // row_elements)


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
    """Lazy ensemble of Brownian increments on a uniform grid over [0, horizon].

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
    dim: int
    horizon: float
    seed: int

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1 or self.dim < 1:
            raise ValueError("n_paths, n_steps, dim must be positive")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        total = self.n_paths * self.n_steps * self.dim
        if total > _MAX_TOTAL_DRAWS:
            raise ValueError(
                f"resource cap exceeded: {total} normal draws requested, cap is {_MAX_TOTAL_DRAWS}"
            )

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def increments(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Increments of paths [start, stop), shape (paths, n_steps, dim)."""
        stop = self.n_paths if stop is None else stop
        if not 0 <= start <= stop <= self.n_paths:
            raise ValueError(f"path range [{start}, {stop}) out of bounds")
        n = stop - start
        need = n * self.n_steps * self.dim * 8
        if need > _MAX_MATERIALIZE_BYTES:
            raise MemoryError(
                f"resource cap exceeded: materializing {need} bytes of increments, "
                f"cap is {_MAX_MATERIALIZE_BYTES}; iterate in chunks instead"
            )
        out = np.empty((n, self.n_steps, self.dim))
        streams = philox_streams(self.seed, PURPOSE_OUTER, range(start, stop))
        for row, stream in zip(out, streams):
            stream.standard_normal(out=row)
        out *= math.sqrt(self.dt)
        return out

    def time_blocks(self, start: int, stop: int, block: int):
        """Yield increments of paths [start, stop) time-major, block by block.

        Each array has shape (steps, paths, dim) with ``block`` steps, the last
        one fewer when ``block`` does not divide ``n_steps``. Each path's
        stream is opened once and drawn ``block`` normals at a time; a stream
        drawn in pieces returns the same numbers as one draw, so the blocks
        joined along time equal ``increments(start, stop)`` transposed, bit
        for bit.
        """
        if not 0 <= start <= stop <= self.n_paths:
            raise ValueError(f"path range [{start}, {stop}) out of bounds")
        if block < 1:
            raise ValueError("block must be positive")
        n = stop - start
        block = min(block, self.n_steps)
        need = n * block * self.dim * 8
        if need > _MAX_MATERIALIZE_BYTES:
            raise MemoryError(
                f"resource cap exceeded: materializing {need} bytes of increments, "
                f"cap is {_MAX_MATERIALIZE_BYTES}; use shorter blocks or fewer paths"
            )
        streams = [philox_stream(self.seed, PURPOSE_OUTER, start + offset) for offset in range(n)]
        scale = math.sqrt(self.dt)
        # standard_normal(out=) needs a contiguous target, so each path draws
        # into its own row before the block is transposed to time-major.
        draws = np.empty((n, block, self.dim))
        for t0 in range(0, self.n_steps, block):
            m = min(block, self.n_steps - t0)
            for offset, stream in enumerate(streams):
                stream.standard_normal(out=draws[offset, :m])
            out = np.empty((m, n, self.dim))
            np.multiply(draws[:, :m].transpose(1, 0, 2), scale, out=out)
            yield out

    def left_point_chunks(self):
        """Yield (start, b) over consecutive chunks of ``chunk_rows`` paths,
        ``b`` the :func:`left_points` of the first coordinate. A chunk's
        increments are dropped before ``b`` is yielded, so a consumer holds
        no draws while it works on ``b``."""
        rows = chunk_rows(self.n_steps * self.dim)
        for start in range(0, self.n_paths, rows):
            stop = min(start + rows, self.n_paths)
            yield start, left_points(self.increments(start, stop)[:, :, 0])
