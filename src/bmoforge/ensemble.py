"""Ensembles of one-dimensional Brownian paths on [0, 1], with per-path
reproducible streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import PURPOSE_OUTER, philox_stream, philox_streams

__all__ = ["PathEnsemble", "chunk_rows", "left_points", "left_point_slices"]

# Hard cap on total draws at construction; full materialization has its own cap.
_MAX_TOTAL_DRAWS = 2**33
_MAX_MATERIALIZE_BYTES = 2**31  # 2 GiB

# Elements (2 MiB of float64) in one chunk of every path-major draw, ensemble
# paths and inner paths alike: one increments() call or one standard_normal
# call per chunk.
_CHUNK_ELEMENTS = 2**18

# Elements (512 KiB of float64) in one slice of Brownian values that a
# consumer holds per yield, a chunk's left points or a block's time rows, so
# that a kernel's several same-shape temporaries fit in a 2 MiB L2 together.
_SLICE_ELEMENTS = 2**16

# Fine steps per block of PathEnsemble.time_blocks.
_TIME_BLOCK = 256


def chunk_rows(n_steps: int) -> int:
    """Paths per chunk of paths of ``n_steps`` steps, at least one."""
    return max(1, _CHUNK_ELEMENTS // n_steps)


def slice_rows(n: int) -> int:
    """Rows of ``n`` elements per slice, at least one."""
    return max(1, _SLICE_ELEMENTS // n)


def left_points(inc: np.ndarray, x0: float = 0.0) -> np.ndarray:
    """Brownian values at t_0 .. t_{n-1} from increments of shape (paths, n):
    each row's running sums from the left, started at 0, then x0 added."""
    b = np.zeros(inc.shape)
    np.cumsum(inc[:, :-1], axis=1, out=b[:, 1:])
    if x0:
        b += x0
    return b


def left_point_slices(inc: np.ndarray, x0: float = 0.0):
    """Yield ``(lo, b)`` over row slices of increments ``inc``, shape
    (paths, n): ``b`` is the :func:`left_points` of rows lo .. lo + len(b),
    at most ``slice_rows(n)`` of them. Each row is summed on its own, so the
    joined slices equal ``left_points(inc, x0)`` bit for bit."""
    rows = slice_rows(inc.shape[1])
    for lo in range(0, inc.shape[0], rows):
        yield lo, left_points(inc[lo : lo + rows], x0)


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
        """Yield ``(t0, w)`` over time slices of paths [start, stop).

        ``w`` holds the Brownian values at fine points t0 .. t0 + m,
        time-major with shape (m + 1, paths); row 0 repeats the previous
        slice's last row (0 in the first slice). Each path's stream is opened
        once and drawn ``_TIME_BLOCK`` normals at a time into one block of
        draws; the block is then scaled and summed into ``w`` in slices of
        m = ``slice_rows(paths)`` steps (fewer at a block's end), so the
        first slice is the longest. A stream drawn in pieces returns the same
        numbers as one draw, so the joined rows equal a cumsum of
        ``increments(start, stop)`` bit for bit. The buffer is reused: read
        it before the next slice is asked for.
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
        rows = min(slice_rows(max(n, 1)), block)
        # standard_normal(out=) needs a contiguous target, so each path draws
        # into its own row before the block is scaled into w time-major.
        draws = np.empty((n, block))
        w = np.zeros((rows + 1, n))
        m = 0
        for b0 in range(0, self.n_steps, block):
            drawn = min(block, self.n_steps - b0)
            for row, stream in zip(draws, streams):
                stream.standard_normal(out=row[:drawn])
            for lo in range(0, drawn, rows):
                w[0] = w[m]
                m = min(rows, drawn - lo)
                np.multiply(draws[:, lo : lo + m].T, scale, out=w[1 : m + 1])
                # inc + prev, the same bits as prev + inc.
                for k in range(m):
                    w[k + 1] += w[k]
                yield b0 + lo, w[: m + 1]

    def left_point_chunks(self):
        """Yield ``(start, b)`` over the paths in row slices: one
        ``increments()`` call per chunk of ``chunk_rows`` paths, whose
        :func:`left_point_slices` are yielded in turn, ``b`` holding the
        left points of paths start .. start + len(b). The consumer works on
        one slice at a time while the chunk's draws are held."""
        rows = chunk_rows(self.n_steps)
        for start in range(0, self.n_paths, rows):
            inc = self.increments(start, min(start + rows, self.n_paths))
            for lo, b in left_point_slices(inc):
                yield start + lo, b
