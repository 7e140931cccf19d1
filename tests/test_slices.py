"""Kernels read slices of what the ensemble draws: the draws, their calls
and their bytes do not depend on the slice budget, and neither does any
consumer's result."""

import tracemalloc

import numpy as np
import pytest

from bmoforge import ensemble as ensemble_module
from bmoforge.ensemble import PathEnsemble, left_points
from bmoforge.estimators import inner_means
from bmoforge.rng import philox_stream
from bmoforge.schemes import davie_functional, quadrature_error, strong_error
from bmoforge.sde import SdeModel, TamingPolicy

# Slice budgets in rows: one row, seven rows (which divide neither a 256-step
# block nor a 10-path chunk), and None for the unpatched chunk budget, which
# holds every chunk and block below whole.
SLICES = [pytest.param(rows, id=f"{rows}-rows" if rows else "chunk") for rows in (1, 7, None)]
WHOLE = ensemble_module._CHUNK_ELEMENTS
CHUNK_PATHS = 10


def set_slice(monkeypatch, rows, width):
    """Set the slice budget to ``rows`` rows of ``width`` elements (None:
    ``WHOLE``) and return the row count it gives."""
    budget = WHOLE if rows is None else rows * width
    monkeypatch.setattr(ensemble_module, "_SLICE_ELEMENTS", budget)
    return max(1, budget // width)


@pytest.fixture
def ten_path_chunks(monkeypatch):
    """Chunks of 10 paths of 32 steps, so 23 paths take three chunks."""
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", CHUNK_PATHS * 32)


@pytest.mark.parametrize("rows", SLICES)
def test_left_point_slices_join_to_one_draw_per_chunk(monkeypatch, ten_path_chunks, rows):
    ens = PathEnsemble(n_paths=23, n_steps=32, seed=4)
    full = left_points(ens.increments())
    rows = min(set_slice(monkeypatch, rows, 32), CHUNK_PATHS)
    calls, increments = [], PathEnsemble.increments
    monkeypatch.setattr(PathEnsemble, "increments",
                        lambda *args: calls.append(args) or increments(*args))
    starts, pieces = zip(*ens.left_point_chunks())
    assert len(calls) == 3
    assert all(b.shape[0] <= rows for b in pieces)
    assert list(starts) == np.cumsum([0] + [b.shape[0] for b in pieces[:-1]]).tolist()
    assert np.concatenate(pieces).tobytes() == full.tobytes()


@pytest.mark.parametrize("rows", SLICES)
def test_time_slices_join_to_one_draw_per_block(monkeypatch, rows):
    # 640 steps are two 256-step blocks and a short one.
    n_paths, n_steps = 5, 640
    ens = PathEnsemble(n_paths=n_paths, n_steps=n_steps, seed=8)
    expect = np.zeros((n_paths, n_steps + 1))
    np.cumsum(ens.increments(), axis=1, out=expect[:, 1:])
    rows = min(set_slice(monkeypatch, rows, n_paths), ensemble_module._TIME_BLOCK)
    draws = []

    class Counted:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            draws.append(kwargs["out"].size)
            return self.gen.standard_normal(*args, **kwargs)

    monkeypatch.setattr(ensemble_module, "philox_stream", lambda *a: Counted(philox_stream(*a)))
    joined = [np.zeros(n_paths)]
    for t0, w in ens.time_blocks(0, n_paths):
        assert t0 == len(joined) - 1 and w.shape[0] - 1 <= rows
        assert w[0].tobytes() == joined[-1].tobytes()
        joined.extend(w[1:].copy())
    assert draws == [256] * n_paths * 2 + [128] * n_paths
    assert np.stack(joined, axis=1).tobytes() == expect.tobytes()


def davie(ens):
    return davie_functional(np.sign, [0.1, 0.4], ens)


def quadrature(ens):
    return quadrature_error(np.sign, ens, [4, 8, 16])


def tamed(ens):
    res = strong_error(SdeModel(drift=np.sign, sigma=1.0), TamingPolicy(), [8, 16, 32, 64], ens)
    return np.array([res.mean_sup_error, res.stderr, res.l2, res.l4])


# (consumer, n_steps, elements per slice row): the path-major consumers
# slice rows of one path's 32 steps, the time-major one rows of one step of
# the 23 paths, over 640 steps so that coarse steps straddle slices and blocks.
KERNELS = [pytest.param(davie, 32, 32, id="davie"),
           pytest.param(quadrature, 32, 32, id="quadrature"),
           pytest.param(tamed, 640, 23, id="strong-error")]


@pytest.mark.parametrize("rows", SLICES)
@pytest.mark.parametrize("kernel,n_steps,width", KERNELS)
def test_kernels_do_not_depend_on_the_slice(monkeypatch, ten_path_chunks, kernel, n_steps,
                                            width, rows):
    ens = PathEnsemble(n_paths=23, n_steps=n_steps, seed=6)
    whole = kernel(ens)
    set_slice(monkeypatch, rows, width)
    assert kernel(ens).tobytes() == whole.tobytes()


@pytest.mark.parametrize("rows", SLICES)
def test_inner_means_pass_fun_one_slice_at_a_time(monkeypatch, ten_path_chunks, rows):
    def fun(b):
        seen.append(b.shape[0])
        return np.stack([np.sign(b).sum(axis=1), b[:, -1]])

    seen = []
    args = ([0.0, 0.3, -1.2], 3, 2, 23, 32, 1 / 32)
    whole = inner_means(fun, *args)
    assert seen == [CHUNK_PATHS, CHUNK_PATHS, 3] * 3
    seen.clear()
    set_slice(monkeypatch, rows, 32)
    sliced = inner_means(fun, *args)
    assert max(seen) <= max(1, ensemble_module._SLICE_ELEMENTS // 32)
    assert sum(seen) == 3 * 23
    assert [a.tobytes() for a in sliced] == [a.tobytes() for a in whole]


def test_a_wide_sweep_holds_one_block_of_draws_and_one_slice_of_values():
    # 1,024 paths: a block of draws is 256 x 1,024 values (2 MiB), a slice
    # of values 65 x 1,024 (520 KiB), well under the 257-row block of
    # values that a sweep without slices holds. The streams are measured
    # here, and the slack is less than a second slice.
    n = 1024
    ens = PathEnsemble(n_paths=n, n_steps=512, seed=1)
    next(ens.time_blocks(0, 1))
    tracemalloc.start()
    try:
        streams = [philox_stream(1, 0, i) for i in range(n)]
        stream_bytes = tracemalloc.get_traced_memory()[0]
        del streams
        tracemalloc.reset_peak()
        for _ in ens.time_blocks(0, n):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draws = ensemble_module._TIME_BLOCK * n * 8
    rows = ensemble_module._SLICE_ELEMENTS // n
    assert rows == 64
    values = (rows + 1) * n * 8
    assert peak < draws + stream_bytes + 1.5 * values
