import math
import tracemalloc

import numpy as np
import pytest

from bmoforge import ensemble as ensemble_module
from bmoforge import rng as rng_module
from bmoforge.ensemble import PathEnsemble, chunk_rows, left_points
from bmoforge.rng import PURPOSE_OUTER, philox_stream


def test_regeneration_is_bit_identical():
    ens = PathEnsemble(n_paths=8, n_steps=16, seed=9)
    a = ens.increments().copy()
    b = PathEnsemble(n_paths=8, n_steps=16, seed=9).increments()
    np.testing.assert_array_equal(a, b)


def test_chunks_equal_full_materialization(monkeypatch):
    ens = PathEnsemble(n_paths=10, n_steps=8, seed=3)
    full = left_points(ens.increments())
    for chunk_size in (1, 3, 10):
        monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", chunk_size * 8)
        starts, pieces = zip(*ens.left_point_chunks())
        assert starts == tuple(range(0, 10, chunk_size))
        assert np.concatenate(pieces, axis=0).tobytes() == full.tobytes()


def test_increments_are_scaled_per_path_streams():
    ens = PathEnsemble(n_paths=4, n_steps=9, seed=12)
    expect = np.stack([
        philox_stream(12, PURPOSE_OUTER, 1 + i).standard_normal(9) * math.sqrt(1 / 9)
        for i in range(3)
    ])
    assert ens.increments(1, 4).tobytes() == expect.tobytes()


def test_increments_build_at_most_one_generator(monkeypatch):
    built = []
    philox = rng_module.np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(rng_module.np.random, "Philox", counted)
    ens = PathEnsemble(n_paths=9, n_steps=5, seed=1)
    for start, stop in ((0, 9), (2, 7), (4, 5), (3, 3)):
        built.clear()
        ens.increments(start, stop)
        assert len(built) == min(1, stop - start)


def test_full_range_calls_draw_afresh():
    # No cache: each call returns a new array holding the same draws.
    ens = PathEnsemble(n_paths=5, n_steps=7, seed=6)
    first, second = ens.increments(), ens.increments()
    assert first is not second
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)


def test_path_subsets_are_stable():
    # Path i does not depend on which slice requests it.
    ens = PathEnsemble(n_paths=6, n_steps=4, seed=1)
    np.testing.assert_array_equal(ens.increments(2, 5)[1], ens.increments()[3])


def test_extra_paths_extend_not_reshuffle():
    small = PathEnsemble(n_paths=4, n_steps=8, seed=5).increments()
    large = PathEnsemble(n_paths=9, n_steps=8, seed=5).increments()
    np.testing.assert_array_equal(large[:4], small)


def test_paths_prepend_zero_and_cumsum():
    ens = PathEnsemble(n_paths=3, n_steps=5, seed=0)
    p = np.zeros((3, 6))
    np.cumsum(ens.increments(), axis=1, out=p[:, 1:])
    assert p.shape == (3, 6)
    np.testing.assert_array_equal(p[:, 0], 0.0)
    np.testing.assert_allclose(np.diff(p, axis=1), ens.increments(), atol=1e-15)


# (n_paths, n_steps, seed, start, stop, block): block lengths that divide
# n_steps and that do not, path ranges from the first path and from within.
JOIN_CASES = [
    *(pytest.param(6, 9, 12, 2, 5, block, id=str(block)) for block in (1, 4, 7, 9, 100)),
    *(pytest.param(16, 64, 42, start, stop, block, id=f"{start}-{stop}-{block}")
      for start, stop in ((0, 16), (5, 12)) for block in (1, 7, 64, 1000)),
]


@pytest.mark.parametrize("n_paths,n_steps,seed,start,stop,block", JOIN_CASES)
def test_time_blocks_join_to_increments(monkeypatch, n_paths, n_steps, seed, start, stop, block):
    # A stream drawn in pieces returns the same numbers as one draw, and each
    # block carries on from the previous block's last row in the same buffer.
    monkeypatch.setattr(ensemble_module, "_TIME_BLOCK", block)
    ens = PathEnsemble(n_paths=n_paths, n_steps=n_steps, seed=seed)
    rows, previous = [np.zeros(stop - start)], None
    for t0, w in ens.time_blocks(start, stop):
        assert t0 == len(rows) - 1
        assert w.shape == (min(block, n_steps - t0) + 1, stop - start)
        assert w[0].tobytes() == rows[-1].tobytes()
        assert previous is None or np.shares_memory(previous, w)
        rows.extend(w[1:].copy())
        previous = w
    assert len(rows) == n_steps + 1
    expect = np.zeros((stop - start, n_steps + 1))
    np.cumsum(ens.increments(start, stop), axis=1, out=expect[:, 1:])
    assert np.stack(rows, axis=1).tobytes() == expect.tobytes()


def test_time_blocks_hold_one_block_of_values():
    # A sweep keeps one block of draws and one of values, each about one
    # value buffer, plus its 256 streams; a per-block temporary would add a
    # buffer. A first generator's one-time set-up is paid before tracing, so
    # the peak does not depend on which tests ran first.
    ens = PathEnsemble(n_paths=256, n_steps=4096, seed=1)
    buffer = (ensemble_module._TIME_BLOCK + 1) * 256 * 8
    next(ens.time_blocks(0, 1))
    tracemalloc.start()
    try:
        for _ in ens.time_blocks(0, 256):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * buffer


def test_grid_properties():
    ens = PathEnsemble(n_paths=1, n_steps=4, seed=0)
    assert ens.dt == 0.25


def test_terminal_variance_and_independence():
    # E dB^2 = 1/n_steps per step, E B_1^2 = 1, and consecutive increments
    # are uncorrelated, within 3 stderr.
    ens = PathEnsemble(n_paths=20000, n_steps=16, seed=11)
    inc = ens.increments()
    step_var = float(np.mean(inc**2))
    se_step = float(np.std(inc**2, ddof=1) / math.sqrt(inc.size))
    assert abs(step_var - 1.0 / 16) <= 3 * se_step
    b_t = inc.sum(axis=1)
    var = float(np.mean(b_t**2))
    se = float(np.std(b_t**2, ddof=1) / math.sqrt(ens.n_paths))
    assert abs(var - 1.0) <= 3 * se
    lag = inc[:, :-1] * inc[:, 1:]
    corr = float(np.mean(lag))
    se_corr = float(np.std(lag, ddof=1) / math.sqrt(lag.size))
    assert abs(corr) <= 3 * se_corr


def test_validation_and_caps(monkeypatch):
    with pytest.raises(ValueError, match="positive"):
        PathEnsemble(n_paths=0, n_steps=4, seed=0)
    with pytest.raises(ValueError, match="positive"):
        PathEnsemble(n_paths=1, n_steps=0, seed=0)
    with pytest.raises(ValueError, match="resource cap"):
        PathEnsemble(n_paths=2**20, n_steps=2**14, seed=0)
    monkeypatch.setattr(ensemble_module, "_MAX_MATERIALIZE_BYTES", 1024)
    small = PathEnsemble(n_paths=64, n_steps=64, seed=0)
    with pytest.raises(MemoryError, match="chunks"):
        small.increments()
    # Chunked access stays under the cap.
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 2 * 64)
    total = sum(b.shape[0] for _, b in small.left_point_chunks())
    assert total == 64
    with pytest.raises(ValueError, match="out of bounds"):
        small.increments(5, 3)
    # The cap applies to the block time_blocks materializes, not the ensemble.
    monkeypatch.setattr(ensemble_module, "_TIME_BLOCK", 64)
    with pytest.raises(MemoryError, match="resource cap"):
        next(small.time_blocks(0, 64))
    monkeypatch.setattr(ensemble_module, "_TIME_BLOCK", 1)
    assert sum(w.shape[0] - 1 for _, w in small.time_blocks(0, 64)) == 64
    with pytest.raises(ValueError, match="out of bounds"):
        next(small.time_blocks(3, 65))


def test_left_points_sum_each_row_from_x0():
    inc = np.array([[1.0, 2.0, 4.0], [0.5, -1.0, 8.0]])
    np.testing.assert_array_equal(left_points(inc), [[0.0, 1.0, 3.0], [0.0, 0.5, -0.5]])
    np.testing.assert_array_equal(left_points(inc, 2.0), [[2.0, 3.0, 5.0], [2.0, 2.5, 1.5]])
    # The last increment never reaches a left point.
    assert left_points(inc[:, :1], 3.0).tolist() == [[3.0], [3.0]]


def test_chunk_rows_fill_the_budget(monkeypatch):
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 100)
    assert [chunk_rows(n) for n in (1, 30, 100, 101, 10**6)] == [100, 3, 1, 1, 1]
