import math

import numpy as np
import pytest

from bmoforge import ensemble as ensemble_module
from bmoforge import rng as rng_module
from bmoforge.ensemble import PathEnsemble, chunk_rows, left_points
from bmoforge.rng import PURPOSE_OUTER, philox_stream


def test_regeneration_is_bit_identical():
    ens = PathEnsemble(n_paths=8, n_steps=16, dim=2, horizon=1.0, seed=9)
    a = ens.increments().copy()
    b = PathEnsemble(n_paths=8, n_steps=16, dim=2, horizon=1.0, seed=9).increments()
    np.testing.assert_array_equal(a, b)


def test_chunks_equal_full_materialization(monkeypatch):
    ens = PathEnsemble(n_paths=10, n_steps=8, dim=1, horizon=2.0, seed=3)
    full = left_points(ens.increments()[:, :, 0])
    for chunk_size in (1, 3, 10):
        monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", chunk_size * 8)
        starts, pieces = zip(*ens.left_point_chunks())
        assert starts == tuple(range(0, 10, chunk_size))
        assert np.concatenate(pieces, axis=0).tobytes() == full.tobytes()


def test_increments_are_scaled_per_path_streams():
    ens = PathEnsemble(n_paths=4, n_steps=9, dim=2, horizon=3.0, seed=12)
    expect = np.stack([
        philox_stream(12, PURPOSE_OUTER, 1 + i).standard_normal((9, 2)) * math.sqrt(ens.dt)
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
    ens = PathEnsemble(n_paths=9, n_steps=5, dim=2, horizon=1.0, seed=1)
    for start, stop in ((0, 9), (2, 7), (4, 5), (3, 3)):
        built.clear()
        ens.increments(start, stop)
        assert len(built) == min(1, stop - start)


def test_full_range_calls_draw_afresh():
    # No cache: each call returns a new array holding the same draws.
    ens = PathEnsemble(n_paths=5, n_steps=7, dim=2, horizon=1.0, seed=6)
    first, second = ens.increments(), ens.increments()
    assert first is not second
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)


def test_path_subsets_are_stable():
    # Path i does not depend on which slice requests it.
    ens = PathEnsemble(n_paths=6, n_steps=4, dim=1, horizon=1.0, seed=1)
    np.testing.assert_array_equal(ens.increments(2, 5)[1], ens.increments()[3])


def test_extra_paths_extend_not_reshuffle():
    small = PathEnsemble(n_paths=4, n_steps=8, dim=1, horizon=1.0, seed=5).increments()
    large = PathEnsemble(n_paths=9, n_steps=8, dim=1, horizon=1.0, seed=5).increments()
    np.testing.assert_array_equal(large[:4], small)


def test_paths_prepend_zero_and_cumsum():
    ens = PathEnsemble(n_paths=3, n_steps=5, dim=2, horizon=1.0, seed=0)
    p = np.zeros((3, 6, 2))
    np.cumsum(ens.increments(), axis=1, out=p[:, 1:, :])
    assert p.shape == (3, 6, 2)
    np.testing.assert_array_equal(p[:, 0, :], 0.0)
    np.testing.assert_allclose(np.diff(p, axis=1), ens.increments(), atol=1e-15)


@pytest.mark.parametrize("block", [1, 4, 7, 9, 100])
def test_time_blocks_join_to_increments(block):
    # A stream drawn in pieces returns the same numbers as one draw.
    ens = PathEnsemble(n_paths=6, n_steps=9, dim=2, horizon=3.0, seed=12)
    blocks = list(ens.time_blocks(2, 5, block))
    assert [b.shape for b in blocks[:-1]] == [(min(block, 9), 3, 2)] * (len(blocks) - 1)
    assert sum(b.shape[0] for b in blocks) == 9
    joined = np.concatenate(blocks, axis=0)
    assert joined.tobytes() == ens.increments(2, 5).transpose(1, 0, 2).tobytes()


def test_grid_properties():
    ens = PathEnsemble(n_paths=1, n_steps=4, dim=1, horizon=2.0, seed=0)
    assert ens.dt == pytest.approx(0.5)
    np.testing.assert_allclose(ens.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_terminal_variance_and_independence():
    # E B_T^2 = T and consecutive increments are uncorrelated, within 3 stderr.
    ens = PathEnsemble(n_paths=20000, n_steps=16, dim=1, horizon=2.0, seed=11)
    inc = ens.increments()[:, :, 0]
    b_t = inc.sum(axis=1)
    var = float(np.mean(b_t**2))
    se = float(np.std(b_t**2, ddof=1) / math.sqrt(ens.n_paths))
    assert abs(var - 2.0) <= 3 * se
    lag = inc[:, :-1] * inc[:, 1:]
    corr = float(np.mean(lag))
    se_corr = float(np.std(lag, ddof=1) / math.sqrt(lag.size))
    assert abs(corr) <= 3 * se_corr


def test_validation_and_caps(monkeypatch):
    with pytest.raises(ValueError, match="positive"):
        PathEnsemble(n_paths=0, n_steps=4, dim=1, horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        PathEnsemble(n_paths=1, n_steps=4, dim=1, horizon=0.0, seed=0)
    with pytest.raises(ValueError, match="resource cap"):
        PathEnsemble(n_paths=2**20, n_steps=2**14, dim=1, horizon=1.0, seed=0)
    monkeypatch.setattr(ensemble_module, "_MAX_MATERIALIZE_BYTES", 1024)
    small = PathEnsemble(n_paths=64, n_steps=64, dim=1, horizon=1.0, seed=0)
    with pytest.raises(MemoryError, match="chunks"):
        small.increments()
    # Chunked access stays under the cap.
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 2 * 64)
    total = sum(b.shape[0] for _, b in small.left_point_chunks())
    assert total == 64
    with pytest.raises(ValueError, match="out of bounds"):
        small.increments(5, 3)
    # The cap applies to the block time_blocks materializes, not the ensemble.
    with pytest.raises(MemoryError, match="resource cap"):
        next(small.time_blocks(0, 64, 64))
    assert sum(b.shape[0] for b in small.time_blocks(0, 64, 2)) == 64
    with pytest.raises(ValueError, match="block"):
        next(small.time_blocks(0, 64, 0))
    with pytest.raises(ValueError, match="out of bounds"):
        next(small.time_blocks(3, 65, 2))


def test_left_points_sum_each_row_from_x0():
    inc = np.array([[1.0, 2.0, 4.0], [0.5, -1.0, 8.0]])
    np.testing.assert_array_equal(left_points(inc), [[0.0, 1.0, 3.0], [0.0, 0.5, -0.5]])
    np.testing.assert_array_equal(left_points(inc, 2.0), [[2.0, 3.0, 5.0], [2.0, 2.5, 1.5]])
    # The last increment never reaches a left point.
    assert left_points(inc[:, :1], 3.0).tolist() == [[3.0], [3.0]]


def test_chunk_rows_fill_the_budget(monkeypatch):
    monkeypatch.setattr(ensemble_module, "_CHUNK_ELEMENTS", 100)
    assert [chunk_rows(n) for n in (1, 30, 100, 101, 10**6)] == [100, 3, 1, 1, 1]
