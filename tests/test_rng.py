import numpy as np
import pytest

from bmoforge.rng import (
    PURPOSE_INNER,
    PURPOSE_MODEL,
    PURPOSE_OUTER,
    philox_stream,
    philox_streams,
)


def test_streams_are_reproducible():
    a = philox_stream(42, PURPOSE_OUTER, 7).standard_normal(16)
    b = philox_stream(42, PURPOSE_OUTER, 7).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_streams_separate_by_address():
    base = philox_stream(42, PURPOSE_OUTER, 7).standard_normal(8)
    for other in (
        philox_stream(43, PURPOSE_OUTER, 7),
        philox_stream(42, PURPOSE_INNER, 7),
        philox_stream(42, PURPOSE_MODEL, 7),
        philox_stream(42, PURPOSE_OUTER, 8),
        philox_stream(42, PURPOSE_OUTER, 7, subindex=1),
    ):
        assert not np.array_equal(base, other.standard_normal(8))


def test_purpose_constants_distinct():
    assert len({PURPOSE_OUTER, PURPOSE_INNER, PURPOSE_MODEL}) == 3


def test_sequential_draws_continue_the_stream():
    # One stream drawn in two pieces equals the same stream drawn at once.
    rng = philox_stream(1, PURPOSE_INNER, 0)
    split = np.concatenate([rng.standard_normal(5), rng.standard_normal(11)])
    whole = philox_stream(1, PURPOSE_INNER, 0).standard_normal(16)
    np.testing.assert_array_equal(split, whole)


def test_address_validation():
    with pytest.raises(ValueError, match="64 bits"):
        philox_stream(2**64, PURPOSE_OUTER, 0)
    with pytest.raises(ValueError, match="64 bits"):
        philox_stream(-1, PURPOSE_OUTER, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        philox_stream(0, PURPOSE_OUTER, -1)
    with pytest.raises(ValueError, match="64-bit words"):
        philox_stream(0, PURPOSE_OUTER, 2**64)


def test_large_indices_are_valid():
    rng = philox_stream(2**64 - 1, PURPOSE_MODEL, 2**64 - 1, subindex=2**64 - 1)
    assert np.isfinite(rng.standard_normal(4)).all()


def leave_buffered_state(rng):
    """Draws that leave Philox mid-buffer: a half-used 64-bit word and
    fewer than four buffered outputs consumed."""
    ints = rng.integers(0, 2**32, size=3, dtype=np.uint32)
    normals = rng.standard_normal(5)
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    return ints.tobytes() + normals.tobytes()


def test_rekeyed_streams_match_fresh_streams():
    # Out of order, repeated, and up to the largest address.
    indices = [7, 2**64 - 1, 0, 3, 7, 2**40, 1]
    rekeyed = [leave_buffered_state(rng)
               for rng in philox_streams(2**64 - 1, PURPOSE_OUTER, indices)]
    fresh = [leave_buffered_state(philox_stream(2**64 - 1, PURPOSE_OUTER, i))
             for i in indices]
    assert rekeyed == fresh


@pytest.mark.parametrize("seed,indices", [
    (2**64, [0]),
    (-1, [0]),
    (0, [0, -1]),  # the bad address comes after a good one
    (0, [0, 2**64]),
])
def test_rekeyed_streams_validate_every_address(seed, indices):
    with pytest.raises(ValueError) as fresh:
        philox_stream(seed, PURPOSE_OUTER, indices[-1])
    with pytest.raises(ValueError) as rekeyed:
        for _ in philox_streams(seed, PURPOSE_OUTER, indices):
            pass
    assert str(rekeyed.value) == str(fresh.value)
