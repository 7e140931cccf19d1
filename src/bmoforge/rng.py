"""Counter-based random streams.

Each logical stream is addressed by (master seed, purpose, index, subindex)
and realized as a Philox generator whose key holds the master seed and whose
256-bit counter block encodes the address. Streams are therefore independent
and reproducible regardless of how work is scheduled across workers: the
stream for path i is the same whether it is drawn first, last, or on another
thread.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "philox_stream",
    "philox_streams",
    "PURPOSE_OUTER",
    "PURPOSE_INNER",
    "PURPOSE_MODEL",
]

PURPOSE_OUTER = 0  # top-level path ensembles
PURPOSE_INNER = 1  # inner simulations of nested estimators
PURPOSE_MODEL = 2  # corpus generation

_U64 = np.uint64
_MASK = (1 << 64) - 1


def _stream_address(master_seed: int, purpose: int, index: int, subindex: int):
    """Counter and key of the stream addressed by (master_seed, purpose, index, subindex).

    Word 0 of the counter is left free: it is what Philox increments while
    drawing, giving each stream 2^64 blocks before it could ever meet a
    neighbouring address.
    """
    if not 0 <= master_seed <= _MASK:
        raise ValueError("master_seed must fit in 64 bits")
    if purpose < 0 or index < 0 or subindex < 0:
        raise ValueError("purpose, index, subindex must be nonnegative")
    if index > _MASK or subindex > _MASK or purpose > _MASK:
        raise ValueError("stream address does not fit in 64-bit words")
    counter = np.array([0, subindex, index, purpose], dtype=_U64)
    key = np.array([master_seed, 0x9E3779B97F4A7C15], dtype=_U64)
    return counter, key


def philox_stream(master_seed: int, purpose: int, index: int, subindex: int = 0) -> np.random.Generator:
    """Generator for the stream addressed by (master_seed, purpose, index, subindex)."""
    counter, key = _stream_address(master_seed, purpose, index, subindex)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def philox_streams(master_seed: int, purpose: int, indices):
    """Yield the stream (master_seed, purpose, index, 0) of each index in
    ``indices`` in turn, from one re-keyed generator.

    One Philox generator is built for the first index; for each later index
    its state is set to that index's counter and key with the output buffer
    emptied, so it draws exactly what ``philox_stream`` would for that
    address. The same generator object is yielded every time: finish drawing
    from one stream before asking for the next. Re-keying skips the
    construction cost of a fresh generator, which dominates short draws.
    """
    gen = None
    empty = np.zeros(4, dtype=_U64)
    for index in indices:
        counter, key = _stream_address(master_seed, purpose, index, 0)
        if gen is None:
            gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
        else:
            gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": counter, "key": key},
                "buffer": empty,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        yield gen
