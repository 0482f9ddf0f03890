import numpy as np
import pytest

from cubecover.streams import SeededStream


def test_same_pair_same_draws():
    a = SeededStream(12345, 7).generator().random(64)
    b = SeededStream(12345, 7).generator().random(64)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = SeededStream(12345, 7).generator().random(64)
    b = SeededStream(12345, 8).generator().random(64)
    c = SeededStream(12346, 7).generator().random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_children_are_distinct_and_reproducible():
    s = SeededStream(99)
    ids = {s.child(k).stream_id for k in range(1000)}
    assert len(ids) == 1000
    assert s.child(3) == SeededStream(99).child(3)


def test_jumped_blocks_reproducible_and_disjoint():
    s = SeededStream(5, 1)
    a0 = s.jumped(0).random(32)
    a1 = s.jumped(1).random(32)
    assert np.array_equal(a0, s.jumped(0).random(32))
    assert not np.array_equal(a0, a1)


@pytest.mark.parametrize("offset", [0, 4, 8, 40, 1000])
def test_generator_at_continues_the_stream(offset):
    s = SeededStream(5, 1)
    whole = s.generator().random(offset + 32)
    assert np.array_equal(s.generator_at(offset).random(32), whole[offset:])


@pytest.mark.parametrize("offset", [1, 2, 3, 6, 1001, -4])
def test_generator_at_rejects_mid_block_offsets(offset):
    with pytest.raises(ValueError, match="multiple of 4"):
        SeededStream(5, 1).generator_at(offset)


def test_validation():
    with pytest.raises(ValueError):
        SeededStream(-1)
    with pytest.raises(ValueError):
        SeededStream(0, 2**64)
    with pytest.raises(ValueError):
        SeededStream(0).child(-1)
