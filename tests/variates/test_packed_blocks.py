"""Variate blocks are kept as packed doubles and served as floats."""

from array import array

import pytest

from repro.variates.distributions import Deterministic, Exponential
from repro.variates.streams import StreamFactory, VariateStream


def _stream(name="s", dist=None):
    return StreamFactory(seed=3).variates(name, dist or Exponential(100.0))


def test_served_values_are_floats_from_a_packed_block():
    stream = _stream()
    values = [stream() for _ in range(40)]
    assert all(type(v) is float for v in values)
    assert isinstance(stream._buf, array) and stream._buf.typecode == "d"


def test_integer_valued_distribution_is_served_as_float():
    stream = _stream(dist=Deterministic(1000))
    assert type(stream()) is float and stream() == 1000.0


def test_packed_block_matches_the_numpy_draw():
    """Packing does not change a value: the served sequence equals the
    distribution's own block draws, refill by refill."""
    stream = _stream()
    served = [stream() for _ in range(16 + 32 + 5)]
    rng = StreamFactory(seed=3).generator("s")
    dist = Exponential(100.0)
    expected = []
    for n in (16, 32, 64):
        expected += dist.sample_block(rng, n).tolist()
    assert served == expected[:len(served)]


def test_take_sum_across_block_boundary_equals_scalar_sum():
    first = VariateStream.INITIAL_BLOCK
    summed, scalar = _stream(), _stream()
    for stream in (summed, scalar):
        for _ in range(first - 3):
            stream()
    # Three values left in the first block, seven from the next.
    total = summed.take_sum(10)
    draws = [scalar() for _ in range(10)]
    assert total == pytest.approx(sum(draws), rel=1e-15)
    assert total == sum(draws[:3]) + sum(draws[3:])
    # Both consumed exactly the same draws.
    assert summed() == scalar()
