"""``Distribution.sample_block``: the hot block-refill path (S3).

The contract is that drawing a block consumes exactly the same
generator state as the equivalent ``sample(rng, n)`` call, so
block-buffered streams and naive per-call sampling produce identical
variate sequences.
"""

import numpy as np
import pytest

from repro.variates import (
    Deterministic,
    Empirical,
    Exponential,
    Lognormal,
    Normal,
    StreamFactory,
    Uniform,
    Weibull,
)

DISTS = [
    Deterministic(4.2),
    Uniform(1.0, 3.0),
    Exponential(100.0),
    Lognormal(267.0, 355.0),
    Weibull(1.2, 100.0),
    Normal(50.0, 10.0),
    Empirical([1.0, 2.0, 5.0, 9.0]),
]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_block_matches_vector_sample(dist):
    block = dist.sample_block(np.random.default_rng(7), 64)
    vector = np.asarray(dist.sample(np.random.default_rng(7), 64), dtype=float)
    assert block.dtype == np.float64
    assert block.shape == (64,)
    np.testing.assert_array_equal(block, vector)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_stream_serves_block_values_in_order(dist):
    stream = StreamFactory(seed=3).variates("s", dist, block=16)
    served = [stream() for _ in range(40)]  # crosses two refills
    rng = StreamFactory(seed=3).generator("s")
    expected = list(dist.sample_block(rng, 16)) + list(
        dist.sample_block(rng, 16)
    ) + list(dist.sample_block(rng, 16))[:8]
    assert served == expected


def test_deterministic_block_is_constant_and_skips_rng():
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state["state"]["state"]
    block = Deterministic(7.0).sample_block(rng, 32)
    assert rng.bit_generator.state["state"]["state"] == state_before
    np.testing.assert_array_equal(block, np.full(32, 7.0))


def test_uniform_block_stays_in_bounds():
    block = Uniform(2.0, 3.0).sample_block(np.random.default_rng(1), 1000)
    assert block.min() >= 2.0
    assert block.max() <= 3.0


def test_draw_uses_block_path():
    dist = Exponential(10.0)
    stream = StreamFactory(seed=5).variates("s", dist, block=8)
    got = stream.draw(12)
    expected = dist.sample_block(StreamFactory(seed=5).generator("s"), 12)
    np.testing.assert_array_equal(got, expected)
