"""Tests for reproducible named random streams."""

import numpy as np
import pytest

from repro.variates import Exponential, Lognormal, StreamFactory, VariateStream


def test_same_seed_same_stream():
    a = StreamFactory(seed=7).generator("x").random(5)
    b = StreamFactory(seed=7).generator("x").random(5)
    np.testing.assert_array_equal(a, b)


def test_different_names_differ():
    f = StreamFactory(seed=7)
    a = f.generator("x").random(5)
    b = f.generator("y").random(5)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = StreamFactory(seed=1).generator("x").random(5)
    b = StreamFactory(seed=2).generator("x").random(5)
    assert not np.array_equal(a, b)


def test_replications_are_independent():
    a = StreamFactory(seed=1, replication=0).generator("x").random(5)
    b = StreamFactory(seed=1, replication=1).generator("x").random(5)
    assert not np.array_equal(a, b)


def test_creation_order_does_not_matter():
    f1 = StreamFactory(seed=3)
    f1.generator("a")
    x1 = f1.generator("b").random(3)
    f2 = StreamFactory(seed=3)
    x2 = f2.generator("b").random(3)
    np.testing.assert_array_equal(x1, x2)


def test_generator_cached():
    f = StreamFactory(seed=0)
    assert f.generator("x") is f.generator("x")


def test_variate_stream_serves_scalars():
    f = StreamFactory(seed=9)
    vs = f.variates("app/cpu", Exponential(100.0), block=16)
    values = [vs() for _ in range(50)]
    assert all(isinstance(v, float) for v in values)
    assert all(v >= 0 for v in values)


def test_variate_stream_reproducible():
    d = Lognormal(100, 30)
    a = [StreamFactory(seed=4).variates("s", d)() for _ in range(1)]
    b = [StreamFactory(seed=4).variates("s", d)() for _ in range(1)]
    assert a == b


def test_variate_stream_block_boundary():
    f = StreamFactory(seed=2)
    vs = f.variates("s", Exponential(10.0), block=4)
    first = [vs() for _ in range(9)]  # crosses two block refills
    # Same draws as the raw generator would produce in blocks of 4.
    gen = StreamFactory(seed=2).generator("s")
    raw = np.concatenate([gen.exponential(10.0, 4) for _ in range(3)])[:9]
    np.testing.assert_allclose(first, raw)


def test_variate_stream_draw_array():
    f = StreamFactory(seed=2)
    vs = f.variates("s", Exponential(10.0))
    arr = vs.draw(7)
    assert arr.shape == (7,)


def test_variate_stream_stats(rng):
    vs = VariateStream(Exponential(50.0), rng, block=256)
    xs = [vs() for _ in range(20_000)]
    assert np.mean(xs) == pytest.approx(50.0, rel=0.05)


def test_bad_block_rejected(rng):
    with pytest.raises(ValueError):
        VariateStream(Exponential(1.0), rng, block=0)
