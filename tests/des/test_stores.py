"""Tests for Store (pipe-like FIFO buffers)."""

import pytest

from repro.des import Store

from .support import Reader, Writer


def test_capacity_validation(env):
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_put_get_fifo(env):
    store = Store(env)
    Writer(env, store, range(3))
    reader = Reader(env, store, n=3)
    env.run()
    assert [item for item, _ in reader.got] == [0, 1, 2]


def test_get_blocks_until_item_available(env):
    store = Store(env)
    reader = Reader(env, store, n=1)
    Writer(env, store, ["x"], delay=7)
    env.run()
    assert reader.got == [("x", 7.0)]


def test_put_blocks_when_full(env):
    store = Store(env, capacity=1)
    writer = Writer(env, store, ["a", "b"])
    env.timeout(5).callbacks.append(lambda _ev: store.get())
    env.run()
    assert writer.accepted == [("a", 0.0), ("b", 5.0)]


def test_len_reports_items(env):
    store = Store(env)
    Writer(env, store, [1, 2])
    env.run()
    assert len(store) == 2
    assert store.items == [1, 2]


def test_multiple_getters_fifo(env):
    store = Store(env)
    g1 = Reader(env, store, n=1, name="g1")
    g2 = Reader(env, store, n=1, name="g2")
    Writer(env, store, ["first", "second"], delay=1)
    env.run()
    assert g1.got == [("first", 1.0)]
    assert g2.got == [("second", 1.0)]


def test_store_respects_capacity_under_churn(env):
    store = Store(env, capacity=3)
    high_water = []
    env.add_tracer(lambda _event, _now: high_water.append(len(store.items)))
    writer = Writer(env, store, range(20))
    Reader(env, store, gap=1)
    env.run(until=50)
    assert len(writer.accepted) == 20
    assert max(high_water) == 3
