"""Tests for Store (pipe-like FIFO buffers)."""

import pytest

from repro.des import Store


def test_capacity_validation(env):
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_put_get_fifo(env):
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2]


def test_get_blocks_until_item_available(env):
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(7)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("x", 7.0)]


def test_put_blocks_when_full(env):
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("a in", env.now))
        yield store.put("b")
        log.append(("b in", env.now))

    def consumer(env):
        yield env.timeout(5)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("a in", 0.0), ("b in", 5.0)]


def test_len_reports_items(env):
    store = Store(env)

    def producer(env):
        yield store.put(1)
        yield store.put(2)

    env.process(producer(env))
    env.run()
    assert len(store) == 2
    assert store.items == [1, 2]


def test_multiple_getters_fifo(env):
    store = Store(env)
    got = []

    def getter(env, name):
        item = yield store.get()
        got.append((name, item))

    def producer(env):
        yield env.timeout(1)
        yield store.put("first")
        yield store.put("second")

    env.process(getter(env, "g1"))
    env.process(getter(env, "g2"))
    env.process(producer(env))
    env.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_respects_capacity_under_churn(env):
    store = Store(env, capacity=3)
    high_water = []

    def producer(env):
        for i in range(20):
            yield store.put(i)
            high_water.append(len(store.items))

    def consumer(env):
        while True:
            yield env.timeout(1)
            yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run(until=50)
    assert max(high_water) <= 3
