"""Property-based tests of kernel invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store

from .support import Reader, Ticker, Writer, when


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_timeouts_fire_in_sorted_order(delays):
    env = Environment()
    fired = []
    for d in delays:
        env.timeout(d, value=d).callbacks.append(
            lambda ev: fired.append(ev.value))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_resource_conservation(holds, capacity):
    """Every requester is eventually served exactly once, and total busy
    time equals the sum of hold times (single-resource work conservation).
    The resource is a store holding `capacity` server tokens: a user takes
    a token, holds it, and puts it back."""
    env = Environment()
    servers = Store(env, capacity=capacity)
    for k in range(capacity):
        servers.put(k)
    served = []
    busy = [0.0] * capacity

    def user(hold):
        def got(get):
            token, start = get.value, env.now

            def done(_timeout):
                busy[token] += env.now - start
                served.append((start, hold))
                servers.put(token)

            env.timeout(hold).callbacks.append(done)

        when(servers.get(), got)

    for h in holds:
        user(h)
    env.run()
    assert len(served) == len(holds)
    assert sorted(h for _, h in served) == sorted(holds)
    assert len(servers) == capacity
    total = sum(holds)
    assert abs(sum(busy) - total) <= 1e-9 * max(1.0, total)
    # With capacity c, makespan >= total work / c and >= max hold.
    assert env.now >= max(holds) - 1e-9
    assert env.now >= total / capacity - 1e-9
    assert env.now <= total + 1e-9  # never slower than serial


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50)
def test_store_item_conservation(n_items, capacity):
    """Everything put into a bounded store comes out, in FIFO order."""
    env = Environment()
    store = Store(env, capacity=capacity)
    Writer(env, store, range(n_items))
    reader = Reader(env, store, n=n_items, gap=1)
    env.run()
    assert [item for item, _ in reader.got] == list(range(n_items))
    assert len(store) == 0


@given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=40))
def test_clock_never_goes_backwards(delays):
    env = Environment()
    watcher = Ticker(env, 0.5)
    stamps = watcher.fired
    for d in delays:
        env.timeout(d).callbacks.append(lambda _ev: stamps.append(env.now))
    env.run(until=max(delays) + 1 if max(delays) > 0 else 1)
    assert all(a <= b for a, b in zip(stamps, stamps[1:]))
