"""Kernel benchmarks: raw event throughput of the DES substrate.

These are the ablation baseline for DESIGN.md §5.1 — they quantify how
expensive the kernel is per event, which bounds every ROCC simulation
above it.  The normalizer measures :class:`Timeout` callback events,
the store churn :class:`StorePut`/:class:`StoreGet` events; each driver
is a plain object whose bound methods are those events' callbacks.
"""

from repro.des import Environment, Store
from repro.rocc.config import Architecture, ForwardingTopology, SimulationConfig
from repro.rocc.system import simulate

#: Rounds of each kernel micro-benchmark.  A chain takes 10–35 ms, and
#: on a shared host a slow phase can cover a whole second: 150 rounds
#: (2–5 s) give each min a quiet stretch to land in, so the gated
#: ratios agree from run to run.  Longer chains do not help: a longer
#: round is more likely to be hit by a burst, and fewer fit.
_ROUNDS = 150


def _kernel_bench(benchmark, fn, n):
    return benchmark.pedantic(fn, args=(n,), rounds=_ROUNDS, iterations=1,
                              warmup_rounds=2)


class _Clock:
    """Sleeps *n* times for one time unit on a fresh :class:`Timeout`,
    woken by its bound callback."""

    def __init__(self, env, n):
        self.env = env
        self.left = n
        self._woke_cb = self._woke
        env.timeout(1.0).callbacks.append(self._woke_cb)

    def _woke(self, _timeout):
        self.left -= 1
        if self.left:
            self.env.timeout(1.0).callbacks.append(self._woke_cb)


def _timeout_chain(n_events: int) -> float:
    env = Environment()
    _Clock(env, n_events)
    env.run()
    return env.now


def test_timeout_event_throughput(benchmark):
    """Pure timeout scheduling: the kernel's floor cost per event."""
    result = _kernel_bench(benchmark, _timeout_chain, 20_000)
    assert result == 20_000.0


class _Producer:
    """Puts *n* items into *store*, each once the previous was accepted."""

    def __init__(self, store, n):
        self.store = store
        self.left = n
        self._put_cb = self._put
        self._put()

    def _put(self, _accepted=None):
        store = self.store
        while self.left:
            self.left -= 1
            put = store.put(self.left)
            if put.callbacks is not None:  # full: wait for a slot
                put.callbacks.append(self._put_cb)
                return


class _Consumer:
    """Gets *n* items from *store*, counting them in :attr:`got`."""

    def __init__(self, store, n):
        self.store = store
        self.n = n
        self.got = 0
        self._got_cb = self._got
        self._get()

    def _got(self, _get):
        self.got += 1
        self._get()

    def _get(self):
        store = self.store
        while self.got < self.n:
            get = store.get()
            if get.callbacks is not None:  # empty: wait for an item
                get.callbacks.append(self._got_cb)
                return
            self.got += 1


def _store_churn(n_items: int) -> int:
    env = Environment()
    store = Store(env, capacity=64)
    _Producer(store, n_items)
    consumer = _Consumer(store, n_items)
    env.run()
    return consumer.got


def test_store_put_get_throughput(benchmark):
    """Bounded-buffer handoffs (the pipe hot path)."""
    result = _kernel_bench(benchmark, _store_churn, 10_000)
    assert result == 10_000


def _mpp_tree_cell() -> int:
    """One second of a 64-node MPP tree cell: the single-large-cell
    workload the ROADMAP's scale north-star cares about."""
    results = simulate(SimulationConfig(
        architecture=Architecture.MPP,
        nodes=64,
        forwarding=ForwardingTopology.TREE,
        duration=1_000_000.0,
        seed=1,
    ))
    return results.samples_received


def test_mpp_tree_cell_64n(benchmark):
    """End-to-end kernel cost of a single large cell (64-node MPP tree).

    This is the headline number for the in-cell hot path: everything —
    scheduler, network transfers, CPU slices, pipes, metrics — sits on
    it.  History in BENCH_DES.json records the pre-calendar-queue heap
    kernel at ~0.94s on the reference machine.  The min of ten rounds
    is gated: with three, one slow phase on a shared host could cover
    them all (the gated ratio read 0.55–1.24 across runs)."""
    received = benchmark.pedantic(_mpp_tree_cell, rounds=10, iterations=1,
                                  warmup_rounds=1)
    assert received > 0
