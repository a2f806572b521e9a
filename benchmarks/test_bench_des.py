"""Kernel benchmarks: raw event throughput of the DES substrate.

These are the ablation baseline for DESIGN.md §5.1 — they quantify how
expensive the generator-based kernel is per event, which bounds every
ROCC simulation above it.
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


def _timeout_chain(n_events: int) -> float:
    env = Environment()

    def clock(env):
        for _ in range(n_events):
            yield env.timeout(1.0)

    env.process(clock(env))
    env.run()
    return env.now


def test_timeout_event_throughput(benchmark):
    """Pure timeout scheduling: the kernel's floor cost per event."""
    result = _kernel_bench(benchmark, _timeout_chain, 20_000)
    assert result == 20_000.0


def _hold_chain(n_events: int) -> float:
    env = Environment()

    def clock(env):
        hold = env.hold
        for _ in range(n_events):
            yield hold(1.0)

    env.process(clock(env))
    env.run()
    return env.now


def test_hold_event_throughput(benchmark):
    """Allocation-free process sleeps: the fast path the ROCC model
    loops (CPU quanta, sampling ticks, network serialization) run on.
    Equivalent workload to ``_timeout_chain``; the gap between the two
    is the saving from ``env.hold``."""
    result = _kernel_bench(benchmark, _hold_chain, 20_000)
    assert result == 20_000.0


def _store_churn(n_items: int) -> int:
    env = Environment()
    store = Store(env, capacity=64)
    got = [0]

    def producer(env):
        for i in range(n_items):
            yield store.put(i)

    def consumer(env):
        for _ in range(n_items):
            yield store.get()
            got[0] += 1

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    return got[0]


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
    kernel at ~0.94s on the reference machine.  The min of three rounds
    is gated: one round is at the mercy of a single slow phase."""
    received = benchmark.pedantic(_mpp_tree_cell, rounds=3, iterations=1,
                                  warmup_rounds=0)
    assert received > 0
