"""Focused tests of the Paradyn daemon: batching, flush, cost accounting."""

import pytest

from repro.des import Environment
from repro.rocc import (
    Batch,
    DaemonCostModel,
    ParadynDaemon,
    Sample,
    SamplePipe,
    SimulationConfig,
)
from repro.rocc.cpu import RoundRobinCPU
from repro.rocc.metrics import Metrics
from repro.rocc.network import ContentionFreeNetwork
from repro.rocc.node import NodeContext
from repro.variates.distributions import Deterministic
from repro.variates.streams import StreamFactory


def make_ctx(env, config):
    return NodeContext(
        env=env,
        node_id=0,
        cpu=RoundRobinCPU(env, quantum=config.workload.cpu_quantum),
        network=ContentionFreeNetwork(env),
        metrics=Metrics(),
        config=config,
        streams=StreamFactory(seed=1),
    )


def deterministic_costs():
    return DaemonCostModel(
        collection_cpu=Deterministic(100.0),
        forward_cpu=Deterministic(200.0),
    )


def feed(env, pipe, times):
    """Write one sample into *pipe* at each of *times*."""
    for t in times:
        env.timeout(t).callbacks.append(
            lambda _ev, t=t: pipe.put(Sample(created_at=t, node=0, pid=0)))


def test_cf_forwards_each_sample():
    env = Environment()
    cfg = SimulationConfig(batch_size=1, daemon_costs=deterministic_costs())
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    received = []
    daemon = ParadynDaemon(ctx, pipe, received.append)
    feed(env, pipe, [1000.0, 2000.0, 3000.0])
    env.run(until=10_000)
    assert len(received) == 3
    assert all(len(b) == 1 for b in received)
    assert daemon.forward_calls == 3
    assert daemon.samples_forwarded == 3


def test_bf_accumulates_batch():
    env = Environment()
    cfg = SimulationConfig(batch_size=3, daemon_costs=deterministic_costs())
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    received = []
    daemon = ParadynDaemon(ctx, pipe, received.append)
    feed(env, pipe, [1000.0, 2000.0, 3000.0, 4000.0])
    env.run(until=20_000)
    assert len(received) == 1
    assert len(received[0]) == 3
    assert daemon.forward_calls == 1


def test_cf_batch_sent_at_is_sample_creation():
    env = Environment()
    cfg = SimulationConfig(batch_size=1, daemon_costs=deterministic_costs())
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    received = []
    ParadynDaemon(ctx, pipe, received.append)
    feed(env, pipe, [1000.0])
    env.run(until=10_000)
    assert received[0].sent_at == 1000.0


def test_bf_batch_sent_at_is_completion_time():
    env = Environment()
    cfg = SimulationConfig(batch_size=2, daemon_costs=deterministic_costs())
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    received = []
    ParadynDaemon(ctx, pipe, received.append)
    feed(env, pipe, [1000.0, 5000.0])
    env.run(until=20_000)
    # Batch completed after the second sample's collection work (100 µs).
    assert received[0].sent_at == pytest.approx(5100.0)


def test_cf_cpu_cost_collection_plus_forward():
    env = Environment()
    cfg = SimulationConfig(batch_size=1, daemon_costs=deterministic_costs(),
                           include_pvmd=False, include_other=False)
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    ParadynDaemon(ctx, pipe, lambda b: None)
    feed(env, pipe, [1000.0, 2000.0])
    env.run(until=10_000)
    from repro.workload import ProcessType

    # Per sample: 100 (collect) + 200 (forward) = 300.
    assert ctx.cpu.busy_time(ProcessType.PARADYN_DAEMON) == pytest.approx(600.0)


def test_bf_cpu_cost_amortizes_forward():
    env = Environment()
    cfg = SimulationConfig(batch_size=2, daemon_costs=deterministic_costs())
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    ParadynDaemon(ctx, pipe, lambda b: None)
    feed(env, pipe, [1000.0, 2000.0])
    env.run(until=10_000)
    from repro.workload import ProcessType

    # 2 x 100 (collect) + 1 x 200 (forward) = 400 for two samples.
    assert ctx.cpu.busy_time(ProcessType.PARADYN_DAEMON) == pytest.approx(400.0)


def test_flush_timeout_forwards_partial_batch():
    env = Environment()
    cfg = SimulationConfig(
        batch_size=100,
        batch_flush_timeout=50_000.0,
        daemon_costs=deterministic_costs(),
    )
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    received = []
    ParadynDaemon(ctx, pipe, received.append)
    feed(env, pipe, [1000.0, 2000.0])
    env.run(until=200_000)
    assert len(received) == 1
    assert len(received[0]) == 2  # partial batch flushed


def test_no_flush_without_timeout():
    env = Environment()
    cfg = SimulationConfig(batch_size=100, daemon_costs=deterministic_costs())
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    received = []
    ParadynDaemon(ctx, pipe, received.append)
    feed(env, pipe, [1000.0, 2000.0])
    env.run(until=200_000)
    assert received == []


def test_merge_loop_relays_child_batches():
    env = Environment()
    cfg = SimulationConfig(batch_size=1, daemon_costs=deterministic_costs())
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    received = []
    daemon = ParadynDaemon(ctx, pipe, received.append)
    daemon.enable_tree_inbox()
    child_batch = Batch(
        samples=[Sample(created_at=0.0, node=3, pid=0)], origin=3
    )
    daemon.deliver(child_batch)
    env.run(until=10_000)
    assert len(received) == 1
    assert received[0].origin == 0  # re-stamped by the relaying daemon
    assert received[0].samples[0].hops == 1
    assert ctx.metrics.merges_by_node[0] == 1
