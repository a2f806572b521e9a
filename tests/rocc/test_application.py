"""Focused tests of the application process and the cyclic barrier."""

import pytest

from repro.des import Environment
from repro.rocc import (
    ApplicationProcess,
    CyclicBarrier,
    SamplePipe,
    SimulationConfig,
)
from repro.rocc.cpu import RoundRobinCPU
from repro.rocc.metrics import Metrics
from repro.rocc.network import ContentionFreeNetwork
from repro.rocc.node import NodeContext
from repro.variates.distributions import Deterministic
from repro.variates.streams import StreamFactory
from repro.workload import ProcessType, WorkloadParameters

from ..des.support import Reader


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


def deterministic_workload():
    return WorkloadParameters(
        app_cpu=Deterministic(1_000.0),
        app_network=Deterministic(500.0),
    )


def test_alternates_compute_and_communicate():
    env = Environment()
    cfg = SimulationConfig(
        workload=deterministic_workload(), instrumented=False
    )
    ctx = make_ctx(env, cfg)
    ApplicationProcess(ctx, pid=0, pipe=None)
    env.run(until=15_000)
    # Each 1500 µs cycle: 1000 CPU + 500 network.
    assert ctx.cpu.busy_time(ProcessType.APPLICATION) == pytest.approx(10_000.0)
    assert ctx.network.busy_time(ProcessType.APPLICATION) == pytest.approx(
        4_500.0, abs=600.0
    )
    assert ctx.metrics.app_cycles == 9


def test_sampler_generates_on_schedule():
    env = Environment()
    cfg = SimulationConfig(
        workload=deterministic_workload(), sampling_period=10_000.0
    )
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    ApplicationProcess(ctx, pid=0, pipe=pipe)
    env.run(until=100_001)
    assert ctx.metrics.samples_generated == 10


def test_samples_carry_creation_time():
    env = Environment()
    cfg = SimulationConfig(
        workload=deterministic_workload(), sampling_period=10_000.0
    )
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env)
    ApplicationProcess(ctx, pid=0, pipe=pipe)
    reader = Reader(env, pipe)
    # Samples are emitted at the application's next cycle boundary, so
    # run slightly past the last sampling tick.
    env.run(until=52_000)
    assert [s.created_at for s, _ in reader.got] == [10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0]


def test_not_instrumented_generates_nothing():
    env = Environment()
    cfg = SimulationConfig(
        workload=deterministic_workload(), instrumented=False
    )
    ctx = make_ctx(env, cfg)
    ApplicationProcess(ctx, pid=0, pipe=SamplePipe(env))
    env.run(until=100_000)
    assert ctx.metrics.samples_generated == 0


def test_full_pipe_blocks_application():
    env = Environment()
    cfg = SimulationConfig(
        workload=deterministic_workload(),
        sampling_period=1_000.0,
        pipe_capacity=2,
    )
    ctx = make_ctx(env, cfg)
    pipe = SamplePipe(env, per_writer_capacity=2)
    ApplicationProcess(ctx, pid=0, pipe=pipe)
    env.run(until=100_000)
    # Nobody drains the pipe: the app must have stalled long ago.
    assert pipe.is_full
    assert ctx.cpu.busy_time(ProcessType.APPLICATION) < 20_000.0


def party(env, barrier, name, delays, log):
    """A party that sleeps each of *delays* and then waits at *barrier*,
    logging ``(name, time)`` at each release."""
    delays = list(delays)

    def arrive(_timeout):
        barrier.arrive().callbacks.append(released)

    def released(_event):
        log.append((name, env.now))
        if delays:
            env.timeout(delays.pop(0)).callbacks.append(arrive)

    env.timeout(delays.pop(0)).callbacks.append(arrive)


class TestCyclicBarrier:
    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            CyclicBarrier(env, 0)

    def test_releases_when_all_arrive(self):
        env = Environment()
        barrier = CyclicBarrier(env, 3)
        released = []
        party(env, barrier, "a", [1], released)
        party(env, barrier, "b", [5], released)
        party(env, barrier, "c", [3], released)
        env.run()
        # All release together when the last party arrives (t = 5).
        assert sorted(released) == [("a", 5.0), ("b", 5.0), ("c", 5.0)]
        assert barrier.rounds == 1

    def test_reusable_across_rounds(self):
        env = Environment()
        barrier = CyclicBarrier(env, 2)
        log = []
        party(env, barrier, "a", [1, 1], log)
        party(env, barrier, "b", [4, 2], log)
        env.run()
        assert barrier.rounds == 2
        assert log == [("a", 4.0), ("b", 4.0), ("a", 6.0), ("b", 6.0)]

    def test_waiting_count(self):
        env = Environment()
        barrier = CyclicBarrier(env, 3)
        barrier.arrive()
        barrier.arrive()
        env.run()
        assert barrier.waiting == 2


def test_barrier_truncates_bursts():
    """A CPU burst never crosses a barrier point: with deterministic
    3000 µs bursts and a 1000 µs barrier period every burst is clipped
    to exactly 1000 µs of work between barriers."""
    env = Environment()
    cfg = SimulationConfig(
        workload=WorkloadParameters(
            app_cpu=Deterministic(3_000.0),
            app_network=Deterministic(1.0),
        ),
        barrier_period=1_000.0,
        instrumented=False,
    )
    ctx = make_ctx(env, cfg)
    barrier = CyclicBarrier(env, 1, ctx.metrics)
    ApplicationProcess(ctx, pid=0, pipe=None, barrier=barrier)
    env.run(until=10_010)
    # Work between barrier rounds is exactly the barrier period.
    assert ctx.metrics.barrier_rounds >= 9
    assert ctx.cpu.busy_time(ProcessType.APPLICATION) == pytest.approx(
        ctx.metrics.barrier_rounds * 1_000.0, rel=0.15
    )
