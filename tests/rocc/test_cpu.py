"""Tests for the round-robin CPU scheduler with quantum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.rocc import RoundRobinCPU
from repro.workload import ProcessType

from .actors import Job, make_ctx

APP = ProcessType.APPLICATION
PD = ProcessType.PARADYN_DAEMON


def test_validation(env):
    with pytest.raises(ValueError):
        RoundRobinCPU(env, n_cpus=0)
    with pytest.raises(ValueError):
        RoundRobinCPU(env, quantum=0)


def test_single_job_runs_to_completion(env):
    cpu = RoundRobinCPU(env, quantum=10_000)
    job = Job(make_ctx(env, cpu=cpu), [("cpu", 2_500)])
    env.run()
    assert job.done == [2_500.0]
    assert cpu.busy_time(APP) == 2_500.0


def test_zero_length_request_completes_immediately(env):
    cpu = RoundRobinCPU(env)
    job = Job(make_ctx(env, cpu=cpu), [("cpu", 0.0)])
    env.run()
    assert job.done == [0.0]
    assert cpu.busy_by_owner == {}


def test_long_job_time_sliced(env):
    """A 25k job with quantum 10k shares the CPU with a short job that
    arrives mid-run: the short job gets a slice after one quantum."""
    cpu = RoundRobinCPU(env, quantum=10_000)
    ctx = make_ctx(env, cpu=cpu)
    long_job = Job(ctx, [("cpu", 25_000)])
    short_job = Job(ctx, [("cpu", 2_000)], owner=PD, delay=1_000)
    env.run()
    # Long runs [0,10k); short runs [10k,12k); long resumes [12k, 27k).
    assert short_job.done == [12_000.0]
    assert long_job.done == [27_000.0]


def test_round_robin_fairness_two_long_jobs(env):
    cpu = RoundRobinCPU(env, quantum=10_000)
    ctx = make_ctx(env, cpu=cpu)
    a = Job(ctx, [("cpu", 30_000)])
    b = Job(ctx, [("cpu", 30_000)])
    env.run()
    # Interleaved quanta: a finishes at 50k (a,b,a,b,a), b at 60k.
    assert a.done == [50_000.0]
    assert b.done == [60_000.0]


def test_two_cpus_run_in_parallel(env):
    cpu = RoundRobinCPU(env, n_cpus=2, quantum=10_000)
    ctx = make_ctx(env, cpu=cpu)
    done = []
    for name in ("a", "b"):
        Job(ctx, [("cpu", 5_000)], name=name,
            then=lambda job: done.append((job.name, env.now)))
    env.run()
    assert done == [("a", 5_000.0), ("b", 5_000.0)]


def test_busy_accounting_by_owner(env):
    cpu = RoundRobinCPU(env, quantum=10_000)
    Job(make_ctx(env, cpu=cpu), [("cpu", 3_000, APP), ("cpu", 1_000, PD)])
    env.run()
    assert cpu.busy_time(APP) == 3_000.0
    assert cpu.busy_time(PD) == 1_000.0


def test_every_slice_charged_to_the_requesting_actor(env):
    """The intermediate quanta and the final slice of a time-sliced
    request are all charged to the requesting actor's owner."""
    cpu = RoundRobinCPU(env, quantum=10_000)
    ctx = make_ctx(env, cpu=cpu)
    Job(ctx, [("cpu", 25_000)], owner=APP)
    Job(ctx, [("cpu", 15_000)], owner=PD)
    env.run()
    assert cpu.busy_by_owner == {APP: 25_000.0, PD: 15_000.0}
    assert cpu.busy_time(ProcessType.OTHER) == 0.0


def test_utilization(env):
    cpu = RoundRobinCPU(env, quantum=10_000)
    Job(make_ctx(env, cpu=cpu), [("cpu", 4_000)])
    env.run(until=10_000)
    assert cpu.busy_time(APP) / env.now == pytest.approx(0.4)


def test_utilization_multi_cpu(env):
    cpu = RoundRobinCPU(env, n_cpus=2, quantum=10_000)
    ctx = make_ctx(env, cpu=cpu)
    Job(ctx, [("cpu", 4_000)])
    Job(ctx, [("cpu", 4_000)])
    env.run(until=10_000)
    # 8k busy over 2*10k.
    assert cpu.busy_time(APP) / (cpu.n_cpus * env.now) == pytest.approx(0.4)


@given(
    st.lists(st.floats(min_value=1.0, max_value=20_000.0), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_work_conservation_many_jobs(amounts, n_cpus):
    """Every request is served exactly once and total busy time equals
    total demand.  The makespan is at least the longest job and at least
    work/capacity (no free lunch); it is at most the total work (never
    slower than serial) and at most work/capacity plus one job's demand
    (RR cannot split a single job across CPUs, so one processor may
    idle in the tail)."""
    env = Environment()
    cpu = RoundRobinCPU(env, n_cpus=n_cpus, quantum=1_000)
    served = []
    ctx = make_ctx(env, cpu=cpu)
    for i, a in enumerate(amounts):
        Job(ctx, [("cpu", a)], then=lambda _job, i=i: served.append(i))
    env.run()
    assert sorted(served) == list(range(len(amounts)))
    total = sum(amounts)
    assert cpu.busy_time(APP) == pytest.approx(total)
    assert env.now >= max(amounts) - 1e-6
    assert env.now >= total / n_cpus - 1e-6
    assert env.now <= total + 1e-6
    assert env.now <= total / n_cpus + max(amounts) + 1e-6


def test_queue_length_visible(env):
    cpu = RoundRobinCPU(env, quantum=10_000)
    ctx = make_ctx(env, cpu=cpu)
    for _ in range(3):
        Job(ctx, [("cpu", 20_000)])
    env.run(until=100)
    assert cpu.queue_length == 2  # one running, two queued
