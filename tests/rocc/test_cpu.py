"""Tests for the round-robin CPU scheduler with quantum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.rocc import RoundRobinCPU
from repro.workload import ProcessType

APP = ProcessType.APPLICATION
PD = ProcessType.PARADYN_DAEMON


def test_validation(env):
    with pytest.raises(ValueError):
        RoundRobinCPU(env, n_cpus=0)
    with pytest.raises(ValueError):
        RoundRobinCPU(env, quantum=0)


def test_single_job_runs_to_completion(env):
    cpu = RoundRobinCPU(env, quantum=10_000)
    done = []

    def proc(env):
        yield cpu.execute(2_500, APP)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2_500.0]
    assert cpu.busy_time(APP) == 2_500.0


def test_zero_length_request_completes_immediately(env):
    cpu = RoundRobinCPU(env)
    ev = cpu.execute(0.0, APP)
    assert ev.triggered


def test_long_job_time_sliced(env):
    """A 25k job with quantum 10k shares the CPU with a short job that
    arrives mid-run: the short job gets a slice after one quantum."""
    cpu = RoundRobinCPU(env, quantum=10_000)
    log = []

    def long_job(env):
        yield cpu.execute(25_000, APP)
        log.append(("long", env.now))

    def short_job(env):
        yield env.timeout(1_000)
        yield cpu.execute(2_000, PD)
        log.append(("short", env.now))

    env.process(long_job(env))
    env.process(short_job(env))
    env.run()
    # Long runs [0,10k); short runs [10k,12k); long resumes [12k, 27k).
    assert log == [("short", 12_000.0), ("long", 27_000.0)]


def test_round_robin_fairness_two_long_jobs(env):
    cpu = RoundRobinCPU(env, quantum=10_000)
    log = []

    def job(env, name, amount):
        yield cpu.execute(amount, APP)
        log.append((name, env.now))

    env.process(job(env, "a", 30_000))
    env.process(job(env, "b", 30_000))
    env.run()
    # Interleaved quanta: a finishes at 50k (a,b,a,b,a), b at 60k.
    assert log == [("a", 50_000.0), ("b", 60_000.0)]


def test_two_cpus_run_in_parallel(env):
    cpu = RoundRobinCPU(env, n_cpus=2, quantum=10_000)
    done = []

    def job(env, name):
        yield cpu.execute(5_000, APP)
        done.append((name, env.now))

    env.process(job(env, "a"))
    env.process(job(env, "b"))
    env.run()
    assert done == [("a", 5_000.0), ("b", 5_000.0)]


def test_busy_accounting_by_owner(env):
    cpu = RoundRobinCPU(env, quantum=10_000)

    def proc(env):
        yield cpu.execute(3_000, APP)
        yield cpu.execute(1_000, PD)

    env.process(proc(env))
    env.run()
    assert cpu.busy_time(APP) == 3_000.0
    assert cpu.busy_time(PD) == 1_000.0
    assert cpu.busy_time(ProcessType.OTHER) == 0.0


def test_utilization(env):
    cpu = RoundRobinCPU(env, quantum=10_000)

    def proc(env):
        yield cpu.execute(4_000, APP)

    env.process(proc(env))
    env.run(until=10_000)
    assert cpu.utilization() == pytest.approx(0.4)


def test_utilization_multi_cpu(env):
    cpu = RoundRobinCPU(env, n_cpus=2, quantum=10_000)

    def proc(env):
        yield cpu.execute(4_000, APP)

    env.process(proc(env))
    env.process(proc(env))
    env.run(until=10_000)
    assert cpu.utilization() == pytest.approx(0.4)  # 8k busy over 2*10k


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

    def job(env, i, a):
        yield cpu.execute(a, APP)
        served.append(i)

    for i, a in enumerate(amounts):
        env.process(job(env, i, a))
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

    def job(env):
        yield cpu.execute(20_000, APP)

    for _ in range(3):
        env.process(job(env))
    env.run(until=100)
    assert cpu.queue_length == 2  # one running, two queued
