"""Statistical validation of the resource models against queueing theory.

These tests drive the ROCC substrate with Poisson arrivals and compare
measured means with closed-form M/M/1 results — the strongest available
correctness oracle for the CPU scheduler and the FIFO network.  All
runs are seeded; tolerances cover the residual Monte-Carlo noise.
"""

import numpy as np
import pytest

from repro.des import Environment, Tally
from repro.rocc import FIFONetwork, RoundRobinCPU
from repro.workload import ProcessType

from .actors import Job, make_ctx

APP = ProcessType.APPLICATION


def poisson_arrivals(env, rate_per_us, n_max, rng, arrive):
    """Call ``arrive()`` at each of *n_max* Poisson arrival instants."""
    left = [n_max]

    def tick(_timeout):
        arrive()
        left[0] -= 1
        if left[0]:
            env.timeout(rng.exponential(1.0 / rate_per_us)).callbacks.append(tick)

    env.timeout(rng.exponential(1.0 / rate_per_us)).callbacks.append(tick)


def poisson_source(env, rate_per_us, service_mean, submit, sojourns, rng, n_max):
    """Generate Poisson arrivals, each timing its sojourn: *submit*
    starts a request for ``service`` µs and calls ``done()`` when it
    completes."""

    def arrive():
        start = env.now
        submit(float(rng.exponential(service_mean)),
               lambda: sojourns.observe(env.now - start))

    poisson_arrivals(env, rate_per_us, n_max, rng, arrive)


def submit_transfer(net):
    return lambda s, done: net.transfer(s, APP).callbacks.append(
        lambda _ev: done())


def submit_cpu(env, cpu):
    ctx = make_ctx(env, cpu=cpu)
    return lambda s, done: Job(ctx, [("cpu", s)], then=lambda _job: done())


def run_queue(make_submit, lam, mu_mean, n=6000, seed=8):
    env = Environment()
    rng = np.random.default_rng(seed)
    sojourns = Tally("sojourn")
    submit = make_submit(env)
    poisson_source(env, lam, mu_mean, submit, sojourns, rng, n)
    env.run()
    return sojourns


class TestFIFONetworkAgainstMM1:
    # Heavy traffic (rho = 0.8) has large small-sample variance, hence
    # the looser tolerance there.
    @pytest.mark.parametrize("rho,rel", [(0.3, 0.08), (0.6, 0.12), (0.8, 0.3)])
    def test_mean_sojourn(self, rho, rel):
        """M/M/1 FIFO: E[T] = 1 / (mu - lambda)."""
        mu_mean = 100.0  # service mean, µs
        lam = rho / mu_mean

        def make_submit(env):
            return submit_transfer(FIFONetwork(env))

        sojourns = run_queue(make_submit, lam, mu_mean)
        expected = 1.0 / (1.0 / mu_mean - lam)
        assert sojourns.mean == pytest.approx(expected, rel=rel)


class TestRoundRobinAgainstPS:
    @pytest.mark.parametrize("rho", [0.4, 0.7])
    def test_small_quantum_approaches_processor_sharing(self, rho):
        """M/M/1-PS: E[T] = 1/(mu - lambda); RR with quantum << service
        mean converges to PS."""
        mu_mean = 100.0
        lam = rho / mu_mean

        def make_submit(env):
            return submit_cpu(env, RoundRobinCPU(env, n_cpus=1, quantum=5.0))

        sojourns = run_queue(make_submit, lam, mu_mean, n=5000)
        expected = 1.0 / (1.0 / mu_mean - lam)
        assert sojourns.mean == pytest.approx(expected, rel=0.15)

    def test_huge_quantum_is_fifo(self):
        """Quantum >> every service time degenerates RR to FIFO, whose
        M/M/1 sojourn equals PS's in the mean (both 1/(mu-lambda))."""
        mu_mean, rho = 100.0, 0.5
        lam = rho / mu_mean

        def make_submit(env):
            return submit_cpu(env, RoundRobinCPU(env, n_cpus=1, quantum=1e9))

        sojourns = run_queue(make_submit, lam, mu_mean, n=5000)
        assert sojourns.mean == pytest.approx(
            1.0 / (1.0 / mu_mean - lam), rel=0.15
        )


class TestUtilizationLawOnSimulator:
    def test_cpu_utilization_matches_offered_load(self):
        """U = X · D on the round-robin CPU under Poisson load."""
        env = Environment()
        rng = np.random.default_rng(4)
        cpu = RoundRobinCPU(env, n_cpus=1, quantum=10_000.0)
        lam, mean = 1 / 400.0, 120.0  # rho = 0.3

        ctx = make_ctx(env, cpu=cpu)
        poisson_arrivals(
            env, lam, 4000, rng,
            lambda: Job(ctx, [("cpu", float(rng.exponential(mean)))]))
        env.run()
        measured = cpu.busy_time(APP) / env.now
        assert measured == pytest.approx(lam * mean, rel=0.08)

    def test_littles_law_on_fifo_queue(self):
        """L = lambda · W on the FIFO network's waiting line."""
        env = Environment()
        rng = np.random.default_rng(6)
        net = FIFONetwork(env)
        lam, mean = 1 / 150.0, 100.0  # rho = 2/3
        waits = Tally("wait")
        area = [0.0, 0.0]  # time-integral of queue length, last update

        n_customers = 6000
        # Observation horizon comfortably covering arrivals + drain; the
        # tracker must terminate or env.run() never would.
        horizon = n_customers / lam * 1.3
        ticks = int(horizon / 50.0)

        left = [ticks]

        def track(_timeout):
            area[0] += (net.queue_length + net._busy) * 50.0
            area[1] = env.now
            left[0] -= 1
            if left[0]:
                env.timeout(50.0).callbacks.append(track)

        poisson_source(env, lam, mean, submit_transfer(net), waits, rng,
                       n_customers)
        env.timeout(50.0).callbacks.append(track)
        env.run()
        L = area[0] / area[1]
        # Effective arrival rate over the observation window.
        lam_eff = waits.count / area[1]
        W = waits.mean
        assert L == pytest.approx(lam_eff * W, rel=0.12)


def test_lone_application_cycle_rate_matches_its_demands():
    """An uninstrumented node running only the application is a closed
    network with one customer: a CPU burst (mean 2213 µs, Table 2) then
    a network burst (mean 223 µs) that nothing else contends for.  With
    population 1 there is no queueing, so by Little's law the cycle
    rate is 1 / (D_cpu + D_net)."""
    from repro.rocc import SimulationConfig, simulate

    r = simulate(
        SimulationConfig(
            nodes=1, duration=3_000_000.0, instrumented=False,
            include_pvmd=False, include_other=False, seed=31,
        )
    )
    assert r.app_cycles / 3_000_000.0 == pytest.approx(
        1.0 / (2213.0 + 223.0), rel=0.05
    )
