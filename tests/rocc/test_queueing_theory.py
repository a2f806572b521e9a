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
from repro.rocc.cpu import ProcessorSharingCPU
from repro.workload import ProcessType

APP = ProcessType.APPLICATION


def poisson_source(env, rate_per_us, service_mean, submit, sojourns, rng, n_max):
    """Generate Poisson arrivals, each timing its sojourn."""

    def customer(env, service):
        start = env.now
        yield submit(service)
        sojourns.observe(env.now - start)

    def source(env):
        for _ in range(n_max):
            yield env.timeout(rng.exponential(1.0 / rate_per_us))
            env.process(customer(env, float(rng.exponential(service_mean))))

    env.process(source(env))


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
            net = FIFONetwork(env)
            return lambda s: net.transfer(s, APP)

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
            cpu = RoundRobinCPU(env, n_cpus=1, quantum=5.0)
            return lambda s: cpu.execute(s, APP)

        sojourns = run_queue(make_submit, lam, mu_mean, n=5000)
        expected = 1.0 / (1.0 / mu_mean - lam)
        assert sojourns.mean == pytest.approx(expected, rel=0.15)

    def test_exact_ps_matches_formula(self):
        mu_mean, rho = 100.0, 0.6
        lam = rho / mu_mean

        def make_submit(env):
            cpu = ProcessorSharingCPU(env, n_cpus=1)
            return lambda s: cpu.execute(s, APP)

        sojourns = run_queue(make_submit, lam, mu_mean, n=5000)
        expected = 1.0 / (1.0 / mu_mean - lam)
        assert sojourns.mean == pytest.approx(expected, rel=0.15)

    def test_huge_quantum_is_fifo(self):
        """Quantum >> every service time degenerates RR to FIFO, whose
        M/M/1 sojourn equals PS's in the mean (both 1/(mu-lambda))."""
        mu_mean, rho = 100.0, 0.5
        lam = rho / mu_mean

        def make_submit(env):
            cpu = RoundRobinCPU(env, n_cpus=1, quantum=1e9)
            return lambda s: cpu.execute(s, APP)

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

        def source(env):
            for _ in range(4000):
                yield env.timeout(rng.exponential(1.0 / lam))
                cpu.execute(float(rng.exponential(mean)), APP)

        env.process(source(env))
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

        def customer(env, service):
            start = env.now
            yield net.transfer(service, APP)
            waits.observe(env.now - start)

        def tracker(env):
            for _ in range(ticks):
                yield env.timeout(50.0)
                area[0] += (net.queue_length + net.in_flight.value) * 50.0
            area[1] = env.now

        def source(env):
            for _ in range(n_customers):
                yield env.timeout(rng.exponential(1.0 / lam))
                env.process(customer(env, float(rng.exponential(mean))))

        env.process(source(env))
        env.process(tracker(env))
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
