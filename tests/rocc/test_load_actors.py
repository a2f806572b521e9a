"""The background load as direct kernel events (``rocc.node.LoadActor``)
and the CPU's and networks' request/release halves it drives."""

import re

import pytest

from repro.des import Environment, EventLog, SimulationStalled
from repro.des.events import ACTOR_CLASSES, Initialize, Process
from repro.rocc import SimulationConfig, simulate
from repro.rocc.config import Architecture, NetworkMode
from repro.rocc.cpu import ProcessorSharingCPU, RoundRobinCPU
from repro.rocc.metrics import Metrics
from repro.rocc.network import ContentionFreeNetwork, FIFONetwork
from repro.rocc.node import LoadActor, NodeContext
from repro.rocc.system import ParadynISSystem
from repro.variates.streams import StreamFactory
from repro.workload import ProcessType


def make_ctx(env, network=None, cpu=None):
    return NodeContext(
        env=env,
        node_id=0,
        cpu=cpu or RoundRobinCPU(env, quantum=10_000.0),
        network=network or ContentionFreeNetwork(env),
        metrics=Metrics(),
        config=SimulationConfig(),
        streams=StreamFactory(seed=1),
    )


class OneShot(LoadActor):
    """Issues one request at t = 0 and records when it completed."""

    __slots__ = ("resource", "amount", "done_at")

    def __init__(self, ctx, resource, amount, name="oneshot"):
        super().__init__(ctx, ProcessType.OTHER, name)
        self.resource = resource
        self.amount = amount
        self.done_at = None
        self.start(OneShot._request)

    def _request(self):
        if self.resource == "cpu":
            self.compute(self.amount, OneShot._done)
        else:
            self.transfer(self.amount, OneShot._done)

    def _done(self):
        self.done_at = self.env.now


@pytest.mark.parametrize("network_cls", [FIFONetwork, ContentionFreeNetwork])
@pytest.mark.parametrize("resource", ["cpu", "network"])
def test_zero_length_request_pops_once_and_charges_nothing(resource, network_cls):
    env = Environment()
    ctx = make_ctx(env, network=network_cls(env))
    actor = OneShot(ctx, resource, 0.0)
    with EventLog(env) as log:
        env.run(until=10.0)
    assert actor.done_at == 0.0
    # The URGENT kick, then exactly one zero-length completion entry.
    kinds = [e.kind for e in log.entries if e.name == "oneshot"]
    assert kinds == ["initialize", "event"]
    cpu, net = ctx.cpu, ctx.network
    assert cpu.busy_by_owner == {}
    assert cpu.utilization() == 0.0
    assert net.busy_by_owner == {}
    assert net.transfers == 0
    assert net.in_flight.time_average(env.now) == 0.0


@pytest.mark.parametrize("network_cls, transfer_kind", [
    (ContentionFreeNetwork, "transfer"), (FIFONetwork, "queuedtransfer")])
def test_actor_trace_kinds_name_what_the_entry_completes(network_cls,
                                                         transfer_kind):
    env = Environment()
    ctx = make_ctx(env, network=network_cls(env))
    OneShot(ctx, "cpu", 5.0, name="c")
    OneShot(ctx, "network", 5.0, name="n")
    with EventLog(env) as log:
        env.run(until=10.0)
    assert [e.kind for e in log.entries if e.name == "c"] == ["initialize", "cpudone"]
    assert [e.kind for e in log.entries if e.name == "n"] == ["initialize", transfer_kind]


def test_multi_slice_actor_request_round_robins():
    """A request longer than the quantum is sliced; the actor's final
    slice completes it, with CPU slices in between."""
    env = Environment()
    ctx = make_ctx(env, cpu=RoundRobinCPU(env, quantum=100.0))
    actor = OneShot(ctx, "cpu", 250.0)
    env.run(until=1_000.0)
    assert actor.done_at == pytest.approx(250.0)
    assert ctx.cpu.busy_time(ProcessType.OTHER) == pytest.approx(250.0)
    assert ctx.cpu.utilization(1_000.0) == pytest.approx(0.25)


def test_fifo_queued_actor_transfers_hand_the_server_on_in_order():
    env = Environment()
    net = FIFONetwork(env)
    ctx = make_ctx(env, network=net)
    actors = [OneShot(ctx, "network", 100.0, name=f"a{i}") for i in range(3)]
    env.run(until=1_000.0)
    assert [a.done_at for a in actors] == [100.0, 200.0, 300.0]
    assert net.busy_time(ProcessType.OTHER) == pytest.approx(300.0)
    assert net.transfers == 3
    assert not net._busy and net.queue_length == 0
    # One transfer in flight from t = 0 to t = 300.
    assert net.in_flight.time_average(600.0) == pytest.approx(0.5)


def test_actor_and_event_transfers_share_one_fifo_queue():
    env = Environment()
    net = FIFONetwork(env)
    ctx = make_ctx(env, network=net)
    first = net.transfer(30.0, ProcessType.APPLICATION)
    actor = OneShot(ctx, "network", 10.0)

    def late_sender(env):
        yield env.timeout(5.0)
        ev = net.transfer(20.0, ProcessType.APPLICATION)
        yield ev
        finished.append(env.now)

    finished = []
    env.process(late_sender(env))
    env.run(until=100.0)
    assert first.processed
    assert actor.done_at == pytest.approx(40.0)
    assert finished == [pytest.approx(60.0)]


@pytest.mark.parametrize("method", ["request", "release"])
def test_processor_sharing_cpu_refuses_round_robin_halves(method):
    env = Environment()
    cpu = ProcessorSharingCPU(env)
    with pytest.raises(TypeError, match="ProcessorSharingCPU"):
        getattr(cpu, method)(10.0, ProcessType.OTHER, None)


def test_processor_sharing_cpu_refuses_actor_requests():
    env = Environment()
    ctx = make_ctx(env, cpu=ProcessorSharingCPU(env))
    OneShot(ctx, "cpu", 10.0)
    with pytest.raises(TypeError, match="ProcessorSharingCPU"):
        env.run(until=100.0)


def test_64_node_now_build_has_processes_only_for_daemons_and_main():
    """The background load (application cycle and sampler, PVM daemon,
    other-process clocks) is built as actors: the only kernel processes
    are the Paradyn daemons' loops and the main Paradyn process."""
    cfg = SimulationConfig(architecture=Architecture.NOW, nodes=64,
                           network_mode=NetworkMode.CONTENTION_FREE)
    system = ParadynISSystem(cfg)
    entries = [entry[3] for entry in system.env.scheduler]
    processes = [e.callbacks[0].__self__ for e in entries
                 if isinstance(e, Initialize)]
    assert all(isinstance(p, Process) for p in processes)
    names = sorted(p.name for p in processes)
    assert names == sorted(["paradyn-main"]
                           + [f"node{i}/pd/collect" for i in range(64)])
    actors = [e for e in entries if type(e) in ACTOR_CLASSES]
    classes = {re.sub(r"^node\d+/", "", a.name) for a in actors}
    assert classes == {"app0/main", "app0/sampler", "pvmd", "other/cpu",
                       "other/network"}
    assert len(actors) == 5 * 64


def test_watchdog_names_the_application_actor():
    cfg = SimulationConfig(nodes=1, duration=1_000_000.0, max_events=40)
    with pytest.raises(SimulationStalled) as excinfo:
        simulate(cfg)
    assert "node0/app0/main" in excinfo.value.blocked
    assert "node0/app0/main" in str(excinfo.value)
