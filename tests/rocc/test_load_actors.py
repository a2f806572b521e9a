"""Every ROCC process as direct kernel events (``rocc.node.LoadActor``)
and the CPU's and networks' request/release halves it drives."""

import re
from collections import Counter

import pytest

from repro.des import Environment, EventLog, SimulationStalled
from repro.des.events import Actor
from repro.rocc import SimulationConfig, simulate
from repro.rocc.adaptive import RegulatorConfig
from repro.rocc.config import Architecture, ForwardingTopology, NetworkMode
from repro.rocc.cpu import RoundRobinCPU
from repro.rocc.network import ContentionFreeNetwork, FIFONetwork
from repro.rocc.node import LoadActor
from repro.rocc.system import ParadynISSystem
from repro.variates.distributions import Deterministic
from repro.workload import ProcessType

from .actors import Job, make_ctx


def one_shot(ctx, resource, amount, name="oneshot"):
    """An actor that issues one request at t = 0 (see ``Job.done``)."""
    return Job(ctx, [(resource, amount)], owner=ProcessType.OTHER, name=name)


def test_sleep_negative_delay_rejected():
    env = Environment()
    actor = one_shot(make_ctx(env), "cpu", 1.0)
    with pytest.raises(ValueError, match="negative delay"):
        actor.sleep(-1.0, Job._completed)


@pytest.mark.parametrize("network_cls", [FIFONetwork, ContentionFreeNetwork])
@pytest.mark.parametrize("resource", ["cpu", "network"])
def test_zero_length_request_pops_once_and_charges_nothing(resource, network_cls):
    env = Environment()
    ctx = make_ctx(env, network=network_cls(env))
    cpu, net = ctx.cpu, ctx.network
    levels = []
    cpu.on_change = net.on_change = lambda t, value: levels.append(value)
    actor = one_shot(ctx, resource, 0.0)
    with EventLog(env) as log:
        env.run(until=10.0)
    assert actor.done == [0.0]
    # The URGENT kick, then exactly one zero-length completion entry.
    kinds = [e.kind for e in log.entries if e.name == "oneshot"]
    assert kinds == ["initialize", "event"]
    # Neither resource got busy.
    assert levels == []
    assert cpu.busy_by_owner == {}
    assert net.busy_by_owner == {}
    assert net.transfers == 0


def _zero_load_ctx(env, **workload):
    """A node context whose workload draws the given Deterministic
    values (µs)."""
    from dataclasses import replace

    ctx = make_ctx(env, network=FIFONetwork(env))
    params = {k: Deterministic(v) for k, v in workload.items()}
    ctx.config = SimulationConfig(
        workload=replace(ctx.config.workload, **params))
    return ctx


@pytest.mark.parametrize("build, workload, expected", [
    # PVM daemon: sleep, then a zero CPU and a zero network request.
    ("pvmd", dict(pvmd_interarrival=100.0, pvmd_cpu=0.0, pvmd_network=0.0),
     ["initialize"] + ["timeout", "event", "event"] * 3),
    # Other processes' CPU and network clocks, each a sleep and a zero
    # request.
    ("other", dict(other_cpu_interarrival=100.0, other_cpu=0.0,
                   other_network_interarrival=100.0, other_network=0.0),
     ["initialize"] + ["timeout", "event"] * 3),
    # The application: a zero burst, then a transfer; then a burst and
    # a zero transfer.
    ("app", dict(app_cpu=0.0, app_network=100.0),
     ["initialize"] + ["event", "queuedtransfer"] * 3 + ["event"]),
    ("app", dict(app_cpu=100.0, app_network=0.0),
     ["initialize"] + ["cpudone", "event"] * 3),
])
def test_background_zero_length_requests_keep_each_loop_going(
        build, workload, expected):
    """The background load's state machines take a zero-length request
    like any actor: one ``event`` entry at the current time, nothing
    charged, and the loop carries on where the request would have."""
    from repro.rocc.application import ApplicationProcess
    from repro.rocc.other import OtherProcesses, PVMDaemon

    env = Environment()
    ctx = _zero_load_ctx(env, **workload)
    if build == "pvmd":
        PVMDaemon(ctx)
    elif build == "other":
        OtherProcesses(ctx)
    else:
        ApplicationProcess(ctx, 0, pipe=None)
    with EventLog(env) as log:
        env.run(until=350.0)
    for name in {e.name for e in log.entries} - {None}:
        assert [e.kind for e in log.entries if e.name == name] == expected
    charged = 100.0 * 3
    if build == "app" and workload["app_cpu"]:
        assert ctx.cpu.busy_by_owner == {ProcessType.APPLICATION: charged}
        assert ctx.network.busy_by_owner == {}
    elif build == "app":
        assert ctx.cpu.busy_by_owner == {}
        assert ctx.network.busy_by_owner == {ProcessType.APPLICATION: charged}
    else:
        assert ctx.cpu.busy_by_owner == {} and ctx.network.transfers == 0
    if build == "app":
        assert ctx.metrics.app_cycles == 3


@pytest.mark.parametrize("network_cls, transfer_kind", [
    (ContentionFreeNetwork, "transfer"), (FIFONetwork, "queuedtransfer")])
def test_actor_trace_kinds_name_what_the_entry_completes(network_cls,
                                                         transfer_kind):
    env = Environment()
    ctx = make_ctx(env, network=network_cls(env))
    one_shot(ctx, "cpu", 5.0, name="c")
    one_shot(ctx, "network", 5.0, name="n")
    with EventLog(env) as log:
        env.run(until=10.0)
    assert [e.kind for e in log.entries if e.name == "c"] == ["initialize", "cpudone"]
    assert [e.kind for e in log.entries if e.name == "n"] == ["initialize", transfer_kind]


def test_multi_slice_actor_request_round_robins():
    """A request longer than the quantum is sliced; the actor's final
    slice completes it, with CPU slices in between."""
    env = Environment()
    ctx = make_ctx(env, cpu=RoundRobinCPU(env, quantum=100.0))
    levels = []
    ctx.cpu.on_change = lambda t, value: levels.append((t, value))
    actor = one_shot(ctx, "cpu", 250.0)
    env.run(until=1_000.0)
    assert actor.done == [pytest.approx(250.0)]
    assert ctx.cpu.busy_time(ProcessType.OTHER) == pytest.approx(250.0)
    # The intermediate slices hand the processor back to the actor
    # without the level dipping.
    assert levels == [(0.0, 1.0), (pytest.approx(250.0), 0.0)]


def test_fifo_queued_actor_transfers_hand_the_server_on_in_order():
    env = Environment()
    net = FIFONetwork(env)
    levels = []
    net.on_change = lambda t, value: levels.append((t, value))
    ctx = make_ctx(env, network=net)
    actors = [one_shot(ctx, "network", 100.0, name=f"a{i}") for i in range(3)]
    env.run(until=1_000.0)
    assert [a.done for a in actors] == [[100.0], [200.0], [300.0]]
    assert net.busy_time(ProcessType.OTHER) == pytest.approx(300.0)
    assert net.transfers == 3
    assert not net._busy and net.queue_length == 0
    # One transfer in flight from t = 0 to t = 300.
    assert levels == [(0.0, 1.0), (300.0, 0.0)]


def test_actor_and_event_transfers_share_one_fifo_queue():
    env = Environment()
    net = FIFONetwork(env)
    ctx = make_ctx(env, network=net)
    first = net.transfer(30.0, ProcessType.APPLICATION)
    actor = one_shot(ctx, "network", 10.0)
    finished = []

    def late_send(_timeout):
        net.transfer(20.0, ProcessType.APPLICATION).callbacks.append(
            lambda _ev: finished.append(env.now))

    env.timeout(5.0).callbacks.append(late_send)
    env.run(until=100.0)
    assert first.processed
    assert actor.done == [pytest.approx(40.0)]
    assert finished == [pytest.approx(60.0)]


#: Builds whose schedules hold every kind of model loop: the background
#: load, collect loops and the main process (NOW, 64 nodes), merge and
#: flush loops (MPP tree with a flush timer), and the regulator plus
#: the warmup gate (adaptive NOW with a warmup).
BUILDS = {
    "now64": SimulationConfig(
        architecture=Architecture.NOW, nodes=64,
        network_mode=NetworkMode.CONTENTION_FREE),
    "mpp_tree_flush": SimulationConfig(
        architecture=Architecture.MPP, nodes=8, batch_size=4,
        forwarding=ForwardingTopology.TREE, batch_flush_timeout=30_000.0),
    "now_regulated_warmup": SimulationConfig(
        architecture=Architecture.NOW, nodes=4, warmup=100_000.0,
        adaptive=RegulatorConfig(budget=0.01, control_interval=50_000.0)),
}

#: Actors of one node of each build, by name without the ``nodeN/``
#: prefix, and those outside any node.
LOAD = {"app0/main": 1, "app0/sampler": 1, "pvmd": 1, "other/cpu": 1,
        "other/network": 1, "pd/collect": 1}
EXPECTED = {
    "now64": ({**LOAD}, 64),
    # Nodes 0-3 of an 8-node binary tree have children.
    "mpp_tree_flush": ({**LOAD, "pd/flush": 1, "pd/merge": 0.5}, 8),
    "now_regulated_warmup": ({**LOAD, "regulator": 1}, 4),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_every_schedule_entry_after_build_is_an_actor(build):
    """Every model loop is built as an actor: after building, the
    schedule holds one actor per loop (its start kick) and, with a
    warmup, the URGENT gate event whose callback resets the counters."""
    cfg = BUILDS[build]
    system = ParadynISSystem(cfg)
    entries = [entry[3] for entry in system.env.scheduler]
    others = [e for e in entries if not isinstance(e, Actor)]
    if cfg.warmup:
        (gate,) = others
        assert gate.callbacks == [system._warmup_reset]
    else:
        assert others == []
    actors = [e for e in entries if isinstance(e, Actor)]
    assert all(isinstance(a, LoadActor) and a.kind == "initialize"
               for a in actors)
    per_node, nodes = EXPECTED[build]
    expected = Counter({name: int(count * nodes)
                        for name, count in per_node.items()})
    expected["paradyn-main"] = 1
    assert Counter(re.sub(r"^node\d+/", "", a.name) for a in actors) == expected


def test_watchdog_names_the_application_actor():
    cfg = SimulationConfig(nodes=1, duration=1_000_000.0, max_events=40)
    with pytest.raises(SimulationStalled) as excinfo:
        simulate(cfg)
    assert "node0/app0/main" in excinfo.value.blocked
    assert "node0/app0/main" in str(excinfo.value)
