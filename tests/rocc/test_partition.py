"""Topology partitioner: LP assignment, lookahead, eligibility."""

from dataclasses import replace
from math import inf

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rocc import Architecture, ForwardingTopology, SimulationConfig
from repro.rocc.config import NetworkMode
from repro.rocc.partition import (
    MAIN_NODE,
    lp_workers_from_env,
    parallel_ineligibility,
    partition_topology,
)
from repro.variates.distributions import Deterministic, Exponential, Uniform

PARAMS = st.fixed_dictionaries({
    "nodes": st.integers(min_value=1, max_value=300),
    "k": st.integers(min_value=1, max_value=12),
    "tree": st.booleans(),
    "net_min": st.sampled_from([None, 5.0, 71.0]),
})


def _config(nodes, tree, net_min):
    cfg = SimulationConfig(
        architecture=Architecture.MPP,
        nodes=nodes,
        duration=100_000.0,
        forwarding=(
            ForwardingTopology.TREE
            if tree and nodes > 1
            else ForwardingTopology.DIRECT
        ),
    )
    if net_min is not None:
        wl = replace(cfg.workload, pd_network=Uniform(net_min, net_min * 3))
        cfg = cfg.with_(workload=wl)
    return cfg


@given(PARAMS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_partition_invariants(params):
    cfg = _config(params["nodes"], params["tree"], params["net_min"])
    plan = partition_topology(cfg, params["k"])

    # Every node lives in exactly one LP; ranges tile [0, nodes).
    assert plan.lp_count == min(params["k"], cfg.nodes)
    covered = []
    for lo, hi in plan.ranges:
        assert lo < hi, "no LP may be empty"
        covered.extend(range(lo, hi))
    assert covered == list(range(cfg.nodes))
    for node in range(cfg.nodes):
        lp = plan.lp_of(node)
        lo, hi = plan.ranges[lp]
        assert lo <= node < hi
    assert plan.lp_of(MAIN_NODE) == plan.main_lp == plan.lp_count

    # Balanced: range sizes differ by at most one.
    sizes = [hi - lo for lo, hi in plan.ranges]
    assert max(sizes) - min(sizes) <= 1

    # Cut edges: endpoints in different LPs, conservative lookahead.
    expected_la = max(0.0, cfg.workload.pd_network.support_min)
    for e in plan.cut_edges:
        assert plan.lp_of(e.src_node) == e.src_lp
        assert plan.lp_of(e.dst_node) == e.dst_lp
        assert e.src_lp != e.dst_lp
        assert e.lookahead == expected_la
        # Acyclic LP graph: every cut edge points to a lower-indexed
        # LP (tree parents) or to the main LP.
        assert e.dst_lp < e.src_lp or e.dst_lp == plan.main_lp
    if params["net_min"] is not None:
        assert plan.min_lookahead == params["net_min"] > 0.0

    # Flat forwarding: every daemon uplink crosses into the main LP.
    if cfg.forwarding is ForwardingTopology.DIRECT:
        assert len(plan.cut_edges) == cfg.nodes
        assert {e.src_lp for e in plan.cut_edges} == set(range(plan.lp_count))
        la_map = plan.lookahead_into(plan.main_lp)
        assert set(la_map) == set(range(plan.lp_count))
        assert all(v == expected_la for v in la_map.values())


def test_single_lp_keeps_only_main_edges():
    cfg = _config(nodes=7, tree=False, net_min=None)
    plan = partition_topology(cfg, 1)
    assert plan.lp_count == 1
    assert plan.ranges == ((0, 7),)
    # K=1 degenerates: no node-LP-to-node-LP edges exist, only uplinks
    # into the main LP.
    assert all(e.dst_lp == plan.main_lp for e in plan.cut_edges)


def test_zero_lookahead_for_exponential_network():
    cfg = SimulationConfig(architecture=Architecture.MPP, nodes=4,
                           duration=1_000.0)
    assert isinstance(cfg.workload.pd_network, Exponential)
    plan = partition_topology(cfg, 2)
    assert plan.min_lookahead == 0.0


def test_deterministic_lookahead():
    cfg = _config(nodes=4, tree=False, net_min=None)
    wl = replace(cfg.workload, pd_network=Deterministic(42.0))
    plan = partition_topology(cfg.with_(workload=wl), 2)
    assert plan.min_lookahead == 42.0


def test_no_cut_edges_gives_infinite_lookahead():
    plan = partition_topology(_config(1, False, None), 1)
    # A single node still has its main uplink; strip it to model an
    # edgeless plan.
    empty = replace(plan, cut_edges=())
    assert empty.min_lookahead == inf


def test_k_must_be_positive():
    cfg = _config(nodes=4, tree=False, net_min=None)
    with pytest.raises(ValueError):
        partition_topology(cfg, 0)


def test_lp_of_rejects_foreign_node():
    plan = partition_topology(_config(4, False, None), 2)
    with pytest.raises(ValueError):
        plan.lp_of(99)


# ---------------------------------------------------------------------------
# Eligibility gate
# ---------------------------------------------------------------------------


def test_eligibility_gate():
    base = SimulationConfig(architecture=Architecture.MPP, nodes=4,
                            duration=100_000.0)
    assert parallel_ineligibility(base) is None
    now_cf = SimulationConfig(architecture=Architecture.NOW, nodes=4,
                              network_mode=NetworkMode.CONTENTION_FREE,
                              duration=100_000.0)
    assert parallel_ineligibility(now_cf) is None

    cases = [
        SimulationConfig(architecture=Architecture.SMP, nodes=4,
                         duration=100_000.0),
        SimulationConfig(architecture=Architecture.NOW, nodes=4,
                         duration=100_000.0),  # shared Ethernet
        base.with_(forwarding=ForwardingTopology.TREE),
        base.with_(barrier_period=10_000.0),
    ]
    for cfg in cases:
        assert parallel_ineligibility(cfg) is not None, cfg


def test_lp_workers_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_DES_PARALLEL", raising=False)
    assert lp_workers_from_env() is None
    monkeypatch.setenv("REPRO_DES_PARALLEL", "")
    assert lp_workers_from_env() is None
    monkeypatch.setenv("REPRO_DES_PARALLEL", "1")
    assert lp_workers_from_env() is None
    monkeypatch.setenv("REPRO_DES_PARALLEL", "4")
    assert lp_workers_from_env() == 4
    monkeypatch.setenv("REPRO_DES_PARALLEL", "bogus")
    with pytest.raises(ValueError):
        lp_workers_from_env()
    # 0 and negative counts are garbage, not "sequential": reject them
    # the same way the CLIs reject --lp-workers 0.
    monkeypatch.setenv("REPRO_DES_PARALLEL", "0")
    with pytest.raises(ValueError, match=">= 1"):
        lp_workers_from_env()
    monkeypatch.setenv("REPRO_DES_PARALLEL", "-3")
    with pytest.raises(ValueError, match=">= 1"):
        lp_workers_from_env()
