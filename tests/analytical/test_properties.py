"""Hypothesis properties of the analytic layer (paper §3, eqs 1–16).

Three families of properties:

* physical bounds — below saturation every utilization is in [0, 1]
  and every residence time is finite and at least the service demand;
* monotonicity — lengthening the sampling period or enlarging the
  batch (paper demands: per-batch cost independent of b) can only
  lower load and latency;
* law agreement — the NOW/SMP/MPP model methods are definitionally
  the raw operational laws of :mod:`repro.analytical.operational`
  applied to the IS demands, so they must agree exactly, not merely
  approximately.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import (
    ISDemands,
    MPPAnalyticalModel,
    NOWAnalyticalModel,
    SMPAnalyticalModel,
    forced_flow_law,
    residence_time_open,
    utilization_law,
)

_SETTINGS = settings(max_examples=120, deadline=None)

# Plausible ranges around the paper's operating points (µs / counts).
periods = st.floats(min_value=1_000.0, max_value=1_000_000.0,
                    allow_nan=False, allow_infinity=False)
batches = st.integers(min_value=1, max_value=128)
now_nodes = st.integers(min_value=1, max_value=64)
mpp_nodes = st.sampled_from([2, 4, 8, 16, 64, 256, 1024])
smp_cpus = st.integers(min_value=1, max_value=64)
procs = st.integers(min_value=1, max_value=8)
demand_scale = st.floats(min_value=0.1, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


def _demands(scale: float) -> ISDemands:
    base = ISDemands.paper()
    return ISDemands(
        d_pd_cpu=base.d_pd_cpu * scale,
        d_pd_network=base.d_pd_network * scale,
        d_main_cpu=base.d_main_cpu * scale,
        d_pdm_cpu=base.d_pdm_cpu * scale,
    )


def _now(nodes, period, batch, m, scale=1.0) -> NOWAnalyticalModel:
    return NOWAnalyticalModel(
        nodes=nodes,
        sampling_period=period,
        batch_size=batch,
        app_processes_per_node=m,
        demands=_demands(scale),
    )


# ---------------------------------------------------------------- bounds


@_SETTINGS
@given(nodes=now_nodes, period=periods, batch=batches, m=procs,
       scale=demand_scale)
def test_now_utilizations_bounded_below_saturation(
    nodes, period, batch, m, scale
):
    model = _now(nodes, period, batch, m, scale)
    utils = [
        model.pd_cpu_utilization(),
        model.pd_network_utilization(),
        model.paradyn_cpu_utilization(),
    ]
    assert all(u >= 0.0 for u in utils)
    latency = model.monitoring_latency()
    if all(u < 1.0 for u in utils[:2]):
        assert all(u <= 1.0 for u in utils[:2])
        assert math.isfinite(latency)
        # Residence of an open queue never beats its own demand.
        assert latency >= (
            model.demands.d_pd_cpu + model.demands.d_pd_network
        ) - 1e-9
    else:
        assert latency == math.inf


@_SETTINGS
@given(cpus=smp_cpus, period=periods, batch=batches, m=procs,
       k=st.integers(min_value=1, max_value=4), scale=demand_scale)
def test_smp_utilizations_bounded_below_saturation(
    cpus, period, batch, m, k, scale
):
    model = SMPAnalyticalModel(
        nodes=cpus,
        sampling_period=period,
        batch_size=batch,
        app_processes=m,
        daemons=k,
        demands=_demands(scale),
    )
    utils = [
        model.pd_cpu_utilization(),
        model.paradyn_cpu_utilization(),
        model.bus_utilization(),
    ]
    assert all(u >= 0.0 for u in utils)
    # μ_IS is a convex combination of μ_Pd and μ_Paradyn (eq 9).
    lo, hi = min(utils[0], utils[1]), max(utils[0], utils[1])
    assert lo - 1e-12 <= model.is_cpu_utilization() <= hi + 1e-12
    if utils[0] < 1.0 and utils[2] < 1.0:
        assert math.isfinite(model.monitoring_latency())
    else:
        assert model.monitoring_latency() == math.inf


@_SETTINGS
@given(nodes=mpp_nodes, period=periods, batch=batches, m=procs,
       tree=st.booleans(), scale=demand_scale)
def test_mpp_utilizations_bounded_below_saturation(
    nodes, period, batch, m, tree, scale
):
    model = MPPAnalyticalModel(
        nodes=nodes,
        sampling_period=period,
        batch_size=batch,
        app_processes_per_node=m,
        tree=tree,
        demands=_demands(scale),
    )
    u_cpu = model.pd_cpu_utilization()
    u_net = model.pd_network_utilization()
    assert u_cpu >= 0.0 and u_net >= 0.0
    if u_cpu < 1.0 and u_net < 1.0:
        assert math.isfinite(model.monitoring_latency())
    else:
        assert model.monitoring_latency() == math.inf


# ----------------------------------------------------------- monotonicity


@_SETTINGS
@given(nodes=now_nodes, period=periods, batch=batches, m=procs,
       stretch=st.floats(min_value=1.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False))
def test_now_longer_period_never_increases_load(
    nodes, period, batch, m, stretch
):
    """Sampling rate 1/T drives every metric: slower sampling, less load."""
    fast = _now(nodes, period, batch, m)
    slow = _now(nodes, period * stretch, batch, m)
    assert slow.arrival_rate <= fast.arrival_rate
    assert slow.pd_cpu_utilization() <= fast.pd_cpu_utilization()
    assert slow.pd_network_utilization() <= fast.pd_network_utilization()
    assert slow.paradyn_cpu_utilization() <= fast.paradyn_cpu_utilization()
    assert slow.monitoring_latency() <= fast.monitoring_latency()
    assert slow.app_cpu_utilization() >= fast.app_cpu_utilization()


@_SETTINGS
@given(nodes=now_nodes, period=periods, batch=batches, m=procs,
       factor=st.integers(min_value=1, max_value=16))
def test_now_larger_batch_never_increases_load(
    nodes, period, batch, m, factor
):
    """Paper demands (Table 2) are per batch, so utilization ~ 1/b."""
    small = _now(nodes, period, batch, m)
    big = _now(nodes, period, batch * factor, m)
    assert big.pd_cpu_utilization() <= small.pd_cpu_utilization()
    assert big.pd_network_utilization() <= small.pd_network_utilization()
    assert big.paradyn_cpu_utilization() <= small.paradyn_cpu_utilization()
    assert big.monitoring_latency() <= small.monitoring_latency()
    # Exact 1/b scaling of the arrival rate (eq 1).
    assert math.isclose(
        big.arrival_rate * factor, small.arrival_rate, rel_tol=1e-12
    )


@_SETTINGS
@given(nodes=mpp_nodes, period=periods, batch=batches, m=procs)
def test_mpp_tree_adds_merge_work(nodes, period, batch, m):
    """Binary-tree forwarding adds μ from merge CPU at non-leaf daemons."""
    direct = MPPAnalyticalModel(
        nodes=nodes, sampling_period=period, batch_size=batch,
        app_processes_per_node=m, tree=False,
    )
    tree = MPPAnalyticalModel(
        nodes=nodes, sampling_period=period, batch_size=batch,
        app_processes_per_node=m, tree=True,
    )
    assert tree.pd_cpu_utilization() >= direct.pd_cpu_utilization() - 1e-12


# ---------------------------------------------------- operational laws


@_SETTINGS
@given(nodes=now_nodes, period=periods, batch=batches, m=procs,
       scale=demand_scale)
def test_now_agrees_with_raw_operational_laws(nodes, period, batch, m, scale):
    model = _now(nodes, period, batch, m, scale)
    lam = model.arrival_rate
    d = model.demands
    assert model.pd_cpu_utilization() == utilization_law(lam, d.d_pd_cpu)
    # Network sees forced flow from all n nodes (eq 3 = forced flow +
    # utilization law).
    net_rate = forced_flow_law(lam, nodes)
    assert model.pd_network_utilization() == utilization_law(
        net_rate, d.d_pd_network
    )
    assert model.paradyn_cpu_utilization() == utilization_law(
        net_rate, d.d_main_cpu
    )
    expected_r = residence_time_open(
        d.d_pd_cpu, model.pd_cpu_utilization()
    ) + residence_time_open(d.d_pd_network, model.pd_network_utilization())
    assert model.monitoring_latency() == expected_r


@_SETTINGS
@given(cpus=smp_cpus, period=periods, batch=batches, m=procs,
       k=st.integers(min_value=1, max_value=4))
def test_smp_agrees_with_raw_operational_laws(cpus, period, batch, m, k):
    model = SMPAnalyticalModel(
        nodes=cpus, sampling_period=period, batch_size=batch,
        app_processes=m, daemons=k,
    )
    lam = model.arrival_rate
    d = model.demands
    # (λ·D)/n vs λ·(D/n): equal up to float re-association only.
    assert math.isclose(
        model.pd_cpu_utilization(),
        utilization_law(lam, d.d_pd_cpu / cpus),
        rel_tol=1e-12,
    )
    assert model.bus_utilization() == utilization_law(lam, model.d_pd_bus)
    assert math.isclose(
        lam,
        forced_flow_law(1.0 / period / batch, m * k),
        rel_tol=1e-12,
    )


@_SETTINGS
@given(nodes=mpp_nodes, period=periods, batch=batches, m=procs)
def test_mpp_direct_is_now_on_contention_free_network(
    nodes, period, batch, m
):
    """Direct MPP forwarding reuses eqs (1)–(6) verbatim (§3.3)."""
    mpp = MPPAnalyticalModel(
        nodes=nodes, sampling_period=period, batch_size=batch,
        app_processes_per_node=m, tree=False,
    )
    now = _now(nodes, period, batch, m)
    assert mpp.arrival_rate == now.arrival_rate
    assert mpp.pd_cpu_utilization() == now.pd_cpu_utilization()
    assert mpp.pd_network_utilization() == now.pd_network_utilization()
    assert mpp.monitoring_latency() == now.monitoring_latency()

