"""repro — reproduction of *Modeling, Evaluation, and Testing of
Paradyn Instrumentation System* (Waheed, Rover, Hollingsworth; SC 1996).

Package layout
--------------
``repro.des``
    From-scratch discrete-event simulation kernel (the substrate).
``repro.variates``
    Distributions, reproducible streams, MLE fitting, goodness-of-fit.
``repro.workload``
    AIX-like synthetic tracing, NAS benchmark profiles, the Table-1/2
    characterization pipeline, process state machines.
``repro.rocc``
    The Resource OCCupancy model of the Paradyn instrumentation system:
    NOW / SMP / MPP architectures, CF / BF policies, direct / tree
    forwarding — the paper's primary contribution.
``repro.analytical``
    Section-3 operational analysis, equations (1)–(16), plus exact MVA.
``repro.expdesign``
    2^k·r factorial designs and allocation of variation (the paper's
    "PCA") in exactly rounded pure Python; batch means and CIs.
``repro.special``
    The normal cdf/quantile and the 90 % t-quantile without scipy.
``repro.experiments``
    One registered runner per paper table/figure; ``python -m
    repro.experiments <id>`` regenerates any artifact.

Quick start::

    from repro.rocc import SimulationConfig, simulate

    cf = simulate(SimulationConfig(nodes=8, batch_size=1))
    bf = simulate(SimulationConfig(nodes=8, batch_size=32))
    print(1 - bf.pd_cpu_seconds_per_node / cf.pd_cpu_seconds_per_node)
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

# Subpackages load on first use: ``import repro`` imports none of them.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "des": None,
    "variates": None,
    "workload": None,
    "rocc": None,
    "analytical": None,
    "expdesign": None,
})
__all__.append("__version__")
