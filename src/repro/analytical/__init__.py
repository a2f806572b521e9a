"""``repro.analytical`` — the paper's Section 3 operational analysis.

Implements equations (1)–(16): arrival-rate definitions, utilization /
forced-flow / Little's laws, per-architecture models (NOW, SMP, MPP
with direct or binary-tree forwarding).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "utilization_law": "operational",
    "forced_flow_law": "operational",
    "littles_law_population": "operational",
    "littles_law_response": "operational",
    "residence_time_open": "operational",
    "ISDemands": "operational",
    "NOWAnalyticalModel": "now",
    "SMPAnalyticalModel": "smp",
    "MPPAnalyticalModel": "mpp",
})
