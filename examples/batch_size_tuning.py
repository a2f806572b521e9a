#!/usr/bin/env python3
"""What should the batch size be? (§4.2.4, Figures 10 and 19)

Sweeps the BF batch size on an 8-node system and prints the overhead /
latency trade-off next to the operational-analysis prediction, locating
the "knee" the paper recommends operating at: overhead falls
super-linearly just past batch 1 and then flattens, while total
monitoring latency keeps growing linearly with the batch size.

Run:
    python examples/batch_size_tuning.py
"""

import os

# Smoke tests set REPRO_EXAMPLE_QUICK=1 to shrink the simulated time so
# every example finishes in well under a second.
QUICK = os.environ.get("REPRO_EXAMPLE_QUICK", "").strip().lower() in (
    "1", "on", "true", "yes",
)

from repro.analytical import NOWAnalyticalModel
from repro.rocc import NetworkMode, SimulationConfig, simulate


def main() -> None:
    batches = [1, 2, 4] if QUICK else [1, 2, 4, 8, 16, 32, 64]
    base = SimulationConfig(
        nodes=8,
        sampling_period=20_000.0,
        duration=(1_000_000.0 if QUICK else 6_000_000.0),
        network_mode=NetworkMode.CONTENTION_FREE,
        seed=12,
    )

    print("Batch-size tuning (8 nodes, T = 20 ms)")
    print()
    print(f"{'batch':>6s} {'Pd CPU %':>9s} {'analytic %':>11s} "
          f"{'fwd lat (ms)':>13s} {'total lat (ms)':>15s}")
    for b in batches:
        r = simulate(base.with_(batch_size=b))
        a = NOWAnalyticalModel(nodes=8, sampling_period=20_000.0, batch_size=b)
        print(
            f"{b:6d} {100 * r.pd_cpu_utilization_per_node:9.4f} "
            f"{100 * a.pd_cpu_utilization():11.4f} "
            f"{r.monitoring_latency_forwarding_ms:13.2f} "
            f"{r.monitoring_latency_total_ms:15.1f}"
        )
    print()
    print("Past the knee, a larger batch buys little CPU but costs "
          "latency linearly (total latency ≈ batch × period / 2) — the "
          "paper recommends a batch size near the knee (§4.2.4).")


if __name__ == "__main__":
    main()
