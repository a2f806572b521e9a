"""Data objects flowing through the ROCC model of the Paradyn IS.

A :class:`Sample` is one performance-data sample collected from an
instrumented application process.  A :class:`Batch` is what a Paradyn
daemon forwards: one sample under the CF policy, up to ``batch_size``
samples under BF, possibly merged with en-route samples under binary-
tree forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["Sample", "Batch"]


@dataclass(slots=True)
class Sample:
    """One instrumentation-data sample.

    ``created_at`` is stamped when the sampling timer fires in the
    application process; monitoring latency is measured from this time
    to receipt at the main Paradyn process (the paper's definition,
    citing Gu et al.).
    """

    created_at: float
    node: int
    pid: int
    #: Number of hops the sample took through tree daemons (0 = direct).
    hops: int = 0


@dataclass
class Batch:
    """A set of samples travelling as one forwarding unit."""

    samples: List[Sample] = field(default_factory=list)
    #: Node of the daemon that sent this batch (for tree routing).
    origin: int = -1
    #: Time the batch left its daemon.
    sent_at: float = 0.0

    def __len__(self) -> int:
        return len(self.samples)

    def merge(self, other: "Batch") -> None:
        """Absorb *other*'s samples (binary-tree merge step)."""
        for s in other.samples:
            s.hops += 1
        self.samples.extend(other.samples)
