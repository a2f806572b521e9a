"""The reproduction scorecard: claims × status, from the manifest.

``python -m repro.experiments summary`` prints which of the paper's
claims reproduce, with the experiment ids that regenerate the evidence
— the quickest way to audit the state of the reproduction without
running any simulation.
"""

from __future__ import annotations

from ..paper import CLAIMS, PAPER, Status
from .reporting import ArtifactGroup, Table

__all__ = ["summary"]


def summary(quick: bool = True) -> ArtifactGroup:
    """Tabulate the claim manifest (no simulation involved)."""
    group = ArtifactGroup(
        title=(
            f"Reproduction scorecard: {PAPER['title']} "
            f"({PAPER['venue']} {PAPER['year']})"
        )
    )
    table = Table(
        title="claims",
        headers=["claim", "source", "status", "experiments", "note"],
    )
    for claim in CLAIMS:
        table.add_row(
            claim.id,
            claim.source,
            claim.status.value,
            " ".join(claim.experiments),
            claim.note or "-",
        )
    group.add(table)

    counts = Table(title="status counts", headers=["status", "claims"])
    for status in Status:
        n = sum(1 for c in CLAIMS if c.status is status)
        counts.add_row(status.value, n)
    counts.add_row("total", len(CLAIMS))
    group.add(counts)
    group.notes.append(
        "run any experiment id above with `python -m repro.experiments <id>`"
    )
    return group
