"""Textual rendering of reproduced tables and figures.

Every experiment runner returns an :class:`Artifact` — a
:class:`Table` (rows/columns, like the paper's Tables 1–8) or a
:class:`SeriesSet` (named curves over a shared x-axis, like the
figures) — that renders to aligned plain text.  Keeping artifacts as
data (not strings) lets tests assert on the numbers directly, and every
artifact also serializes to JSON (:func:`artifact_to_dict`,
:func:`save_artifact`) so external plotting tools can regenerate the
figures graphically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = [
    "Table",
    "SeriesSet",
    "Artifact",
    "ArtifactGroup",
    "fmt_value",
    "artifact_to_dict",
    "save_artifact",
    "engine_stats_note",
]


def fmt_value(v: Any, digits: int = 4) -> str:
    """Human formatting: floats get significant digits, rest str()."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if v != v:  # NaN
        return "-"
    if v == 0:
        return "0"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    magnitude = abs(v)
    if 1e-3 <= magnitude < 1e6:
        return f"{v:.{digits}g}"
    return f"{v:.{digits - 1}e}"


@dataclass
class Table:
    """A titled table with headers and typed rows."""

    title: str
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[Any]:
        """All values in the named column."""
        try:
            idx = self.headers.index(name)
        except ValueError:
            raise KeyError(name) from None
        return [row[idx] for row in self.rows]

    def format(self) -> str:
        cells = [[fmt_value(v) for v in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class SeriesSet:
    """Named y-series over a common x-axis (one paper figure panel)."""

    title: str
    x_label: str
    y_label: str
    x: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_series(self, name: str, values: Sequence[float]) -> None:
        values = list(values)
        if len(values) != len(self.x):
            raise ValueError(
                f"series {name!r} has {len(values)} points, x has {len(self.x)}"
            )
        self.series[name] = values

    def format(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        names = list(self.series)
        widths = [max(len(self.x_label), 10)] + [max(len(n), 10) for n in names]
        header = [self.x_label.ljust(widths[0])] + [
            n.ljust(w) for n, w in zip(names, widths[1:])
        ]
        lines.append(f"[y: {self.y_label}]")
        lines.append("  ".join(header))
        lines.append("  ".join("-" * w for w in widths))
        for i, xv in enumerate(self.x):
            row = [fmt_value(xv).rjust(widths[0])] + [
                fmt_value(self.series[n][i]).rjust(w)
                for n, w in zip(names, widths[1:])
            ]
            lines.append("  ".join(row))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class ArtifactGroup:
    """A multi-panel artifact (one paper figure with several plots)."""

    title: str
    parts: List[Union[Table, SeriesSet, "ArtifactGroup"]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, part: Union[Table, SeriesSet, "ArtifactGroup"]) -> None:
        self.parts.append(part)

    def find(self, title_fragment: str) -> Union[Table, SeriesSet, "ArtifactGroup"]:
        """First part whose title contains *title_fragment*."""
        for p in self.parts:
            if title_fragment in p.title:
                return p
        raise KeyError(title_fragment)

    def format(self) -> str:
        bar = "#" * max(8, len(self.title) + 4)
        lines = [bar, f"# {self.title}", bar, ""]
        for p in self.parts:
            lines.append(p.format())
            lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


Artifact = Union[Table, SeriesSet, ArtifactGroup]


def engine_stats_note(stats) -> str:
    """One-line provenance note for an artifact's ``notes`` list.

    *stats* is an :class:`~repro.experiments.engine.EngineStats` (or the
    delta of one run); duck-typed so reporting stays import-light.
    """
    return f"engine: {stats.summary()}"


def _json_safe(v: Any) -> Any:
    if isinstance(v, float) and (v != v or math.isinf(v)):
        return None
    if hasattr(v, "value") and not isinstance(v, (int, float)):  # enums
        return getattr(v, "value")
    return v


def artifact_to_dict(artifact: Artifact) -> Dict[str, Any]:
    """Lossless JSON-safe representation of any artifact."""
    if isinstance(artifact, Table):
        return {
            "type": "table",
            "title": artifact.title,
            "headers": list(artifact.headers),
            "rows": [[_json_safe(v) for v in row] for row in artifact.rows],
            "notes": list(artifact.notes),
        }
    if isinstance(artifact, SeriesSet):
        return {
            "type": "series",
            "title": artifact.title,
            "x_label": artifact.x_label,
            "y_label": artifact.y_label,
            "x": [_json_safe(v) for v in artifact.x],
            "series": {
                name: [_json_safe(v) for v in values]
                for name, values in artifact.series.items()
            },
            "notes": list(artifact.notes),
        }
    if isinstance(artifact, ArtifactGroup):
        return {
            "type": "group",
            "title": artifact.title,
            "parts": [artifact_to_dict(p) for p in artifact.parts],
            "notes": list(artifact.notes),
        }
    raise TypeError(f"not an artifact: {artifact!r}")


def save_artifact(artifact: Artifact, path: Union[str, Path]) -> Path:
    """Write an artifact as JSON (plus a .txt rendering alongside)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact_to_dict(artifact), indent=2))
    path.with_suffix(".txt").write_text(artifact.format() + "\n")
    return path
