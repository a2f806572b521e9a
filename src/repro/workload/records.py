"""AIX-like trace records and trace files.

The paper's workload characterization is driven by traces from the
SP-2's AIX operating-system tracing facility: per-process records of
CPU and network occupancy.  This module defines the in-memory and
on-disk (CSV) representation of such traces as used by the synthetic
tracing facility (:mod:`repro.workload.tracing`) and the
characterization pipeline (:mod:`repro.workload.characterize`).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

__all__ = ["ProcessType", "ResourceKind", "TraceRecord", "TraceFile", "TracingConfig"]


class ProcessType(str, Enum):
    """The process classes distinguished in Table 1 of the paper."""

    APPLICATION = "application"
    PARADYN_DAEMON = "paradyn_daemon"
    PVM_DAEMON = "pvm_daemon"
    OTHER = "other"
    PARADYN_MAIN = "paradyn_main"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ResourceKind(str, Enum):
    """Resource classes of the ROCC model."""

    CPU = "cpu"
    NETWORK = "network"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TraceRecord:
    """One resource-occupancy interval observed by the tracing facility.

    Attributes
    ----------
    timestamp:
        Start of the occupancy interval, microseconds since trace start.
    node:
        SP-2 node index the record was captured on.
    pid:
        Process id within the node.
    process_type:
        Which Table-1 class the process belongs to.
    resource:
        CPU or network.
    duration:
        Length of the occupancy request, microseconds.
    """

    timestamp: float
    node: int
    pid: int
    process_type: ProcessType
    resource: ResourceKind
    duration: float

    def end(self) -> float:
        """Timestamp at which the occupancy interval ends."""
        return self.timestamp + self.duration


@dataclass
class TracingConfig:
    """Configuration of one synthetic tracing session.

    It lives beside the records, not in :mod:`repro.workload.tracing`,
    so that a characterization served from the cell cache can build its
    key without loading the trace synthesizer.
    """

    #: Virtual duration of the traced run, µs.
    duration: float = 10_000_000.0
    #: Node indices to trace (the paper traces one worker node plus the
    #: node hosting the main Paradyn process).
    nodes: int = 1
    #: Application processes per node.
    app_processes_per_node: int = 1
    #: Sampling period of the Paradyn IS, µs.
    sampling_period: float = 40_000.0
    #: Batch size (1 = CF policy).
    batch_size: int = 1
    #: Whether the traced node also runs the main Paradyn process.
    trace_main_process: bool = False
    #: Root seed.
    seed: int = 0


_CSV_HEADER = ["timestamp", "node", "pid", "process_type", "resource", "duration"]


@dataclass
class TraceFile:
    """An ordered collection of trace records with query helpers."""

    records: List[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        self.records.extend(records)

    def sort(self) -> None:
        """Sort records by timestamp (stable)."""
        self.records.sort(key=lambda r: r.timestamp)

    # -- queries ---------------------------------------------------------
    def filter(
        self,
        process_type: Optional[ProcessType] = None,
        resource: Optional[ResourceKind] = None,
        node: Optional[int] = None,
    ) -> "TraceFile":
        """Return a new trace restricted to the given keys."""
        out = [
            r
            for r in self.records
            if (process_type is None or r.process_type == process_type)
            and (resource is None or r.resource == resource)
            and (node is None or r.node == node)
        ]
        return TraceFile(out)

    def durations(
        self,
        process_type: Optional[ProcessType] = None,
        resource: Optional[ResourceKind] = None,
    ) -> List[float]:
        """Occupancy-request lengths matching the given keys."""
        return [
            r.duration
            for r in self.records
            if (process_type is None or r.process_type == process_type)
            and (resource is None or r.resource == resource)
        ]

    def window(self, start: float, end: float) -> "TraceFile":
        """Records whose occupancy interval intersects ``[start, end)``.

        Used to drop measurement warm-up/cool-down phases before
        characterization, as the paper's trace post-processing does.
        """
        if end <= start:
            raise ValueError("end must exceed start")
        return TraceFile(
            [r for r in self.records if r.timestamp < end and r.end() > start]
        )

    def busy_time(
        self,
        process_type: Optional[ProcessType] = None,
        resource: Optional[ResourceKind] = None,
        node: Optional[int] = None,
    ) -> float:
        """Total occupancy (sum of durations) matching the given keys."""
        return sum(
            r.duration
            for r in self.records
            if (process_type is None or r.process_type == process_type)
            and (resource is None or r.resource == resource)
            and (node is None or r.node == node)
        )

    def cpu_time_by_type(self) -> Dict[ProcessType, float]:
        """Total CPU occupancy per process class (seconds of CPU, in µs)."""
        out: Dict[ProcessType, float] = {}
        for r in self.records:
            if r.resource is ResourceKind.CPU:
                out[r.process_type] = out.get(r.process_type, 0.0) + r.duration
        return out

    def span(self) -> float:
        """Duration covered by the trace (first start to last end), µs."""
        if not self.records:
            return 0.0
        start = min(r.timestamp for r in self.records)
        end = max(r.end() for r in self.records)
        return end - start

    # -- serialization ----------------------------------------------------
    def to_csv(self, path: Union[str, Path, io.TextIOBase]) -> None:
        """Write records to a CSV file (AIX trace export substitute)."""
        close = False
        if isinstance(path, (str, Path)):
            handle: io.TextIOBase = open(path, "w", newline="")  # noqa: SIM115
            close = True
        else:
            handle = path
        try:
            writer = csv.writer(handle)
            writer.writerow(_CSV_HEADER)
            for r in self.records:
                writer.writerow(
                    [
                        repr(r.timestamp),
                        r.node,
                        r.pid,
                        r.process_type.value,
                        r.resource.value,
                        repr(r.duration),
                    ]
                )
        finally:
            if close:
                handle.close()

    @classmethod
    def from_csv(cls, path: Union[str, Path, io.TextIOBase]) -> "TraceFile":
        """Read a trace previously written with :meth:`to_csv`."""
        close = False
        if isinstance(path, (str, Path)):
            handle: io.TextIOBase = open(path, newline="")  # noqa: SIM115
            close = True
        else:
            handle = path
        try:
            reader = csv.reader(handle)
            header = next(reader)
            if header != _CSV_HEADER:
                raise ValueError(f"unexpected trace header: {header}")
            records = [
                TraceRecord(
                    timestamp=float(row[0]),
                    node=int(row[1]),
                    pid=int(row[2]),
                    process_type=ProcessType(row[3]),
                    resource=ResourceKind(row[4]),
                    duration=float(row[5]),
                )
                for row in reader
            ]
        finally:
            if close:
                handle.close()
        return cls(records)
