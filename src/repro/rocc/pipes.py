"""Finite-capacity Unix-pipe model between applications and daemons.

In Paradyn, instrumentation samples travel from the application process
to the local daemon through Unix pipes; when a pipe fills up the
*writing application blocks* until the daemon drains it — the mechanism
behind the small-sampling-period anomaly of §4.3.3.  :class:`SamplePipe`
models a daemon's pipe set as one finite FIFO buffer whose capacity
scales with the number of writers (a documented approximation of
per-writer pipes; see DESIGN.md §5.4), and records how long writers
spent blocked.
"""

from __future__ import annotations

from typing import List

from ..des.core import Environment
from ..des.events import Event
from ..des.monitor import TimeWeighted
from ..des.stores import Store, StoreGet
from .requests import Sample

__all__ = ["SamplePipe"]


class SamplePipe:
    """Bounded FIFO of :class:`Sample` objects with blocked-time stats."""

    def __init__(
        self,
        env: Environment,
        per_writer_capacity: int = 128,
        writers: int = 1,
        name: str = "pipe",
    ):
        if per_writer_capacity < 1:
            raise ValueError("per_writer_capacity must be >= 1")
        if writers < 1:
            raise ValueError("writers must be >= 1")
        self.env = env
        self.name = name
        self.capacity = per_writer_capacity * writers
        self._store = Store(env, capacity=self.capacity)
        #: Total time writers spent blocked on a full pipe, µs.
        self.blocked_time = 0.0
        #: Number of puts that had to block.
        self.blocked_puts = 0
        #: Time-weighted occupancy of the pipe.
        self.occupancy = TimeWeighted(f"{name}.occupancy", start_time=env.now)
        # Start times of in-flight blocked puts; the store resolves put
        # waiters FIFO, so pop(0) pairs each wait with its own start.
        # At most one per writer, so a list (56 B empty, a deque 760 B).
        self._blocked_since: List[float] = []
        # Bound once: blocked puts/gets are the hot path of §4.3.3 runs
        # and must not allocate a closure per blocked operation.
        self._charge_cb = self._charge_block
        self._occupancy_cb = self._update_occupancy

    def __len__(self) -> int:
        return len(self._store.items)

    @property
    def is_full(self) -> bool:
        return len(self._store.items) >= self.capacity

    def put(self, sample: Sample) -> Event:
        """Write a sample; the event fires once the pipe accepts it.

        Blocked-time accounting happens transparently: if the pipe is
        full the put is tracked and the wait charged when it resolves.
        """
        started = self.env.now
        event = self._store.put(sample)
        if not event.triggered:
            self.blocked_puts += 1
            self._blocked_since.append(started)
            event.callbacks.append(self._charge_cb)
        else:
            self.occupancy.update(len(self._store.items), self.env.now)
        return event

    def _charge_block(self, _event: Event) -> None:
        self.blocked_time += self.env.now - self._blocked_since.pop(0)
        self.occupancy.update(len(self._store.items), self.env.now)

    def _update_occupancy(self, _event: Event) -> None:
        self.occupancy.update(len(self._store.items), self.env.now)

    def get(self) -> StoreGet:
        """Read the next sample (daemon side); blocks while empty."""
        event = self._store.get()
        if event.triggered:
            self.occupancy.update(len(self._store.items), self.env.now)
        else:
            event.callbacks.append(self._occupancy_cb)
        return event
