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

from typing import List, Optional

from ..des.core import Environment
from ..des.events import Event
from ..des.monitor import TimeWeighted
from ..des.stores import Store, StoreGet, StorePut
from .requests import Sample

__all__ = ["SamplePipe"]


class _GatedGet(Event):
    """A pipe read deferred until the stall gate opens.

    Once the gate fires, a real store get is issued and its outcome
    chained into this event.  ``cancel()`` (used when a crashing daemon
    abandons a pending read) withdraws either stage so no sample can be
    consumed by a dead reader.
    """

    __slots__ = ("_pipe", "_inner", "_cancelled")

    def __init__(self, pipe: "SamplePipe"):
        super().__init__(pipe.env)
        self._pipe = pipe
        self._inner: Optional[StoreGet] = None
        self._cancelled = False
        pipe._stall_gate.callbacks.append(self._gate_open)

    def _gate_open(self, _event: Event) -> None:
        if self._cancelled:
            return
        pipe = self._pipe
        inner = pipe._store.get()
        self._inner = inner
        if inner.triggered:
            pipe.occupancy.update(len(pipe._store.items), pipe.env.now)
            self.trigger(inner)
        else:
            inner.callbacks.append(self._inner_done)

    def _inner_done(self, event: Event) -> None:
        pipe = self._pipe
        pipe.occupancy.update(len(pipe._store.items), pipe.env.now)
        self.trigger(event)

    def cancel(self) -> None:
        self._cancelled = True
        if self._inner is not None and not self._inner.triggered:
            self._inner.cancel()


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
        #: Stall-fault state (repro.faults): while the gate event exists
        #: and has not fired, reads return nothing.
        self._stall_gate: Optional[Event] = None
        self._stall_until = 0.0
        #: Number of stall windows injected and their total span, µs.
        self.stalls = 0
        self.stalled_time = 0.0
        # Start times of in-flight blocked puts; the store resolves put
        # waiters FIFO, so pop(0) pairs each wait with its own start.
        # At most one per writer, so a list (56 B empty, a deque 760 B).
        self._blocked_since: List[float] = []
        # Bound once: blocked puts/gets are the hot path of §4.3.3 runs
        # and must not allocate a closure per blocked operation.
        self._charge_cb = self._charge_block
        self._occupancy_cb = self._update_occupancy

    def __len__(self) -> int:
        # A stalled pipe looks empty to its reader: the daemon's burst
        # drain must not observe items it cannot yet fetch.
        if self.is_stalled:
            return 0
        return len(self._store.items)

    @property
    def is_stalled(self) -> bool:
        """Whether a stall window is currently open."""
        return self._stall_gate is not None and not self._stall_gate.triggered

    def stall(self, duration: float) -> None:
        """Open (or extend) a stall window of *duration* µs from now.

        Writers are unaffected until the buffer fills; reads issued
        during the window resolve only after it closes.
        """
        if duration <= 0:
            raise ValueError("stall duration must be positive")
        until = self.env.now + duration
        if self.is_stalled:
            self._stall_until = max(self._stall_until, until)
            return
        self._stall_until = until
        self._stall_gate = Event(self.env)
        self.stalls += 1
        self.env.process(self._stall_clock(), name=f"{self.name}/stall")

    def _stall_clock(self):
        started = self.env.now
        while self.env.now < self._stall_until:
            yield self.env.hold(self._stall_until - self.env.now)
        self.stalled_time += self.env.now - started
        gate, self._stall_gate = self._stall_gate, None
        gate.succeed()

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

    def get(self) -> "StoreGet | _GatedGet":
        """Read the next sample (daemon side); blocks while empty.

        During an injected stall window the read is gated: it resolves
        (against the then-current buffer) only after the stall ends.
        """
        if self.is_stalled:
            return _GatedGet(self)
        event = self._store.get()
        if event.triggered:
            self.occupancy.update(len(self._store.items), self.env.now)
        else:
            event.callbacks.append(self._occupancy_cb)
        return event
