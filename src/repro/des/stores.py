"""Buffered object exchange between processes: :class:`Store`.

A :class:`Store` holds up to ``capacity`` items.  ``put(item)`` returns an
event that fires once the item is accepted (immediately if there is
room, otherwise when space frees up — this is how the ROCC model's
finite Unix pipe blocks a writing application process).  ``get()``
returns an event that fires with the next item.  Both sides are served
strictly FIFO, and a pending put or get is never withdrawn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["StorePut", "StoreGet", "Store"]


class StorePut(Event):
    """Event that fires once the store has accepted ``item``."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.store = store
        self.item = item
        store._put_waiters.append(self)
        store._trigger()


class StoreGet(Event):
    """Event that fires with the retrieved item as its value."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store
        store._get_waiters.append(self)
        store._trigger()


class Store:
    """FIFO buffer of Python objects with finite or infinite capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    @property
    def capacity(self) -> float:
        """Maximum number of items the store holds."""
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Offer *item* to the store; the returned event fires on accept.

        A put that can proceed immediately returns an *already-processed*
        event (``callbacks is None``): the caller — an actor, or a test's
        ``when()`` — continues synchronously instead of taking a trip
        through the kernel schedule, and a parked getter (if any) is
        handed the item directly.  Semantics are unchanged — acceptance
        still happens at the current simulation time — but a producer
        looping on nothing but non-blocking puts never hands control
        back to the kernel, so interleave real work (as every model
        here does).
        """
        if len(self.items) < self._capacity and not self._put_waiters:
            getters = self._get_waiters
            if getters:
                # Hand straight to the oldest waiting getter (FIFO): the
                # item would be popped again at this same instant anyway.
                getters.pop(0).succeed(item)
            else:
                self.items.append(item)
            ev = StorePut.__new__(StorePut)
            ev.env = self.env
            ev.callbacks = None  # already processed
            ev._value = None
            ev._ok = True
            ev._defused = False
            ev.store = self
            ev.item = item
            return ev
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request the next item; the event's value is the item.

        Like :meth:`put`, a get that finds an item returns an
        already-processed event carrying it, and the caller (say
        :meth:`~repro.rocc.node.LoadActor.get`) continues at once.
        """
        items = self.items
        if items and not self._get_waiters:
            ev = StoreGet.__new__(StoreGet)
            ev.env = self.env
            ev.callbacks = None  # already processed
            ev._value = items.pop(0)
            ev._ok = True
            ev._defused = False
            ev.store = self
            if self._put_waiters:
                self._trigger()  # space freed: admit a blocked put
            return ev
        return StoreGet(self)

    # -- internals ------------------------------------------------------
    def _trigger(self) -> None:
        """Admit pending puts and serve pending gets, oldest first, until
        neither side can proceed."""
        items = self.items
        puts = self._put_waiters
        gets = self._get_waiters
        while True:
            progressed = False
            while puts and len(items) < self._capacity:
                event = puts.pop(0)
                items.append(event.item)
                event.succeed()
                progressed = True
            while gets and items:
                gets.pop(0).succeed(items.pop(0))
                progressed = True
            if not progressed:
                return
