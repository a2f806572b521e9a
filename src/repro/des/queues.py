"""The DES kernel's event scheduler: one policy, two phases.

The kernel orders scheduled events by ``(time, priority, sequence)``;
the sequence id is unique and monotone, so that triple is a *total*
order and any correct priority queue yields the exact same pop order.
That is why the scheduler can change its data structure mid-run without
changing a single simulation result (verified by
``differential.event_queue``).

Every :class:`~repro.des.core.Environment` runs on an
:class:`AutoScheduler`, which serves its schedule in two phases:

* a bare binary heap — a plain list the environment drives with
  ``heapq`` directly.  O(log n) per operation but C-implemented, with
  no Python frame per push or pop; the reference semantics and the test
  oracle.
* :class:`CalendarQueue` — Brown's calendar queue (CACM 1988) with lazy
  bucket sorting: pushes append to unsorted buckets in O(1); a bucket is
  sorted once, when its time window becomes current, into a *run* list
  served by index.  Pushes that land below the current horizon (every
  zero-delay ``succeed()``) are insorted into the short run.  Bucket
  count resizes with occupancy and the bucket width adapts to the
  observed inter-event gap, giving amortized O(1) enqueue/dequeue.

The environment's run loop promotes the heap, once, to a calendar queue
at the first event boundary where the schedule depth has reached
``_PROMOTE_AT``.  The promotion is a one-way latch, so oscillating
occupancy cannot thrash, and it provably preserves the pop order.

All per-operation bookkeeping is kept off the hot path: enqueues are
the count of sequence ids issued, dequeues are derived
(``enqueues − len``), and gap estimation happens once per window
activation, not per pop.
"""

from __future__ import annotations

from bisect import insort
from heapq import nsmallest
from itertools import count
from math import inf
from typing import Any, Iterator, List, Optional, Tuple

__all__ = [
    "CalendarQueue",
    "AutoScheduler",
]

#: A scheduled entry: ``(time, priority, sequence, event)``.
Entry = Tuple[float, int, int, Any]

#: Smallest bucket count the calendar queue shrinks back to.
_MIN_BUCKETS = 16
#: Bucket-count ceiling (a backstop, not a tuning knob).
_MAX_BUCKETS = 1 << 20
#: Target events per activated window; sets width = _SPREAD × mean gap.
#: Larger windows amortize the per-activation refill machinery over
#: more pops; below-horizon insorts stay cheap because runs this size
#: are a single cache-resident memmove.
_SPREAD = 32.0
#: Largest run served from one activation: bounds the memmove cost of
#: below-horizon insorts and keeps gap samples flowing even when a
#: mis-sized window holds thousands of events.
_MAX_RUN = 1024
#: Schedule depth at which an environment promotes its heap to a
#: calendar queue.  Below this, C-implemented ``heapq`` beats Python
#: bucket math (the near-empty regression BENCH_DES.json documents);
#: above it the calendar's amortized O(1) wins.  Read when an
#: :class:`AutoScheduler` is built, so ``differential.event_queue`` can
#: pin a heap-only (``inf``) or calendar-from-the-first-event (``1``)
#: run without a public switch.
_PROMOTE_AT = 512


class CalendarQueue:
    """Calendar queue with lazily sorted buckets.

    Invariant: every scheduled entry with time below ``_horizon`` (the
    end of the current bucket window) lives in ``_run[_run_idx:]``,
    which is sorted; everything else sits unsorted in its bucket (or in
    ``_overflow`` for infinite times).  Pushes below the horizon insort
    into the run — the simulation clock never reaches the horizon before
    the run drains, so order is preserved; pushes above it are an O(1)
    append.  ``_refill`` advances the window, sorting exactly one
    bucket's due entries at a time; it is also where occupancy resizing,
    width adaptation, and max-bucket tracking happen, so ``push``/``pop``
    stay a handful of bytecodes.
    """

    name = "calendar"

    __slots__ = (
        "_buckets", "_nbuckets", "_mask", "_width", "_inv_width",
        "_cur", "_horizon", "_run", "_run_idx", "_overflow",
        "_dequeued", "_last_first", "_last_deq", "_gap_ewma",
        "_width_check_after", "enqueues", "resizes", "max_bucket",
    )

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self._nbuckets = _MIN_BUCKETS
        self._mask = _MIN_BUCKETS - 1
        self._buckets: List[List[Entry]] = [[] for _ in range(_MIN_BUCKETS)]
        self._width = float(width)
        self._inv_width = 1.0 / self._width
        #: Virtual (unmasked) index of the last *activated* window.
        self._cur = -1
        #: End of the activated window: entries below it are in the run.
        self._horizon = 0.0
        self._run: List[Entry] = []
        self._run_idx = 0
        self._overflow: List[Entry] = []
        #: Pops completed before the current run (= enqueues − len − left
        #: in run); lets ``pop`` skip a per-op dequeue counter.
        self._dequeued = 0
        self._last_first = 0.0
        self._last_deq = 0
        self._gap_ewma = 0.0
        self._width_check_after = 0
        self.enqueues = 0
        self.resizes = 0
        self.max_bucket = 0

    def push(self, entry: Entry) -> None:
        self.enqueues += 1
        t = entry[0]
        if t < self._horizon:
            # Below the horizon (zero-delay schedules, same-window
            # events): keep the run sorted.  ``lo=_run_idx`` skips the
            # consumed prefix; nothing already popped can compare
            # greater, because the entry's sequence id is the largest
            # yet issued.
            insort(self._run, entry, self._run_idx)
        elif t != inf:
            # Window k is [k*width, (k+1)*width) in *float* arithmetic —
            # the same products the activation scan compares against.
            # ``int(t * inv_width)`` can land one window off at an edge
            # (e.g. t exactly on the current horizon flooring into the
            # window just served, which would shelve the entry for a
            # whole calendar lap); the guards re-align it.
            idx = int(t * self._inv_width)
            width = self._width
            while t >= (idx + 1) * width:
                idx += 1
            while t < idx * width:
                idx -= 1
            self._buckets[idx & self._mask].append(entry)
        elif self._horizon == inf:
            # The run is already serving infinite-time entries; a new
            # one must be merged by (priority, seq), not parked behind
            # them in the overflow list.
            insort(self._run, entry, self._run_idx)
        else:
            self._overflow.append(entry)

    def pop(self) -> Entry:
        idx = self._run_idx
        run = self._run
        if idx >= len(run):
            self._refill()  # IndexError when empty
            run = self._run
            idx = self._run_idx
        self._run_idx = idx + 1
        return run[idx]

    def peek_time(self) -> float:
        if self._run_idx < len(self._run):
            return self._run[self._run_idx][0]
        try:
            self._refill()
        except IndexError:
            return inf
        return self._run[self._run_idx][0]

    def __len__(self) -> int:
        # ``_dequeued`` accounts fully-consumed runs; the consumed
        # prefix of the current run is ``_run_idx``.
        return self.enqueues - self._dequeued - self._run_idx

    def __iter__(self) -> Iterator[Entry]:
        yield from self._run[self._run_idx:]
        for bucket in self._buckets:
            yield from bucket
        yield from self._overflow

    def smallest(self, k: int) -> List[Entry]:
        """The *k* earliest entries, in order (diagnostics only)."""
        return nsmallest(k, iter(self))

    def stats(self) -> dict:
        return {
            "impl": self.name,
            "enqueues": self.enqueues,
            "dequeues": self.enqueues - len(self),
            "resizes": self.resizes,
            "max_bucket": self.max_bucket,
        }

    # -- internals ------------------------------------------------------
    def _refill(self) -> None:
        """Advance the window until the run holds the next due entries.

        Called with the run exhausted; raises ``IndexError`` when no
        entries remain anywhere.
        """
        self._dequeued += len(self._run)
        self._run = []
        self._run_idx = 0
        remaining = self.enqueues - self._dequeued
        if remaining == 0:
            raise IndexError("pop from an empty schedule")
        nbuckets = self._nbuckets
        target_width = self._gap_ewma * _SPREAD
        if (
            remaining > nbuckets << 1
            or (nbuckets > _MIN_BUCKETS and remaining < nbuckets >> 2)
            or (
                # Width drifted a factor of 4 from the gap-derived
                # target: re-bucket before runs degenerate to single
                # entries (width too small) or giant sorts (too large).
                # Rate-limited to one O(n) rebucket per n pops, so a
                # wandering gap estimate cannot thrash.
                target_width > 0.0
                and self._dequeued >= self._width_check_after
                and not (
                    0.25 * target_width
                    <= self._width
                    <= 4.0 * target_width
                )
            )
        ):
            self._resize(remaining)
            self._width_check_after = self._dequeued + remaining
        while True:
            width = self._width
            buckets = self._buckets
            mask = self._mask
            cur = self._cur
            nbuckets = self._nbuckets
            # A well-sized calendar finds the next event within a couple
            # of slots; cap the lap so a mis-sized width pays the O(n)
            # jump-and-correct below instead of an O(nbuckets) crawl.
            for _ in range(nbuckets if nbuckets < 64 else 64):
                cur += 1
                bucket = buckets[cur & mask]
                if bucket:
                    window_end = (cur + 1) * width
                    bucket.sort()
                    if bucket[-1][0] >= window_end:
                        # Split off the not-yet-due tail (future "years"
                        # sharing this slot); it stays sorted in place,
                        # which Timsort re-sorts in linear time later.
                        lo, hi = 0, len(bucket)
                        while lo < hi:
                            mid = (lo + hi) >> 1
                            if bucket[mid][0] < window_end:
                                lo = mid + 1
                            else:
                                hi = mid
                        if lo == 0:
                            continue  # nothing due this window
                        buckets[cur & mask] = bucket[lo:]
                        del bucket[lo:]
                    else:
                        buckets[cur & mask] = []
                    n_due = len(bucket)
                    if n_due > self.max_bucket:
                        self.max_bucket = n_due
                    if n_due > _MAX_RUN:
                        # Serve a bounded chunk; the sorted remainder
                        # goes back to the slot (Timsort re-verifies it
                        # in linear time) and this window is re-scanned
                        # on the next refill.  The horizon drops to the
                        # first deferred time, so push routing stays
                        # exact: ties route to the bucket, where their
                        # larger sequence ids sort them behind the
                        # deferred entries they must follow.
                        spill = bucket[_MAX_RUN:]
                        del bucket[_MAX_RUN:]
                        spill.extend(buckets[cur & mask])
                        buckets[cur & mask] = spill
                        self._run = bucket
                        self._cur = cur - 1
                        self._horizon = spill[0][0]
                    else:
                        self._run = bucket
                        self._cur = cur
                        self._horizon = window_end
                    # One gap sample per activation: elapsed event time
                    # over pops since the previous activation.
                    pops = self._dequeued - self._last_deq
                    if pops > 0:
                        first = bucket[0][0]
                        gap = (first - self._last_first) / pops
                        if 0.0 < gap < inf:
                            self._gap_ewma += 0.25 * (gap - self._gap_ewma)
                        self._last_first = first
                        self._last_deq = self._dequeued
                    return
            # A lap with nothing due: the next event is far ahead (or
            # only overflow remains) — jump straight to it.
            t_min = inf
            for bucket in buckets:
                for e in bucket:
                    if e[0] < t_min:
                        t_min = e[0]
            if t_min != inf:
                # Already paying O(n): correct a badly drifted width on
                # the spot (the rate limiter only gates in-band drift).
                target_width = self._gap_ewma * _SPREAD
                if target_width > 0.0 and not (
                    0.25 * target_width <= width <= 4.0 * target_width
                ):
                    self._resize(remaining)
                    self._width_check_after = self._dequeued + remaining
                    continue
            if t_min == inf:
                # Only infinite-time entries remain: serve them sorted.
                # The horizon pins to +inf, so any later finite pushes
                # insort ahead of them in the run — still ordered.
                overflow = self._overflow
                overflow.sort()
                self._run = overflow
                self._overflow = []
                self._horizon = inf
                return
            cur = int(t_min * self._inv_width)
            while (cur + 1) * width <= t_min:  # float-edge guards
                cur += 1
            while cur * width > t_min:
                cur -= 1
            self._cur = cur - 1

    def _resize(self, remaining: int) -> None:
        """Re-bucket to match occupancy; adapt width to observed gaps.

        Only ever called between runs (run exhausted), so the horizon
        and run invariants cannot be disturbed: rebucketing never moves
        an entry below the horizon.
        """
        target = 1 << max(remaining.bit_length(), 4)
        if target > _MAX_BUCKETS:
            target = _MAX_BUCKETS
        width = self._gap_ewma * _SPREAD
        if target == self._nbuckets and not (
            0.0 < width < inf and width != self._width
        ):
            return
        self.resizes += 1
        entries = [e for b in self._buckets for e in b]
        if 0.0 < width < inf:
            self._width = width
            self._inv_width = 1.0 / width
        self._nbuckets = target
        self._mask = mask = target - 1
        self._buckets = buckets = [[] for _ in range(target)]
        inv = self._inv_width
        width = self._width
        for e in entries:
            t = e[0]
            idx = int(t * inv)
            while t >= (idx + 1) * width:  # float-edge guards (see push)
                idx += 1
            while t < idx * width:
                idx -= 1
            buckets[idx & mask].append(e)
        horizon = self._horizon
        if horizon == inf:
            return
        # Last "activated" window under the new grid: the first window
        # whose end reaches the old horizon.  Entries at or above the
        # horizon in that window stay in their bucket and are picked up
        # by the next activation, whose end is >= the old horizon — the
        # horizon never moves backward, so the push-side run test stays
        # correct.
        cur = int(horizon * inv)
        while (cur + 1) * width < horizon:
            cur += 1
        while cur * width > horizon:
            cur -= 1
        self._cur = cur - 1




class AutoScheduler:
    """The one scheduler policy: a bare heap, then a calendar queue.

    Near-empty schedules (a timeout chain, a handful of processes) are
    fastest on the C-implemented heap; deep schedules (large cells) are
    fastest on the calendar queue.  The owning
    :class:`~repro.des.core.Environment` drives :attr:`heap` through
    ``functools.partial(heapq.heappush, heap)`` and ``heappop``
    partials, which run no Python frame.  Its dispatch loop (behind
    ``run()`` and ``step()``) calls :meth:`promote` at an event boundary
    once the heap holds ``promote_at`` entries, then uses the calendar's
    own ``push``/``pop``.

    Promotion is a one-way latch — the queue never demotes back to the
    heap when the schedule drains — so a workload oscillating around
    the threshold re-buckets at most once.  It cannot change pop order:
    both structures honour the total ``(time, priority, sequence)``
    order.  Every entry takes exactly one id from :attr:`ids`, so
    :meth:`stats` derives enqueues from the ids issued and the hot path
    keeps no counter.
    """

    __slots__ = ("heap", "calendar", "ids", "promote_at")

    def __init__(self) -> None:
        self.heap: List[Entry] = []
        self.calendar: Optional[CalendarQueue] = None
        #: The schedule-entry sequence ids (the third key of an entry).
        self.ids = count()
        #: Depth (>= 1) at which the heap promotes; read when built.
        self.promote_at = _PROMOTE_AT

    @property
    def promotions(self) -> int:
        return 0 if self.calendar is None else 1

    def promote(self) -> CalendarQueue:
        """Move every pending entry into a new calendar queue.

        Entry order into the calendar is irrelevant: the total order
        restores the exact heap pop sequence.  The heap list is emptied
        in place, so a dispatch loop still holding its ``heappop``
        partial gets ``IndexError`` and re-reads the environment's.
        """
        calendar = CalendarQueue()
        push = calendar.push
        for entry in self.heap:
            push(entry)
        self.heap.clear()
        self.calendar = calendar
        return calendar

    def peek_time(self) -> float:
        if self.calendar is not None:
            return self.calendar.peek_time()
        heap = self.heap
        return heap[0][0] if heap else inf

    def __len__(self) -> int:
        if self.calendar is not None:
            return len(self.calendar)
        return len(self.heap)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.heap if self.calendar is None else self.calendar)

    def smallest(self, k: int) -> List[Entry]:
        """The *k* earliest entries, in order (diagnostics only)."""
        return nsmallest(k, iter(self))

    def stats(self) -> dict:
        enqueues = int(repr(self.ids)[6:-1])  # ids issued: ``count(n)``
        calendar = self.calendar
        return {
            "impl": "auto(heap)" if calendar is None else "auto(calendar)",
            "enqueues": enqueues,
            "dequeues": enqueues - len(self),
            "resizes": 0 if calendar is None else calendar.resizes,
            "max_bucket": 0 if calendar is None else calendar.max_bucket,
        }
