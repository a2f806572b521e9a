"""Round-robin CPU scheduler with a fixed quantum (ROCC CPU resource).

The paper's ROCC model shares each node's CPU(s) among application, IS,
and other processes under the operating system's round-robin policy
with a 10 ms quantum (Table 2).  :class:`RoundRobinCPU` implements that
exactly: occupancy requests join a FIFO ready queue; each of the
``n_cpus`` processors repeatedly takes the head request, runs it for
``min(quantum, remaining)``, and re-queues it at the tail if unfinished
("time out" transition of Figure 6).

The scheduler is *event-driven*: there are no server processes.  A
request that finds a free processor schedules its first slice directly;
slice-expiry and completion are kernel events whose callbacks charge
accounting and dispatch the next queued job.  A request shorter than
one quantum — the overwhelmingly common case for daemon collect/forward
costs against a 10 ms quantum — therefore costs exactly one kernel
event (its completion), where the process-per-server shape cost a
wake-up, a hold, and a separate completion event.

A request has two halves, :meth:`RoundRobinCPU.request` (queue or
start it) and :meth:`RoundRobinCPU.release` (charge the final slice,
hand the processor on).  :meth:`~RoundRobinCPU.execute` wraps them in a
:class:`CPUDone` event for processes; the background-load actors
(:mod:`repro.rocc.node`) call them directly and are their own
completion entry, so both paths share one slice algebra and one
accounting order.

A processor-sharing variant (:class:`ProcessorSharingCPU`) is provided
for the ablation study of quantum effects (DESIGN.md §5.2): it services
each request in one piece but stretches it by the instantaneous load,
which is the fluid limit the RR policy approaches as quantum → 0.

Accounting note: busy time is charged when a slice *completes*, so a
run cut off mid-slice under-counts by at most one quantum per server —
≤ 10 ms against simulated seconds, negligible for every reported
metric and consistent between compared configurations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..des.core import Environment
from ..des.events import NORMAL, PENDING, Event
from ..des.monitor import TimeWeighted
from ..workload.records import ProcessType

__all__ = ["CPUJob", "RoundRobinCPU", "ProcessorSharingCPU"]


class CPUJob:
    """A CPU occupancy request queued at the scheduler.

    ``event`` is the request's completion entry: a :class:`CPUDone`, a
    plain event (processor sharing), or an actor.
    """

    __slots__ = ("remaining", "owner", "event", "enqueued_at")

    def __init__(self, amount: float, owner: ProcessType, event, now: float):
        self.remaining = amount
        self.owner = owner
        self.event = event
        self.enqueued_at = now


class CPUDone(Event):
    """Completion event of one CPU request.

    Returned by :meth:`RoundRobinCPU.execute` and scheduled when the
    job's *final* slice starts.  It stays untriggered until it pops;
    ``_finish`` (its first callback) charges the slice and hands the
    processor to the next queued job before any waiter resumes.
    """

    __slots__ = ("_cpu", "_owner", "_slice")

    def __init__(self, cpu: "RoundRobinCPU", owner: ProcessType):
        self.env = cpu.env
        self.callbacks = [self._finish]
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._cpu = cpu
        self._owner = owner
        self._slice = 0.0

    def _finish(self, _event: Event) -> None:
        self._cpu.release(self._owner, self._slice)
        self._value = None


class CPUSlice(Event):
    """An intermediate round-robin quantum of a longer request.

    Pure kernel bookkeeping: nobody waits on it, so it is created
    already-triggered and defused; its callback re-queues the job at
    the ready-queue tail and dispatches the head ("time out").
    """

    __slots__ = ("_cpu", "_job")

    def __init__(self, cpu: "RoundRobinCPU", job: CPUJob):
        self.env = cpu.env
        self.callbacks = [self._expire]
        self._value = None
        self._ok = True
        self._defused = True
        self._cpu = cpu
        self._job = job

    def _expire(self, _event: Event) -> None:
        # An intermediate slice is always exactly one quantum (anything
        # shorter would have been the final slice).
        cpu = self._cpu
        job = self._job
        quantum = cpu.quantum
        busy = cpu.busy_by_owner
        busy[job.owner] = busy.get(job.owner, 0.0) + quantum
        job.remaining -= quantum
        ready = cpu._ready
        ready.append(job)
        cpu._start(ready.pop(0))


class RoundRobinCPU:
    """``n_cpus`` identical CPUs draining one round-robin ready queue.

    Parameters
    ----------
    env:
        Simulation environment.
    n_cpus:
        Number of processors (1 for NOW/MPP nodes, the machine size for
        the SMP model).
    quantum:
        Scheduling quantum in µs (Table 2: 10 000).
    name:
        Label for diagnostics.
    """

    def __init__(
        self,
        env: Environment,
        n_cpus: int = 1,
        quantum: float = 10_000.0,
        name: str = "cpu",
    ):
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.env = env
        self.n_cpus = int(n_cpus)
        self.quantum = float(quantum)
        self.name = name
        #: Relative execution speed (1.0 = nominal).  A fault-injected
        #: slowdown episode lowers it; requests submitted while it is in
        #: effect are stretched by ``1 / speed``.  Already-queued jobs
        #: keep their nominal durations (a documented approximation).
        self.speed = 1.0
        # At most one job per process on the node, so a list (56 B
        # empty, a deque 760 B).
        self._ready: List[CPUJob] = []
        self._free = self.n_cpus
        #: Accumulated busy time per owning process class, µs.
        self.busy_by_owner: Dict[ProcessType, float] = {}
        #: Time-weighted number of busy servers (for utilization).
        self.busy_servers = TimeWeighted(f"{name}.busy", start_time=env.now)

    # ------------------------------------------------------------------
    def execute(self, amount: float, owner: ProcessType) -> Event:
        """Submit a CPU occupancy request; the event fires on completion."""
        if amount <= 0.0:
            done = Event(self.env)
            done.succeed()
            return done
        done = CPUDone(self, owner)
        self.request(amount, owner, done)
        return done

    def request(self, amount: float, owner: ProcessType, done) -> None:
        """Request half of a positive-length occupancy request.

        *done* is the kernel entry of the completion — a
        :class:`CPUDone`, or an :class:`~repro.des.events.Actor` that
        is its own event.  It gets a ``_slice`` attribute (the final
        slice's length) and is pushed for the time that slice ends; its
        handler must then call :meth:`release`.
        """
        scaled = float(amount) / self.speed
        quantum = self.quantum
        slice_ = scaled if scaled < quantum else quantum
        if self._free and scaled - slice_ <= 1e-9:
            # Free processor, fits one slice (the common case for daemon
            # collect/forward costs against a 10 ms quantum): schedule
            # completion directly, no ready-queue job.  The slice algebra
            # mirrors ``_start`` exactly so timestamps are identical to
            # the queued path.
            self._free -= 1
            env = self.env
            self.busy_servers.increment(+1, env._now)
            done._slice = slice_
            env._push((env._now + slice_, NORMAL, next(env._eid), done))
            return
        self._enqueue(CPUJob(scaled, owner, done, self.env.now))

    def release(self, owner: ProcessType, slice_: float) -> None:
        """Completion half: charge *owner*'s final slice, then hand the
        processor to the next ready job (or free it)."""
        busy = self.busy_by_owner
        busy[owner] = busy.get(owner, 0.0) + slice_
        ready = self._ready
        if ready:
            self._start(ready.pop(0))
        else:
            self._free += 1
            self.busy_servers.increment(-1, self.env._now)

    def set_speed(self, speed: float) -> None:
        """Set the relative execution speed (fault-injection hook)."""
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.speed = float(speed)

    @property
    def queue_length(self) -> int:
        """Jobs currently in the ready queue (excludes running slices)."""
        return len(self._ready)

    def utilization(self, now: Optional[float] = None) -> float:
        """Time-averaged fraction of CPUs busy up to *now*."""
        t = self.env.now if now is None else now
        return self.busy_servers.time_average(t) / self.n_cpus

    def busy_time(self, owner: ProcessType) -> float:
        """Total CPU time consumed by *owner*'s requests so far, µs."""
        return self.busy_by_owner.get(owner, 0.0)

    # ------------------------------------------------------------------
    def _enqueue(self, job: CPUJob) -> None:
        if self._free:
            self._free -= 1
            self.busy_servers.increment(+1, self.env.now)
            self._start(job)
        else:
            self._ready.append(job)

    def _start(self, job: CPUJob) -> None:
        """Schedule the next slice of *job* on the processor just freed.

        Back-to-back dispatch from a finishing slice's callback leaves
        ``busy_servers`` untouched — the zero-width -1/+1 dip would
        contribute nothing to the time integral.
        """
        remaining = job.remaining
        quantum = self.quantum
        slice_ = remaining if remaining < quantum else quantum
        if remaining - slice_ > 1e-9:
            ev = CPUSlice(self, job)
        else:
            ev = job.event
            ev._slice = slice_
        env = self.env
        env._push((env._now + slice_, NORMAL, next(env._eid), ev))


class ProcessorSharingCPU(RoundRobinCPU):
    """Idealized processor-sharing CPU (quantum → 0 fluid limit).

    Used only by the ablation benchmark comparing RR-with-quantum to PS.
    Implementation: virtual-time processor sharing — each job's service
    advances at rate ``min(1, n_cpus / n_active)``; completions are
    recomputed whenever the active set changes.
    """

    def __init__(
        self,
        env: Environment,
        n_cpus: int = 1,
        quantum: float = 10_000.0,  # ignored; kept for API parity
        name: str = "cpu-ps",
    ):
        super().__init__(env, n_cpus=n_cpus, quantum=quantum, name=name)
        self._active: Dict[CPUJob, float] = {}  # job -> remaining
        self._recalc = Event(env)
        env.process(self._ps_loop(), name=f"{name}.ps")

    def execute(self, amount: float, owner: ProcessType) -> Event:
        # PS completions are plain events triggered by the loop below;
        # the RR slice machinery (CPUDone/CPUSlice) is never engaged.
        done = Event(self.env)
        if amount <= 0.0:
            done.succeed()
            return done
        self._enqueue(CPUJob(float(amount) / self.speed, owner, done, self.env.now))
        return done

    def request(self, *_args, **_kwargs) -> None:
        raise TypeError(
            f"{type(self).__name__} completes requests from its sharing "
            "loop; it has no round-robin request/release halves (use "
            "execute())"
        )

    release = request

    def _enqueue(self, job: CPUJob) -> None:  # type: ignore[override]
        self._active[job] = job.remaining
        if not self._recalc.triggered:
            self._recalc.succeed()

    def _rate(self) -> float:
        n = len(self._active)
        return min(1.0, self.n_cpus / n) if n else 0.0

    def _ps_loop(self):
        env = self.env
        last = env.now
        while True:
            if not self._active:
                self._recalc = Event(env)
                yield self._recalc
                last = env.now
                continue
            rate = self._rate()
            self.busy_servers.update(min(len(self._active), self.n_cpus), env.now)
            # Snapshot the active set: progress accrues only to jobs that
            # were present during the interval, not to mid-interval arrivals.
            in_service = list(self._active)
            soonest = min(self._active.values()) / rate
            self._recalc = Event(env)
            timeout = env.timeout(soonest)
            yield timeout | self._recalc
            elapsed = env.now - last
            last = env.now
            progress = elapsed * rate
            finished = []
            for job in in_service:
                self._active[job] -= progress
                self.busy_by_owner[job.owner] = (
                    self.busy_by_owner.get(job.owner, 0.0) + progress
                )
                if self._active[job] <= 1e-9:
                    finished.append(job)
            for job in finished:
                del self._active[job]
                job.event.succeed()
            if not self._active:
                self.busy_servers.update(0, env.now)
