"""Reference kernel for the equivalence tests of holds and recycling.

The kernel has one dispatch path: ``Environment.hold`` parks a process
on a pooled ``Hold`` entry, and fired ``Timeout``\\ s whose only waiters
were process resumes are recycled.  Both promise *exact* equivalence
with the plainest formulation, in which every ``hold`` is a ``timeout``
and nothing is recycled.  :func:`generic_kernel` switches the kernel to
that formulation for the length of a ``with`` block, and
:func:`run_both` runs a callable under each.

A comparison only means something if the run reaches ``hold`` or
``timeout``: many model configurations schedule everything through
actors and plain events and call neither.  :func:`run_both` therefore
also returns how many calls the kernel run made, for the test to assert.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Tuple

import repro.des.core as core
from repro.des import Environment


@contextmanager
def generic_kernel():
    """Every ``hold`` becomes a ``timeout``, and nothing is recycled."""
    saved = Environment.hold, core._POOL_LIMIT
    Environment.hold = Environment.timeout
    core._POOL_LIMIT = 0
    try:
        yield
    finally:
        Environment.hold, core._POOL_LIMIT = saved


@contextmanager
def counted_sleeps():
    """Count the ``hold`` and ``timeout`` calls made inside the block.

    Yields a one-element list holding the running count.
    """
    calls = [0]
    hold, timeout = Environment.hold, Environment.timeout

    def counting_hold(env, delay):
        calls[0] += 1
        return hold(env, delay)

    def counting_timeout(env, delay, value=None):
        calls[0] += 1
        return timeout(env, delay, value)

    Environment.hold, Environment.timeout = counting_hold, counting_timeout
    try:
        yield calls
    finally:
        Environment.hold, Environment.timeout = hold, timeout


def run_both(run: Callable[[], Any]) -> Tuple[Any, Any, int]:
    """``run()`` on the kernel, then on :func:`generic_kernel`.

    Returns ``(kernel, reference, calls)``, where *calls* counts the
    ``hold`` and ``timeout`` calls of the kernel run.
    """
    with counted_sleeps() as calls:
        kernel = run()
    with generic_kernel():
        reference = run()
    return kernel, reference, calls[0]
