"""Actors that drive the ROCC resources in tests.

The CPU and the networks serve requests from actors
(:class:`~repro.rocc.node.LoadActor`), which are their own completion
entry.  :class:`Job` is the smallest such model: a fixed list of
requests issued one after another.
"""

from repro.rocc import SimulationConfig
from repro.rocc.cpu import RoundRobinCPU
from repro.rocc.metrics import Metrics
from repro.rocc.network import ContentionFreeNetwork
from repro.rocc.node import LoadActor, NodeContext
from repro.variates.streams import StreamFactory
from repro.workload import ProcessType


def make_ctx(env, network=None, cpu=None):
    return NodeContext(
        env=env,
        node_id=0,
        cpu=cpu or RoundRobinCPU(env, quantum=10_000.0),
        network=network or ContentionFreeNetwork(env),
        metrics=Metrics(),
        config=SimulationConfig(),
        streams=StreamFactory(seed=1),
    )


class Job(LoadActor):
    """Issues *requests* one after another and records in :attr:`done`
    when each completed.

    A request is ``(resource, amount)`` or ``(resource, amount, owner)``,
    *resource* being ``"cpu"`` or ``"network"``.  The first is issued at
    the current time (from the URGENT kick) or after *delay*; *then*, if
    given, is called with the job once the last one completed.
    """

    __slots__ = ("requests", "done", "then")

    def __init__(self, ctx, requests, owner=ProcessType.APPLICATION,
                 delay=0.0, name="job", then=None):
        super().__init__(ctx, owner, name)
        self.requests = list(requests)
        self.done = []
        self.then = then
        if delay:
            self.sleep(delay, Job._issue)
        else:
            self.start(Job._issue)

    def _issue(self):
        if not self.requests:
            if self.then is not None:
                self.then(self)
            return
        resource, amount, *owner = self.requests.pop(0)
        if owner:
            self.owner = owner[0]
        request = LoadActor.compute if resource == "cpu" else LoadActor.transfer
        request(self, amount, Job._completed)

    def _completed(self):
        self.done.append(self.env.now)
        self._issue()
