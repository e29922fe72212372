"""The dynamic scheduling family (paper Section 3.1).

Dynamic algorithms share the static major rescheduler but add an
incremental scheduler: a request arriving during a sweep whose block has
a copy on the mounted tape is inserted into the service list on the fly,
provided the requested block is still ahead of the tape head in the
existing sweep.  Otherwise the request is deferred to the pending list.
"""

from __future__ import annotations

from .base import SchedulerContext, insert_into_sweep
from .static_ import StaticScheduler
from ..workload.requests import Request


class DynamicScheduler(StaticScheduler):
    """Static tape selection + on-the-fly insertion into the sweep."""

    def __init__(self, policy, ordering: str = "sweep") -> None:
        super().__init__(policy, ordering=ordering)
        self.name = f"dynamic-{policy.name}"
        if ordering != "sweep":
            self.name += f"-{ordering}"

    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        if insert_into_sweep(context, request):
            return True
        context.pending.append(request)
        return False
