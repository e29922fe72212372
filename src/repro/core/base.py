"""Scheduler interface: major rescheduler + incremental scheduler.

A scheduling algorithm is specified by a *major rescheduler* that at tape
switch time chooses a tape and forms a retrieval schedule, and an
*incremental scheduler* that handles newly arriving requests — either
inserting them into the in-progress sweep or deferring them to the
pending list (paper Section 2.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..layout.catalog import BlockCatalog
from ..tape.drive import DriveView
from ..workload.requests import Request
from .pending import PendingList
from .sweep import ServiceEntry, ServiceList


@dataclass
class SchedulerContext:
    """Mutable scheduling state shared between simulator and scheduler."""

    jukebox: DriveView
    catalog: BlockCatalog
    pending: PendingList
    service: Optional[ServiceList] = None
    #: Tapes taken out of service by the fault layer.  The fault-aware
    #: simulator shares the injector's live set here, so schedulers (and
    #: the masked pending-list view) always see the current mask.
    masked_tapes: Set[int] = field(default_factory=set)
    #: Drives serving this pending pool (1 for the paper's jukebox).
    #: Cost-model schedulers use it to discount deferral: requests this
    #: drive defers are drained concurrently by the others.
    drive_count: int = 1

    def tape_available(self, tape_id: int) -> bool:
        """True when ``tape_id`` is in service (not masked out)."""
        return tape_id not in self.masked_tapes

    @property
    def mounted_id(self) -> Optional[int]:
        """Currently mounted tape id."""
        return self.jukebox.mounted_id

    @property
    def head_mb(self) -> float:
        """Current head position (MB)."""
        return self.jukebox.head_mb

    @property
    def block_mb(self) -> float:
        """Logical block size (MB)."""
        return self.catalog.block_mb

    @property
    def tape_count(self) -> int:
        """Number of tapes in the jukebox."""
        return self.jukebox.tape_count


@dataclass
class MajorDecision:
    """Outcome of a major reschedule: the tape and its retrieval schedule."""

    tape_id: int
    entries: List[ServiceEntry] = field(default_factory=list)
    #: True when a policy overrode the underlying scheduler's choice
    #: (e.g. the starvation guard force-promoting an aged request).
    #: Surfaced in the observability layer's decision log.
    forced: bool = False

    @property
    def request_count(self) -> int:
        """Requests satisfied by this schedule (after coalescing)."""
        return sum(len(entry.requests) for entry in self.entries)


def coalesce_entries(
    requests: Sequence[Request],
    positions: Sequence[float],
) -> List[ServiceEntry]:
    """Build one :class:`ServiceEntry` per distinct block of ``requests``.

    ``positions[i]`` is where the copy read for ``requests[i]`` starts on
    the chosen tape (see :meth:`PendingList.positions_on`).  Multiple
    outstanding requests for the same logical block share a single
    physical read; entries and their requests keep the order given.
    """
    by_block: Dict[int, ServiceEntry] = {}
    entries: List[ServiceEntry] = []
    for request, position_mb in zip(requests, positions):
        block_id = request.block_id
        entry = by_block.get(block_id)
        if entry is None:
            entry = by_block[block_id] = ServiceEntry(
                position_mb=position_mb, block_id=block_id, requests=[request]
            )
            entries.append(entry)
        else:
            entry.requests.append(request)
    return entries


def insert_into_sweep(context: SchedulerContext, request: Request) -> bool:
    """Absorb ``request`` into the in-progress sweep on the mounted tape.

    Coalesces onto an already scheduled (not yet started) read of the
    same block, else inserts a new entry at the block's copy on the
    mounted tape.  Returns False, changing nothing, when no sweep is
    running, the block has no copy on the mounted tape, or the sweep has
    already passed it; the caller then defers the request.
    """
    service = context.service
    mounted = context.mounted_id
    if service is None or mounted is None:
        return False
    for replica in context.catalog.replicas_of(request.block_id):
        if replica.tape_id == mounted:
            return insert_at(service, request, replica.position_mb)
    return False


def insert_at(service: ServiceList, request: Request, position_mb: float) -> bool:
    """Absorb ``request``, whose copy on the mounted tape is at ``position_mb``.

    The second half of :func:`insert_into_sweep`, for callers that have
    already resolved the mounted copy.
    """
    existing = service.find_block(request.block_id)
    if existing is not None:
        existing.attach(request)
        return True
    return service.insert(
        ServiceEntry(
            position_mb=position_mb,
            block_id=request.block_id,
            requests=[request],
        )
    )


class Scheduler(abc.ABC):
    """A complete scheduling algorithm (major + incremental)."""

    #: Registry name, e.g. ``"dynamic-max-bandwidth"``.
    name: str = "abstract"

    @abc.abstractmethod
    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        """Choose the next tape and extract its schedule from the pending list.

        Returns ``None`` when the pending list is empty.  The chosen
        requests are removed from ``context.pending``; the simulator
        mounts the tape and executes the entries as one sweep.
        """

    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        """Handle a request arriving during the current sweep.

        Returns True if the request was absorbed into the in-progress
        service list; otherwise the request is appended to the pending
        list and False is returned.  The base implementation is the
        *static* behaviour: always defer.
        """
        context.pending.append(request)
        return False

    def build_service_list(self, entries: List[ServiceEntry], head_mb: float):
        """Construct the execution order for a schedule.

        The paper's algorithms all use the forward-then-reverse sweep;
        ordering-ablation schedulers override this (see
        :mod:`repro.core.ordering`).
        """
        return ServiceList(entries, head_mb=head_mb)

    def on_sweep_complete(self, context: SchedulerContext) -> None:
        """Hook invoked when the service list drains (sweep ends)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
