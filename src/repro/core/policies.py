"""Tape-selection policies (paper Section 3.1).

A policy answers "which tape should the major rescheduler service next?"
given, for each tape, the set of pending requests that tape can satisfy.
The same five policies parameterize the static family, the dynamic
family, and (three of them) the envelope-extension algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..tape.timing import DriveTimingModel
from ..workload.requests import Request
from .cost import effective_bandwidths


def jukebox_order(tape_count: int, start_at: int) -> List[int]:
    """Circular slot order beginning *at* ``start_at`` (inclusive)."""
    if tape_count <= 0:
        return []
    start = start_at % tape_count
    return [(start + offset) % tape_count for offset in range(tape_count)]


@dataclass
class SelectionContext:
    """Everything a tape-selection policy may inspect.

    ``candidates`` maps each tape to the pending requests it can satisfy;
    ``positions_for`` resolves the physical positions those requests
    would be read from on that tape (the envelope algorithm restricts
    this to the upper envelope).
    """

    timing: DriveTimingModel
    block_mb: float
    tape_count: int
    mounted_id: Optional[int]
    head_mb: float
    candidates: Dict[int, List[Request]]
    positions_for: Callable[[int], Sequence[float]]
    oldest: Optional[Request] = None

    @property
    def anchor(self) -> int:
        """Slot from which tie-break enumeration starts (mounted or 0)."""
        return self.mounted_id if self.mounted_id is not None else 0

    def tapes_with_requests(self) -> List[int]:
        """Tapes with at least one candidate, in tie-break order."""
        return [
            tape_id
            for tape_id in jukebox_order(self.tape_count, self.anchor)
            if self.candidates.get(tape_id)
        ]


class TapeSelectionPolicy:
    """Base class; subclasses implement :meth:`select`."""

    #: Short name used in scheduler registry keys.
    name = "abstract"

    def select(self, context: SelectionContext) -> Optional[int]:
        """Return the tape to service next, or ``None`` if no candidates."""
        raise NotImplementedError


class RoundRobin(TapeSelectionPolicy):
    """Next tape in jukebox order *after* the mounted one with requests."""

    name = "round-robin"

    def select(self, context: SelectionContext) -> Optional[int]:
        order = jukebox_order(context.tape_count, context.anchor + 1)
        for tape_id in order:
            if context.candidates.get(tape_id):
                return tape_id
        return None


class MaxRequests(TapeSelectionPolicy):
    """Tape with the most candidate requests; ties favour the mounted slot."""

    name = "max-requests"

    def select(self, context: SelectionContext) -> Optional[int]:
        best: Optional[int] = None
        best_count = 0
        for tape_id in context.tapes_with_requests():
            count = len(context.candidates[tape_id])
            if count > best_count:
                best, best_count = tape_id, count
        return best


class MaxBandwidth(TapeSelectionPolicy):
    """Tape with the highest effective bandwidth for its candidate schedule."""

    name = "max-bandwidth"

    def select(self, context: SelectionContext) -> Optional[int]:
        mounted_id = context.mounted_id
        best: Optional[int] = None
        best_bandwidth = -1.0
        for tape_id, bandwidth in effective_bandwidths(
            context.timing,
            (
                (tape_id, context.positions_for(tape_id))
                for tape_id in context.tapes_with_requests()
            ),
            context.block_mb,
            mounted_id=mounted_id,
            head_mb=context.head_mb,
            rewind_from_mb=context.head_mb if mounted_id is not None else 0.0,
        ):
            if bandwidth > best_bandwidth:
                best, best_bandwidth = tape_id, bandwidth
        return best


class _OldestFirst(TapeSelectionPolicy):
    """Restrict candidates to tapes satisfying the oldest request, then delegate."""

    def __init__(self, inner: TapeSelectionPolicy) -> None:
        self._inner = inner

    def select(self, context: SelectionContext) -> Optional[int]:
        oldest = context.oldest
        if oldest is None:
            return self._inner.select(context)
        eligible = {
            tape_id: requests
            for tape_id, requests in context.candidates.items()
            if any(request.request_id == oldest.request_id for request in requests)
        }
        if not eligible:
            return self._inner.select(context)
        narrowed = SelectionContext(
            timing=context.timing,
            block_mb=context.block_mb,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            candidates=eligible,
            positions_for=context.positions_for,
            oldest=oldest,
        )
        return self._inner.select(narrowed)


class OldestRequestMaxRequests(_OldestFirst):
    """Satisfy the oldest request; break ties by max requests."""

    name = "oldest-max-requests"

    def __init__(self) -> None:
        super().__init__(MaxRequests())


class OldestRequestMaxBandwidth(_OldestFirst):
    """Satisfy the oldest request; break ties by max bandwidth."""

    name = "oldest-max-bandwidth"

    def __init__(self) -> None:
        super().__init__(MaxBandwidth())


#: All five named policies from Section 3.1, keyed by registry name.
POLICIES = {
    policy.name: policy
    for policy in (
        RoundRobin(),
        MaxRequests(),
        MaxBandwidth(),
        OldestRequestMaxRequests(),
        OldestRequestMaxBandwidth(),
    )
}
