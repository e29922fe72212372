"""The pending list: requests not yet scheduled for retrieval.

The pending list is arrival-ordered (paper Section 2.2): "oldest request"
policies look at its head.  Schedulers query it by tape; those queries
used to be linear scans over all pending requests, which made every
``candidate_tapes()``/``requests_for_tape()`` call O(n·replicas).  The
list now maintains a per-tape index updated on append/remove, so by-tape
queries are proportional to their result size.

The index is built from the catalog's replica map at append time.  With
fault masking the catalog's answers can change *after* a request is
appended — but masks only ever grow during a run (tapes fail, replicas
are discovered bad; nothing recovers), so the append-time index is a
superset of the live answer and a per-query ``has_replica_on`` filter
(only taken when the catalog declares ``dynamic_replicas``) restores
exact equivalence with the original scan.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..layout.catalog import BlockCatalog
from ..workload.requests import Request


class PendingList:
    """Arrival-ordered collection of unscheduled requests."""

    def __init__(self, catalog: BlockCatalog) -> None:
        self._catalog = catalog
        self._requests: List[Request] = []
        self._by_id: Dict[int, Request] = {}
        #: tape_id -> {request_id: request}; insertion order == arrival
        #: order, so dict values enumerate in the order the old linear
        #: scan produced.
        self._by_tape: Dict[int, Dict[int, Request]] = {}
        #: request_id -> tape ids indexed at append time (the removal
        #: key: with a masking catalog, replicas_of may shrink later).
        self._tapes_of: Dict[int, Tuple[int, ...]] = {}
        #: True when the catalog's replica answers can change mid-run
        #: (fault masking); forces per-query re-filtering.
        self._dynamic = bool(getattr(catalog, "dynamic_replicas", False))

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __contains__(self, request: Request) -> bool:
        return request.request_id in self._by_id

    @property
    def catalog(self) -> BlockCatalog:
        """The block catalog used to resolve candidate tapes."""
        return self._catalog

    def append(self, request: Request) -> None:
        """Add a newly deferred request at the tail (arrival order)."""
        request_id = request.request_id
        if request_id in self._by_id:
            raise ValueError(f"request {request_id} already pending")
        self._requests.append(request)
        self._by_id[request_id] = request
        tapes = tuple(
            replica.tape_id
            for replica in self._catalog.replicas_of(request.block_id)
        )
        self._tapes_of[request_id] = tapes
        by_tape = self._by_tape
        for tape_id in tapes:
            bucket = by_tape.get(tape_id)
            if bucket is None:
                bucket = by_tape[tape_id] = {}
            bucket[request_id] = request

    def oldest(self) -> Optional[Request]:
        """The request at the head of the list, or ``None`` when empty."""
        return self._requests[0] if self._requests else None

    def requests_for_tape(self, tape_id: int) -> List[Request]:
        """Pending requests with a replica on ``tape_id`` (arrival order)."""
        bucket = self._by_tape.get(tape_id)
        if not bucket:
            return []
        if self._dynamic:
            catalog = self._catalog
            return [
                request
                for request in bucket.values()
                if catalog.has_replica_on(request.block_id, tape_id)
            ]
        return list(bucket.values())

    def candidate_tapes(self) -> Dict[int, List[Request]]:
        """Map ``tape_id -> pending requests with a replica there``."""
        if self._dynamic:
            catalog = self._catalog
            out: Dict[int, List[Request]] = {}
            for tape_id, bucket in self._by_tape.items():
                live = [
                    request
                    for request in bucket.values()
                    if catalog.has_replica_on(request.block_id, tape_id)
                ]
                if live:
                    out[tape_id] = live
            return out
        return {
            tape_id: list(bucket.values())
            for tape_id, bucket in self._by_tape.items()
            if bucket
        }

    def remove_many(self, requests: List[Request]) -> None:
        """Remove ``requests`` (they have been scheduled for service)."""
        removing = {request.request_id for request in requests}
        missing = removing - self._by_id.keys()
        if missing:
            raise KeyError(f"requests not pending: {sorted(missing)}")
        self._requests = [
            request for request in self._requests if request.request_id not in removing
        ]
        by_tape = self._by_tape
        for request_id in removing:
            del self._by_id[request_id]
            for tape_id in self._tapes_of.pop(request_id):
                del by_tape[tape_id][request_id]

    def snapshot(self) -> List[Request]:
        """Copy of the pending requests in arrival order."""
        return list(self._requests)
