"""The pending list: requests not yet scheduled for retrieval.

The pending list is arrival-ordered (paper Section 2.2): "oldest request"
policies look at its head.  Requests are kept in one dict keyed by
request id, whose insertion order is the arrival order, so appends and
removals are O(1) per request.

Schedulers query it by tape; those queries used to be linear scans over
all pending requests, which made every ``candidate_tapes()``/
``requests_for_tape()`` call O(n·replicas).  The list now maintains a
per-tape index, so by-tape queries are proportional to their result
size.  Next to each tape's requests the index keeps the position of the
request's copy on that tape, so schedulers price and build sweeps
without asking the catalog again (:meth:`PendingList.positions_on`).
The index is built at the first by-tape query and maintained on
append/remove from then on: a scheduler that never asks by tape (the
envelope family reads the arrival-ordered snapshot) never pays for it.

Each request is indexed under the catalog's replicas at indexing time.
With fault masking the catalog's answers can change *after* that — but
masks only ever grow during a run (tapes fail, replicas are discovered
bad; nothing recovers), so the index is a superset of the live answer
and a per-query ``has_replica_on`` filter (only taken when the catalog
declares ``dynamic_replicas``) restores exact equivalence with the
original scan.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..layout.catalog import BlockCatalog, Replica
from ..workload.requests import Request


class PendingList:
    """Arrival-ordered collection of unscheduled requests."""

    def __init__(self, catalog: BlockCatalog) -> None:
        self._catalog = catalog
        #: request_id -> request, in arrival order.
        self._by_id: Dict[int, Request] = {}
        #: tape_id -> {request_id: request}; insertion order == arrival
        #: order, so dict values enumerate in the order the old linear
        #: scan produced.  ``None`` until the first by-tape query.
        self._by_tape: Optional[Dict[int, Dict[int, Request]]] = None
        #: tape_id -> {request_id: position of its copy on that tape};
        #: same keys, in the same order, as ``_by_tape[tape_id]``.
        self._positions: Dict[int, Dict[int, float]] = {}
        #: request_id -> replicas it is indexed under (the removal key:
        #: with a masking catalog, replicas_of may shrink later).
        self._indexed: Dict[int, Tuple[Replica, ...]] = {}
        #: True when the catalog's replica answers can change mid-run
        #: (fault masking); forces per-query re-filtering.
        self._dynamic = bool(getattr(catalog, "dynamic_replicas", False))

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._by_id.values())

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
        self._by_id[request_id] = request
        if self._by_tape is not None:
            self._index(request)

    def _index(self, request: Request) -> None:
        """Enter ``request`` under each tape holding one of its copies."""
        request_id = request.request_id
        replicas = self._catalog.replicas_of(request.block_id)
        self._indexed[request_id] = replicas
        by_tape = self._by_tape
        positions = self._positions
        for replica in replicas:
            tape_id = replica.tape_id
            bucket = by_tape.get(tape_id)
            if bucket is None:
                bucket = by_tape[tape_id] = {}
                positions[tape_id] = {}
            bucket[request_id] = request
            positions[tape_id][request_id] = replica.position_mb

    def _tape_index(self) -> Dict[int, Dict[int, Request]]:
        """The per-tape index, built from the pending requests on first use."""
        if self._by_tape is None:
            self._by_tape = {}
            for request in self._by_id.values():
                self._index(request)
        return self._by_tape

    def oldest(self) -> Optional[Request]:
        """The request at the head of the list, or ``None`` when empty."""
        return next(iter(self._by_id.values()), None)

    def requests_for_tape(self, tape_id: int) -> List[Request]:
        """Pending requests with a replica on ``tape_id`` (arrival order)."""
        bucket = self._tape_index().get(tape_id)
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

    def positions_on(self, tape_id: int, requests: Iterable[Request]) -> List[float]:
        """Where each of ``requests`` has its copy on ``tape_id``.

        ``requests`` come from :meth:`requests_for_tape` or
        :meth:`candidate_tapes` for that tape, so each is indexed there
        and is only looked up, not filtered again.
        """
        self._tape_index()
        positions = self._positions.get(tape_id, {})
        return [positions[request.request_id] for request in requests]

    def candidate_tapes(self) -> Dict[int, List[Request]]:
        """Map ``tape_id -> pending requests with a replica there``."""
        by_tape = self._tape_index()
        if self._dynamic:
            catalog = self._catalog
            out: Dict[int, List[Request]] = {}
            for tape_id, bucket in by_tape.items():
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
            for tape_id, bucket in by_tape.items()
            if bucket
        }

    def remove_many(self, requests: List[Request]) -> None:
        """Remove ``requests`` (they have been scheduled for service)."""
        by_id = self._by_id
        removing = {request.request_id for request in requests}
        missing = removing - by_id.keys()
        if missing:
            raise KeyError(f"requests not pending: {sorted(missing)}")
        by_tape = self._by_tape
        positions = self._positions
        for request_id in removing:
            del by_id[request_id]
            if by_tape is not None:
                for replica in self._indexed.pop(request_id):
                    tape_id = replica.tape_id
                    del by_tape[tape_id][request_id]
                    del positions[tape_id][request_id]

    def snapshot(self) -> List[Request]:
        """Copy of the pending requests in arrival order."""
        return list(self._by_id.values())
