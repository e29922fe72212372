"""The envelope-extension scheduling algorithm (paper Section 3.2).

The algorithm takes a global view across tapes.  The requests for
*non-replicated* blocks pin down, per tape, a prefix that must be
traversed no matter what — the initial *envelope*.  Requests whose
replicas already fall inside the envelope are absorbed for free; the
remaining requests are scheduled by repeatedly extending the envelope
with the prefix of some tape's outstanding requests that maximizes
*incremental bandwidth* (bytes gained per second of extra traversal),
then shrinking the envelope wherever a replicated block just became
reachable more cheaply on the newly extended tape.

The resulting *upper envelope* covers every pending request; a standard
tape-selection policy then picks which tape to visit first, and all
requests satisfiable inside the envelope on that tape form the sweep.

With no replicated blocks every request is its own envelope pin, steps
3-6 degenerate to absorbing each request on its only tape, and the
algorithm behaves exactly like the corresponding dynamic algorithm —
matching the paper's remark that max-bandwidth envelope "degenerates
into the dynamic max-bandwidth algorithm" without replicas.

Performance model
-----------------
Every major reschedule computes the envelope from the pending snapshot
it is handed, and resolves each request's replicas against the catalog
exactly once: :meth:`EnvelopeComputer.compute` builds per-tape candidate
rows — the non-replicated requests' rows (always inside the envelope)
and the replicated requests' rows sorted by ``(position, request_id)``
— and runs steps 1-6 over them.  Tape selection then reads the same
rows: the requests satisfiable inside the envelope on a tape are its
pinned rows plus a prefix of its sorted rows, their positions feed the
max-bandwidth pricing, and only the chosen tape's rows are put back in
arrival order to build the sweep.  No state survives the reschedule
except the envelope the sweep runs under.

Candidates are priced call-free through flattened timing constants
(:func:`~repro.core.cost.extension_constants`) whenever the timing model
is an exact :class:`~repro.tape.timing.DriveTimingModel`: the step-3
search, the max-bandwidth sweep pricing (inside
:func:`~repro.core.cost.effective_bandwidths`) and the per-arrival
one-block extension of each copy.  Other timing models take the
tracker and method path, pricing every candidate as the paper's
algorithm states it; the arrival argmax over the copies is the same
loop either way.  The absorb rescan after an extension only visits
requests whose replica on the extended tape newly fell inside the
envelope — the only requests whose absorption status can change.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..layout.catalog import BlockCatalog, Replica
from ..tape.timing import DriveTimingModel
from ..workload.requests import Request
from .base import (
    MajorDecision,
    Scheduler,
    SchedulerContext,
    coalesce_entries,
    insert_at,
)
from .cost import (
    MB,
    ExtensionCostTracker,
    extension_bandwidth,
    extension_constants,
)
from .policies import SelectionContext, TapeSelectionPolicy, jukebox_order

#: A candidate row ``(position_mb, request_id, request, replica,
#: arrival_index)``: one copy of one pending request.
_Row = Tuple[float, int, Request, Replica, int]

#: Bisect key and arrival-order key of a candidate row.
_row_position = itemgetter(0)
_row_arrival = itemgetter(4)


@lru_cache(maxsize=256)
def _rank_after(tape_count: int, start_at: int) -> Dict[int, int]:
    """``tape_id -> rank`` in jukebox order starting at ``start_at``.

    Ranks depend only on ``(tape_count, start_at)``, so the dicts are
    shared across computers and calls.  Callers must treat the returned
    dict as read-only.
    """
    return {
        tape_id: rank
        for rank, tape_id in enumerate(jukebox_order(tape_count, start_at))
    }


@dataclass
class EnvelopeState:
    """The upper envelope and the per-request replica assignment."""

    #: Per-tape envelope position: the head position after reading the
    #: highest scheduled block on that tape (0 when the tape is untouched).
    envelope: Dict[int, float] = field(default_factory=dict)
    #: request_id -> the replica chosen to satisfy it.
    assignment: Dict[int, Replica] = field(default_factory=dict)
    #: Per-tape count of requests currently assigned to it.
    scheduled_count: Dict[int, int] = field(default_factory=dict)
    #: ``rows[tape_id]``: the candidate rows ``(position_mb, request_id,
    #: request, replica, arrival_index)`` of the *replicated* requests
    #: with a copy on that tape, sorted by ``(position_mb, request_id)``;
    #: those inside the envelope form a prefix.
    rows: List[List[_Row]] = field(default_factory=list)
    #: ``pinned[tape_id]``: the rows of the non-replicated requests on
    #: that tape, in arrival order.  Step 1 pins the envelope over all
    #: of them and nothing moves them, so they are always inside.  With
    #: :attr:`rows` they let tape selection read every request
    #: satisfiable inside the envelope without asking the catalog again.
    pinned: List[List[_Row]] = field(default_factory=list)

    def assign(self, request: Request, replica: Replica) -> None:
        """Bind ``request`` to ``replica``, updating the per-tape counts."""
        previous = self.assignment.get(request.request_id)
        if previous is not None:
            self.scheduled_count[previous.tape_id] -= 1
        self.assignment[request.request_id] = replica
        self.scheduled_count[replica.tape_id] = (
            self.scheduled_count.get(replica.tape_id, 0) + 1
        )


class EnvelopeComputer:
    """Runs steps 1-6 of the major rescheduler's envelope construction."""

    def __init__(
        self,
        timing: DriveTimingModel,
        catalog: BlockCatalog,
        tape_count: int,
        mounted_id: Optional[int],
        head_mb: float,
        enable_shrink: bool = True,
    ) -> None:
        self._timing = timing
        self._catalog = catalog
        self._tape_count = tape_count
        self._mounted_id = mounted_id
        self._head_mb = head_mb
        self._block_mb = catalog.block_mb
        #: Step 5 (envelope shrinking) can be disabled for ablation
        #: studies of the algorithm's design choices.
        self._enable_shrink = enable_shrink

    def _rank_after_mounted(self) -> Dict[int, int]:
        anchor = self._mounted_id if self._mounted_id is not None else -1
        return _rank_after(self._tape_count, anchor + 1)

    # -- the algorithm ---------------------------------------------------
    def compute(self, requests: Sequence[Request]) -> EnvelopeState:
        """Compute the upper envelope covering all ``requests``.

        ``requests`` is not copied: the single defensive copy in the
        scheduling path is the caller's ``pending.snapshot()`` (or an
        equivalent list the caller owns).  Pass a sequence that will not
        be mutated while this call runs — do **not** wrap the argument
        in another ``list(...)``.

        Replica lookups are resolved against the catalog once, up
        front, into per-tape candidate rows (see :attr:`EnvelopeState.rows`
        and :attr:`EnvelopeState.pinned`); the catalog cannot change
        during this synchronous call, so the resolved answers are
        exactly what per-step queries would have returned.  Only
        replicated requests can be left outside the envelope, so steps
        3-6 scan only their rows.  Request ids are unique in a pending
        list, so sorting the row tuples orders them by ``(position_mb,
        request_id)``.
        """
        catalog = self._catalog
        block_mb = self._block_mb
        mounted = self._mounted_id
        envelope = {tape_id: 0.0 for tape_id in range(self._tape_count)}
        rows: List[List[_Row]] = [[] for _ in range(self._tape_count)]
        pinned: List[List[_Row]] = [[] for _ in range(self._tape_count)]
        replicas_of: Dict[int, Tuple[Replica, ...]] = {}
        resolved: List[Tuple[Replica, ...]] = []

        # Resolve every request's copies into the rows and, in the same
        # pass, step 1: pin the envelope with the highest non-replicated
        # request per tape (and with the current head on the mounted
        # tape, below).
        for index, request in enumerate(requests):
            block_id = request.block_id
            replicas = replicas_of.get(block_id)
            if replicas is None:
                replicas = replicas_of[block_id] = catalog.replicas_of(block_id)
            resolved.append(replicas)
            if len(replicas) == 1:
                replica = replicas[0]
                tape = replica.tape_id
                position = replica.position_mb
                pinned[tape].append(
                    (position, request.request_id, request, replica, index)
                )
                end = position + block_mb
                if end > envelope[tape]:
                    envelope[tape] = end
                continue
            request_id = request.request_id
            for replica in replicas:
                rows[replica.tape_id].append(
                    (replica.position_mb, request_id, request, replica, index)
                )
        for tape_rows in rows:
            tape_rows.sort()
        if mounted is not None:
            envelope[mounted] = max(envelope[mounted], self._head_mb)

        state = EnvelopeState(envelope=envelope, rows=rows, pinned=pinned)
        rank = self._rank_after_mounted()

        # Step 2: absorb everything already inside the envelope.  Step 1
        # pinned every non-replicated request inside, so those are
        # assigned outright.  All assignments here are first-time
        # (nothing is assigned yet), so the ``state.assign`` bookkeeping
        # inlines to two dict writes — the same applies to every
        # absorb/extend assignment below (only step 5's *re*-assignments
        # need the full method).
        assignment = state.assignment
        counts = state.scheduled_count
        counts_get = counts.get
        unscheduled: List[Request] = []
        for request, replicas in zip(requests, resolved):
            if len(replicas) == 1:
                replica = replicas[0]
                tape = replica.tape_id
                assignment[request.request_id] = replica
                counts[tape] = counts_get(tape, 0) + 1
                continue
            chosen_replica = None
            chosen_key = None
            for replica in replicas:
                tape = replica.tape_id
                if replica.position_mb + block_mb <= envelope[tape]:
                    if tape == mounted:
                        chosen_replica = replica
                        break
                    key = (counts_get(tape, 0), -rank[tape])
                    if chosen_key is None or key > chosen_key:
                        chosen_key = key
                        chosen_replica = replica
            if chosen_replica is not None:
                tape = chosen_replica.tape_id
                assignment[request.request_id] = chosen_replica
                counts[tape] = counts_get(tape, 0) + 1
            else:
                unscheduled.append(request)

        # Steps 3-6: extend until every request is covered.  Between
        # extensions, only the just-extended tape's envelope grew
        # (shrinking only lowers other tapes), so a request can newly
        # fall inside the envelope only through a replica on that tape
        # whose end landed in the extended window — ``newly`` names
        # those candidates and the rescan skips everything else.  On
        # first entry nothing has been extended since step 2 checked the
        # very same envelope, so the rescan is skipped entirely.
        requests_by_id: Optional[Dict[int, Request]] = None
        newly: Optional[Set[int]] = None
        while unscheduled:
            if newly:
                still_outside: List[Request] = []
                for request in unscheduled:
                    if request.request_id not in newly:
                        still_outside.append(request)
                        continue
                    replicas = replicas_of[request.block_id]
                    chosen_replica = None
                    chosen_key = None
                    for replica in replicas:
                        tape = replica.tape_id
                        if replica.position_mb + block_mb <= envelope[tape]:
                            if tape == mounted:
                                chosen_replica = replica
                                break
                            key = (counts_get(tape, 0), -rank[tape])
                            if chosen_key is None or key > chosen_key:
                                chosen_key = key
                                chosen_replica = replica
                    if chosen_replica is not None:
                        tape = chosen_replica.tape_id
                        assignment[request.request_id] = chosen_replica
                        counts[tape] = counts_get(tape, 0) + 1
                    else:
                        still_outside.append(request)
                unscheduled = still_outside
            if not unscheduled:
                break

            chosen = self._best_extension(unscheduled, state, rank, rows)
            if chosen is None:  # pragma: no cover - every request has a replica
                raise RuntimeError("unscheduled requests with no extension candidates")
            tape_id, prefix = chosen

            # Step 4: extend the envelope through the chosen prefix.
            old_envelope = envelope[tape_id]
            new_envelope = prefix[-1][0] + block_mb
            envelope[tape_id] = new_envelope
            prefix_ids = set()
            for row in prefix:
                assignment[row[1]] = row[3]
                prefix_ids.add(row[1])
            counts[tape_id] = counts_get(tape_id, 0) + len(prefix)
            unscheduled = [
                request
                for request in unscheduled
                if request.request_id not in prefix_ids
            ]

            # Candidates for the next absorb rescan: rows on the
            # extended tape whose end moved inside.  The bisect bound is
            # deliberately slack (rounding-proof); membership uses the
            # exact inequality the absorb pass applies.
            newly = set()
            tape_rows = rows[tape_id]
            low = bisect_left(
                tape_rows, old_envelope - 2.0 * block_mb, key=_row_position
            )
            for row_index in range(low, len(tape_rows)):
                end = tape_rows[row_index][0] + block_mb
                if end > new_envelope:
                    break
                if end > old_envelope:
                    newly.add(tape_rows[row_index][1])

            # Step 5: shrink other tapes' envelopes where the extension
            # made a cheaper copy reachable.
            if self._enable_shrink:
                if requests_by_id is None:
                    requests_by_id = {request.request_id: request for request in requests}
                self._shrink(
                    state, tape_id, old_envelope, rank, requests_by_id, replicas_of
                )

        return state

    def _best_extension(
        self,
        unscheduled: List[Request],
        state: EnvelopeState,
        rank: Dict[int, int],
        rows: List[List[_Row]],
    ) -> Optional[Tuple[int, List[_Row]]]:
        """Step 3: the (tape, prefix) with maximal incremental bandwidth.

        The fast path flattens the timing model into constants and runs
        the per-length bandwidth recurrence call-free, evaluating the
        exact float expressions :class:`ExtensionCostTracker` would
        have.  Prefix lengths ending on a coalesced duplicate position
        are skipped outright: they add a request but no read, so their
        key equals the previous length's and a strict comparison could
        never have selected them.  Within a tape the scheduled-count
        and rank tie-break keys are constants, so the per-tape winner
        is the first length attaining the maximum bandwidth — the same
        element the per-length scan selected.
        """
        constants = extension_constants(self._timing, self._block_mb)
        if constants is None:
            return self._best_extension_tracked(unscheduled, state, rank, rows)
        block_mb = self._block_mb
        thr = constants.short_threshold_mb
        fwd_short_b = constants.forward_short_startup
        fwd_short_r = constants.forward_short_rate
        fwd_long_b = constants.forward_long_startup
        fwd_long_r = constants.forward_long_rate
        rev_short_b = constants.reverse_short_startup
        rev_short_r = constants.reverse_short_rate
        rev_long_b = constants.reverse_long_startup
        rev_long_r = constants.reverse_long_rate
        bot_s = constants.bot_overhead_s
        read_plain = constants.read_plain_s
        read_startup = constants.read_startup_s
        full_switch = constants.switch_s
        mounted = self._mounted_id
        scheduled_count = state.scheduled_count
        state_envelope = state.envelope

        unscheduled_ids = {request.request_id for request in unscheduled}
        best_key: Optional[Tuple[float, int, int]] = None
        best_live: List[_Row] = []
        best_tape = -1
        best_length = 0
        for tape_id, tape_rows in enumerate(rows):
            envelope = state_envelope[tape_id]
            live = [
                row
                for row in tape_rows
                if row[0] >= envelope and row[1] in unscheduled_ids
            ]
            if not live:
                continue
            switch_s = (
                full_switch if envelope == 0.0 and tape_id != mounted else 0.0
            )
            lands_on_bot = envelope == 0
            head = envelope
            startup_pending = True
            outbound = 0.0
            reads = 0
            length = 0
            tape_best_bandwidth: Optional[float] = None
            tape_best_length = 0
            previous_position: Optional[float] = None
            for row in live:
                position = row[0]
                length += 1
                if position == previous_position:
                    continue  # same physical block: identical cost and reads
                previous_position = position
                if position < head - block_mb:
                    raise ValueError(
                        f"extension list not sorted: {position} behind head {head}"
                    )
                distance = position - head
                if distance > 0:
                    outbound += (
                        fwd_short_b + fwd_short_r * distance
                        if distance <= thr
                        else fwd_long_b + fwd_long_r * distance
                    )
                    startup_pending = True
                outbound += read_startup if startup_pending else read_plain
                startup_pending = False
                head = position + block_mb
                reads += 1
                return_distance = head - envelope
                return_s = (
                    rev_short_b + rev_short_r * return_distance
                    if return_distance <= thr
                    else rev_long_b + rev_long_r * return_distance
                )
                if lands_on_bot:
                    return_s += bot_s
                cost = (switch_s + outbound) + return_s
                bandwidth = (
                    reads * block_mb * MB / cost if cost > 0 else float("inf")
                )
                if tape_best_bandwidth is None or bandwidth > tape_best_bandwidth:
                    tape_best_bandwidth = bandwidth
                    tape_best_length = length
            key = (
                tape_best_bandwidth,
                scheduled_count.get(tape_id, 0),
                -rank[tape_id],
            )
            if best_key is None or key > best_key:
                best_key = key
                best_live = live
                best_tape = tape_id
                best_length = tape_best_length
        if best_key is None:
            return None
        # Only the winning tape's prefix is materialized.
        return best_tape, best_live[:best_length]

    def _best_extension_tracked(
        self,
        unscheduled: List[Request],
        state: EnvelopeState,
        rank: Dict[int, int],
        rows: List[List[_Row]],
    ) -> Optional[Tuple[int, List[_Row]]]:
        """The tracker-based step-3 scan (non-standard timing models)."""
        best_key: Optional[Tuple[float, int, int]] = None
        best: Optional[Tuple[int, List[_Row]]] = None
        unscheduled_ids = {request.request_id for request in unscheduled}
        for tape_id, tape_rows in enumerate(rows):
            if not tape_rows:
                continue
            envelope = state.envelope[tape_id]
            start = bisect_left(tape_rows, envelope, key=_row_position)
            extension = [row for row in tape_rows[start:] if row[1] in unscheduled_ids]
            if not extension:
                continue
            charge_switch = envelope == 0.0 and tape_id != self._mounted_id
            tracker = ExtensionCostTracker(
                self._timing, envelope, self._block_mb, charge_switch
            )
            for length in range(1, len(extension) + 1):
                position = extension[length - 1][0]
                # Coalesced duplicate blocks add requests but only one read.
                if length >= 2 and position == extension[length - 2][0]:
                    pass  # same physical block: no extra read cost
                else:
                    tracker.extend(position)
                bandwidth = tracker.prefix_bandwidth()
                key = (
                    bandwidth,
                    state.scheduled_count.get(tape_id, 0),
                    -rank[tape_id],
                )
                if best_key is None or key > best_key:
                    best_key = key
                    best = (tape_id, extension[:length])
        return best

    def _shrink(
        self,
        state: EnvelopeState,
        extended_tape: int,
        old_envelope: float,
        rank: Dict[int, int],
        requests_by_id: Dict[int, Request],
        replicas_of: Dict[int, Tuple[Replica, ...]],
    ) -> None:
        """Step 5: move edge requests into the just-extended region of
        ``extended_tape`` and pull other envelopes back."""
        block_mb = self._block_mb
        new_envelope = state.envelope[extended_tape]
        while True:
            candidates: List[Tuple[int, int, int, Request, Replica]] = []
            for request_id, replica in state.assignment.items():
                tape_id = replica.tape_id
                if tape_id == extended_tape:
                    continue
                if replica.position_mb + block_mb != state.envelope.get(tape_id, 0.0):
                    continue  # not at the outer edge
                request = requests_by_id[request_id]
                other = None
                for candidate in replicas_of[request.block_id]:
                    if candidate.tape_id == extended_tape:
                        other = candidate
                        break
                if other is None:
                    continue
                end = other.position_mb + block_mb
                if old_envelope < end <= new_envelope:
                    candidates.append(
                        (
                            state.scheduled_count.get(tape_id, 0),
                            tape_id,
                            rank[tape_id],
                            request,
                            other,
                        )
                    )
            if not candidates:
                return
            # Fewest scheduled requests first; ties to the lowest slot id.
            candidates.sort(key=lambda item: (item[0], item[1]))
            _count, tape_id, _rank, request, target = candidates[0]
            state.assign(request, target)
            self._recompute_envelope(state, tape_id)

    def _recompute_envelope(self, state: EnvelopeState, tape_id: int) -> None:
        """Pull ``tape_id``'s envelope back to its highest remaining block."""
        block_mb = self._block_mb
        floor = self._head_mb if tape_id == self._mounted_id else 0.0
        highest = floor
        for replica in state.assignment.values():
            if replica.tape_id == tape_id:
                highest = max(highest, replica.position_mb + block_mb)
        state.envelope[tape_id] = highest


class EnvelopeScheduler(Scheduler):
    """Envelope-extension major rescheduler + envelope-aware incremental.

    ``policy`` chooses which tape inside the upper envelope to visit
    first (oldest-request / max-requests / max-bandwidth, Section 3.2).
    """

    def __init__(self, policy: TapeSelectionPolicy, enable_shrink: bool = True) -> None:
        self._policy = policy
        self._enable_shrink = enable_shrink
        self.name = f"envelope-{policy.name}"
        if not enable_shrink:
            self.name += "-noshrink"
        #: Upper envelope in effect during the current sweep.
        self._active_envelope: Dict[int, float] = {}

    @property
    def policy(self) -> TapeSelectionPolicy:
        """The tape-selection policy in use."""
        return self._policy

    # ------------------------------------------------------------------
    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        requests = context.pending.snapshot()
        if not requests:
            return None
        computer = EnvelopeComputer(
            timing=context.jukebox.timing,
            catalog=context.catalog,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            enable_shrink=self._enable_shrink,
        )
        state = computer.compute(requests)
        block_mb = context.block_mb

        # For each tape: every request satisfiable within the upper
        # envelope (a superset of the per-tape assignment).  Those are
        # the tape's pinned rows plus a prefix of its replicated rows
        # (sorted by position); the bisect bound is slack
        # (rounding-proof) and the scan applies the exact inequality.
        envelope_map = state.envelope
        inside: Dict[int, List[_Row]] = {}
        satisfiable: Dict[int, List[Request]] = {}
        for tape_id, tape_rows in enumerate(state.rows):
            count = 0
            if tape_rows:
                limit = envelope_map[tape_id]
                count = bisect_left(
                    tape_rows, limit - 2.0 * block_mb, key=_row_position
                )
                total = len(tape_rows)
                while count < total and tape_rows[count][0] + block_mb <= limit:
                    count += 1
            tape_inside = state.pinned[tape_id] + tape_rows[:count]
            if tape_inside:
                inside[tape_id] = tape_inside
                satisfiable[tape_id] = [row[2] for row in tape_inside]

        def positions_for(tape_id: int) -> List[float]:
            # One position per distinct block (coalesced reads).
            return list(
                {row[2].block_id: row[0] for row in inside.get(tape_id, ())}.values()
            )

        selection = SelectionContext(
            timing=context.jukebox.timing,
            block_mb=block_mb,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            candidates=satisfiable,
            positions_for=positions_for,
            oldest=context.pending.oldest(),
        )
        tape_id = self._policy.select(selection)
        if tape_id is None:  # pragma: no cover - envelope covers all requests
            return None

        # The chosen tape's sweep, with its requests in arrival order.
        chosen_rows = sorted(inside[tape_id], key=_row_arrival)
        chosen = [row[2] for row in chosen_rows]
        context.pending.remove_many(chosen)
        entries = coalesce_entries(chosen, [row[0] for row in chosen_rows])
        self._active_envelope = dict(state.envelope)
        return MajorDecision(tape_id=tape_id, entries=entries)

    # ------------------------------------------------------------------
    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        service = context.service
        mounted = context.mounted_id
        if service is None or mounted is None:
            context.pending.append(request)
            return False
        block_mb = context.block_mb
        envelope = self._active_envelope
        replicas = context.catalog.replicas_of(request.block_id)
        on_mounted: Optional[Replica] = None
        for replica in replicas:
            if replica.tape_id == mounted:
                on_mounted = replica
                break

        # Satisfiable on the current tape within the upper envelope:
        # insert into the sweep as the dynamic incremental scheduler does.
        if (
            on_mounted is not None
            and on_mounted.position_mb + block_mb <= envelope.get(mounted, 0.0)
        ):
            if insert_at(service, request, on_mounted.position_mb):
                return True
            context.pending.append(request)
            return False

        # Otherwise apply steps 3-5 for this single request: the
        # cheapest envelope extension covering it wins, and only a win
        # on the mounted tape absorbs the request into the sweep.
        if self._best_extension_tape(context, replicas) == mounted and insert_at(
            service, request, on_mounted.position_mb
        ):
            envelope[mounted] = max(
                envelope.get(mounted, 0.0), on_mounted.position_mb + block_mb
            )
            return True
        context.pending.append(request)
        return False

    def _best_extension_tape(
        self, context: SchedulerContext, replicas: Sequence[Replica]
    ) -> Optional[int]:
        """The tape whose one-block extension covering a copy is best.

        Copies rank by ``(incremental bandwidth, -rank)``, ranks in
        jukebox order after the mounted tape; a copy inside its tape's
        envelope counts as infinite bandwidth.  An exact timing model is
        priced with the flattened constants; any other model through an
        :class:`ExtensionCostTracker` per copy (a noisy model draws
        random numbers on each call, so every copy is priced).
        """
        mounted = context.mounted_id
        block_mb = context.block_mb
        timing = context.jukebox.timing
        constants = extension_constants(timing, block_mb)
        envelope = self._active_envelope
        rank = _rank_after(context.tape_count, mounted + 1)
        best_tape: Optional[int] = None
        best_key: Optional[Tuple[float, int]] = None
        for replica in replicas:
            tape_id = replica.tape_id
            tape_envelope = envelope.get(tape_id, 0.0)
            if replica.position_mb + block_mb <= tape_envelope:
                # Inside another tape's envelope: servicing it there needs
                # no extension; treated as infinite incremental bandwidth.
                bandwidth = float("inf")
            else:
                charge_switch = tape_envelope == 0.0 and tape_id != mounted
                if constants is not None:
                    bandwidth = extension_bandwidth(
                        constants,
                        tape_envelope,
                        replica.position_mb,
                        block_mb,
                        constants.switch_s if charge_switch else 0.0,
                    )
                else:
                    tracker = ExtensionCostTracker(
                        timing, tape_envelope, block_mb, charge_switch
                    )
                    tracker.extend(replica.position_mb)
                    bandwidth = tracker.prefix_bandwidth()
            key = (bandwidth, -rank[tape_id])
            if best_key is None or key > best_key:
                best_key = key
                best_tape = tape_id
        return best_tape

    def on_sweep_complete(self, context: SchedulerContext) -> None:
        self._active_envelope = {}
