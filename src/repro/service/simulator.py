"""The service model (paper Section 2.2) as a discrete-event process.

Each drive repeatedly cycles through the paper's four steps:

1. invoke the major rescheduler on the pending list;
2. switch to the selected tape if it is not already loaded;
3. execute the service list, handing requests that arrive mid-sweep to
   the incremental scheduler;
4. if the pending list is empty, wait for a request to arrive.

Operation durations come from the drive's timing model; state changes
are committed at operation start and the simulated clock advances by the
returned duration, so a request arriving during an operation sees the
operation as already committed (it may only affect the not-yet-started
remainder of the sweep).

The paper studies a single-drive jukebox and names multiple drives as
future work.  Here ``drive_count`` drives share one robot arm, one pool
of tapes, and one pending list; each runs the loop above with its own
scheduler from ``scheduler_factory``.  The paper's jukebox is the
``drive_count == 1`` case, which keeps its exact single-drive model:

* the scheduler sees the shared pending list itself (no other drive can
  claim a tape);
* every request arriving during a sweep goes to the incremental
  scheduler;
* a tape exchange is one timed operation (nothing contends for the arm);
* after an idle wait the drive plans straight away, so a drive failure
  that came due while idle shows at its first read;
* the envelope-extension algorithm, which plans across all tapes, is
  allowed.

With several drives a tape is mounted in at most one drive at a time
(drives *claim* tapes, and each scheduler sees the pending list through
:class:`ClaimFilteredPending`), an arrival is offered to the first drive
whose sweep is on a tape holding a replica, and arm motions serialize on
the shared arm (a :class:`~repro.des.Resource`).

When a :class:`~repro.faults.FaultInjector` is attached, each physical
operation may fail: transient faults are retried under the
:class:`~repro.faults.RetryPolicy` (backoff waits elapse in simulated
time with the drive idle), permanent ones trigger *replica failover* —
the failed read's requests re-enter the pending list and the schedulers,
consulting the catalog through the fault-masked view, re-plan them onto
a surviving copy.  Requests whose every copy is lost fail permanently.
A failed drive releases its tape, so surviving drives can serve the
re-queued remainder of its sweep.  Without an injector every fault
branch is skipped outright.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.base import MajorDecision, SchedulerContext
from ..core.envelope import EnvelopeScheduler
from ..core.pending import PendingList
from ..core.sweep import ServiceEntry
from ..des import Environment, Event, Resource
from ..faults.injector import FaultInjector
from ..faults.masking import FaultMaskedCatalog
from ..faults.retry import RetryPolicy
from ..layout.catalog import BlockCatalog
from ..obs.tracer import Tracer
from ..qos.manager import QoSManager
from ..tape.drive import DriveView, TapeDrive
from ..tape.tape import DEFAULT_TAPE_CAPACITY_MB, DEFAULT_TAPE_COUNT, TapePool
from ..tape.timing import DriveTimingModel, EXB_8505XL
from ..workload.requests import Request
from .metrics import MetricsCollector, MetricsReport


#: Rounds of same-instant closed-loop replacements that
#: ``_drop_lost_requests`` fails before it gives up on the workload.
_MAX_LOST_ROUNDS = 10_000


class ClaimFilteredPending(PendingList):
    """A pending-list view that hides tapes claimed by other drives.

    Schedulers group requests by candidate tape through
    :meth:`candidate_tapes` / :meth:`requests_for_tape`; filtering here
    keeps every scheduler family multi-drive-safe without changes.
    """

    def __init__(self, inner: PendingList, claims: Dict[int, int], drive_index: int) -> None:
        self._inner = inner
        self._claims = claims
        self._drive_index = drive_index

    def _visible(self, tape_id: int) -> bool:
        owner = self._claims.get(tape_id)
        return owner is None or owner == self._drive_index

    # Delegate the mutating / arrival-ordered interface.
    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        return iter(self._inner)

    def __contains__(self, request: Request) -> bool:
        return request in self._inner

    @property
    def catalog(self) -> BlockCatalog:
        """The shared block catalog."""
        return self._inner.catalog

    def append(self, request: Request) -> None:
        """Defer ``request`` to the shared pending list."""
        self._inner.append(request)

    def remove_many(self, requests: List[Request]) -> None:
        """Remove scheduled requests from the shared pending list."""
        self._inner.remove_many(requests)

    def snapshot(self) -> List[Request]:
        """Arrival-ordered copy (unfiltered; used by envelope only)."""
        return self._inner.snapshot()

    # Filtered candidate queries.
    def oldest(self) -> Optional[Request]:
        """Oldest request servable by a tape visible to this drive."""
        for request in self._inner:
            replicas = self.catalog.replicas_of(request.block_id)
            if any(self._visible(replica.tape_id) for replica in replicas):
                return request
        return None

    def requests_for_tape(self, tape_id: int) -> List[Request]:
        """Pending requests on ``tape_id`` if it is visible, else []."""
        if not self._visible(tape_id):
            return []
        return self._inner.requests_for_tape(tape_id)

    def positions_on(self, tape_id: int, requests: Iterable[Request]) -> List[float]:
        """Where each of ``requests`` has its copy on ``tape_id``."""
        return self._inner.positions_on(tape_id, requests)

    def candidate_tapes(self) -> Dict[int, List[Request]]:
        """Per-tape pending requests, excluding other drives' claims."""
        return {
            tape_id: requests
            for tape_id, requests in self._inner.candidate_tapes().items()
            if self._visible(tape_id)
        }


class JukeboxSimulator:
    """The jukebox service model: ``drive_count`` drives (one in the
    paper) and one robot arm over a shared tape pool and pending list."""

    def __init__(
        self,
        env: Environment,
        catalog: BlockCatalog,
        source,
        metrics: MetricsCollector,
        scheduler_factory,
        drive_count: int = 1,
        tape_count: int = DEFAULT_TAPE_COUNT,
        capacity_mb: float = DEFAULT_TAPE_CAPACITY_MB,
        timing: DriveTimingModel = EXB_8505XL,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        qos: Optional[QoSManager] = None,
        obs: Optional[Tracer] = None,
    ) -> None:
        if drive_count <= 0:
            raise ValueError(f"drive_count must be positive, got {drive_count!r}")
        if drive_count > tape_count:
            raise ValueError("cannot have more drives than tapes")
        self.env = env
        self.catalog = catalog
        self.source = source
        self.metrics = metrics
        self.faults = faults
        self.qos = qos
        #: Optional structured tracer (see :mod:`repro.obs`).  Every
        #: call site is guarded, so ``obs=None`` adds no work and runs
        #: stay bit-identical to an untraced build.
        self.obs = obs
        if obs is not None:
            obs.bind_clock(lambda: env.now)
            if qos is not None:
                qos.obs = obs
            if faults is not None:
                faults.obs = obs
        if retry is None and faults is not None:
            retry = faults.config.retry
        self.retry = retry
        self.drive_count = drive_count
        self.pool = TapePool.uniform(tape_count, capacity_mb)
        self.robot = Resource(env, capacity=1)
        self.robot_swap_s = timing.robot_swap_s
        masked_tapes = set()
        scheduler_catalog = catalog
        if faults is not None:
            # Schedulers (and the pending list's candidate queries) see
            # the catalog through the fault mask, so a tape taken out of
            # service or a copy discovered bad vanishes from the next
            # scheduling decision.
            masked_tapes = faults.failed_tapes
            scheduler_catalog = FaultMaskedCatalog(
                catalog, masked_tapes, faults.known_bad
            )
        #: Catalog as the schedulers see it (fault-masked when enabled).
        self.catalog_view = scheduler_catalog
        self.pending = PendingList(scheduler_catalog)
        #: tape_id -> index of the drive that claimed it (several drives).
        self.claims: Dict[int, int] = {}
        self._started = False
        self._wakeups: List[Optional[Event]] = [None] * drive_count
        #: Count of arrivals absorbed into an in-progress sweep.
        self.absorbed_arrivals = 0
        #: Optional hook invoked as ``hook(request, now)`` after each
        #: completion (used by the storage-hierarchy tier to promote
        #: blocks into its caches and finish the user-visible request).
        self.on_request_complete = None

        self.drives: List[TapeDrive] = []
        self.schedulers = []
        self.contexts: List[SchedulerContext] = []
        for drive_index in range(drive_count):
            scheduler = scheduler_factory()
            if drive_count > 1 and isinstance(scheduler, EnvelopeScheduler):
                raise ValueError(
                    "the envelope-extension algorithm is single-drive "
                    "(drive_count == 1); use a static or dynamic scheduler "
                    "when drive_count > 1"
                )
            if qos is not None:
                # Starvation guard (when configured) intercepts only the
                # major reschedule; every other scheduler call delegates.
                scheduler = qos.wrap_scheduler(scheduler)
            drive = TapeDrive(timing=timing)
            pending = self.pending
            if drive_count > 1:
                pending = ClaimFilteredPending(self.pending, self.claims, drive_index)
            context = SchedulerContext(
                jukebox=DriveView(drive=drive, tape_count=tape_count),
                catalog=scheduler_catalog,
                pending=pending,
                masked_tapes=masked_tapes,
                drive_count=drive_count,
            )
            self.drives.append(drive)
            self.schedulers.append(scheduler)
            self.contexts.append(context)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """A request arrives: incremental-schedule it or defer it.

        The first drive with a sweep in progress gets the insertion
        attempt — with several drives, only a drive whose mounted tape
        holds a replica of the block.  Otherwise (or if the attempt
        fails) the request joins the shared pending list.
        """
        self.metrics.on_arrival(request, self.env.now)
        if self.obs is not None:
            self.obs.on_arrival(request, self.env.now)
        if self.qos is not None and not self.qos.admit(request, len(self.pending)):
            # Shed at the boundary: the request never reaches the
            # pending list or the schedulers.  Shed requests do not
            # spawn closed-population replacements (re-offering a fresh
            # request at the same instant would be shed again forever).
            return
        for drive_index, context in enumerate(self.contexts):
            if context.service is None:
                continue
            if self.drive_count > 1 and (
                context.mounted_id is None
                or not self.catalog_view.has_replica_on(
                    request.block_id, context.mounted_id
                )
            ):
                continue
            # Either inserted into that drive's sweep, or deferred to
            # the shared pending list by the scheduler itself.
            if self.schedulers[drive_index].on_arrival(context, request):
                self.absorbed_arrivals += 1
            break
        else:
            self.pending.append(request)
        self._wake_idle_drives()

    def _wake_idle_drives(self) -> None:
        for drive_index, wakeup in enumerate(self._wakeups):
            if wakeup is not None and not wakeup.triggered:
                wakeup.succeed()
                self._wakeups[drive_index] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, horizon_s: float) -> None:
        """Inject initial requests and start the simulation processes."""
        if self._started:
            raise RuntimeError("simulator already started")
        self._started = True
        for request in self.source.initial_requests(self.env.now):
            self.submit(request)
        for drive_index in range(self.drive_count):
            self.env.process(self._drive_process(drive_index))
        if not self.source.is_closed:
            self.env.process(self._arrival_process(horizon_s))

    def run(self, horizon_s: float) -> MetricsReport:
        """Run until ``horizon_s`` and return the metrics report."""
        self.start(horizon_s)
        self.env.run(until=horizon_s)
        self.metrics.finalize(self.env.now)
        return self.metrics.report()

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _arrival_process(self, horizon_s: float):
        """Open-queueing Poisson arrival stream."""
        for arrival_s, request in self.source.arrivals(horizon_s, self.env.now):
            delay = arrival_s - self.env.now
            if delay > 0:
                yield delay
            self.submit(request)

    def _timed(self, duration_s: float) -> float:
        """Record drive busy time; return the delay for a bare yield."""
        self.metrics.on_drive_busy(self.env.now, duration_s)
        return duration_s

    def _drive_process(self, drive_index: int):
        """The paper's four-step service loop for one drive."""
        context = self.contexts[drive_index]
        scheduler = self.schedulers[drive_index]
        drive = self.drives[drive_index]
        block_mb = self.catalog.block_mb
        while True:
            if self.faults is not None and self.faults.drive_failure_due(
                drive_index, self.env.now
            ):
                yield from self._repair_drive(drive_index)
                continue

            # Step 1: major reschedule.
            decision = self._major_reschedule(drive_index)
            if decision is None:
                decision = self._idle_sweep(drive_index)
            if decision is None:
                # Step 4: idle-wait for work.
                idle_start = self.env.now
                wakeup = self.env.event()
                self._wakeups[drive_index] = wakeup
                yield wakeup
                if self.obs is not None:
                    self.obs.on_op(
                        drive_index, "idle", idle_start, self.env.now - idle_start
                    )
                if self.drive_count > 1:
                    continue
                # One drive plans straight away; a drive failure that
                # came due while idle shows at its first read.
                decision = self._major_reschedule(drive_index)
                if decision is None:
                    continue
            if self.faults is not None and self.faults.tape_failed(decision.tape_id):
                # Backstop for schedulers that plan outside the masked
                # pending view (envelope): fail over the whole decision.
                for entry in decision.entries:
                    self._resolve_replica_failure(entry)
                continue
            if self.obs is not None:
                self.obs.on_decision(
                    self.env.now,
                    drive_index,
                    scheduler.name,
                    decision,
                    len(self.pending),
                )

            # Step 2: switch tapes if necessary.  The service list exists
            # during the switch so arriving requests can be inserted.
            switching = decision.tape_id != drive.mounted_id
            start_head = 0.0 if switching else drive.head_mb
            service = scheduler.build_service_list(
                self._sweep_entries(decision), head_mb=start_head
            )
            context.service = service
            if switching:
                switch_start = self.env.now
                if self.drive_count == 1:
                    mounted = yield from self._exchange_alone(decision.tape_id)
                else:
                    mounted = yield from self._exchange_shared(
                        drive_index, decision.tape_id
                    )
                if not mounted:
                    # The pick never succeeded: the tape is out of
                    # service; its planned sweep has been failed over.
                    context.service = None
                    continue
                self.metrics.on_tape_switch(self.env.now)
                if self.obs is not None:
                    # One span covers the whole exchange, including
                    # failed picks, backoffs, and any wait for the arm.
                    self.obs.on_op(
                        drive_index,
                        "switch",
                        switch_start,
                        self.env.now - switch_start,
                        tape_id=decision.tape_id,
                    )
                    self.obs.on_exchange(
                        (
                            request
                            for entry in decision.entries
                            for request in entry.requests
                        ),
                        self.env.now,
                    )

            # Step 3: execute the service list as one sweep.
            drive_failed = False
            while not service.is_empty:
                if self.faults is not None and self.faults.drive_failure_due(
                    drive_index, self.env.now
                ):
                    # The drive died mid-sweep: the unread remainder goes
                    # back to the shared pending list, to be re-planned
                    # by a surviving drive or after repair.
                    self._requeue_entries(service.remaining())
                    while not service.is_empty:
                        service.pop_next()
                    service.finish_in_flight()
                    drive_failed = True
                    break
                entry = service.pop_next()
                if self.qos is not None:
                    live, expired = self.qos.split_expired(
                        entry.requests, self.env.now
                    )
                    if expired:
                        for request in expired:
                            self._expire_request(request)
                        if not live:
                            # Every requester's TTL has passed: skip the
                            # physical read entirely.
                            service.finish_in_flight()
                            continue
                        entry.requests[:] = live
                read_start = self.env.now
                head_before = drive.head_mb if self.obs is not None else 0.0
                duration = drive.access(entry.position_mb, block_mb)
                yield self._timed(duration)
                if self.obs is not None:
                    self.obs.on_op(
                        drive_index,
                        "read",
                        read_start,
                        duration,
                        tape_id=drive.mounted_id,
                        block_id=entry.block_id,
                        position_mb=entry.position_mb,
                    )
                fault = (
                    self.faults.read_fault(drive.mounted_id, entry.block_id)
                    if self.faults is not None
                    else None
                )
                if fault is None:
                    service.finish_in_flight()
                    self._deliver(
                        entry,
                        duration,
                        locate_s=self._locate_of(drive, head_before, entry),
                    )
                else:
                    yield from self._recover_read(drive_index, entry, fault)
                    service.finish_in_flight()

            context.service = None
            scheduler.on_sweep_complete(context)
            if self.qos is not None:
                self.qos.on_progress(len(self.pending))
            if drive_failed:
                yield from self._repair_drive(drive_index)

    def _major_reschedule(self, drive_index: int) -> Optional[MajorDecision]:
        """Purge undeliverable requests, then plan; ``None`` means no work."""
        if self.faults is not None:
            # Requests whose every known copy is gone can never be
            # scheduled (the masked catalog shows them no replicas).
            self._drop_lost_requests()
        if self.qos is not None and len(self.pending):
            # Expiry-on-dequeue: no drive plans undeliverable work.
            self._expire_from_pending()
        if not len(self.pending):
            return None
        return self.schedulers[drive_index].major_reschedule(
            self.contexts[drive_index]
        )

    # ------------------------------------------------------------------
    # Hooks for service-model extensions (see repro.service.writeback)
    # ------------------------------------------------------------------
    def _sweep_entries(self, decision: MajorDecision) -> List[ServiceEntry]:
        """Entries the sweep for ``decision`` executes."""
        return decision.entries

    def _idle_sweep(self, drive_index: int) -> Optional[MajorDecision]:
        """Work for a drive that would otherwise go idle (none here)."""
        return None

    # ------------------------------------------------------------------
    # Tape exchange
    # ------------------------------------------------------------------
    def _exchange_alone(self, tape_id: int):
        """Mount ``tape_id`` in a one-drive jukebox; True when mounted.

        Failed robot picks come first.  The exchange itself — rewind,
        eject, arm swap, load — is then one timed operation with every
        state change committed at its start.
        """
        drive = self.drives[0]
        picked = yield from self._robot_pick(0, tape_id)
        if not picked:
            return False
        seconds = 0.0
        if drive.is_loaded:
            seconds += drive.rewind()
            seconds += drive.eject()
        seconds += self.robot_swap_s
        seconds += drive.load(self.pool[tape_id])
        yield self._timed(seconds)
        return True

    def _exchange_shared(self, drive_index: int, tape_id: int):
        """Mount ``tape_id`` in one of several drives; True when mounted."""
        drive = self.drives[drive_index]
        # Claim the new tape first so no other drive grabs it while this
        # one rewinds and waits for the arm.
        self.claims[tape_id] = drive_index
        old_tape = drive.mounted_id
        if drive.is_loaded:
            yield self._timed(drive.rewind())
            yield self._timed(drive.eject())
        picked = yield from self._robot_pick(drive_index, tape_id)
        if old_tape is not None:
            del self.claims[old_tape]
            self._wake_idle_drives()  # the old tape is free again
        if not picked:
            del self.claims[tape_id]
            self._wake_idle_drives()
            return False
        yield self._timed(drive.load(self.pool[tape_id]))
        return True

    def _robot_pick(self, drive_index: int, tape_id: int):
        """Pick ``tape_id`` from its slot; False when the cartridge is stuck.

        A failed pick wastes one arm motion, then retries under the
        retry policy.  With several drives every motion holds the shared
        arm and the successful swap is timed here; one drive times its
        swap as part of the exchange.
        """
        shared = self.drive_count > 1
        attempts = 0
        while True:
            if shared:
                yield self.robot.acquire()
            try:
                fault = (
                    self.faults.robot_pick_fault(tape_id)
                    if self.faults is not None
                    else None
                )
                if fault is None:
                    if shared:
                        yield self._timed(self.robot_swap_s)
                    return True
                self.metrics.on_fault(fault.kind, self.env.now)
                if self.qos is not None:
                    self.qos.on_fault()
                if self.obs is not None:
                    self.obs.event(
                        self.env.now,
                        fault.kind,
                        drive=drive_index,
                        tape_id=tape_id,
                    )
                yield self._timed(self.robot_swap_s)
            finally:
                if shared:
                    self.robot.release()
            attempts += 1
            if self.retry is not None and self.retry.allows(attempts):
                self.metrics.on_retry(self.env.now)
                backoff_s = self.retry.backoff_s(attempts - 1)
                if backoff_s > 0:
                    yield backoff_s
                continue
            # The cartridge is stuck: take the tape out of service and
            # fail over the sweep planned against it.
            self.faults.fail_tape(tape_id)
            service = self.contexts[drive_index].service
            if service is not None:
                for entry in service.remaining():
                    self._resolve_replica_failure(entry)
                while not service.is_empty:
                    service.pop_next()
                service.finish_in_flight()
            self._drop_lost_requests()
            return False

    # ------------------------------------------------------------------
    # Completion and fault recovery
    # ------------------------------------------------------------------
    def _locate_of(
        self, drive: TapeDrive, head_before_mb: float, entry: ServiceEntry
    ) -> float:
        """Locate component of the access that just served ``entry``.

        ``DriveTimingModel.locate`` is pure (and memoized), so this
        recomputes the exact figure the drive charged without touching
        any simulation state.  Only called when a tracer is attached.
        """
        if self.obs is None:
            return 0.0
        return drive.timing.locate(head_before_mb, entry.position_mb)

    def _deliver(
        self, entry: ServiceEntry, service_s: float, locate_s: float = 0.0
    ) -> None:
        """Complete every request coalesced onto a successful read."""
        for request in entry.requests:
            self.metrics.on_completion(request, self.env.now, service_s=service_s)
            if self.obs is not None:
                self.obs.on_complete(
                    request, self.env.now, locate_s, service_s - locate_s
                )
            if self.on_request_complete is not None:
                self.on_request_complete(request, self.env.now)
            if self.source.is_closed:
                replacement = self.source.on_completion(self.env.now)
                if replacement is not None:
                    self.submit(replacement)

    def _recover_read(self, drive_index: int, entry: ServiceEntry, fault):
        """Retry a faulted read in place; escalate to failover if futile."""
        drive = self.drives[drive_index]
        tape_id = drive.mounted_id
        block_mb = self.catalog.block_mb
        attempts = 1
        if self.obs is not None:
            self.obs.on_fault(entry.requests, self.env.now)
        while True:
            self.metrics.on_fault(fault.kind, self.env.now)
            if self.qos is not None:
                self.qos.on_fault()
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    fault.kind,
                    drive=drive_index,
                    tape_id=tape_id,
                    block_id=entry.block_id,
                )
            if not (
                fault.transient
                and self.retry is not None
                and self.retry.allows(attempts)
            ):
                break
            backoff_s = self.retry.backoff_s(attempts - 1)
            self.metrics.on_retry(self.env.now)
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    "retry",
                    drive=drive_index,
                    block_id=entry.block_id,
                    attempt=attempts,
                )
            if backoff_s > 0:
                backoff_start = self.env.now
                yield backoff_s
                if self.obs is not None:
                    self.obs.on_op(
                        drive_index,
                        "backoff",
                        backoff_start,
                        backoff_s,
                        tape_id=tape_id,
                        block_id=entry.block_id,
                    )
            read_start = self.env.now
            head_before = drive.head_mb if self.obs is not None else 0.0
            duration = drive.access(entry.position_mb, block_mb)
            yield self._timed(duration)
            if self.obs is not None:
                self.obs.on_op(
                    drive_index,
                    "read",
                    read_start,
                    duration,
                    tape_id=tape_id,
                    block_id=entry.block_id,
                    position_mb=entry.position_mb,
                    detail="retry",
                )
            attempts += 1
            fault = self.faults.read_fault(tape_id, entry.block_id)
            if fault is None:
                self._deliver(
                    entry,
                    duration,
                    locate_s=self._locate_of(drive, head_before, entry),
                )
                return
        # Permanent fault, or the retry budget ran out: this copy is done.
        self.faults.condemn_replica(tape_id, entry.block_id)
        self._resolve_replica_failure(entry)

    def _resolve_replica_failure(self, entry: ServiceEntry) -> None:
        """Fail over ``entry``'s requests to a surviving copy, or fail them."""
        if self.faults.surviving_replicas(entry.block_id):
            self.metrics.on_failover(len(entry.requests), self.env.now)
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    "failover",
                    block_id=entry.block_id,
                    requests=len(entry.requests),
                )
                self.obs.on_requeue(entry.requests, self.env.now, "failover")
            for request in entry.requests:
                self.pending.append(request)
            self._wake_idle_drives()
        else:
            for request in entry.requests:
                self._fail_request(request)

    def _fail_request(self, request: Request) -> None:
        """Permanently fail ``request`` (keeps a closed population going)."""
        self.metrics.on_request_failed(request, self.env.now)
        if self.obs is not None:
            self.obs.on_failed(request, self.env.now)
        if self.source.is_closed:
            replacement = self.source.on_completion(self.env.now)
            if replacement is not None:
                self.submit(replacement)

    def _expire_request(self, request: Request) -> None:
        """Expire ``request`` (keeps a closed population going)."""
        self.metrics.on_expired(request, self.env.now)
        if self.obs is not None:
            self.obs.on_expired(request, self.env.now)
        if self.source.is_closed:
            replacement = self.source.on_completion(self.env.now)
            if replacement is not None:
                self.submit(replacement)

    def _expire_from_pending(self) -> None:
        """Remove and expire pending requests whose TTL has passed."""
        for request in self.qos.expired_pending(self.pending, self.env.now):
            self._expire_request(request)

    def _requeue_entries(self, entries: List[ServiceEntry]) -> None:
        """Return un-read sweep entries to the shared pending list."""
        for entry in entries:
            if self.obs is not None:
                self.obs.on_requeue(entry.requests, self.env.now, "drive-repair")
            for request in entry.requests:
                self.pending.append(request)
        self._wake_idle_drives()

    def _drop_lost_requests(self) -> None:
        """Fail pending requests whose every known copy is gone.

        In a closed loop each failure submits a replacement, which may
        itself ask for a lost block; repeat until none is left, so no
        scheduler ever plans around an undeliverable request.  A loop
        that never empties means the workload asks only for lost blocks.
        """
        for _ in range(_MAX_LOST_ROUNDS):
            lost = [
                request
                for request in self.pending.snapshot()
                if self.faults.block_lost(request.block_id)
            ]
            if not lost:
                return
            self.pending.remove_many(lost)
            for request in lost:
                self._fail_request(request)
        raise RuntimeError(
            f"{_MAX_LOST_ROUNDS} rounds of replacement requests at "
            f"t={self.env.now:g} s all asked for lost blocks: every block "
            "the workload requests is gone"
        )

    def _repair_drive(self, drive_index: int):
        """Take one drive down for repair while the rest keep serving."""
        drive = self.drives[drive_index]
        failure_start = self.env.now
        self.metrics.on_drive_failure(failure_start)
        self.metrics.on_fault("drive-failure", failure_start)
        if self.qos is not None:
            self.qos.on_fault()
        repair_s = self.faults.begin_repair(drive_index, failure_start)
        self.metrics.on_drive_repair(failure_start, repair_s)
        if self.obs is not None:
            self.obs.event(
                failure_start, "drive-failure", drive=drive_index, repair_s=repair_s
            )
            self.obs.on_op(
                drive_index, "repair", failure_start, repair_s, detail="drive-failure"
            )
        # The repair technician pulls the cartridge: the drive comes back
        # empty and its claim is released for the surviving drives.
        mounted = drive.mounted_id
        drive.force_unload()
        if mounted is not None and self.claims.get(mounted) == drive_index:
            del self.claims[mounted]
            self._wake_idle_drives()
        yield repair_s
