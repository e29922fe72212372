"""LTSP optimality baselines: exact and approximate batch sequencing.

The paper compares its scheduler families only against each other, never
against *optimal*, so it cannot say how much headroom a heuristic leaves
on the table.  The Linear Tape Scheduling Problem (LTSP) literature
supplies the missing baseline: sequencing a batch of reads on one linear
tape to minimize the sum of (weighted) completion times.  "An Exact
Algorithm for the Linear Tape Scheduling Problem" (arXiv 2112.09384)
solves the single-tape problem exactly; "On Approximate Sequencing
Policies" (arXiv 2112.07018) gives cheap near-optimal policies.  The
multi-tape *assignment* remains NP-hard (the paper's own Theorem 1), so
these families keep the per-sweep batch structure of the static family
— serve every pending request the chosen tape can satisfy — and
optimize the two decisions that remain: which tape, and in what order.

Three schedulers:

* ``exact-batch`` — per-sweep exact optimizer: branch-and-bound with
  memoization over (served-subset, last-read) states, drive-exact
  transition costs, and a configurable node budget that falls back to
  the best order found so far (seeded with both sweep passes and the
  greedy policy, so the fallback is never worse than those).
* ``approx-greedy-cost`` — the classic minimum-latency greedy: always
  read next the block with the smallest time-per-satisfied-request
  ratio (2112.07018's cost-over-weight sequencing intuition).
* ``approx-best-pass`` — evaluate the two canonical single-pass orders
  (forward-then-reverse, reverse-then-forward) under the exact cost
  model and execute the cheaper one.

The decision objective ``J`` charges every pending request for the time
this decision makes it wait: requests served by the sweep wait until
their read completes; requests deferred to other tapes wait for the
whole sweep (including any tape-switch overhead).  Minimizing ``J``
per decision minimizes the decision's total response-time contribution.

All transition arithmetic mirrors :class:`repro.tape.drive.TapeDrive`
exactly (same rules as :func:`repro.core.cost.sweep_cost`), so planned
costs equal what the simulated hardware will do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..tape.timing import DriveTimingModel
from ..workload.requests import Request
from .base import (
    MajorDecision,
    Scheduler,
    SchedulerContext,
    coalesce_entries,
    insert_into_sweep,
)
from .policies import jukebox_order
from .sweep import ServiceEntry, SweepPhase

#: Transition evaluations per batch optimization before the exact search
#: stops and returns the best order found so far.  Exhaustive search of a
#: batch of ``m`` distinct blocks needs at most ``2^m * m^2 / 2`` nodes
#: in the worst case; the memo and lower-bound pruning reach far fewer.
#: Measured over the gap matrix's Q-60 and Q-100 runs (200 ks, seed 42),
#: the default keeps every batch of up to 11 blocks exact, 92-100% of
#: those of 12-13 blocks and 50-83% of 14-15, and bounds the cost of the
#: larger ones, which mostly exhaust it.
DEFAULT_NODE_BUDGET = 50_000

#: Relative margin above the incumbent a lower bound must reach before
#: :func:`optimal_order` cuts a node (absorbs floating-point drift).
_BOUND_SLACK = 1e-9


class _BatchCost:
    """Drive-exact transition arithmetic for one (timing, block size)."""

    __slots__ = (
        "block_mb",
        "read_plain_s",
        "read_startup_s",
        "_locate_forward",
        "_locate_reverse",
    )

    def __init__(self, timing: DriveTimingModel, block_mb: float) -> None:
        self.block_mb = float(block_mb)
        self.read_plain_s = timing.read(block_mb, startup=False)
        self.read_startup_s = timing.read(block_mb, startup=True)
        self._locate_forward = timing.locate_forward
        self._locate_reverse = timing.locate_reverse

    def step(
        self, head_mb: float, startup_pending: bool, position_mb: float
    ) -> Tuple[float, float, bool]:
        """Locate to ``position_mb`` and read one block.

        Returns ``(seconds, end_head_mb, startup_pending_after)`` with
        the same state rules as the drive: a forward locate re-arms the
        read startup, a reverse locate clears it, a zero-distance locate
        leaves it unchanged, and any read clears it.
        """
        if position_mb > head_mb:
            seconds = self._locate_forward(position_mb - head_mb)
            startup_pending = True
        elif position_mb < head_mb:
            seconds = self._locate_reverse(
                head_mb - position_mb, lands_on_bot=(position_mb == 0)
            )
            startup_pending = False
        else:
            seconds = 0.0
        seconds += self.read_startup_s if startup_pending else self.read_plain_s
        return seconds, position_mb + self.block_mb, False


def _entry_weight(entry: ServiceEntry) -> float:
    return float(len(entry.requests))


def _order_cost(
    model: _BatchCost,
    head_mb: float,
    order: Sequence[ServiceEntry],
    deferred_weight: float,
    startup_pending: bool,
) -> float:
    """The objective ``J`` of executing ``order`` from ``head_mb``."""
    pending_weight = deferred_weight + sum(_entry_weight(entry) for entry in order)
    head = float(head_mb)
    startup = startup_pending
    total = 0.0
    for entry in order:
        seconds, head, startup = model.step(head, startup, entry.position_mb)
        total += seconds * pending_weight
        pending_weight -= _entry_weight(entry)
    return total


def order_cost(
    timing: DriveTimingModel,
    head_mb: float,
    order: Sequence[ServiceEntry],
    block_mb: float,
    deferred_weight: float = 0.0,
    startup_pending: bool = True,
) -> float:
    """Weighted completion-time objective of executing ``order``.

    Each entry contributes ``weight * completion_time`` (weight = number
    of coalesced requests); ``deferred_weight`` requests additionally
    wait for the full execution time.
    """
    model = _BatchCost(timing, block_mb)
    return _order_cost(model, head_mb, order, deferred_weight, startup_pending)


def sweep_order(
    entries: Sequence[ServiceEntry], head_mb: float
) -> List[ServiceEntry]:
    """The paper's forward-then-reverse pass over ``entries``."""
    forward = sorted(
        (entry for entry in entries if entry.position_mb >= head_mb),
        key=lambda entry: (entry.position_mb, entry.block_id),
    )
    reverse = sorted(
        (entry for entry in entries if entry.position_mb < head_mb),
        key=lambda entry: (-entry.position_mb, entry.block_id),
    )
    return forward + reverse


def reverse_first_order(
    entries: Sequence[ServiceEntry], head_mb: float
) -> List[ServiceEntry]:
    """The mirrored pass: reverse phase first, then the forward phase."""
    forward = sorted(
        (entry for entry in entries if entry.position_mb >= head_mb),
        key=lambda entry: (entry.position_mb, entry.block_id),
    )
    reverse = sorted(
        (entry for entry in entries if entry.position_mb < head_mb),
        key=lambda entry: (-entry.position_mb, entry.block_id),
    )
    return reverse + forward


def _greedy_order(
    model: _BatchCost,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    startup_pending: bool,
) -> List[ServiceEntry]:
    remaining = sorted(
        entries, key=lambda entry: (entry.position_mb, entry.block_id)
    )
    head = float(head_mb)
    startup = startup_pending
    order: List[ServiceEntry] = []
    while remaining:
        best_index = 0
        best_key: Optional[Tuple[float, float]] = None
        for index, entry in enumerate(remaining):
            seconds, _, _ = model.step(head, startup, entry.position_mb)
            key = (seconds / max(_entry_weight(entry), 1.0), entry.position_mb)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        entry = remaining.pop(best_index)
        _, head, startup = model.step(head, startup, entry.position_mb)
        order.append(entry)
    return order


def greedy_cost_order(
    timing: DriveTimingModel,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    block_mb: float,
    startup_pending: bool = True,
) -> List[ServiceEntry]:
    """Minimum-latency greedy: cheapest time-per-request read next."""
    return _greedy_order(
        _BatchCost(timing, block_mb), head_mb, entries, startup_pending
    )


def best_pass_order(
    timing: DriveTimingModel,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    block_mb: float,
    deferred_weight: float = 0.0,
    startup_pending: bool = True,
) -> List[ServiceEntry]:
    """The cheaper of the two single-pass orders under the exact cost."""
    model = _BatchCost(timing, block_mb)
    forward_first = sweep_order(entries, head_mb)
    reverse_first = reverse_first_order(entries, head_mb)
    forward_cost = _order_cost(
        model, head_mb, forward_first, deferred_weight, startup_pending
    )
    reverse_cost = _order_cost(
        model, head_mb, reverse_first, deferred_weight, startup_pending
    )
    return reverse_first if reverse_cost < forward_cost else forward_first


@dataclass(frozen=True)
class BatchPlan:
    """Result of one batch optimization."""

    order: Tuple[ServiceEntry, ...]
    cost_s: float
    #: True when the search ran to completion (the order is provably
    #: optimal); False when the node budget stopped it early and
    #: ``order`` is the best found so far.
    exact: bool
    nodes: int


def optimal_order(
    timing: DriveTimingModel,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    block_mb: float,
    deferred_weight: float = 0.0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    startup_pending: bool = True,
) -> BatchPlan:
    """Optimal execution order of ``entries`` under the ``J`` objective.

    Branch-and-bound over read permutations with memoization on
    (served-subset, last-read) states — the drive state after a read is
    fully determined by that pair, so dominated prefixes are cut — plus
    a cheapest-step lower bound.  The incumbent is seeded with both
    single-pass orders and the greedy policy, so even when
    ``node_budget`` exhausts the search the returned order is at least
    as good as every approximation policy in this module.

    The bound charges each unread block ``j`` its cheapest possible
    incoming step ``min_in[j]`` (locate plus read, from the root state
    or from the end of any other block).  Every unread block still needs
    its own step; the deferred weight waits for all of them and each
    block's own weight waits at least for its own, so the rest of any
    completion costs at least ``delta * sum(min_in) + sum(w * min_in)``
    over the unread blocks.  Since ``min_in[j]`` is at least one plain
    read, this bound is never looser than charging each block one read.

    Floating point: both sums are carried down the recursion by
    subtraction, which can drift by a few ulps of their initial values;
    those initial values are themselves lower bounds on any complete
    order's cost, so the drift is a few ulps of the incumbent.  A node is
    therefore cut only when its bound reaches the incumbent plus a
    relative slack of ``1e-9`` (far above the drift, far below any real
    cost difference), while a complete order must still beat the
    incumbent exactly to replace it.
    """
    model = _BatchCost(timing, block_mb)
    items = sorted(entries, key=lambda entry: (entry.position_mb, entry.block_id))
    count = len(items)
    if count == 0:
        return BatchPlan(order=(), cost_s=0.0, exact=True, nodes=0)
    weights = [_entry_weight(entry) for entry in items]
    positions = [entry.position_mb for entry in items]
    delta = float(deferred_weight)
    total_weight = sum(weights) + delta

    best_order: List[ServiceEntry] = []
    best_cost = float("inf")
    for seed in (
        sweep_order(items, head_mb),
        reverse_first_order(items, head_mb),
        _greedy_order(model, head_mb, items, startup_pending),
    ):
        cost = _order_cost(model, head_mb, seed, delta, startup_pending)
        if cost < best_cost:
            best_cost = cost
            best_order = seed

    # The drive state after reading block ``i`` is fully determined
    # (head just past ``i``, startup cleared), so every transition cost
    # is precomputable: one ``count``-vector for the root state and one
    # ``count x count`` matrix between reads, plus per-predecessor child
    # orders (cheapest time-per-weight first) hoisted out of the search.
    def _ranked(costs: Sequence[float]) -> List[int]:
        return sorted(
            range(count),
            key=lambda j: (costs[j] / max(weights[j], 1.0), positions[j]),
        )

    root_cost = [
        model.step(float(head_mb), startup_pending, positions[j])[0]
        for j in range(count)
    ]
    step_cost = [
        [
            model.step(positions[i] + model.block_mb, False, positions[j])[0]
            for j in range(count)
        ]
        for i in range(count)
    ]
    root_rank = _ranked(root_cost)
    step_rank = [_ranked(step_cost[i]) for i in range(count)]
    # The cheapest step into each block, whatever read precedes it.
    min_in = [
        min([root_cost[j]] + [step_cost[i][j] for i in range(count) if i != j])
        for j in range(count)
    ]
    weighted_min_in = [weights[j] * min_in[j] for j in range(count)]

    memo = {}
    path: List[ServiceEntry] = []
    nodes = 0
    exhausted = False
    cutoff = best_cost * (1.0 + _BOUND_SLACK)

    def search(
        mask: int,
        last: int,
        accrued: float,
        pending_weight: float,
        remaining: int,
        rem_time: float,
        rem_wtime: float,
    ) -> None:
        nonlocal best_cost, best_order, cutoff, nodes, exhausted
        costs = root_cost if last < 0 else step_cost[last]
        ranked = root_rank if last < 0 else step_rank[last]
        child_remaining = remaining - 1
        for index in ranked:
            if (mask >> index) & 1:
                continue
            if exhausted:
                return
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return
            child_accrued = accrued + costs[index] * pending_weight
            if child_remaining == 0:
                if child_accrued < best_cost:
                    best_cost = child_accrued
                    cutoff = best_cost * (1.0 + _BOUND_SLACK)
                    best_order = path + [items[index]]
                continue
            # Every unread block still needs its cheapest incoming step:
            # the deferred weight waits for all of them, each block's
            # own weight at least for its own.
            child_time = rem_time - min_in[index]
            child_wtime = rem_wtime - weighted_min_in[index]
            if child_accrued + delta * child_time + child_wtime >= cutoff:
                continue
            child_mask = mask | (1 << index)
            key = (child_mask, index)
            seen = memo.get(key)
            if seen is not None and child_accrued >= seen:
                continue
            memo[key] = child_accrued
            path.append(items[index])
            search(
                child_mask,
                index,
                child_accrued,
                pending_weight - weights[index],
                child_remaining,
                child_time,
                child_wtime,
            )
            path.pop()

    search(0, -1, 0.0, total_weight, count, sum(min_in), sum(weighted_min_in))
    return BatchPlan(
        order=tuple(best_order),
        cost_s=best_cost,
        exact=not exhausted,
        nodes=nodes,
    )


class OrderedServiceList:
    """Executes a precomputed read order; interface-compatible with
    :class:`~repro.core.sweep.ServiceList`.

    Unlike the sweep list, the order is explicit, so insertions are
    always accepted; when a ``replan`` callback is supplied, each
    insertion re-optimizes the not-yet-started remainder from the head
    state the next pop will see.
    """

    def __init__(
        self,
        entries: Sequence[ServiceEntry],
        head_mb: float,
        block_mb: float = 0.0,
        replan: Optional[
            Callable[[float, bool, List[ServiceEntry]], Sequence[ServiceEntry]]
        ] = None,
    ) -> None:
        self.start_head_mb = float(head_mb)
        self._entries: List[ServiceEntry] = list(entries)
        self._head_mb = float(head_mb)
        self._block_mb = float(block_mb)
        self._startup_pending = True
        self._in_flight: Optional[ServiceEntry] = None
        self._replan = replan

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        """True when no reads remain to be started."""
        return not self._entries

    @property
    def in_flight(self) -> Optional[ServiceEntry]:
        """The entry currently being read, if any."""
        return self._in_flight

    @property
    def phase(self) -> SweepPhase:
        """An explicit order has no phases; report DONE only when empty."""
        return SweepPhase.DONE if self.is_empty else SweepPhase.FORWARD

    def remaining(self) -> List[ServiceEntry]:
        """Entries not yet started, in execution order."""
        return list(self._entries)

    def remaining_positions(self) -> List[float]:
        """Positions of not-yet-started entries, in execution order."""
        return [entry.position_mb for entry in self._entries]

    def find_block(self, block_id: int) -> Optional[ServiceEntry]:
        """The first not-yet-started entry for ``block_id``, or ``None``."""
        for entry in self._entries:
            if entry.block_id == block_id:
                return entry
        return None

    # -- execution ---------------------------------------------------------
    def pop_next(self) -> ServiceEntry:
        """Dequeue the next planned read and mark it in-flight."""
        if not self._entries:
            raise IndexError("pop from an empty service list")
        entry = self._entries.pop(0)
        self._in_flight = entry
        return entry

    def finish_in_flight(self) -> None:
        """Mark the in-flight read complete and advance the head model."""
        if self._in_flight is not None:
            self._head_mb = self._in_flight.position_mb + self._block_mb
            self._startup_pending = False
        self._in_flight = None

    def planning_state(self) -> Tuple[float, bool]:
        """Head position and startup state the next pop will start from."""
        if self._in_flight is not None:
            return self._in_flight.position_mb + self._block_mb, False
        return self._head_mb, self._startup_pending

    # -- insertion ----------------------------------------------------------
    def can_insert(self, position_mb: float) -> bool:
        """An explicit order can always accommodate one more read."""
        return True

    def insert(self, entry: ServiceEntry) -> bool:
        """Add ``entry`` and re-optimize the not-yet-started remainder."""
        self._entries.append(entry)
        if self._replan is not None and len(self._entries) > 1:
            head, startup = self.planning_state()
            self._entries = list(self._replan(head, startup, list(self._entries)))
        return True


class _BatchScheduler(Scheduler):
    """Shared chassis of the LTSP families.

    The major rescheduler keeps the static family's batch structure —
    serve *all* pending requests the chosen tape can satisfy — but
    plans the read order with the family's sequencing policy and picks
    the tape minimizing the full objective ``J`` (switch overhead is
    charged against every pending request).  The incremental scheduler
    absorbs arrivals for the mounted tape and re-plans the remainder.
    """

    def __init__(self) -> None:
        self._timing: Optional[DriveTimingModel] = None
        self._block_mb: float = 0.0
        self._deferred: float = 0.0
        self._planned: Optional[List[ServiceEntry]] = None
        self._planned_head: Optional[float] = None
        #: Objective value of the last major decision (test/debug hook).
        self.last_decision_cost: Optional[float] = None

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        """The family's sequencing policy; returns an execution order."""
        raise NotImplementedError

    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        if len(context.pending) == 0:
            return None
        candidates = context.pending.candidate_tapes()
        timing = context.jukebox.timing
        block_mb = context.block_mb
        self._timing = timing
        self._block_mb = block_mb
        total = float(len(context.pending))
        mounted = context.mounted_id
        anchor = mounted if mounted is not None else 0
        # Deferred requests are drained concurrently by the jukebox's
        # other drives (if any), so each one effectively waits only a
        # 1/drive_count share of this sweep.  With one drive this is a
        # no-op; under the multi-drive service it stops the objective
        # from over-penalizing deferral and over-absorbing per sweep.
        defer_scale = 1.0 / float(max(context.drive_count, 1))
        best_cost: Optional[float] = None
        best: Optional[Tuple[int, List[ServiceEntry], List[Request], float, float]] = None
        for tape_id in jukebox_order(context.tape_count, anchor):
            requests = candidates.get(tape_id)
            if not requests:
                continue
            entries = coalesce_entries(
                requests, context.pending.positions_on(tape_id, requests)
            )
            deferred = (total - float(len(requests))) * defer_scale
            if tape_id == mounted:
                head = context.head_mb
                overhead_s = 0.0
            else:
                head = 0.0
                rewind_from = context.head_mb if mounted is not None else 0.0
                overhead_s = timing.switch_with_rewind(rewind_from)
            order = self.plan(timing, head, entries, block_mb, deferred)
            charged = float(len(requests)) + deferred
            cost = overhead_s * charged + order_cost(
                timing, head, order, block_mb, deferred_weight=deferred
            )
            # Renewal-reward normalization: competing sweeps serve
            # different numbers of requests, so the steady-state-optimal
            # choice minimizes waiting cost *per request served*, not
            # the absolute cost of one decision (which would favour
            # tiny, quick sweeps and starve throughput).
            cost /= float(len(requests))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = (tape_id, order, requests, head, deferred)
        if best is None:
            return None
        tape_id, order, requests, head, deferred = best
        context.pending.remove_many(requests)
        self._planned = order
        self._planned_head = head
        self._deferred = deferred
        self.last_decision_cost = best_cost
        return MajorDecision(tape_id=tape_id, entries=list(order))

    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        if insert_into_sweep(context, request):
            return True
        context.pending.append(request)
        return False

    def build_service_list(self, entries: List[ServiceEntry], head_mb: float):
        planned = self._planned
        self._planned = None
        if (
            planned is not None
            and self._planned_head == head_mb
            and len(planned) == len(entries)
            and all(a is b for a, b in zip(planned, entries))
        ):
            order: Sequence[ServiceEntry] = planned
        elif self._timing is not None:
            # Foreign entries (e.g. a starvation-guard forced decision):
            # plan them fresh with the family's sequencing policy.
            order = self.plan(
                self._timing, head_mb, list(entries), self._block_mb, self._deferred
            )
        else:
            order = sweep_order(entries, head_mb)
        return OrderedServiceList(
            order, head_mb=head_mb, block_mb=self._block_mb, replan=self._replan
        )

    def _replan(
        self, head_mb: float, startup_pending: bool, entries: List[ServiceEntry]
    ) -> Sequence[ServiceEntry]:
        if self._timing is None:
            return sweep_order(entries, head_mb)
        return self.plan(
            self._timing,
            head_mb,
            entries,
            self._block_mb,
            self._deferred,
            startup_pending=startup_pending,
        )


class ExactBatchScheduler(_BatchScheduler):
    """Exact per-sweep batch optimizer (arXiv 2112.09384 baseline)."""

    name = "exact-batch"

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET) -> None:
        super().__init__()
        self.node_budget = int(node_budget)
        #: The most recent :class:`BatchPlan` (test/debug hook).
        self.last_plan: Optional[BatchPlan] = None

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        plan = optimal_order(
            timing,
            head_mb,
            entries,
            block_mb,
            deferred_weight=deferred_weight,
            node_budget=self.node_budget,
            startup_pending=startup_pending,
        )
        self.last_plan = plan
        return list(plan.order)


class GreedyCostScheduler(_BatchScheduler):
    """Minimum-latency greedy sequencing (arXiv 2112.07018 family)."""

    name = "approx-greedy-cost"

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        return greedy_cost_order(
            timing, head_mb, entries, block_mb, startup_pending=startup_pending
        )


class BestPassScheduler(_BatchScheduler):
    """Best of the two single-pass orders (arXiv 2112.07018 family)."""

    name = "approx-best-pass"

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        return best_pass_order(
            timing,
            head_mb,
            entries,
            block_mb,
            deferred_weight=deferred_weight,
            startup_pending=startup_pending,
        )
