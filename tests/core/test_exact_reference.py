"""The cheapest-step bound proves the same optima as the read-time bound.

:func:`optimal_order` prunes with a per-block cheapest-step lower bound.
The original search, which charged every unread block one plain read,
is preserved below as the reference oracle.  Randomized batches of 1-13
blocks at distinct positions sweep helical and serpentine timing, both
startup states, and deferred weights up to the gap regime (~90).
Wherever the reference finishes exact, the production search must too,
with the identical objective value; orders may differ only on exact
cost ties.
"""

import random
from typing import List

import pytest

from repro.core.exact import (
    DEFAULT_NODE_BUDGET,
    BatchPlan,
    _BatchCost,
    _entry_weight,
    _greedy_order,
    _order_cost,
    optimal_order,
    order_cost,
    reverse_first_order,
    sweep_order,
)
from repro.core.sweep import ServiceEntry
from repro.tape.serpentine import DLT_STYLE
from repro.tape.timing import EXB_8505XL
from repro.workload import RequestFactory

BLOCK_MB = 16.0
CAPACITY_MB = 7.0 * 1024.0
TIMINGS = {"helical": EXB_8505XL, "serpentine": DLT_STYLE}
CASES_PER_PARAM = 40


def reference_optimal_order(
    timing,
    head_mb,
    entries,
    block_mb,
    deferred_weight=0.0,
    node_budget=DEFAULT_NODE_BUDGET,
    startup_pending=True,
):
    """The original read-time-bound search (logic verbatim)."""
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

    def _ranked(costs):
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

    memo = {}
    read_plain = model.read_plain_s
    path: List[ServiceEntry] = []
    nodes = 0
    exhausted = False

    def search(mask, last, accrued, pending_weight, remaining):
        nonlocal best_cost, best_order, nodes, exhausted
        costs = root_cost if last < 0 else step_cost[last]
        ranked = root_rank if last < 0 else step_rank[last]
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
            child_pending = pending_weight - weights[index]
            child_remaining = remaining - 1
            bound = child_accrued + read_plain * (
                (child_pending - delta) + delta * child_remaining
            )
            if bound >= best_cost:
                continue
            key = (mask | (1 << index), index)
            seen = memo.get(key)
            if seen is not None and child_accrued >= seen:
                continue
            memo[key] = child_accrued
            path.append(items[index])
            if child_remaining == 0:
                best_cost = child_accrued
                best_order = list(path)
            else:
                search(
                    mask | (1 << index),
                    index,
                    child_accrued,
                    child_pending,
                    child_remaining,
                )
            path.pop()

    search(0, -1, 0.0, total_weight, count)
    return BatchPlan(
        order=tuple(best_order),
        cost_s=best_cost,
        exact=not exhausted,
        nodes=nodes,
    )


def random_batch(rng, factory):
    """1-13 blocks at distinct block-aligned positions, weights 1-3."""
    count = rng.randint(1, 13)
    slots = rng.sample(range(int(CAPACITY_MB // BLOCK_MB)), count)
    entries = [
        ServiceEntry(
            position_mb=slot * BLOCK_MB,
            block_id=block_id,
            requests=[
                factory.create(block_id=block_id, arrival_s=0.0)
                for _ in range(rng.randint(1, 3))
            ],
        )
        for block_id, slot in enumerate(slots)
    ]
    head = rng.choice([0.0, rng.uniform(0.0, CAPACITY_MB)])
    deferred = rng.choice([0.0, float(rng.randint(1, 90))])
    return entries, head, deferred


@pytest.mark.parametrize("startup", [True, False], ids=["startup", "no-startup"])
@pytest.mark.parametrize("technology", sorted(TIMINGS))
def test_same_optimum_as_reference(technology, startup):
    timing = TIMINGS[technology]
    rng = random.Random(f"{technology}-{startup}")
    factory = RequestFactory()
    ties = reference_cut = newly_exact = 0
    for _ in range(CASES_PER_PARAM):
        entries, head, deferred = random_batch(rng, factory)
        kwargs = dict(deferred_weight=deferred, startup_pending=startup)
        reference = reference_optimal_order(timing, head, entries, BLOCK_MB, **kwargs)
        plan = optimal_order(timing, head, entries, BLOCK_MB, **kwargs)
        assert sorted(entry.block_id for entry in plan.order) == sorted(
            entry.block_id for entry in entries
        )
        assert order_cost(
            timing, head, plan.order, BLOCK_MB, **kwargs
        ) == pytest.approx(plan.cost_s, rel=1e-12)
        if not reference.exact:
            reference_cut += 1
            newly_exact += plan.exact
            continue
        assert plan.exact
        assert plan.cost_s == reference.cost_s
        if [entry.block_id for entry in plan.order] != [
            entry.block_id for entry in reference.order
        ]:
            ties += 1
    print(
        f"{technology}/{startup}: {ties} tied orders; {newly_exact} of "
        f"{reference_cut} reference budget-cut instances now exact"
    )

