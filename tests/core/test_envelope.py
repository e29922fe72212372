"""Tests for the envelope-extension algorithm, including the paper's
Figure 2 worked example."""

import pytest

from repro.core import (
    EnvelopeComputer,
    EnvelopeScheduler,
    MaxBandwidth,
    MaxRequests,
    ServiceList,
)
from repro.layout import Replica
from repro.tape import EXB_8505XL

from .conftest import catalog_from, make_context, mount

BLOCK = 16.0


def compute(catalog, requests, tape_count, mounted=None, head=0.0):
    computer = EnvelopeComputer(
        timing=EXB_8505XL,
        catalog=catalog,
        tape_count=tape_count,
        mounted_id=mounted,
        head_mb=head,
    )
    return computer.compute(requests)


class TestFigure2:
    """The paper's motivating example: the replica of D right after C on
    tape 0 should be chosen over the distant copy at the end of tape 1."""

    def test_initial_envelope_pins_non_replicated_blocks(self, figure2, factory):
        catalog, context = figure2
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(4)]
        state = compute(catalog, requests, tape_count=2, mounted=1, head=0.0)
        # After extension: tape 0 envelope covers C and D (two blocks),
        # tape 1 covers A and B only.
        assert state.envelope[0] == pytest.approx(32.0)
        assert state.envelope[1] == pytest.approx(32.0)

    def test_d_is_assigned_to_tape_0(self, figure2, factory):
        catalog, context = figure2
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(4)]
        state = compute(catalog, requests, tape_count=2, mounted=1, head=0.0)
        d_request = requests[3]
        assert state.assignment[d_request.request_id] == Replica(0, 16.0)

    def test_non_replicated_requests_assigned_to_their_only_tape(self, figure2, factory):
        catalog, context = figure2
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(4)]
        state = compute(catalog, requests, tape_count=2, mounted=1, head=0.0)
        assert state.assignment[requests[0].request_id].tape_id == 1  # A
        assert state.assignment[requests[1].request_id].tape_id == 1  # B
        assert state.assignment[requests[2].request_id].tape_id == 0  # C

    def test_scheduler_never_visits_end_of_tape_1(self, figure2, factory):
        """End-to-end: the major rescheduler's schedules stay inside the
        envelope; D is read from tape 0 at position 16, not 6000."""
        catalog, context = figure2
        scheduler = EnvelopeScheduler(MaxBandwidth())
        for block in range(4):
            context.pending.append(factory.create(block_id=block, arrival_s=0.0))
        positions_seen = []
        while len(context.pending) or positions_seen == []:
            decision = scheduler.major_reschedule(context)
            if decision is None:
                break
            for entry in decision.entries:
                positions_seen.append((decision.tape_id, entry.position_mb))
            # Simulate mounting the chosen tape for the next round.
            mount(context, decision.tape_id)
        assert (1, 6000.0) not in positions_seen
        assert (0, 16.0) in positions_seen


class TestEnvelopeSteps:
    def test_every_request_gets_assigned(self, factory):
        catalog = catalog_from(
            [
                [(0, 0.0)],
                [(1, 160.0)],
                [(0, 320.0), (2, 0.0)],
                [(1, 6000.0), (2, 16.0)],
            ]
        )
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(4)]
        state = compute(catalog, requests, tape_count=3)
        assert set(state.assignment) == {request.request_id for request in requests}

    def test_assignments_point_at_real_replicas(self, factory):
        catalog = catalog_from(
            [
                [(0, 0.0), (1, 0.0)],
                [(0, 160.0), (2, 16.0)],
                [(1, 320.0)],
            ]
        )
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(3)]
        state = compute(catalog, requests, tape_count=3)
        for request in requests:
            replica = state.assignment[request.request_id]
            assert replica in catalog.replicas_of(request.block_id)

    def test_assigned_replicas_lie_inside_envelope(self, factory):
        catalog = catalog_from(
            [
                [(0, 0.0), (1, 480.0)],
                [(0, 160.0)],
                [(1, 320.0), (2, 0.0)],
                [(2, 640.0)],
            ]
        )
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(4)]
        state = compute(catalog, requests, tape_count=3)
        for replica in state.assignment.values():
            assert replica.position_mb + BLOCK <= state.envelope[replica.tape_id] + 1e-9

    def test_mounted_head_position_extends_envelope(self, factory):
        catalog = catalog_from([[(0, 0.0)]])
        requests = [factory.create(block_id=0, arrival_s=0.0)]
        state = compute(catalog, requests, tape_count=2, mounted=1, head=500.0)
        assert state.envelope[1] == 500.0

    def test_all_replicated_requests_pick_cheap_tape(self, factory):
        """With everything replicated, initial envelopes are 0; the greedy
        extension should cluster requests on one tape instead of touching
        all of them."""
        catalog = catalog_from(
            [
                [(0, 0.0), (1, 0.0)],
                [(0, 16.0), (1, 3000.0)],
                [(0, 32.0), (1, 6000.0)],
            ]
        )
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(3)]
        state = compute(catalog, requests, tape_count=2)
        tapes_used = {replica.tape_id for replica in state.assignment.values()}
        assert tapes_used == {0}
        assert state.envelope[1] == 0.0

    def test_shrink_moves_edge_request_to_extended_tape(self, factory):
        """A replicated block at the outer edge of tape 0's envelope also
        sits inside the region that a forced extension of tape 1 encloses;
        the shrink step must move it and pull tape 0's envelope back."""
        catalog = catalog_from(
            [
                # Block 0: non-replicated far block pinning tape 1's envelope.
                [(1, 480.0)],
                # Block 1: replicated; on tape 0 at 320 (the edge), on
                # tape 1 at 160 (inside the pinned envelope of tape 1).
                [(0, 320.0), (1, 160.0)],
            ]
        )
        requests = [factory.create(block_id=block, arrival_s=0.0) for block in range(2)]
        state = compute(catalog, requests, tape_count=2)
        # Both requests should be satisfied by tape 1 alone: block 1's
        # replica at 160 is inside the envelope pinned by block 0.
        assert state.assignment[requests[1].request_id].tape_id == 1
        assert state.envelope[0] == 0.0

    def test_empty_request_list(self):
        catalog = catalog_from([[(0, 0.0)]])
        state = compute(catalog, [], tape_count=2)
        assert state.assignment == {}
        assert state.envelope == {0: 0.0, 1: 0.0}


class TestEnvelopeScheduler:
    def test_major_extracts_only_chosen_tape_requests(self, factory):
        catalog = catalog_from(
            [
                [(0, 0.0)],
                [(0, 16.0)],
                [(1, 0.0)],
            ]
        )
        context = make_context(catalog, tape_count=2)
        for block in range(3):
            context.pending.append(factory.create(block_id=block, arrival_s=0.0))
        scheduler = EnvelopeScheduler(MaxRequests())
        decision = scheduler.major_reschedule(context)
        assert decision.tape_id == 0
        assert sorted(entry.block_id for entry in decision.entries) == [0, 1]
        assert len(context.pending) == 1

    def test_empty_pending_returns_none(self, factory):
        catalog = catalog_from([[(0, 0.0)]])
        context = make_context(catalog, tape_count=2)
        assert EnvelopeScheduler(MaxBandwidth()).major_reschedule(context) is None

    def test_incremental_inserts_within_envelope(self, factory):
        catalog = catalog_from(
            [
                [(0, 0.0)],
                [(0, 320.0)],   # pins tape 0 envelope to 336
                [(0, 160.0)],   # arrives during the sweep, inside envelope
            ]
        )
        context = make_context(catalog, tape_count=2, mounted=0)
        scheduler = EnvelopeScheduler(MaxBandwidth())
        context.pending.append(factory.create(block_id=0, arrival_s=0.0))
        context.pending.append(factory.create(block_id=1, arrival_s=0.0))
        decision = scheduler.major_reschedule(context)
        context.service = ServiceList(decision.entries, head_mb=0.0)
        late = factory.create(block_id=2, arrival_s=5.0)
        assert scheduler.on_arrival(context, late)
        assert 160.0 in context.service.remaining_positions()

    def test_incremental_defers_outside_envelope_on_other_tape(self, factory):
        catalog = catalog_from(
            [
                [(0, 0.0)],
                [(1, 6000.0)],  # only copy far on another tape
            ]
        )
        context = make_context(catalog, tape_count=2, mounted=0)
        scheduler = EnvelopeScheduler(MaxBandwidth())
        context.pending.append(factory.create(block_id=0, arrival_s=0.0))
        decision = scheduler.major_reschedule(context)
        context.service = ServiceList(decision.entries, head_mb=0.0)
        late = factory.create(block_id=1, arrival_s=5.0)
        assert not scheduler.on_arrival(context, late)
        assert late in context.pending

    def test_incremental_extension_on_mounted_tape(self, factory):
        """A new request just beyond the mounted tape's envelope, whose
        alternative replica is a long haul elsewhere, should extend the
        mounted envelope and join the sweep."""
        catalog = catalog_from(
            [
                [(0, 0.0)],
                [(0, 32.0), (1, 6500.0)],
            ]
        )
        context = make_context(catalog, tape_count=2, mounted=0)
        scheduler = EnvelopeScheduler(MaxBandwidth())
        context.pending.append(factory.create(block_id=0, arrival_s=0.0))
        decision = scheduler.major_reschedule(context)
        context.service = ServiceList(decision.entries, head_mb=0.0)
        late = factory.create(block_id=1, arrival_s=1.0)
        assert scheduler.on_arrival(context, late)
        assert 32.0 in context.service.remaining_positions()
        assert scheduler._active_envelope[0] == pytest.approx(48.0)

    def test_sweep_complete_clears_envelope(self, factory):
        catalog = catalog_from([[(0, 0.0)]])
        context = make_context(catalog, tape_count=2)
        scheduler = EnvelopeScheduler(MaxBandwidth())
        context.pending.append(factory.create(block_id=0, arrival_s=0.0))
        scheduler.major_reschedule(context)
        assert scheduler._active_envelope
        scheduler.on_sweep_complete(context)
        assert not scheduler._active_envelope

    def test_name_includes_policy(self):
        assert EnvelopeScheduler(MaxBandwidth()).name == "envelope-max-bandwidth"
