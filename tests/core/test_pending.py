"""Unit tests for the pending list."""

import pytest

from repro.core import PendingList

from .conftest import catalog_from


@pytest.fixture
def catalog():
    # Block 0 on tapes 0+1 (replicated), block 1 on tape 0, block 2 on tape 2.
    return catalog_from([[(0, 0.0), (1, 16.0)], [(0, 16.0)], [(2, 0.0)]])


@pytest.fixture
def pending(catalog):
    return PendingList(catalog)


class TestPendingList:
    def test_starts_empty(self, pending):
        assert len(pending) == 0
        assert pending.oldest() is None

    def test_append_preserves_arrival_order(self, pending, factory):
        first = factory.create(block_id=1, arrival_s=0.0)
        second = factory.create(block_id=2, arrival_s=1.0)
        pending.append(first)
        pending.append(second)
        assert pending.oldest() is first
        assert pending.snapshot() == [first, second]

    def test_duplicate_append_rejected(self, pending, factory):
        request = factory.create(block_id=0, arrival_s=0.0)
        pending.append(request)
        with pytest.raises(ValueError):
            pending.append(request)

    def test_contains(self, pending, factory):
        request = factory.create(block_id=0, arrival_s=0.0)
        assert request not in pending
        pending.append(request)
        assert request in pending

    def test_requests_for_tape_uses_replicas(self, pending, factory):
        replicated = factory.create(block_id=0, arrival_s=0.0)
        tape0_only = factory.create(block_id=1, arrival_s=1.0)
        tape2_only = factory.create(block_id=2, arrival_s=2.0)
        for request in (replicated, tape0_only, tape2_only):
            pending.append(request)
        assert pending.requests_for_tape(0) == [replicated, tape0_only]
        assert pending.requests_for_tape(1) == [replicated]
        assert pending.requests_for_tape(2) == [tape2_only]
        assert pending.requests_for_tape(5) == []

    def test_candidate_tapes_maps_all_replicas(self, pending, factory):
        replicated = factory.create(block_id=0, arrival_s=0.0)
        pending.append(replicated)
        candidates = pending.candidate_tapes()
        assert set(candidates) == {0, 1}
        assert candidates[0] == [replicated]
        assert candidates[1] == [replicated]

    def test_remove_many(self, pending, factory):
        requests = [factory.create(block_id=index % 3, arrival_s=index) for index in range(4)]
        for request in requests:
            pending.append(request)
        pending.remove_many(requests[1:3])
        assert pending.snapshot() == [requests[0], requests[3]]

    def test_remove_missing_raises(self, pending, factory):
        ghost = factory.create(block_id=0, arrival_s=0.0)
        with pytest.raises(KeyError):
            pending.remove_many([ghost])

    def test_iteration(self, pending, factory):
        requests = [factory.create(block_id=0, arrival_s=index) for index in range(3)]
        # Same block requested three times is fine: distinct requests.
        for request in requests:
            pending.append(request)
        assert list(pending) == requests

    def test_positions_on_is_aligned_with_the_tape_requests(self, pending, factory):
        replicated = factory.create(block_id=0, arrival_s=0.0)
        tape0_only = factory.create(block_id=1, arrival_s=1.0)
        again = factory.create(block_id=0, arrival_s=2.0)
        for request in (replicated, tape0_only, again):
            pending.append(request)
        on_tape0 = pending.requests_for_tape(0)
        assert pending.positions_on(0, on_tape0) == [0.0, 16.0, 0.0]
        assert pending.positions_on(1, pending.requests_for_tape(1)) == [16.0, 16.0]
        assert pending.positions_on(2, []) == []

    def test_index_built_late_matches_one_kept_from_the_start(self, catalog, factory):
        """The by-tape index appears at the first by-tape query."""
        requests = [
            factory.create(block_id=index % 3, arrival_s=index) for index in range(7)
        ]
        early = PendingList(catalog)
        early.candidate_tapes()  # index kept from the first append
        late = PendingList(catalog)
        for request in requests:
            early.append(request)
            late.append(request)
        early.remove_many(requests[1:3])
        late.remove_many(requests[1:3])
        assert late.candidate_tapes() == early.candidate_tapes()
        for tape_id in (0, 1, 2):
            on_tape = late.requests_for_tape(tape_id)
            assert on_tape == early.requests_for_tape(tape_id)
            assert late.positions_on(tape_id, on_tape) == early.positions_on(
                tape_id, on_tape
            )
        late.remove_many(requests[3:5])
        early.remove_many(requests[3:5])
        assert late.candidate_tapes() == early.candidate_tapes()
        assert late.oldest() is early.oldest() is requests[0]
