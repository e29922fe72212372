"""Tests for the analytic cost model, including drive-consistency."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ExtensionCostTracker,
    ServiceEntry,
    ServiceList,
    effective_bandwidth,
    schedule_time,
    sweep_cost,
)
from repro.tape import EXB_8505XL, Tape, TapeDrive

BLOCK = 16.0


class TestSweepCost:
    def test_empty_sweep_is_free(self):
        cost = sweep_cost(EXB_8505XL, 0.0, [], BLOCK)
        assert cost.total_s == 0.0
        assert cost.end_head_mb == 0.0

    def test_single_forward_block(self):
        cost = sweep_cost(EXB_8505XL, 0.0, [100.0], BLOCK)
        expected = EXB_8505XL.locate_forward(100.0) + 0.38 + 1.77 * BLOCK
        assert cost.total_s == pytest.approx(expected)
        assert cost.end_head_mb == 116.0

    def test_block_at_head_streams(self):
        cost = sweep_cost(EXB_8505XL, 100.0, [100.0], BLOCK, startup_pending=False)
        assert cost.locate_s == 0.0
        assert cost.read_s == pytest.approx(1.77 * BLOCK)

    def test_reverse_block_skips_read_startup(self):
        cost = sweep_cost(EXB_8505XL, 500.0, [100.0], BLOCK)
        assert cost.locate_s == pytest.approx(EXB_8505XL.locate_reverse(400.0))
        assert cost.read_s == pytest.approx(1.77 * BLOCK)

    def test_reverse_to_position_zero_pays_bot(self):
        cost = sweep_cost(EXB_8505XL, 500.0, [0.0], BLOCK)
        assert cost.locate_s == pytest.approx(
            EXB_8505XL.locate_reverse(500.0, lands_on_bot=True)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        positions=st.lists(
            st.integers(min_value=0, max_value=440),
            min_size=1,
            max_size=25,
            unique=True,
        ),
        head_slot=st.integers(min_value=0, max_value=440),
    )
    def test_matches_drive_execution_exactly(self, positions, head_slot):
        """The analytic sweep cost equals what the drive actually does.

        This is the consistency property that makes max-bandwidth
        decisions faithful to the simulated hardware.
        """
        position_mbs = [slot * BLOCK for slot in positions]
        head_mb = head_slot * BLOCK
        drive = TapeDrive(timing=EXB_8505XL)
        drive.load(Tape(0))
        drive.locate(head_mb)
        startup = drive.read_startup_pending

        predicted = sweep_cost(
            EXB_8505XL, head_mb, position_mbs, BLOCK, startup_pending=startup
        )

        service = ServiceList(
            [ServiceEntry(position, block_id=index) for index, position in enumerate(position_mbs)],
            head_mb=head_mb,
        )
        actual = 0.0
        while not service.is_empty:
            entry = service.pop_next()
            actual += drive.access(entry.position_mb, BLOCK)
            service.finish_in_flight()
        assert actual == pytest.approx(predicted.total_s, rel=1e-12, abs=1e-9)
        assert drive.head_mb == pytest.approx(predicted.end_head_mb)


class TestScheduleTime:
    def test_mounted_tape_has_no_switch_overhead(self):
        mounted_time = schedule_time(
            EXB_8505XL, [100.0], BLOCK, mounted=True, head_mb=0.0
        )
        other_time = schedule_time(
            EXB_8505XL, [100.0], BLOCK, mounted=False, head_mb=0.0, rewind_from_mb=0.0
        )
        assert other_time - mounted_time == pytest.approx(81.0)

    def test_switch_includes_rewind_of_current_tape(self):
        shallow = schedule_time(
            EXB_8505XL, [0.0], BLOCK, mounted=False, head_mb=0.0, rewind_from_mb=0.0
        )
        deep = schedule_time(
            EXB_8505XL, [0.0], BLOCK, mounted=False, head_mb=0.0, rewind_from_mb=2000.0
        )
        assert deep - shallow == pytest.approx(EXB_8505XL.rewind(2000.0))


class TestEffectiveBandwidth:
    def test_empty_schedule_zero_bandwidth(self):
        assert effective_bandwidth(EXB_8505XL, [], BLOCK, True, 0.0) == 0.0

    def test_more_blocks_amortize_overhead(self):
        one = effective_bandwidth(EXB_8505XL, [0.0], BLOCK, False, 0.0)
        many = effective_bandwidth(
            EXB_8505XL, [index * BLOCK for index in range(20)], BLOCK, False, 0.0
        )
        assert many > one

    def test_closer_blocks_higher_bandwidth(self):
        near = effective_bandwidth(EXB_8505XL, [0.0, 16.0, 32.0], BLOCK, True, 0.0)
        far = effective_bandwidth(EXB_8505XL, [0.0, 3000.0, 6000.0], BLOCK, True, 0.0)
        assert near > far


class TestExtensionCostTracker:
    def test_prefix_costs_match_batch_computation(self):
        """Incremental O(1) updates equal the from-scratch round trip."""
        from repro.analysis import extension_round_trip_cost

        positions = [160.0, 400.0, 3200.0, 6000.0]
        envelope = 100.0
        tracker = ExtensionCostTracker(EXB_8505XL, envelope, BLOCK, charge_switch=False)
        for length, position in enumerate(positions, start=1):
            tracker.extend(position)
            batch = extension_round_trip_cost(
                EXB_8505XL, envelope, positions[:length], BLOCK, charge_switch=False
            )
            assert tracker.prefix_cost() == pytest.approx(batch)

    def test_switch_charge_applies_once(self):
        charged = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=True)
        free = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        charged.extend(100.0)
        free.extend(100.0)
        assert charged.prefix_cost() - free.prefix_cost() == pytest.approx(81.0)

    def test_bandwidth_monotone_in_density(self):
        """Adding a block adjacent to the prefix raises bandwidth; adding a
        distant one lowers it."""
        tracker = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        tracker.extend(0.0)
        base = tracker.prefix_bandwidth()
        tracker.extend(16.0)  # adjacent: nearly free extra bytes
        assert tracker.prefix_bandwidth() > base
        dense = tracker.prefix_bandwidth()
        tracker.extend(6000.0)  # long haul for one block
        assert tracker.prefix_bandwidth() < dense

    def test_unsorted_extension_rejected(self):
        tracker = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        tracker.extend(300.0)
        with pytest.raises(ValueError):
            tracker.extend(100.0)

    def test_count_tracks_blocks(self):
        tracker = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        assert tracker.count == 0
        tracker.extend(10 * BLOCK)
        tracker.extend(20 * BLOCK)
        assert tracker.count == 2
