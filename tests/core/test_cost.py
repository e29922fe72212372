"""Tests for the analytic cost model, including drive-consistency."""

import dataclasses

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
from repro.core.cost import (
    effective_bandwidths,
    extension_bandwidth,
    extension_constants,
    flat_sweep,
)
from repro.tape import EXB_8505XL, Tape, TapeDrive
from repro.tape.serpentine import DLT_STYLE
from repro.tape.timing import DriveTimingModel

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


# ----------------------------------------------------------------------
# The flattened-constants path is bit-identical to the method path
# ----------------------------------------------------------------------
class MethodPathModel(DriveTimingModel):
    """The same constants, but not the exact type: takes the method path."""


def method_twin(model: DriveTimingModel) -> DriveTimingModel:
    return MethodPathModel(
        **{field.name: getattr(model, field.name) for field in dataclasses.fields(model)}
    )


#: The paper's model, plus one whose constants are not short binary fractions.
EXACT_MODELS = [EXB_8505XL, EXB_8505XL.scaled(3.0)]
THRESHOLD = EXB_8505XL.short_threshold_mb


def chained_positions(start, gaps):
    """Positions whose consecutive forward locates are exactly ``gaps``."""
    positions = []
    position = start
    for gap in gaps:
        positions.append(position)
        position = position + BLOCK + gap
    return positions


#: Gaps that hit the segment boundary exactly, streaming (zero) reads,
#: and fractional distances.
gaps = st.sampled_from([0.0, THRESHOLD, THRESHOLD + 0.5, THRESHOLD - 0.25, 1.25]) | (
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False)
)
sweeps = st.tuples(
    st.sampled_from([0.0, BLOCK, 100.5]) | st.floats(0.0, 4000.0, allow_nan=False),
    st.lists(gaps, max_size=15),
    # Extra positions: the beginning of tape (reverse locates landing on
    # BOT) and arbitrary fractional ones.
    st.lists(
        st.sampled_from([0.0, THRESHOLD]) | st.floats(0.0, 6000.0, allow_nan=False),
        max_size=6,
    ),
)


class TestFlatPath:
    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(EXACT_MODELS),
        sweep=sweeps,
        head_choice=st.integers(min_value=-1, max_value=30),
        head_mb=st.sampled_from([0.0, THRESHOLD]) | st.floats(0.0, 6000.0, allow_nan=False),
        startup_pending=st.booleans(),
    )
    def test_sweep_cost_matches_method_path_bit_for_bit(
        self, model, sweep, head_choice, head_mb, startup_pending
    ):
        start, gap_list, extra = sweep
        positions = chained_positions(start, gap_list) + extra
        if positions and head_choice >= 0:
            # Start exactly on a block (a zero-distance first read), or
            # exactly one segment boundary above it (reverse locate of
            # exactly the threshold).
            head_mb = positions[head_choice % len(positions)]
            if head_choice % 2:
                head_mb += BLOCK + THRESHOLD
        constants = extension_constants(model, BLOCK)
        assert constants is not None
        flat = sweep_cost(model, head_mb, positions, BLOCK, startup_pending)
        methods = sweep_cost(method_twin(model), head_mb, positions, BLOCK, startup_pending)
        assert flat == methods  # exact float equality, field by field
        assert flat_sweep(constants, head_mb, positions, BLOCK, startup_pending) == (
            methods.locate_s,
            methods.read_s,
            methods.end_head_mb,
        )
        assert effective_bandwidth(
            model, positions, BLOCK, mounted=False, head_mb=head_mb, rewind_from_mb=head_mb
        ) == effective_bandwidth(
            method_twin(model),
            positions,
            BLOCK,
            mounted=False,
            head_mb=head_mb,
            rewind_from_mb=head_mb,
        )

    @settings(max_examples=100, deadline=None)
    @given(
        model=st.sampled_from(EXACT_MODELS),
        candidates=st.lists(sweeps, max_size=6),
        mounted_id=st.none() | st.integers(min_value=0, max_value=6),
        head_mb=st.sampled_from([0.0, THRESHOLD]) | st.floats(0.0, 6000.0, allow_nan=False),
    )
    def test_candidate_bandwidths_match_method_path(
        self, model, candidates, mounted_id, head_mb
    ):
        # One switch overhead serves every unmounted candidate of the
        # exact model; the twin computes it per candidate.
        sweeps_by_tape = [
            (tape_id, chained_positions(start, gap_list) + extra)
            for tape_id, (start, gap_list, extra) in enumerate(candidates)
        ]
        rewind_from_mb = head_mb if mounted_id is not None else 0.0

        def priced(timing):
            return list(
                effective_bandwidths(
                    timing, sweeps_by_tape, BLOCK, mounted_id, head_mb, rewind_from_mb
                )
            )

        flat = priced(model)
        assert flat == priced(method_twin(model))
        assert flat == [
            (
                tape_id,
                effective_bandwidth(
                    method_twin(model),
                    positions,
                    BLOCK,
                    mounted=(tape_id == mounted_id),
                    head_mb=head_mb,
                    rewind_from_mb=rewind_from_mb,
                ),
            )
            for tape_id, positions in sweeps_by_tape
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(EXACT_MODELS),
        envelope_mb=st.sampled_from([0.0, BLOCK, 300.0])
        | st.floats(0.0, 6000.0, allow_nan=False),
        offset=st.sampled_from(
            [
                -BLOCK / 2,  # ends beyond the envelope without a locate
                0.0,  # starts exactly at the envelope
                THRESHOLD,  # forward locate of exactly the threshold
                THRESHOLD - BLOCK,  # return leg of exactly the threshold
                THRESHOLD + 0.5,
            ]
        )
        | st.floats(-BLOCK / 2, 5000.0, allow_nan=False),
        charge_switch=st.booleans(),
    )
    def test_one_block_extension_matches_tracker(
        self, model, envelope_mb, offset, charge_switch
    ):
        position_mb = envelope_mb + offset
        if position_mb < 0 or position_mb + BLOCK <= envelope_mb:
            return  # not an extension: the block must end beyond the envelope
        constants = extension_constants(model, BLOCK)
        tracker = ExtensionCostTracker(model, envelope_mb, BLOCK, charge_switch)
        tracker.extend(position_mb)
        switch_s = constants.switch_s if charge_switch else 0.0
        assert extension_bandwidth(
            constants, envelope_mb, position_mb, BLOCK, switch_s
        ) == tracker.prefix_bandwidth()

    def test_only_the_exact_type_is_flattened(self):
        assert extension_constants(DLT_STYLE, BLOCK) is None
        assert extension_constants(method_twin(EXB_8505XL), BLOCK) is None

    def test_serpentine_takes_the_method_path(self):
        calls = []

        class Recording(type(DLT_STYLE)):
            def locate_forward(self, distance_mb):
                calls.append(distance_mb)
                return super().locate_forward(distance_mb)

        sweep_cost(Recording(), 0.0, [100.0, 400.0], BLOCK)
        assert calls == [100.0, 400.0 - 100.0 - BLOCK]

    def test_constants_are_cached_on_the_instance(self):
        model = EXB_8505XL.scaled(2.0)
        first = extension_constants(model, BLOCK)
        assert extension_constants(model, BLOCK) is first
        assert extension_constants(model, 2 * BLOCK) is not first
        # Equal models share equal constants, and the cache is invisible
        # to equality and to copies.
        twin = EXB_8505XL.scaled(2.0)
        assert twin == model
        assert extension_constants(twin, BLOCK) == first
        assert "_extension_constants" not in vars(dataclasses.replace(model))


class TestFlatPathEndToEnd:
    """Whole runs price every candidate call-free with the exact model.

    The same run with a method-path twin of the timing model — equal
    constants, but not the exact type — takes the tracker and
    method-call paths everywhere (step 3, arrivals, max-bandwidth
    selection); both must give the same report, bit for bit.
    """

    @pytest.mark.parametrize(
        "scheduler,replicas",
        [
            ("envelope-max-bandwidth", 9),
            ("envelope-max-bandwidth", 2),
            ("envelope-oldest-max-requests", 9),
            ("static-max-bandwidth", 0),
            ("dynamic-oldest-max-bandwidth", 2),
        ],
    )
    def test_report_matches_method_path(self, scheduler, replicas):
        from repro.experiments import ExperimentConfig
        from repro.experiments.runner import build_simulator
        from repro.layout.placement import Layout
        from repro.service.metrics import report_digest

        config = ExperimentConfig(
            scheduler=scheduler,
            layout=Layout.VERTICAL,
            replicas=replicas,
            start_position=1.0,
            queue_length=60,
            horizon_s=30_000.0,
            seed=7,
        )
        flat = build_simulator(config)
        methods = build_simulator(config)
        for drive in methods.drives:
            drive.timing = method_twin(drive.timing)
        assert extension_constants(flat.drives[0].timing, BLOCK) is not None
        assert extension_constants(methods.drives[0].timing, BLOCK) is None
        assert report_digest(flat.run(config.horizon_s)) == report_digest(
            methods.run(config.horizon_s)
        )

    #: Report digests of noisy-timing runs, captured before the flat
    #: path existed.  A noisy model draws a random number on every timing
    #: call, so these pin that the method path still makes exactly the
    #: calls it made, in the same order.
    NOISY_PINS = {
        ("envelope-max-bandwidth", 9): (
            "f61d428a01129fcc3cea56dced0080d8de8e9692165544f88dd1ba675fd0a75d"
        ),
        ("dynamic-oldest-max-bandwidth", 2): (
            "4f815dcd498574a599ea296f4243b5968c9ea2bf54b95f14dab10c7bb0051a7a"
        ),
    }

    @pytest.mark.parametrize("scheduler,replicas", sorted(NOISY_PINS))
    def test_noisy_model_makes_the_same_timing_calls(self, scheduler, replicas):
        import random

        from repro.experiments import ExperimentConfig
        from repro.experiments.runner import build_simulator
        from repro.layout.placement import Layout
        from repro.service.metrics import report_digest
        from repro.tape import NoisyTimingModel

        config = ExperimentConfig(
            scheduler=scheduler,
            layout=Layout.VERTICAL,
            replicas=replicas,
            start_position=1.0,
            queue_length=60,
            horizon_s=30_000.0,
            seed=5,
        )
        simulator = build_simulator(config)
        for drive in simulator.drives:
            drive.timing = NoisyTimingModel(EXB_8505XL, rng=random.Random(11))
        digest = report_digest(simulator.run(config.horizon_s))
        assert digest == self.NOISY_PINS[(scheduler, replicas)]
