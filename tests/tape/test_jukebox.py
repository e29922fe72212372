"""Unit tests for tapes, the robot arm, and the jukebox composition."""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.runner import build_simulator
from repro.obs import Tracer
from repro.tape import (
    DEFAULT_TAPE_CAPACITY_MB,
    EXB_8505XL,
    RobotArm,
    RobotError,
    Tape,
    TapePool,
)


class TestTape:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Tape(tape_id=-1)
        with pytest.raises(ValueError):
            Tape(tape_id=0, capacity_mb=0)

    def test_contains(self):
        tape = Tape(0, capacity_mb=100)
        assert tape.contains(0, 16)
        assert tape.contains(84, 16)
        assert not tape.contains(85, 16)
        assert not tape.contains(-1, 0)

    def test_validate_extent_raises(self):
        tape = Tape(0, capacity_mb=100)
        with pytest.raises(ValueError):
            tape.validate_extent(90, 16)

    def test_slots(self):
        tape = Tape(0, capacity_mb=7 * 1024)
        assert tape.slots(16) == 448
        assert tape.slots(1) == 7168
        with pytest.raises(ValueError):
            tape.slots(0)


class TestTapePool:
    def test_uniform_pool(self):
        pool = TapePool.uniform(10)
        assert len(pool) == 10
        assert pool[3].tape_id == 3
        assert pool[3].capacity_mb == DEFAULT_TAPE_CAPACITY_MB
        assert list(pool.tape_ids) == list(range(10))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            TapePool.uniform(0)

    def test_jukebox_order_wraps(self):
        pool = TapePool.uniform(4)
        assert pool.jukebox_order(start_after=1) == [2, 3, 0, 1]
        assert pool.jukebox_order(start_after=3) == [0, 1, 2, 3]


class TestRobotArm:
    def test_swap_moves_tapes(self):
        robot = RobotArm(timing=EXB_8505XL, slot_count=3)
        seconds = robot.swap(1)
        assert seconds == pytest.approx(20.0)
        assert robot.in_drive == 1
        assert robot.in_slots == {0, 2}

    def test_swap_returns_old_tape_to_slots(self):
        robot = RobotArm(timing=EXB_8505XL, slot_count=3)
        robot.swap(1)
        robot.swap(2)
        assert robot.in_drive == 2
        assert robot.in_slots == {0, 1}
        assert robot.swaps == 2

    def test_swap_missing_tape_rejected(self):
        robot = RobotArm(timing=EXB_8505XL, slot_count=2)
        robot.swap(0)
        with pytest.raises(RobotError):
            robot.swap(0)  # already in the drive, not in a slot


def _traced_run():
    """The drive spans of a short traced one-drive run."""
    config = ExperimentConfig(tape_count=5, queue_length=10, horizon_s=20_000.0)
    tracer = Tracer()
    build_simulator(config, obs=tracer).run(config.horizon_s)
    return tracer.drive_spans


def _switches_after_reads(spans):
    """Each later switch paired with the head position it rewinds from."""
    head_mb = None
    for span in spans:
        if span.kind == "read":
            head_mb = span.position_mb + 16.0
        elif span.kind == "switch" and head_mb is not None:
            yield span, head_mb


class TestJukebox:
    """The paper's jukebox is the one-drive case of the service loop."""

    def test_build_defaults(self):
        simulator = build_simulator(ExperimentConfig(horizon_s=1_000.0))
        assert len(simulator.pool) == 10
        assert simulator.contexts[0].jukebox.tape_count == 10
        assert simulator.contexts[0].mounted_id is None

    def test_initial_mount_skips_rewind_and_eject(self):
        spans = _traced_run()
        assert spans[0].kind == "switch"
        assert spans[0].duration_s == pytest.approx(20.0 + 42.0)  # robot + load

    def test_switch_to_mounted_tape_is_free(self):
        spans = _traced_run()
        mounted = None
        for span in spans:
            if span.kind == "switch":
                assert span.tape_id != mounted
                mounted = span.tape_id
            elif span.kind == "read":
                assert span.tape_id == mounted

    def test_full_switch_includes_rewind(self):
        spans = _traced_run()
        switches = list(_switches_after_reads(spans))
        assert switches
        for span, head_mb in switches:
            expected = EXB_8505XL.rewind(head_mb) + 19.0 + 20.0 + 42.0
            assert span.duration_s == pytest.approx(expected)

    def test_access_on_mounted_tape(self):
        spans = _traced_run()
        first_read = spans[1]
        assert first_read.kind == "read"
        assert first_read.duration_s == pytest.approx(
            EXB_8505XL.locate_forward(first_read.position_mb) + 0.38 + 1.77 * 16
        )
