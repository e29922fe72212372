"""Tests for the multi-drive jukebox extension."""

import random

import pytest

from repro.core import DynamicScheduler, MaxBandwidth, make_scheduler
from repro.des import Environment, Resource
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.service import MetricsCollector
from repro.service import JukeboxSimulator
from repro.workload import ClosedSource, HotColdSkew

CAPACITY = 7 * 1024.0
BLOCK = 16.0


def make_multidrive(drive_count, scheduler="dynamic-max-bandwidth", queue_length=40,
                    seed=3, replicas=0, tape_count=10):
    spec = PlacementSpec(
        layout=Layout.HORIZONTAL,
        percent_hot=10,
        replicas=replicas,
        start_position=0.0,
        block_mb=BLOCK,
    )
    catalog = build_catalog(spec, tape_count, CAPACITY)
    source = ClosedSource(
        queue_length, HotColdSkew(40.0), catalog, random.Random(seed)
    )
    return JukeboxSimulator(
        env=Environment(),
        catalog=catalog,
        source=source,
        metrics=MetricsCollector(block_mb=BLOCK),
        scheduler_factory=lambda: make_scheduler(scheduler),
        drive_count=drive_count,
        tape_count=tape_count,
    )


class TestResource:
    def test_acquire_release(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.acquire()
        assert first.triggered
        second = resource.acquire()
        assert not second.triggered
        assert resource.waiting == 1
        resource.release()
        assert second.triggered
        resource.release()
        assert resource.in_use == 0

    def test_release_without_acquire(self):
        env = Environment()
        resource = Resource(env)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_serializes_processes(self):
        env = Environment()
        resource = Resource(env)
        intervals = []

        def worker(env, tag):
            grant = resource.acquire()
            yield grant
            start = env.now
            yield env.timeout(10.0)
            resource.release()
            intervals.append((tag, start, env.now))

        for tag in range(3):
            env.process(worker(env, tag))
        env.run()
        # Non-overlapping 10 s slots, back to back.
        intervals.sort(key=lambda item: item[1])
        assert [(start, end) for _tag, start, end in intervals] == [
            (0.0, 10.0),
            (10.0, 20.0),
            (20.0, 30.0),
        ]


class TestConstruction:
    def test_drive_count_validation(self):
        with pytest.raises(ValueError):
            make_multidrive(0)
        with pytest.raises(ValueError):
            make_multidrive(11)  # more drives than tapes

    def test_envelope_rejected(self):
        spec = PlacementSpec(percent_hot=10, block_mb=BLOCK)
        catalog = build_catalog(spec, 10, CAPACITY)
        source = ClosedSource(10, HotColdSkew(40.0), catalog, random.Random(1))
        with pytest.raises(ValueError, match="single-drive"):
            JukeboxSimulator(
                env=Environment(),
                catalog=catalog,
                source=source,
                metrics=MetricsCollector(block_mb=BLOCK),
                scheduler_factory=lambda: make_scheduler("envelope-max-bandwidth"),
                drive_count=2,
            )


class TestMultiDriveBehaviour:
    def test_single_drive_baseline_runs(self):
        report = make_multidrive(1).run(30_000.0)
        assert report.total_completed > 100

    def test_two_drives_beat_one(self):
        one = make_multidrive(1).run(30_000.0)
        two = make_multidrive(2).run(30_000.0)
        assert two.throughput_kb_s > 1.3 * one.throughput_kb_s

    def test_four_drive_scaling(self):
        """Four drives beat two; gains can exceed 4x the single-drive
        figure at equal total queue, because four concurrently mounted
        tapes absorb far more arrivals into in-progress sweeps (observed
        switch rate collapses) — an emergent economy, bounded here at 5x
        as a sanity cap."""
        one = make_multidrive(1).run(30_000.0)
        two = make_multidrive(2).run(30_000.0)
        four = make_multidrive(4).run(30_000.0)
        assert four.throughput_kb_s > two.throughput_kb_s
        assert four.throughput_kb_s < 5.0 * one.throughput_kb_s

    def test_no_tape_mounted_twice(self):
        simulator = make_multidrive(3, queue_length=30)
        mounted_sets = []
        original_timed = simulator._timed

        def spying_timed(duration):
            mounted = [
                drive.mounted_id
                for drive in simulator.drives
                if drive.mounted_id is not None
            ]
            mounted_sets.append(tuple(mounted))
            return original_timed(duration)

        simulator._timed = spying_timed
        simulator.run(20_000.0)
        for mounted in mounted_sets:
            assert len(mounted) == len(set(mounted)), mounted

    def test_closed_queue_conserved_across_drives(self):
        report = make_multidrive(3, queue_length=24).run(20_000.0)
        assert report.mean_queue_length == pytest.approx(24.0, abs=1e-6)
        assert report.arrivals == report.total_completed + 24

    def test_deterministic(self):
        first = make_multidrive(2, seed=11).run(20_000.0)
        second = make_multidrive(2, seed=11).run(20_000.0)
        assert first.throughput_kb_s == second.throughput_kb_s

    def test_all_supported_schedulers_run(self):
        for name in ("fifo", "static-max-requests", "dynamic-max-bandwidth",
                     "dynamic-round-robin"):
            report = make_multidrive(2, scheduler=name, queue_length=12).run(10_000.0)
            assert report.total_completed > 0, name

    def test_replicated_layout_runs(self):
        report = make_multidrive(2, replicas=5, queue_length=30).run(20_000.0)
        assert report.total_completed > 100
