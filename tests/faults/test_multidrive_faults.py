"""Degraded-mode tests for the multi-drive extension under faults."""

import random

from repro.core import make_scheduler
from repro.des import Environment
from repro.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.service import JukeboxSimulator, MetricsCollector
from repro.workload import ClosedSource, HotColdSkew, OpenSource

HORIZON = 40_000.0


def make_simulator(fault_config=None, drive_count=2, replicas=2, closed=True):
    spec = PlacementSpec(
        percent_hot=10, replicas=replicas, block_mb=16.0,
        layout=Layout.VERTICAL if replicas else Layout.HORIZONTAL,
    )
    catalog = build_catalog(spec, 6, 1000.0)
    rng = random.Random(11)
    skew = HotColdSkew(80.0)
    source = (
        ClosedSource(12, skew, catalog, rng)
        if closed
        else OpenSource(120.0, skew, catalog, rng)
    )
    faults = (
        FaultInjector(fault_config, catalog, drive_count=drive_count)
        if fault_config is not None
        else None
    )
    return JukeboxSimulator(
        env=Environment(),
        catalog=catalog,
        source=source,
        metrics=MetricsCollector(block_mb=16.0, warmup_s=0.0),
        scheduler_factory=lambda: make_scheduler("dynamic-max-bandwidth"),
        drive_count=drive_count,
        tape_count=6,
        capacity_mb=1000.0,
        faults=faults,
    )


class TestMultiDriveDegradedMode:
    def test_surviving_drives_keep_serving_through_failures(self):
        simulator = make_simulator(
            FaultConfig(drive_mtbf_s=4_000.0, drive_mttr_s=2_000.0, seed=3)
        )
        report = simulator.run(HORIZON)
        assert report.drive_failures > 0
        assert report.completed > 0
        # A failed drive must not strand its claimed tape.
        for tape_id, owner in simulator.claims.items():
            assert simulator.drives[owner].mounted_id == tape_id

    def test_failed_drive_releases_claim(self):
        simulator = make_simulator(
            FaultConfig(drive_mtbf_s=2_000.0, drive_mttr_s=10_000.0, seed=3)
        )
        simulator.run(HORIZON)
        # Claims only ever point at mounted tapes; repairs drop the rest.
        mounted = {
            drive.mounted_id
            for drive in simulator.drives
            if drive.mounted_id is not None
        }
        assert set(simulator.claims) <= mounted

    def test_failover_uses_shared_pending(self):
        report = make_simulator(
            FaultConfig(bad_replica_rate=0.05, seed=13)
        ).run(HORIZON)
        assert report.fault_counts.get("bad-block", 0) > 0
        assert report.failovers > 0
        assert report.served_fraction > 0.9

    def test_robot_pick_retries_under_contention(self):
        report = make_simulator(
            FaultConfig(
                robot_pick_error_rate=0.3,
                seed=3,
                retry=RetryPolicy(max_attempts=4, base_backoff_s=1.0),
            )
        ).run(HORIZON)
        assert report.fault_counts.get("robot-pick", 0) > 0
        assert report.completed > 0

    def test_open_model_under_faults(self):
        report = make_simulator(
            FaultConfig(media_error_rate=0.05, drive_mtbf_s=8_000.0, seed=3),
            closed=False,
        ).run(HORIZON)
        assert report.completed > 0
        assert report.retries > 0

    def test_fault_free_multidrive_unchanged(self):
        clean = make_simulator(None).run(HORIZON)
        assert clean.fault_counts == {}
        assert clean.served_fraction == 1.0
