"""Integration tests for the service-model simulator."""

import random

import pytest

from repro.core import make_scheduler
from repro.des import Environment
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.service import JukeboxSimulator, MetricsCollector
from repro.workload import ClosedSource, HotColdSkew, OpenSource


def make_simulator(
    scheduler_name="dynamic-max-bandwidth",
    queue_length=20,
    interarrival=None,
    replicas=0,
    layout=Layout.HORIZONTAL,
    start_position=0.0,
    seed=1,
    warmup_s=0.0,
    tape_count=10,
):
    spec = PlacementSpec(
        layout=layout,
        percent_hot=10,
        replicas=replicas,
        start_position=start_position,
        block_mb=16.0,
    )
    catalog = build_catalog(spec, tape_count, 7 * 1024)
    rng = random.Random(seed)
    skew = HotColdSkew(40.0)
    if interarrival is None:
        source = ClosedSource(queue_length, skew, catalog, rng)
    else:
        source = OpenSource(interarrival, skew, catalog, rng)
    return JukeboxSimulator(
        env=Environment(),
        catalog=catalog,
        scheduler_factory=lambda: make_scheduler(scheduler_name),
        tape_count=tape_count,
        source=source,
        metrics=MetricsCollector(block_mb=16.0, warmup_s=warmup_s),
    )


HORIZON = 30_000.0


class TestClosedModel:
    def test_completes_requests(self):
        simulator = make_simulator()
        report = simulator.run(HORIZON)
        assert report.completed > 50
        assert report.throughput_kb_s > 0

    def test_queue_length_is_conserved(self):
        """Closed queueing: outstanding requests stay exactly at Q."""
        simulator = make_simulator(queue_length=30)
        report = simulator.run(HORIZON)
        assert report.mean_queue_length == pytest.approx(30.0, abs=1e-6)
        assert report.arrivals == report.total_completed + 30

    def test_all_schedulers_run(self):
        from repro.core import scheduler_names

        for name in scheduler_names():
            simulator = make_simulator(scheduler_name=name, queue_length=10)
            report = simulator.run(8000.0)
            assert report.total_completed > 0, name

    def test_deterministic_with_seed(self):
        first = make_simulator(seed=99).run(HORIZON)
        second = make_simulator(seed=99).run(HORIZON)
        assert first.throughput_kb_s == second.throughput_kb_s
        assert first.mean_response_s == second.mean_response_s
        assert first.tape_switches == second.tape_switches

    def test_different_seeds_differ(self):
        first = make_simulator(seed=1).run(HORIZON)
        second = make_simulator(seed=2).run(HORIZON)
        assert first.mean_response_s != second.mean_response_s

    def test_dynamic_absorbs_arrivals(self):
        simulator = make_simulator(scheduler_name="dynamic-max-bandwidth")
        simulator.run(HORIZON)
        assert simulator.absorbed_arrivals > 0

    def test_static_never_absorbs(self):
        simulator = make_simulator(scheduler_name="static-max-bandwidth")
        simulator.run(HORIZON)
        assert simulator.absorbed_arrivals == 0

    def test_clock_and_busy_time_consistent(self):
        simulator = make_simulator()
        report = simulator.run(HORIZON)
        assert 0.0 < report.drive_busy_fraction <= 1.0 + 1e-9

    def test_start_twice_rejected(self):
        simulator = make_simulator()
        simulator.start(1000.0)
        with pytest.raises(RuntimeError):
            simulator.start(1000.0)

    def test_every_completed_request_was_requested_block(self):
        simulator = make_simulator(queue_length=5)
        completions = []
        original = simulator.metrics.on_completion

        def spy(request, now, **kwargs):
            completions.append(request)
            original(request, now, **kwargs)

        simulator.metrics.on_completion = spy
        simulator.run(10_000.0)
        catalog = simulator.catalog
        for request in completions:
            assert 0 <= request.block_id < catalog.n_blocks
            assert request.completion_s >= request.arrival_s


class TestOpenModel:
    def test_open_system_completes_arrivals(self):
        simulator = make_simulator(interarrival=300.0)
        report = simulator.run(60_000.0)
        assert report.total_completed > 100
        # Under-loaded: nearly everything that arrived completes.
        assert report.total_completed >= report.arrivals - 25

    def test_overloaded_open_system_builds_queue(self):
        simulator = make_simulator(interarrival=20.0)  # far above capacity
        report = simulator.run(60_000.0)
        assert report.arrivals > report.total_completed + 50

    def test_open_throughput_tracks_arrival_rate_when_underloaded(self):
        simulator = make_simulator(interarrival=300.0, warmup_s=10_000.0)
        report = simulator.run(120_000.0)
        arrival_rate_per_min = 60.0 / 300.0
        assert report.requests_per_min == pytest.approx(arrival_rate_per_min, rel=0.2)


class TestReplicationIntegration:
    def test_full_replication_reduces_switches(self):
        base = make_simulator(
            scheduler_name="dynamic-max-bandwidth", queue_length=60
        ).run(60_000.0)
        replicated = make_simulator(
            scheduler_name="dynamic-max-bandwidth",
            queue_length=60,
            replicas=9,
            layout=Layout.VERTICAL,
            start_position=1.0,
        ).run(60_000.0)
        assert replicated.tape_switches < base.tape_switches

    def test_envelope_with_replication_beats_dynamic(self):
        dynamic = make_simulator(
            scheduler_name="dynamic-max-bandwidth",
            queue_length=60,
            replicas=9,
            layout=Layout.VERTICAL,
            start_position=1.0,
        ).run(60_000.0)
        envelope = make_simulator(
            scheduler_name="envelope-max-bandwidth",
            queue_length=60,
            replicas=9,
            layout=Layout.VERTICAL,
            start_position=1.0,
        ).run(60_000.0)
        assert envelope.throughput_kb_s > dynamic.throughput_kb_s

    def test_fifo_is_worst(self):
        fifo = make_simulator(scheduler_name="fifo", queue_length=60).run(30_000.0)
        dynamic = make_simulator(
            scheduler_name="dynamic-max-bandwidth", queue_length=60
        ).run(30_000.0)
        assert dynamic.throughput_kb_s > 2 * fifo.throughput_kb_s
