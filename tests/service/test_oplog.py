"""Tests for the drive operation log: the tracer's drive spans.

Every timed drive operation (switch, read, backoff, repair, idle wait)
is recorded as a :class:`~repro.obs.DriveSpan`; ``tape-jukebox run
--trace N`` prints the first N of them with
:func:`~repro.report.text.format_drive_spans`.
"""

import random

from repro.core import make_scheduler
from repro.des import Environment
from repro.layout import PlacementSpec, build_catalog
from repro.obs import Tracer
from repro.report.text import format_drive_spans
from repro.service import JukeboxSimulator, MetricsCollector
from repro.workload import ClosedSource, HotColdSkew, OpenSource

BLOCK = 16.0


def spans_of(tracer, kind):
    return [span for span in tracer.drive_spans if span.kind == kind]


class TestOperationLog:
    def test_capacity_drops(self):
        tracer = Tracer(max_drive_spans=1)
        tracer.on_op(0, "read", 0.0, 1.0)
        tracer.on_op(0, "read", 1.0, 1.0)
        assert len(tracer.drive_spans) == 1
        assert tracer.dropped_drive_spans == 1

    def test_format(self):
        tracer = Tracer()
        tracer.on_op(1, "read", 0.0, 30.0, tape_id=1, block_id=4, position_mb=64.0)
        text = format_drive_spans(tracer)
        assert "read" in text
        assert "drive 1" in text
        assert "tape=1" in text
        assert "block=4" in text

    def test_format_truncates(self):
        tracer = Tracer(max_drive_spans=55)
        for index in range(60):
            tracer.on_op(0, "read", float(index), 1.0)
        # 5 spans past the limit plus 5 the tracer dropped at capacity.
        assert "10 more" in format_drive_spans(tracer, limit=50)


class TestSimulatorIntegration:
    def make_simulator(self, obs, interarrival=None, queue_length=10, drive_count=1):
        catalog = build_catalog(
            PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, 7 * 1024.0
        )
        rng = random.Random(4)
        skew = HotColdSkew(40.0)
        if interarrival is None:
            source = ClosedSource(queue_length, skew, catalog, rng)
        else:
            source = OpenSource(interarrival, skew, catalog, rng)
        return JukeboxSimulator(
            env=Environment(),
            catalog=catalog,
            source=source,
            metrics=MetricsCollector(block_mb=BLOCK),
            scheduler_factory=lambda: make_scheduler("dynamic-max-bandwidth"),
            drive_count=drive_count,
            obs=obs,
        )

    def test_operations_logged_and_ordered(self):
        for drive_count in (1, 2):
            tracer = Tracer()
            simulator = self.make_simulator(tracer, drive_count=drive_count)
            report = simulator.run(10_000.0)
            # Drive state mutates at operation *start*; a span is
            # recorded at operation *end*, so the op in flight at the
            # horizon may be counted but not yet logged.
            loads = sum(drive.counters.loads for drive in simulator.drives)
            assert abs(len(spans_of(tracer, "read")) - report.total_completed) <= drive_count
            assert loads - drive_count <= len(spans_of(tracer, "switch")) <= loads
            for drive_index in range(drive_count):
                previous_end = 0.0
                for span in tracer.drive_spans:
                    if span.drive != drive_index:
                        continue
                    assert span.start_s >= previous_end - 1e-9
                    previous_end = span.start_s + span.duration_s

    def test_logged_busy_matches_metrics(self):
        tracer = Tracer()
        simulator = self.make_simulator(tracer)
        simulator.run(10_000.0)
        busy = sum(
            span.duration_s for span in tracer.drive_spans if span.kind != "idle"
        )
        # Logged busy time only counts *finished* operations; allow the
        # one op in flight at the horizon.
        assert busy <= simulator.metrics.busy_s_after_warmup + 300.0
        assert busy > 0.8 * simulator.metrics.busy_s_after_warmup

    def test_idle_logged_in_open_model(self):
        tracer = Tracer()
        simulator = self.make_simulator(tracer, interarrival=1_000.0)
        simulator.run(20_000.0)
        idles = spans_of(tracer, "idle")
        assert idles, "a lightly loaded open system must log idle gaps"
        assert sum(span.duration_s for span in idles) > 1_000.0

    def test_no_log_attached_is_free(self):
        traced = self.make_simulator(Tracer()).run(5_000.0)
        report = self.make_simulator(None).run(5_000.0)
        assert report.total_completed > 0
        assert report == traced
