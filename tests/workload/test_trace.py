"""Tests for workload trace recording and replay."""

import random

import pytest

from repro.layout import PlacementSpec, build_catalog
from repro.workload import ClosedSource, HotColdSkew, OpenSource
from repro.workload.trace import (
    ClosedReplaySource,
    OpenReplaySource,
    TraceRecord,
    TraceRecorder,
)


@pytest.fixture
def catalog():
    return build_catalog(PlacementSpec(percent_hot=10), 10, 7 * 1024.0)


class TestTraceRecorder:
    def test_records_closed_source(self, catalog):
        inner = ClosedSource(5, HotColdSkew(40.0), catalog, random.Random(1))
        recorder = TraceRecorder(inner)
        assert recorder.is_closed
        initial = recorder.initial_requests(0.0)
        assert len(recorder.records) == 5
        recorder.on_completion(100.0)
        assert len(recorder.records) == 6
        assert recorder.records[5].arrival_s == 100.0
        assert recorder.block_ids() == [request.block_id for request in initial] + [
            recorder.records[5].block_id
        ]

    def test_records_open_source(self, catalog):
        inner = OpenSource(50.0, HotColdSkew(40.0), catalog, random.Random(2))
        recorder = TraceRecorder(inner)
        assert not recorder.is_closed
        emitted = list(recorder.arrivals(2_000.0))
        assert len(recorder.records) == len(emitted)
        assert recorder.on_completion(10.0) is None
        assert len(recorder.records) == len(emitted)  # nothing extra

    def test_recorder_in_simulation_replays_identically(self, catalog):
        """Record a closed run, replay it: identical metrics."""
        from repro.core import make_scheduler
        from repro.des import Environment
        from repro.service import JukeboxSimulator, MetricsCollector

        def simulate(source):
            simulator = JukeboxSimulator(
                env=Environment(),
                catalog=catalog,
                scheduler_factory=lambda: make_scheduler("dynamic-max-bandwidth"),
                source=source,
                metrics=MetricsCollector(block_mb=16.0),
            )
            return simulator.run(15_000.0)

        recorder = TraceRecorder(
            ClosedSource(20, HotColdSkew(40.0), catalog, random.Random(9))
        )
        original = simulate(recorder)
        replayed = simulate(ClosedReplaySource(20, recorder.block_ids(), cycle=False))
        assert replayed.throughput_kb_s == original.throughput_kb_s
        assert replayed.mean_response_s == original.mean_response_s


class TestOpenReplay:
    def test_replays_in_time_order(self):
        records = [TraceRecord(30.0, 2), TraceRecord(10.0, 1), TraceRecord(20.0, 3)]
        replay = OpenReplaySource(records)
        arrivals = list(replay.arrivals(horizon_s=100.0))
        assert [time for time, _request in arrivals] == [10.0, 20.0, 30.0]
        assert [request.block_id for _time, request in arrivals] == [1, 3, 2]

    def test_horizon_and_start_filtering(self):
        records = [TraceRecord(float(t), t) for t in (5, 15, 25)]
        replay = OpenReplaySource(records)
        arrivals = list(replay.arrivals(horizon_s=20.0, start_s=10.0))
        assert [request.block_id for _time, request in arrivals] == [15]

    def test_model_flags(self):
        replay = OpenReplaySource([])
        assert not replay.is_closed
        assert replay.initial_requests() == []
        assert replay.on_completion(1.0) is None


class TestClosedReplay:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedReplaySource(0, [1, 2, 3])
        with pytest.raises(ValueError):
            ClosedReplaySource(5, [1, 2, 3])

    def test_initial_then_sequential(self):
        replay = ClosedReplaySource(2, [10, 11, 12, 13], cycle=False)
        initial = replay.initial_requests(0.0)
        assert [request.block_id for request in initial] == [10, 11]
        assert replay.on_completion(5.0).block_id == 12
        assert replay.on_completion(6.0).block_id == 13
        assert replay.on_completion(7.0) is None  # trace exhausted

    def test_cycling(self):
        replay = ClosedReplaySource(2, [1, 2, 3], cycle=True)
        replay.initial_requests(0.0)
        blocks = [replay.on_completion(float(i)).block_id for i in range(5)]
        assert blocks == [3, 1, 2, 3, 1]
