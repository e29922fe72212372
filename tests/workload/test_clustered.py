"""Tests for the clustered (Markov run) workload extension."""

import random

import pytest

from repro.layout import PlacementSpec, build_catalog
from repro.workload import HotColdSkew
from repro.workload.clustered import ClusteredClosedSource


@pytest.fixture
def catalog():
    return build_catalog(PlacementSpec(percent_hot=10), 10, 7 * 1024.0)


def make_source(catalog, locality, queue_length=20, seed=4):
    return ClusteredClosedSource(
        queue_length,
        HotColdSkew(40.0),
        catalog,
        random.Random(seed),
        locality=locality,
    )


class TestClusteredSource:
    def test_validation(self, catalog):
        with pytest.raises(ValueError):
            make_source(catalog, locality=1.0)
        with pytest.raises(ValueError):
            make_source(catalog, locality=-0.1)
        with pytest.raises(ValueError):
            ClusteredClosedSource(0, HotColdSkew(40.0), catalog, random.Random(1))

    def test_zero_locality_never_continues(self, catalog):
        source = make_source(catalog, locality=0.0)
        source.initial_requests()
        for _ in range(200):
            source.on_completion(0.0)
        assert source.run_continuations == 0
        assert source.observed_locality == 0.0

    def test_high_locality_mostly_sequential(self, catalog):
        source = make_source(catalog, locality=0.8)
        source.initial_requests()
        for _ in range(2000):
            source.on_completion(0.0)
        assert source.observed_locality == pytest.approx(0.8, abs=0.05)

    def test_runs_are_sequential_block_ids(self, catalog):
        source = make_source(catalog, locality=0.9, seed=8)
        blocks = [request.block_id for request in source.initial_requests()]
        for _ in range(300):
            blocks.append(source.on_completion(0.0).block_id)
        sequential_steps = sum(
            1 for a, b in zip(blocks, blocks[1:]) if b == a + 1
        )
        assert sequential_steps / len(blocks) > 0.7

    def test_run_stops_at_catalog_end(self, catalog):
        source = make_source(catalog, locality=0.99)
        source._previous_block = catalog.n_blocks - 1
        for _ in range(50):
            block = source._draw()
            assert 0 <= block < catalog.n_blocks


class TestLocalityPaysOff:
    def test_sweeps_convert_locality_into_throughput(self):
        """The paper's unexploited opportunity: with a layout that keeps
        logically sequential blocks physically adjacent (``pack_cold``),
        the dynamic incremental scheduler turns runs into streaming
        reads.  (Under the default round-robin cold distribution,
        sequential ids hop tapes and most of the gain evaporates —
        locality only pays if the layout co-locates it.)"""
        from repro.core import make_scheduler
        from repro.des import Environment
        from repro.layout import PlacementSpec, build_catalog
        from repro.service import JukeboxSimulator, MetricsCollector

        packed = build_catalog(
            PlacementSpec(percent_hot=10, pack_cold=True), 10, 7 * 1024.0
        )

        def run(locality):
            simulator = JukeboxSimulator(
                env=Environment(),
                catalog=packed,
                scheduler_factory=lambda: make_scheduler("dynamic-max-bandwidth"),
                source=make_source(packed, locality, queue_length=60, seed=12),
                metrics=MetricsCollector(block_mb=16.0, warmup_s=4_000.0),
            )
            return simulator.run(40_000.0).throughput_kb_s

        independent = run(0.0)
        clustered = run(0.8)
        assert clustered > 1.2 * independent
