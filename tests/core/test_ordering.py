"""Tests for the nearest-neighbor intra-tape ordering ablation."""

import pytest
from hypothesis import given, strategies as st

from repro.core import DynamicScheduler, MaxBandwidth, ServiceEntry, StaticScheduler
from repro.core.ordering import NearestNeighborServiceList


def entry(position, block_id=None):
    return ServiceEntry(
        position_mb=position,
        block_id=block_id if block_id is not None else int(position),
    )


class TestNearestNeighborList:
    def test_pops_nearest_first(self):
        service = NearestNeighborServiceList(
            [entry(100), entry(10), entry(55)], head_mb=50.0
        )
        order = []
        while not service.is_empty:
            order.append(service.pop_next().position_mb)
            service.finish_in_flight()
        assert order == [55, 10, 100]  # 55 is 5 away; then 10 (45); then 100

    def test_tie_prefers_lower_position(self):
        service = NearestNeighborServiceList([entry(40), entry(60)], head_mb=50.0)
        assert service.pop_next().position_mb == 40

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            NearestNeighborServiceList([], head_mb=0.0).pop_next()

    def test_insert_always_accepted(self):
        service = NearestNeighborServiceList([entry(500)], head_mb=0.0)
        service.pop_next()
        service.finish_in_flight()
        assert service.can_insert(10.0)
        assert service.insert(entry(10))  # behind the head: fine for greedy
        assert service.pop_next().position_mb == 10

    def test_find_block(self):
        service = NearestNeighborServiceList([entry(10, block_id=3)], head_mb=0.0)
        assert service.find_block(3) is not None
        service.pop_next()
        assert service.find_block(3) is None

    @given(
        positions=st.lists(
            st.floats(min_value=0, max_value=7000, allow_nan=False),
            min_size=1,
            max_size=30,
            unique=True,
        ),
        head=st.floats(min_value=0, max_value=7000, allow_nan=False),
    )
    def test_serves_every_entry_exactly_once(self, positions, head):
        service = NearestNeighborServiceList(
            [entry(position) for position in positions], head_mb=head
        )
        served = []
        while not service.is_empty:
            served.append(service.pop_next().position_mb)
            service.finish_in_flight()
        assert sorted(served) == sorted(positions)


class TestSchedulerIntegration:
    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            StaticScheduler(MaxBandwidth(), ordering="random")

    def test_names(self):
        assert (
            DynamicScheduler(MaxBandwidth(), ordering="nearest").name
            == "dynamic-max-bandwidth-nearest"
        )
        assert StaticScheduler(MaxBandwidth()).name == "static-max-bandwidth"

    def test_build_service_list_dispatch(self):
        sweep_scheduler = DynamicScheduler(MaxBandwidth())
        nn_scheduler = DynamicScheduler(MaxBandwidth(), ordering="nearest")
        entries = [entry(10)]
        from repro.core import ServiceList

        assert isinstance(sweep_scheduler.build_service_list(entries, 0.0), ServiceList)
        assert isinstance(
            nn_scheduler.build_service_list(entries, 0.0), NearestNeighborServiceList
        )

    def test_end_to_end_nearest_ordering(self):
        """Both orderings complete the workload; conservation holds."""
        import random

        from repro.des import Environment
        from repro.layout import PlacementSpec, build_catalog
        from repro.service import JukeboxSimulator, MetricsCollector
        from repro.workload import ClosedSource, HotColdSkew

        catalog = build_catalog(PlacementSpec(percent_hot=10), 10, 7 * 1024.0)

        def run(ordering):
            simulator = JukeboxSimulator(
                env=Environment(),
                catalog=catalog,
                scheduler_factory=lambda: DynamicScheduler(MaxBandwidth(), ordering=ordering),
                source=ClosedSource(60, HotColdSkew(40.0), catalog, random.Random(3)),
                metrics=MetricsCollector(block_mb=16.0, warmup_s=3_000.0),
            )
            return simulator.run(30_000.0)

        sweep_report = run("sweep")
        nearest_report = run("nearest")
        for report in (sweep_report, nearest_report):
            assert report.total_completed > 100
            assert report.mean_queue_length == pytest.approx(60.0, abs=1e-6)
        # The sweep should not lose to greedy nearest-neighbor by much;
        # the quantitative comparison lives in bench_ablations.
        assert sweep_report.throughput_kb_s > 0.85 * nearest_report.throughput_kb_s
