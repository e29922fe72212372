"""Tests for the Zipf skew extension."""

import random

import pytest

from repro.layout import PlacementSpec, build_catalog
from repro.workload.zipf import ZipfSkew


@pytest.fixture
def catalog():
    return build_catalog(PlacementSpec(percent_hot=10), 10, 7 * 1024.0)


class TestZipfSkew:
    def test_theta_validation(self):
        with pytest.raises(ValueError):
            ZipfSkew(theta=-0.1)

    def test_theta_zero_is_uniform(self, catalog):
        skew = ZipfSkew(theta=0.0)
        rng = random.Random(3)
        draws = [skew.draw_block(rng, catalog) for _ in range(20000)]
        top_decile = sum(block < catalog.n_blocks // 10 for block in draws)
        assert top_decile / len(draws) == pytest.approx(0.10, abs=0.02)

    def test_high_theta_concentrates_on_low_ranks(self, catalog):
        skew = ZipfSkew(theta=1.2)
        rng = random.Random(3)
        draws = [skew.draw_block(rng, catalog) for _ in range(20000)]
        top_decile = sum(block < catalog.n_blocks // 10 for block in draws)
        assert top_decile / len(draws) > 0.55

    def test_draws_in_range(self, catalog):
        skew = ZipfSkew(theta=1.0)
        rng = random.Random(5)
        for _ in range(1000):
            block = skew.draw_block(rng, catalog)
            assert 0 <= block < catalog.n_blocks

    def test_popularity_of_top_matches_empirical(self, catalog):
        skew = ZipfSkew(theta=1.0)
        predicted = skew.popularity_of_top(0.10, catalog.n_blocks)
        rng = random.Random(7)
        draws = [skew.draw_block(rng, catalog) for _ in range(30000)]
        hot = max(1, int(0.10 * catalog.n_blocks))
        empirical = sum(block < hot for block in draws) / len(draws)
        assert empirical == pytest.approx(predicted, abs=0.02)

    def test_popularity_validation(self):
        skew = ZipfSkew()
        with pytest.raises(ValueError):
            skew.popularity_of_top(0.0, 100)

    def test_rank_frequency_monotone(self, catalog):
        skew = ZipfSkew(theta=1.0)
        rng = random.Random(11)
        counts = [0] * catalog.n_blocks
        for _ in range(50000):
            counts[skew.draw_block(rng, catalog)] += 1
        # Coarse check: decile frequencies decrease down the ranks.
        decile = catalog.n_blocks // 10
        decile_counts = [
            sum(counts[start : start + decile])
            for start in range(0, decile * 10, decile)
        ]
        assert decile_counts[0] > decile_counts[4] > decile_counts[9]


class TestZipfEndToEnd:
    def test_config_integration(self):
        from repro.experiments import ExperimentConfig, run_experiment

        result = run_experiment(
            ExperimentConfig(zipf_theta=1.0, queue_length=20, horizon_s=15_000.0)
        )
        assert result.report.total_completed > 0

    def test_zipf_replication_still_helps(self):
        """Replicating the top-PH% ranked blocks pays off under Zipf
        traffic just as hot/cold replication does."""
        from repro.experiments import ExperimentConfig, run_experiment
        from repro.layout import Layout

        base = run_experiment(
            ExperimentConfig(zipf_theta=1.0, queue_length=60, horizon_s=50_000.0)
        )
        replicated = run_experiment(
            ExperimentConfig(
                zipf_theta=1.0,
                queue_length=60,
                horizon_s=50_000.0,
                layout=Layout.VERTICAL,
                replicas=9,
                start_position=1.0,
                scheduler="envelope-max-bandwidth",
            )
        )
        assert replicated.throughput_kb_s > base.throughput_kb_s

    def test_invalid_theta_in_config(self):
        from repro.experiments import ExperimentConfig

        with pytest.raises(ValueError):
            ExperimentConfig(zipf_theta=-1.0)


class TestMultiDriveConfigIntegration:
    def test_drive_count_builds_multidrive(self):
        from repro.experiments import ExperimentConfig, build_simulator
        simulator = build_simulator(
            ExperimentConfig(drive_count=2, queue_length=20, horizon_s=10_000.0)
        )
        assert len(simulator.drives) == 2

    def test_two_drive_run_via_config(self):
        from repro.experiments import ExperimentConfig, run_experiment

        one = run_experiment(
            ExperimentConfig(queue_length=40, horizon_s=20_000.0)
        )
        two = run_experiment(
            ExperimentConfig(drive_count=2, queue_length=40, horizon_s=20_000.0)
        )
        assert two.throughput_kb_s > one.throughput_kb_s

    def test_invalid_drive_count(self):
        from repro.experiments import ExperimentConfig

        with pytest.raises(ValueError):
            ExperimentConfig(drive_count=0)
