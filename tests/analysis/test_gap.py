"""The optimality-gap layer: scenario matrix, ratios, campaign caching."""

import pytest

from repro.analysis.gap import (
    APPROX_POLICIES,
    DEFAULT_BASELINE,
    GapScenario,
    PAPER_HEURISTICS,
    compute_gap,
    gap_configs,
    gap_scenarios,
)
from repro.campaign import Campaign
from repro.core import scheduler_names
from repro.experiments.config import ExperimentConfig


TINY = 12_000.0


def tiny_scenarios():
    return [
        GapScenario(
            key="tiny",
            description="one small closed-queue scenario",
            config=ExperimentConfig(queue_length=20, horizon_s=TINY),
        )
    ]


class TestScenarioMatrix:
    def test_covers_every_regime(self):
        keys = {scenario.key for scenario in gap_scenarios()}
        assert {"q20", "q60", "q100"} <= keys  # queue sweep
        assert "nr4-vertical" in keys  # replication
        assert "faults" in keys
        assert "qos-guard" in keys
        assert "serpentine" in keys
        assert "multidrive" in keys

    def test_all_schedulers_are_registered(self):
        names = set(scheduler_names())
        assert DEFAULT_BASELINE in names
        assert set(PAPER_HEURISTICS) <= names
        assert set(APPROX_POLICIES) <= names

    def test_envelope_excluded_from_multidrive_only(self):
        for scenario in gap_scenarios():
            expected = scenario.config.drive_count == 1
            assert scenario.supports("envelope-max-bandwidth") is expected
            assert scenario.supports("dynamic-max-bandwidth")

    def test_configs_compile_to_one_flat_submission(self):
        scenarios = gap_scenarios()
        configs = gap_configs(scenarios, PAPER_HEURISTICS)
        # one baseline per scenario + each supported heuristic
        expected = sum(
            1 + sum(scenario.supports(name) for name in PAPER_HEURISTICS)
            for scenario in scenarios
        )
        assert len(configs) == expected
        assert len(set(configs)) == len(configs)  # no duplicate points


class TestComputeGap:
    def test_baseline_ratio_is_one_and_ratios_consistent(self):
        report = compute_gap(
            scenarios=tiny_scenarios(),
            schedulers=(DEFAULT_BASELINE, "fifo"),
        )
        assert report.baseline == DEFAULT_BASELINE
        (row,) = report.rows
        assert report.ratio("tiny", DEFAULT_BASELINE) == pytest.approx(1.0)
        fifo = row.cell("fifo")
        assert fifo.ratio == pytest.approx(
            fifo.mean_response_s / row.baseline_mean_s
        )
        assert report.worst_ratio("fifo") == fifo.ratio
        assert report.mean_ratio("fifo") == fifo.ratio

    def test_unknown_lookups_raise(self):
        report = compute_gap(
            scenarios=tiny_scenarios(), schedulers=("fifo",)
        )
        with pytest.raises(KeyError):
            report.ratio("nope", "fifo")
        with pytest.raises(KeyError):
            report.ratio("tiny", "not-a-scheduler")

    def test_cached_recompute_is_bit_identical(self, tmp_path):
        campaign = Campaign(cache_dir=tmp_path / "cache")
        first = compute_gap(
            scenarios=tiny_scenarios(),
            schedulers=("fifo",),
            campaign=campaign,
        )
        assert campaign.last_stats.executed > 0
        warm = Campaign(cache_dir=tmp_path / "cache")
        second = compute_gap(
            scenarios=tiny_scenarios(),
            schedulers=("fifo",),
            campaign=warm,
        )
        assert warm.last_stats.executed == 0  # everything served from cache
        assert warm.last_stats.cache_hits > 0
        assert first == second  # frozen dataclasses: full deep equality

    def test_format_gap_report_renders(self):
        from repro.report import format_gap_report

        report = compute_gap(
            scenarios=tiny_scenarios(), schedulers=("fifo",)
        )
        text = format_gap_report(report)
        assert "tiny" in text
        assert "fifo" in text
        assert "exact-batch" in text
        # The baseline is a best-found order (budget-cut on some
        # decisions), so the header must not call it optimal.
        header = text.splitlines()[0]
        assert "optimal" not in header.lower()
        assert "1.0 = the exact-batch baseline" in header
