"""Tests for the noisy drive model and the Section 2.1 validation."""

import random

import pytest

from repro.tape import EXB_8505XL, Tape, TapeDrive
from repro.tape.noisy import NoisyTimingModel, random_walk_validation


def make_noisy(seed=1, **kwargs):
    return NoisyTimingModel(EXB_8505XL, random.Random(seed), **kwargs)


class TestNoisyTimingModel:
    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            make_noisy(locate_amplitude=1.0)
        with pytest.raises(ValueError):
            make_noisy(read_amplitude=-0.1)

    def test_zero_amplitude_is_exact(self):
        noisy = make_noisy(
            locate_amplitude=0.0, read_amplitude=0.0, switch_amplitude=0.0
        )
        assert noisy.locate(0.0, 500.0) == EXB_8505XL.locate(0.0, 500.0)
        assert noisy.read(16.0) == EXB_8505XL.read(16.0)
        assert noisy.switch() == EXB_8505XL.switch()

    def test_noise_is_bounded(self):
        noisy = make_noisy(read_amplitude=0.10)
        nominal = EXB_8505XL.read(16.0)
        for _ in range(200):
            observed = noisy.read(16.0)
            assert 0.9 * nominal - 1e-9 <= observed <= 1.1 * nominal + 1e-9

    def test_noise_varies_between_calls(self):
        noisy = make_noisy()
        values = {noisy.read(16.0) for _ in range(10)}
        assert len(values) > 1

    def test_zero_duration_stays_zero(self):
        noisy = make_noisy()
        assert noisy.locate(100.0, 100.0) == 0.0
        assert noisy.rewind(0.0) == 0.0

    def test_constants_pass_through(self):
        noisy = make_noisy()
        assert noisy.eject_s == EXB_8505XL.eject_s
        assert noisy.read_s_per_mb == EXB_8505XL.read_s_per_mb


class TestPaperValidation:
    def test_random_walk_errors_match_paper_scale(self):
        """Ten random walks of 100 locates+reads: per-walk total error
        stays within the paper's few-percent range even though
        individual reads vary by up to +/-10%."""
        noisy = make_noisy(seed=13, locate_amplitude=0.02, read_amplitude=0.10)
        errors = random_walk_validation(EXB_8505XL, noisy, walks=10, steps=100)
        assert len(errors) == 10
        assert max(errors) < 0.05  # paper: max 0.6% locate / 4.6% read
        assert sum(errors) / len(errors) < 0.02

    def test_noise_free_validation_is_exact(self):
        noisy = make_noisy(
            locate_amplitude=0.0, read_amplitude=0.0, switch_amplitude=0.0
        )
        errors = random_walk_validation(EXB_8505XL, noisy, walks=3, steps=50)
        assert max(errors) < 1e-12


class TestNoisyHardwareIntegration:
    def test_drive_runs_on_noisy_timing(self):
        drive = TapeDrive(timing=make_noisy())
        drive.load(Tape(0, capacity_mb=7 * 1024.0))
        assert drive.access(500.0, 16.0) > 0
        drive.rewind()
        drive.eject()

    def test_end_to_end_simulation_with_noisy_drive(self):
        """Schedulers plan with the clean model while the hardware
        misbehaves; the simulation still runs and conserves requests."""
        from repro.core import make_scheduler
        from repro.des import Environment
        from repro.layout import PlacementSpec, build_catalog
        from repro.service import JukeboxSimulator, MetricsCollector
        from repro.workload import ClosedSource, HotColdSkew

        catalog = build_catalog(PlacementSpec(percent_hot=10), 10, 7 * 1024.0)
        timing = make_noisy(seed=3)
        simulator = JukeboxSimulator(
            env=Environment(),
            catalog=catalog,
            timing=timing,
            scheduler_factory=lambda: make_scheduler("envelope-max-bandwidth"),
            source=ClosedSource(30, HotColdSkew(40.0), catalog, random.Random(6)),
            metrics=MetricsCollector(block_mb=16.0),
        )
        report = simulator.run(30_000.0)
        assert report.total_completed > 100
        assert report.mean_queue_length == pytest.approx(30.0, abs=1e-6)
