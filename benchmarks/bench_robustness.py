"""Robustness checks the paper asserts in passing.

1. **5-tape jukebox (Section 4.8).**  "Additional experimentation based
   on jukeboxes holding 5 tapes rather than 10 show similar results":
   the cost-performance crossover (replication pays per dollar only at
   high skew) must survive shrinking the jukebox.
2. **Faster drive (Section 2.1).**  "Changing the locate, read, and
   tape switch functions to model a higher-performance system naturally
   improves the simulated system performance, but does not materially
   alter our results about choice of scheduling algorithm, the amount
   of replication, and the data placement."
3. **Noisy hardware (Section 2.1).**  The paper's drive measurements
   "exhibit a significant variance"; schedulers plan with the fitted
   model regardless.  The envelope-over-dynamic win must survive a
   drive whose actual operation times deviate from the model.
4. **Fault tolerance (extension).**  The paper replicates data for
   *performance*; the same copies buy *availability*.  Under injected
   soft errors and permanently bad regions (see repro.faults), a
   replicated layout must sustain a strictly higher served-request
   fraction than NR-0.
"""

import random

import pytest

from repro.analysis import cost_performance_curve
from repro.core import make_scheduler
from repro.des import Environment
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig, RetryPolicy
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.report import format_table
from repro.service import JukeboxSimulator, MetricsCollector
from repro.tape import EXB_8505XL, NoisyTimingModel
from repro.workload import ClosedSource, HotColdSkew

from _util import HORIZON_S


@pytest.mark.benchmark(group="robustness")
def test_five_tape_jukebox_costperf(benchmark, capsys):
    def curves():
        results = {}
        for skew in (20.0, 80.0):
            results[skew] = cost_performance_curve(
                horizon_s=HORIZON_S,
                percent_requests_hot=skew,
                replica_counts=(0, 4),  # full replication on 5 tapes
                base_queue_length=60,
                tape_count=5,
            )
        return results

    results = benchmark.pedantic(curves, rounds=1, iterations=1)
    low_skew = dict(results[20.0])
    high_skew = dict(results[80.0])
    with capsys.disabled():
        print(
            f"\n5-tape jukebox cost-performance (NR-4 = full): "
            f"RH-20 {low_skew[4]:.3f}, RH-80 {high_skew[4]:.3f}"
        )
    # Same story as the 10-tape jukebox: high skew pays, low skew does not.
    assert high_skew[4] > low_skew[4]
    assert high_skew[4] > 0.99
    assert low_skew[4] < 1.05


@pytest.mark.benchmark(group="robustness")
def test_faster_drive_preserves_conclusions(benchmark, capsys):
    """A 3x faster drive: everything speeds up, every ordering survives."""

    def run_grid():
        grid = {}
        for speedup in (1.0, 3.0):
            for label, overrides in (
                ("dyn NR-0 SP-0", dict(scheduler="dynamic-max-bandwidth")),
                (
                    "dyn NR-9 SP-1",
                    dict(
                        scheduler="dynamic-max-bandwidth",
                        layout=Layout.VERTICAL,
                        replicas=9,
                        start_position=1.0,
                    ),
                ),
                (
                    "env NR-9 SP-1",
                    dict(
                        scheduler="envelope-max-bandwidth",
                        layout=Layout.VERTICAL,
                        replicas=9,
                        start_position=1.0,
                    ),
                ),
                (
                    "dyn NR-9 SP-0",
                    dict(
                        scheduler="dynamic-max-bandwidth",
                        layout=Layout.VERTICAL,
                        replicas=9,
                        start_position=0.0,
                    ),
                ),
            ):
                config = ExperimentConfig(
                    queue_length=60,
                    horizon_s=HORIZON_S,
                    drive_speedup=speedup,
                    **overrides,
                )
                grid[(speedup, label)] = run_experiment(config).throughput_kb_s
        return grid

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    rows = [
        (f"{speedup:g}x", label, throughput)
        for (speedup, label), throughput in sorted(grid.items())
    ]
    with capsys.disabled():
        print("\nfaster-drive sensitivity (Q-60):")
        print(format_table(("drive", "config", "KB/s"), rows))

    for speedup in (1.0, 3.0):
        # Replication helps; envelope beats dynamic; SP-1 beats SP-0
        # when replicated — at either drive speed.
        assert grid[(speedup, "dyn NR-9 SP-1")] > grid[(speedup, "dyn NR-0 SP-0")]
        assert grid[(speedup, "env NR-9 SP-1")] > grid[(speedup, "dyn NR-9 SP-1")]
        assert grid[(speedup, "dyn NR-9 SP-1")] > 0.97 * grid[(speedup, "dyn NR-9 SP-0")]
    # And the fast drive really is faster across the board.
    for label in ("dyn NR-0 SP-0", "env NR-9 SP-1"):
        assert grid[(3.0, label)] > 2.0 * grid[(1.0, label)]


def _run_noisy(scheduler_name: str, seed: int):
    spec = PlacementSpec(
        layout=Layout.VERTICAL, percent_hot=10, replicas=9,
        start_position=1.0, block_mb=16.0,
    )
    catalog = build_catalog(spec, 10, 7 * 1024.0)
    timing = NoisyTimingModel(
        EXB_8505XL, random.Random(seed), locate_amplitude=0.02, read_amplitude=0.10
    )
    simulator = JukeboxSimulator(
        env=Environment(),
        catalog=catalog,
        timing=timing,
        scheduler_factory=lambda: make_scheduler(scheduler_name),
        source=ClosedSource(60, HotColdSkew(40.0), catalog, random.Random(seed + 1)),
        metrics=MetricsCollector(block_mb=16.0, warmup_s=HORIZON_S * 0.1),
    )
    return simulator.run(HORIZON_S).throughput_kb_s


@pytest.mark.benchmark(group="robustness")
def test_noisy_hardware_preserves_envelope_win(benchmark, capsys):
    """Model-based scheduling against hardware that deviates from the
    model: the envelope's advantage over dynamic persists."""

    def run_pair():
        return (
            _run_noisy("dynamic-max-bandwidth", seed=31),
            _run_noisy("envelope-max-bandwidth", seed=31),
        )

    dynamic, envelope = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\nnoisy hardware (±2% locate, ±10% read): dynamic "
            f"{dynamic:.1f} KB/s vs envelope {envelope:.1f} KB/s "
            f"({envelope / dynamic - 1:+.1%})"
        )
    assert envelope > 1.02 * dynamic


def _run_faulted(
    replicas: int,
    media_error_rate: float,
    bad_replica_rate: float = 0.0,
    percent_requests_hot: float = 40.0,
):
    config = ExperimentConfig(
        scheduler="dynamic-max-bandwidth",
        layout=Layout.VERTICAL if replicas else Layout.HORIZONTAL,
        replicas=replicas,
        start_position=1.0 if replicas else 0.0,
        percent_requests_hot=percent_requests_hot,
        queue_length=60,
        horizon_s=HORIZON_S,
        faults=FaultConfig(
            media_error_rate=media_error_rate,
            bad_replica_rate=bad_replica_rate,
            seed=101,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=2.0),
        ),
    )
    return run_experiment(config).report


@pytest.mark.benchmark(group="robustness")
def test_soft_error_degradation(benchmark, capsys):
    """Response time and served fraction vs transient soft-error rate.

    Each retry burns drive time (re-read + backoff), so the delay curve
    rises with the error rate; replication keeps the served fraction up
    when a copy's retry budget runs dry.
    """

    rates = (0.0, 0.02, 0.1)
    degrees = (0, 4, 9)

    def sweep():
        return {
            (replicas, rate): _run_faulted(replicas, rate)
            for replicas in degrees
            for rate in rates
        }

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            f"NR-{replicas}",
            f"{rate:g}",
            f"{report.mean_response_s:.1f}",
            f"{report.served_fraction:.4f}",
            report.retries,
            report.failovers,
        )
        for (replicas, rate), report in sorted(grid.items())
    ]
    with capsys.disabled():
        print("\nsoft-error degradation (dynamic-max-bandwidth, Q-60):")
        print(
            format_table(
                ("replicas", "err_rate", "delay_s", "served_frac",
                 "retries", "failovers"),
                rows,
            )
        )

    for replicas in degrees:
        # No faults -> nothing fails, no fault work is recorded.
        clean = grid[(replicas, 0.0)]
        assert clean.served_fraction == 1.0
        assert clean.retries == 0 and clean.failovers == 0
        # Retries are real drive work: delay climbs with the error rate.
        assert (
            grid[(replicas, 0.1)].mean_response_s
            > grid[(replicas, 0.0)].mean_response_s
        )
        assert grid[(replicas, 0.1)].retries > grid[(replicas, 0.02)].retries > 0


@pytest.mark.benchmark(group="robustness")
def test_replication_sustains_availability(benchmark, capsys):
    """NR > 0 serves strictly more under permanently bad regions.

    With single copies (NR-0) every discovered bad region loses its
    requests; with replicas the recovery layer fails over to a
    surviving copy instead.  Only hot blocks carry replicas (the paper
    replicates hot data), so the workload here is hot-dominated
    (RH-100) to measure what the copies actually buy.
    """

    def sweep():
        return {
            replicas: _run_faulted(
                replicas,
                media_error_rate=0.01,
                bad_replica_rate=0.03,
                percent_requests_hot=100.0,
            )
            for replicas in (0, 4, 9)
        }

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            f"NR-{replicas}",
            report.completed,
            report.failed_requests,
            f"{report.served_fraction:.4f}",
            report.failovers,
            report.fault_counts.get("bad-block", 0),
        )
        for replicas, report in sorted(reports.items())
    ]
    with capsys.disabled():
        print("\navailability under 3% bad regions (dynamic-max-bandwidth, Q-60):")
        print(
            format_table(
                ("replicas", "completed", "failed", "served_frac",
                 "failovers", "bad_blocks"),
                rows,
            )
        )

    # The acceptance bar: replication buys availability, strictly.
    assert reports[4].served_fraction > reports[0].served_fraction
    assert reports[9].served_fraction > reports[0].served_fraction
    # The counters behind the story are visible in the report.
    assert reports[0].fault_counts.get("bad-block", 0) > 0
    assert reports[0].failed_requests > 0
    assert reports[4].failovers > 0
