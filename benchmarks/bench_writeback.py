"""Extension benchmark: delta-file write-back cost.

The paper's workload section assumes writes are staged in disk-resident
delta files and hardened to tape "during idle time or piggybacked on
the read schedule", asserting implicitly that this keeps the read
service competitive.  This bench quantifies that: read throughput under
increasing piggybacked write load, and the write-hardening latency the
delta buffer achieves.
"""

import random

import pytest

from repro.core import make_scheduler
from repro.des import Environment
from repro.layout import PlacementSpec, build_catalog
from repro.report import format_table
from repro.service import MetricsCollector
from repro.service.writeback import WritebackSimulator
from repro.workload import ClosedSource, HotColdSkew

from _util import HORIZON_S

BLOCK = 16.0


def run_with_writes(write_interarrival_s):
    catalog = build_catalog(PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, 7 * 1024.0)
    simulator = WritebackSimulator(
        env=Environment(),
        catalog=catalog,
        scheduler_factory=lambda: make_scheduler("dynamic-max-bandwidth"),
        source=ClosedSource(60, HotColdSkew(40.0), catalog, random.Random(21)),
        metrics=MetricsCollector(block_mb=BLOCK, warmup_s=HORIZON_S * 0.1),
        write_interarrival_s=write_interarrival_s,
        write_rng=random.Random(22) if write_interarrival_s else None,
    )
    report = simulator.run(HORIZON_S)
    return report, simulator


@pytest.mark.benchmark(group="writeback")
def test_writeback_piggyback_cost(benchmark, capsys):
    def sweep():
        results = {}
        for write_interarrival_s in (None, 600.0, 200.0, 100.0):
            results[write_interarrival_s] = run_with_writes(write_interarrival_s)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for write_interarrival_s, (report, simulator) in results.items():
        label = (
            "none"
            if write_interarrival_s is None
            else f"1/{write_interarrival_s:g}s"
        )
        rows.append(
            (
                label,
                report.throughput_kb_s,
                simulator.delta.written_total,
                simulator.piggybacked_writes,
                simulator.delta.write_latency.mean if simulator.delta.written_total else 0.0,
                len(simulator.delta),
            )
        )
    with capsys.disabled():
        print("\ndelta-file write-back under read load (Q-60, PH-10 RH-40):")
        print(
            format_table(
                ("writes", "read_KB/s", "hardened", "piggybacked",
                 "write_lat_s", "backlog"),
                rows,
            )
        )

    baseline = results[None][0].throughput_kb_s
    moderate = results[600.0][0].throughput_kb_s
    heavy = results[100.0][0].throughput_kb_s
    # Piggybacking makes the *positioning* free, not the transfer: a
    # 16 MB write still occupies ~28 s of drive time.  One write per
    # 600 s costs ~7% of read throughput and one per 100 s about 40% —
    # both match the transfer-time budget, which is the point: the
    # mechanism's overhead is the unavoidable data movement only.
    assert moderate > 0.88 * baseline
    assert heavy > 0.55 * baseline
    # Writes actually harden, and the backlog stays bounded.
    for write_interarrival_s, (report, simulator) in results.items():
        if write_interarrival_s is not None:
            assert simulator.delta.written_total > 0
            expected = HORIZON_S / write_interarrival_s
            assert len(simulator.delta) < expected / 2
