"""Extension benchmark: multi-drive jukeboxes (the paper's future work).

Not a paper figure — the paper studies single-drive jukeboxes and
defers multiple drives to future work.  This bench quantifies what that
future work buys: throughput and delay versus the number of drives
sharing one robot arm and one tape pool, at a fixed closed-queueing
population.
"""

import random

import pytest

from repro.core import make_scheduler
from repro.des import Environment
from repro.layout import PlacementSpec, build_catalog
from repro.report import format_table
from repro.service import JukeboxSimulator, MetricsCollector
from repro.workload import ClosedSource, HotColdSkew

from _util import HORIZON_S

BLOCK = 16.0
CAPACITY = 7 * 1024.0
QUEUE = 60


def run_with_drives(drive_count: int):
    catalog = build_catalog(
        PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, CAPACITY
    )
    source = ClosedSource(QUEUE, HotColdSkew(40.0), catalog, random.Random(17))
    simulator = JukeboxSimulator(
        env=Environment(),
        catalog=catalog,
        source=source,
        metrics=MetricsCollector(block_mb=BLOCK, warmup_s=HORIZON_S * 0.1),
        scheduler_factory=lambda: make_scheduler("dynamic-max-bandwidth"),
        drive_count=drive_count,
    )
    return simulator.run(HORIZON_S)


@pytest.mark.benchmark(group="multidrive")
def test_multidrive_scaling(benchmark, capsys):
    def sweep():
        return {drives: run_with_drives(drives) for drives in (1, 2, 4)}

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            drives,
            report.throughput_kb_s,
            report.requests_per_min,
            report.mean_response_s,
            report.switches_per_hour,
        )
        for drives, report in sorted(reports.items())
    ]
    with capsys.disabled():
        print("\nMulti-drive extension: dynamic-max-bandwidth, PH-10 RH-40, Q-60")
        print(
            format_table(
                ("drives", "KB/s", "req/min", "delay_s", "switch/h"), rows
            )
        )

    # More drives always help throughput and delay.
    assert reports[2].throughput_kb_s > reports[1].throughput_kb_s
    assert reports[4].throughput_kb_s > reports[2].throughput_kb_s
    assert reports[4].mean_response_s < reports[1].mean_response_s
