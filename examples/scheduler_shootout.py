#!/usr/bin/env python3
"""Trace-driven shoot-out: every scheduler on the *same* request stream.

Records one closed-queueing workload trace, then replays the identical
block sequence under all seventeen scheduling algorithms (the paper's
fourteen plus the LTSP baselines) and ranks them.
Replaying a fixed trace removes workload randomness from the
comparison — differences in the table are purely algorithmic, which is
how the paper's parametric graphs should be read.

Usage::

    python examples/scheduler_shootout.py [horizon_seconds] [queue_length]
"""

import random
import sys

from repro.core import make_scheduler, scheduler_names
from repro.des import Environment
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.report import format_table
from repro.service import JukeboxSimulator, MetricsCollector
from repro.workload import ClosedSource, HotColdSkew
from repro.workload.trace import ClosedReplaySource, TraceRecorder

BLOCK_MB = 16.0


def build_catalog_for_run():
    """Full replication at the tape ends: the layout where algorithmic
    differences (especially the envelope's) are widest."""
    spec = PlacementSpec(
        layout=Layout.VERTICAL,
        percent_hot=10,
        replicas=9,
        start_position=1.0,
        block_mb=BLOCK_MB,
    )
    return build_catalog(spec, 10, 7 * 1024.0)


def simulate(catalog, scheduler_name, source, horizon_s):
    simulator = JukeboxSimulator(
        env=Environment(),
        catalog=catalog,
        scheduler_factory=lambda: make_scheduler(scheduler_name),
        source=source,
        metrics=MetricsCollector(block_mb=BLOCK_MB, warmup_s=horizon_s * 0.1),
    )
    return simulator.run(horizon_s)


def main() -> None:
    horizon_s = float(sys.argv[1]) if len(sys.argv) > 1 else 150_000.0
    queue_length = int(sys.argv[2]) if len(sys.argv) > 2 else 60

    catalog = build_catalog_for_run()

    # Record a generously long trace once (the slowest scheduler still
    # needs enough entries; the replay cycles if it runs dry).
    recorder = TraceRecorder(
        ClosedSource(queue_length, HotColdSkew(40.0), catalog, random.Random(7))
    )
    recorder.initial_requests(0.0)
    for _ in range(200_000):
        recorder.on_completion(0.0)
    trace = recorder.block_ids()
    print(
        f"Recorded a {len(trace):,}-request trace (PH-10 RH-40, NR-9 SP-1, "
        f"Q-{queue_length}); replaying under {len(scheduler_names())} schedulers "
        f"for {horizon_s:,.0f} s each...\n"
    )

    rows = []
    for name in scheduler_names():
        source = ClosedReplaySource(queue_length, trace, cycle=True)
        report = simulate(catalog, name, source, horizon_s)
        rows.append(
            (
                name,
                report.throughput_kb_s,
                report.mean_response_s,
                report.p95_response_s,
                report.switches_per_hour,
            )
        )
    rows.sort(key=lambda row: -row[1])
    ranked = [
        (index + 1, *row) for index, row in enumerate(rows)
    ]
    print(
        format_table(
            ("rank", "scheduler", "KB/s", "delay_s", "p95_s", "switch/h"),
            ranked,
        )
    )
    best, worst = rows[0], rows[-1]
    print(
        f"\nSame request stream, {best[1] / worst[1]:.1f}x spread between "
        f"{best[0]} and {worst[0]} — scheduling is the whole difference."
    )


if __name__ == "__main__":
    main()
