#!/usr/bin/env python3
"""Quickstart: simulate a tape jukebox and compare two configurations.

Runs the paper's baseline workload (PH-10, RH-40, queue 60) twice:
once with no replication and hot data at the beginning of the tapes
(the best non-replicated layout), and once with full replication at the
tape ends scheduled by the envelope-extension algorithm (the paper's
recommended configuration).  Prints the steady-state metrics for both.

Usage::

    python examples/quickstart.py [horizon_seconds]
"""

import sys

from repro import ExperimentConfig, Layout, run


def main() -> None:
    horizon_s = float(sys.argv[1]) if len(sys.argv) > 1 else 200_000.0

    baseline = ExperimentConfig(
        scheduler="dynamic-max-bandwidth",
        replicas=0,
        start_position=0.0,  # hot data at the beginning (best without replicas)
        queue_length=60,
        horizon_s=horizon_s,
    )
    recommended = ExperimentConfig(
        scheduler="envelope-max-bandwidth",
        layout=Layout.VERTICAL,
        replicas=9,          # a copy of every hot block on every tape
        start_position=1.0,  # replicas at the tape ends (best with replicas)
        queue_length=60,
        horizon_s=horizon_s,
    )

    print(f"Simulating {horizon_s:,.0f} s of jukebox activity per run...\n")
    results = {}
    for label, config in (("baseline", baseline), ("recommended", recommended)):
        result = run(config)
        results[label] = result
        print(f"{label:12s} [{config.describe()}]")
        print(f"{'':12s} {result.report}\n")

    base = results["baseline"].report
    best = results["recommended"].report
    throughput_gain = (best.throughput_kb_s / base.throughput_kb_s - 1) * 100
    delay_gain = (1 - best.mean_response_s / base.mean_response_s) * 100
    switch_drop = (1 - best.tape_switches / base.tape_switches) * 100
    print(
        f"Replication + envelope scheduling: "
        f"{throughput_gain:+.1f}% throughput, "
        f"{delay_gain:+.1f}% faster responses, "
        f"{switch_drop:+.1f}% fewer tape switches."
    )


if __name__ == "__main__":
    main()
