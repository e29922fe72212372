#!/usr/bin/env python3
"""Domain scenario: a video-on-demand archive tier on a tape jukebox.

The paper's introduction motivates tape tertiary storage with digital
libraries and video-on-demand servers.  This example models such a tier:
a large pool of subscribers sporadically pulls 16 MB video segments
(open queueing, Poisson arrivals), with a small popular catalog (new
releases) receiving most of the traffic.

It contrasts three operating points as the arrival rate grows toward
saturation, reporting the subscriber-visible latency:

1. naive       — FIFO scheduling, popularity-oblivious layout;
2. scheduled   — dynamic max-bandwidth scheduling, hot titles up front;
3. replicated  — envelope scheduling, popular titles replicated at the
                 tape ends (the paper's recommended configuration).

Usage::

    python examples/video_archive.py [horizon_seconds]
"""

import sys

from repro import ExperimentConfig, Layout, run
from repro.report import format_table

#: New releases are ~10% of the catalog and draw 80% of requests.
PH, RH = 10.0, 80.0


def scenario_config(name: str, interarrival_s: float, horizon_s: float) -> ExperimentConfig:
    if name == "naive":
        return ExperimentConfig(
            scheduler="fifo",
            percent_hot=PH,
            percent_requests_hot=RH,
            start_position=0.5,  # popularity-oblivious placement
            queue_length=None,
            mean_interarrival_s=interarrival_s,
            horizon_s=horizon_s,
        )
    if name == "scheduled":
        return ExperimentConfig(
            scheduler="dynamic-max-bandwidth",
            percent_hot=PH,
            percent_requests_hot=RH,
            start_position=0.0,  # hot titles at the tape beginnings
            queue_length=None,
            mean_interarrival_s=interarrival_s,
            horizon_s=horizon_s,
        )
    if name == "replicated":
        return ExperimentConfig(
            scheduler="envelope-max-bandwidth",
            layout=Layout.VERTICAL,
            percent_hot=PH,
            percent_requests_hot=RH,
            replicas=9,
            start_position=1.0,  # replicas appended at the tape ends
            queue_length=None,
            mean_interarrival_s=interarrival_s,
            horizon_s=horizon_s,
        )
    raise ValueError(name)


def main() -> None:
    horizon_s = float(sys.argv[1]) if len(sys.argv) > 1 else 150_000.0
    arrival_rates = (400.0, 200.0, 120.0)  # mean seconds between requests

    rows = []
    for interarrival_s in arrival_rates:
        per_hour = 3600.0 / interarrival_s
        for name in ("naive", "scheduled", "replicated"):
            result = run(scenario_config(name, interarrival_s, horizon_s))
            report = result.report
            rows.append(
                (
                    f"{per_hour:.0f}/h",
                    name,
                    report.mean_response_s,
                    report.p95_response_s,
                    report.total_completed - report.arrivals,
                )
            )

    print("Video archive tier: subscriber latency by operating point")
    print(f"({horizon_s:,.0f} simulated seconds per cell; backlog < 0 means")
    print("the tier cannot keep up with the arrival rate)\n")
    print(
        format_table(
            ("load", "configuration", "mean_s", "p95_s", "backlog"),
            rows,
            float_format="{:.0f}",
        )
    )
    print(
        "\nFIFO collapses first; scheduling alone sustains moderate load;"
        "\nreplication + envelope scheduling holds the lowest latency and"
        "\nthe highest sustainable arrival rate."
    )


if __name__ == "__main__":
    main()
