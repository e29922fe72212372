"""Set-up probe: a fresh interpreter that gets one workload ready to run.

``run.py`` starts this script and times it from launch until it prints
its ready line: interpreter start, imports, catalog build, simulator
build, and for ``figures-campaign`` a campaign worker-pool start.  It
prints one JSON line, then exits.

    python3 perfbench/setup_probe.py --workload paper-horizon --seed 1 [--trace]

With ``--trace`` the probe also times catalog construction by wrapping
the layout layer's ``build_catalog`` / ``validate_catalog`` where the
simulator builder calls them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _time_catalog_builds(totals):
    """Accumulate catalog build + validation seconds into ``totals``."""
    from repro.experiments import runner

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals["catalog_build_s"] += time.perf_counter() - start

        return wrapper

    runner.build_catalog = timed(runner.build_catalog)
    runner.validate_catalog = timed(runner.validate_catalog)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import workloads

    totals = {"catalog_build_s": 0.0}
    if args.trace:
        _time_catalog_builds(totals)
    workload = workloads.WORKLOADS[args.workload](args.scale, workdir=HERE)
    seed = workloads.sub_seed(args.seed, 0)
    if isinstance(workload, workloads.FiguresCampaign):
        from repro.campaign import Campaign
        from repro.experiments.config import ExperimentConfig

        # Two short points: the smallest submission that starts the pool.
        horizon_s = workload.horizon(seed) / 10.0
        Campaign(jobs=workload.jobs).submit(
            ExperimentConfig(horizon_s=horizon_s, seed=seed + offset)
            for offset in (0, 1)
        )
    else:
        for config in workload.configs(seed).values():
            workloads.build_simulator(config)
    print(json.dumps(totals), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
