"""The repo benchmark: host-time end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload paper-horizon --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 0 --trace 1 --scale smoke

A run repeats its workload's unit of work (see ``workloads.py``) under
sub-seeds derived from ``--seed`` until ``--seconds`` are spent (at
least ``MIN_UNITS`` units), then times ``SETUP_PROBES`` fresh-interpreter
set-ups.  Host times are reported at a reference speed measured by a
calibration kernel between runs (see ``calibrate.py``).  ``--trace 1``
runs each unit twice, untraced and traced with the outside-in layer
tracer (alternating which goes first), and checks that both give the
same report digests.  Every metric is printed with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics; a layer the workload never
calls reads 0).  The exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Units every run measures, however short ``--seconds`` is.
MIN_UNITS = 3
#: Fresh-interpreter set-ups timed per run (median reported).
SETUP_PROBES = 7
#: Allowed |sum of traced self times / traced wall - 1| per traced unit.
ATTRIBUTION_TOLERANCE = 0.01

#: Spans whose calls and self time are reported as ``<span>.calls`` / ``.self_s``.
SPANS = (
    "core.major_reschedule",
    "core.on_arrival",
    "core.build_service_list",
    "core.exact.plan",
    "tape.access",
    "tape.switch_to",
    "service.metrics",
    "service.loop",
    "service.build",
    "faults",
    "qos",
    "experiments.figures",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write the full result (with identity) here")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Measuring one workload
# ----------------------------------------------------------------------
class Tally:
    """Attempted runs, points and checks of one workload, and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures = []

    def absorb(self, unit) -> None:
        self.attempted += unit.attempted
        self.failures.extend(unit.failures)


def _run_unit(workload, seed, tracer, tally, speed):
    """One unit, or None when it raised (counted as a failed attempt).

    The unit's ``scale`` comes from kernel samples taken between its runs.
    """
    try:
        unit = workload.run_unit(seed, tracer, speed.sample)
    except Exception:  # a crashed unit is an error to count, not a stop
        traceback.print_exc(file=sys.stderr)
        tally.attempted += 1
        tally.failures.append(f"unit seed {seed} raised")
        speed.sample()
        speed.scale()
        return None
    unit.scale, unit.kernel_s = speed.scale()
    return unit


def _probe_setup(name, args, tally, speed):
    """Time one fresh-interpreter set-up; return (scale, seconds, report)."""
    command = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--scale", args.scale,
    ] + (["--trace"] if args.trace else [])
    tally.attempted += 1
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    speed.sample()
    scale, _samples = speed.scale()
    if code != 0 or not line:
        tally.failures.append(f"set-up probe exited {code}")
        return None
    return scale, elapsed, json.loads(line)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(name, args, workdir):
    """Run workload ``name`` as ``args`` say; return its result record."""
    import workloads
    from calibrate import SpeedTracker

    workload = workloads.WORKLOADS[name](args.scale, str(workdir))
    min_units = 1 if args.scale == "smoke" else MIN_UNITS
    tally = Tally()
    pairs = []  # (untraced unit, traced unit or None)
    digests = []
    with SpeedTracker(workload.processes) as speed:
        speed.sample()
        _measure_units(workload, args, min_units, speed, tally, pairs, digests)
    # Campaign workers are reaped by now; the set-up probes come after so
    # that their interpreters do not count as workers.
    rss_mb = peak_rss_mb()
    with SpeedTracker(startup=True) as speed:
        speed.sample()
        probes = [_probe_setup(name, args, tally, speed) for _ in range(SETUP_PROBES)]
    probes = [probe for probe in probes if probe is not None]

    plain_units = [plain for plain, _traced in pairs if plain is not None]
    metrics = {}
    if plain_units:
        metrics.update(end_to_end(plain_units))
    metrics["peak_rss_mb"] = rss_mb
    if probes:
        metrics["setup_s"] = statistics.median(
            scale * seconds for scale, seconds, _report in probes
        )
    if args.trace:
        metrics.update(per_layer(pairs, probes))
    return {
        "workload": name,
        "units": len(pairs),
        "unit_wall_s": [plain.wall_s for plain in plain_units],
        "unit_kernel_s": [plain.kernel_s for plain in plain_units],
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "output_digest": workloads.output_digest(digests),
        "metrics": metrics,
    }


def _measure_units(workload, args, min_units, speed, tally, pairs, digests):
    """Repeat units until the measuring time is spent (see the module doc)."""
    import workloads
    from tracing import LayerTracer

    start = time.perf_counter()
    index = 0
    while index < min_units or time.perf_counter() - start < args.seconds:
        seed = workloads.sub_seed(args.seed, index)
        sides = [None, LayerTracer()] if args.trace else [None]
        if index % 2:  # alternate which side of a pair runs first
            sides.reverse()
        plain = traced = None
        for tracer in sides:
            unit = _run_unit(workload, seed, tracer, tally, speed)
            if unit is None:
                continue
            if tracer is None:
                plain = unit
            else:
                traced = unit
        if plain is not None:
            tally.absorb(plain)
            if index < min_units:
                digests.extend(plain.digests)
        if traced is not None:
            if plain is not None:
                traced.check(
                    traced.digests == plain.digests,
                    f"unit seed {seed}: traced digests differ from untraced",
                )
            attributed = attributed_fraction(traced)
            traced.check(
                abs(attributed - 1.0) <= ATTRIBUTION_TOLERANCE,
                f"unit seed {seed}: spans attribute {attributed:.4f} of traced wall",
            )
            tally.absorb(traced)
        pairs.append((plain, traced))
        index += 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def attributed_fraction(unit) -> float:
    """Sum of a traced unit's span self times over its traced wall."""
    return sum(unit.tracer.self_s.values()) / unit.wall_s


def _median_of(units, key):
    values = [key(unit) for unit in units]
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else None


def end_to_end(units) -> dict:
    """Medians over untraced units of the workload-level metrics.

    Host times are in reference seconds: each unit's measured seconds
    times its ``scale`` (see ``calibrate.py``).
    """
    metrics = {
        "wall_s": _median_of(units, lambda unit: unit.wall_s * unit.scale),
        "completions_per_s": _median_of(
            units, lambda unit: unit.completions / (unit.wall_s * unit.scale)
        ),
    }
    for label in units[0].rates:
        metrics[f"{label}.completions_per_s"] = _median_of(
            units, lambda unit: unit.rates[label] / unit.scale
        )
    if "cached_regen_s" in units[0].campaign:
        metrics["campaign.cached_regen_s"] = _median_of(
            units, lambda unit: unit.campaign["cached_regen_s"] * unit.scale
        )
    return {name: value for name, value in metrics.items() if value is not None}


def per_layer(pairs, probes) -> dict:
    """Per-unit means over traced units of span, count and campaign figures.

    Self times and campaign times are in reference-speed seconds.
    """
    traced = [unit for _plain, unit in pairs if unit is not None]
    complete = [(plain, unit) for plain, unit in pairs if plain and unit]
    metrics = {}
    if probes:
        metrics["layout.catalog_build_s"] = statistics.median(
            scale * report["catalog_build_s"] for scale, _seconds, report in probes
        )
    if complete:
        metrics["tracing.overhead_fraction"] = (
            statistics.median(
                (unit.wall_s * unit.scale) / (plain.wall_s * plain.scale)
                for plain, unit in complete
            )
            - 1.0
        )
    if not traced:
        return metrics
    count = float(len(traced))

    def mean(values):
        return sum(values) / count

    for span in SPANS:
        metrics[f"{span}.calls"] = mean(unit.tracer.calls[span] for unit in traced)
    for span in SPANS + ("workload.draw",):
        metrics[f"{span}.self_s"] = mean(
            unit.tracer.self_s[span] * unit.scale for unit in traced
        )
    for counter in ("workload.draws", "core.exact.nodes"):
        metrics[counter] = mean(unit.tracer.counts[counter] for unit in traced)
    metrics["core.exact.plans"] = metrics["core.exact.plan.calls"]
    totals = {
        key: sum(unit.tracer.counts[key] for unit in traced)
        for key in ("core.on_arrival.absorbed", "core.exact.exact_plans")
    }
    arrivals = metrics["core.on_arrival.calls"] * count
    plans = metrics["core.exact.plans"] * count
    metrics["core.on_arrival.absorbed_fraction"] = (
        totals["core.on_arrival.absorbed"] / arrivals if arrivals else 0.0
    )
    metrics["core.exact.exact_fraction"] = (
        totals["core.exact.exact_plans"] / plans if plans else 0.0
    )
    for key in ("submit_s", "dispatch_s", "worker_startup_ms"):
        if key in traced[0].campaign:
            metrics[f"campaign.{key}"] = mean(
                unit.campaign[key] * unit.scale for unit in traced
            )
    ratios = ("payload_bytes_per_point", "cold_cache_hit_fraction", "cache_hit_fraction")
    for key in ratios:
        if key in traced[0].campaign:
            metrics[f"campaign.{key}"] = mean(unit.campaign[key] for unit in traced)
    metrics["tracing.attributed_fraction"] = mean(
        attributed_fraction(unit) for unit in traced
    )
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def declared(spec, trace: int):
    """(name, unit) of every metric the JSON line carries for ``trace``."""
    kinds = ("per_layer",) if trace else ("end_to_end",)
    return [(metric["name"], metric["unit"]) for kind in kinds for metric in spec[kind]]


def print_record(record, spec, ident) -> None:
    name = record["workload"]
    print(f"# workload {name}: {record['units']} units, "
          f"output_digest {record['output_digest']}")
    print(f"# identity {json.dumps(ident, sort_keys=True)}")
    error_rate = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"{name}  error_rate  {error_rate:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} runs, points and checks)")
    for failure in record["failures"]:
        print(f"{name}  FAILED  {failure}")
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            value = record["metrics"].get(metric["name"])
            if value is not None:
                print(f"{name}  {metric['name']}  {value:.6g} {metric['unit']}")


def json_line(records, spec, trace: int) -> str:
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for metric, unit in declared(spec, trace):
            value = record["metrics"].get(metric)
            if value is None:
                if not trace:
                    raise RuntimeError(f"{record['workload']}: no value for {metric}")
                value = 0.0  # a layer this workload never calls
            key = f"{record['workload']}/{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"error: {ROOT} holds no src/repro or BENCHMARK.json; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    import identity
    import workloads

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ident = {"code": identity.code_identity(ROOT), "machine": identity.machine_identity()}
    workdir = HERE / f".work-{os.getpid()}"
    try:
        records = [measure(name, args, workdir) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for record in records:
        print_record(record, spec, ident)
    if args.out:
        result = {"identity": ident, "args": vars(args), "records": records}
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json_line(records, spec, args.trace), flush=True)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
