"""Compare two sets of benchmark results saved with ``run.py --out``.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*.json`` results of one code version.  The
comparison is refused (exit 2) unless every file carries the same
machine identity: timings from different machines are not comparable.
For each workload and end-to-end metric it prints both medians, their
ratio, and ``WORSE`` when the change's median is worse than the base's
by more than the metric's bound in BENCHMARK.json (exit 1 if any is).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path):
    """(machine identities, {workload: {metric: [values]}}) of a directory."""
    machines, values = [], {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        machines.append(result["identity"]["machine"])
        for record in result["records"]:
            metrics = values.setdefault(record["workload"], {})
            for name, value in record["metrics"].items():
                metrics.setdefault(name, []).append(value)
    return machines, values


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_machines, base = load(Path(argv[0]))
    change_machines, change = load(Path(argv[1]))
    machines = base_machines + change_machines
    if not base_machines or not change_machines:
        print("error: both directories need result files", file=sys.stderr)
        return 2
    if any(machine != machines[0] for machine in machines):
        print("error: results come from different machines; refusing to compare",
              file=sys.stderr)
        for machine in {json.dumps(m, sort_keys=True) for m in machines}:
            print(f"  {machine}", file=sys.stderr)
        return 2
    worse = False
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in change[workload]:
                continue
            before = statistics.median(base[workload][name])
            after = statistics.median(change[workload][name])
            ratio = after / before
            loss = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "WORSE" if loss > metric["bound"] else "ok"
            worse = worse or verdict == "WORSE"
            print(f"{workload:18s} {name:18s} {before:12.6g} -> {after:12.6g} "
                  f"{metric['unit']:6s} x{ratio:.4f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
