"""Smoke test of the benchmark itself (a few tens of seconds).

    python3 perfbench/smoke.py

1. Every workload at the tiny ``smoke`` scale with tracing on: exit 0,
   ``correct`` (which includes each traced unit's report digests
   equalling the untraced unit's, and the span self times summing to the
   traced wall), every metric of BENCHMARK.json printed by name with
   its unit, and every per-layer metric in the JSON line.
2. One workload untraced: the JSON line carries exactly the end-to-end
   metrics, each nonzero.
3. A copy of the benchmark without the program's sources exits nonzero
   without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]

    traced = bench("--workload", "all", "--trace", "1", "--scale", "smoke")
    require(
        traced.returncode == 0, f"traced run exited {traced.returncode}\n{traced.stderr}"
    )
    lines = traced.stdout.splitlines()
    result = json.loads(lines[-1])
    require(result["correct"] and result["failed"] == 0, f"checks failed: {result}")
    for workload in workloads:
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                key = f"{workload}/{metric['name']}"
                if kind == "per_layer":
                    require(key in result["metrics"], f"{key} missing from JSON")
                    require(result["metrics"][key]["unit"] == metric["unit"], f"{key} unit")
                printed = [
                    line for line in lines
                    if line.startswith(f"{workload}  {metric['name']}  ")
                ]
                if kind == "end_to_end" or result["metrics"][key]["value"]:
                    require(
                        len(printed) == 1 and printed[0].endswith(f" {metric['unit']}"),
                        f"{key} not printed with unit {metric['unit']}",
                    )

    plain = bench("--workload", workloads[-1], "--trace", "0", "--scale", "smoke")
    require(
        plain.returncode == 0, f"untraced run exited {plain.returncode}\n{plain.stderr}"
    )
    metrics = json.loads(plain.stdout.splitlines()[-1])["metrics"]
    names = [metric["name"] for metric in spec["end_to_end"]]
    require(sorted(metrics) == sorted(names), f"end-to-end metrics {sorted(metrics)}")
    require(all(metrics[name]["value"] > 0 for name in names), "an end-to-end metric is 0")

    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=HERE))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(
            HERE,
            scratch / "perfbench",
            ignore=shutil.ignore_patterns("smoke-*", ".work-*", "__pycache__"),
        )
        bare = bench("--workload", workloads[0], "--trace", "0", cwd=scratch)
        require(bare.returncode != 0, "bare copy exited 0")
        require(not bare.stdout.strip(), f"bare copy printed {bare.stdout!r}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
