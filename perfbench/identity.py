"""Code and machine identity written into every benchmark result.

Two results may be compared only when their machine identity is equal:
a timing taken on another CPU, core count, Python, or platform is not a
baseline.  The code identity says what was measured: the git commit and
dirty flag when the tree is a git checkout, and always a digest of the
program's sources, which also identifies a checkout exported without
git metadata.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _git(root: Path, *args: str):
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip()


def code_identity(root: Path) -> dict:
    """Git commit, dirty flag, and a digest of every file under ``src/``."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    identity = {"git_commit": None, "git_dirty": None, "src_sha256": digest.hexdigest()}
    if (root / ".git").exists():
        identity["git_commit"] = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        identity["git_dirty"] = None if status is None else bool(status)
    return identity


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_identity() -> dict:
    """What must match for two timings to be comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
