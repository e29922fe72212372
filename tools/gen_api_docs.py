#!/usr/bin/env python3
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, lists each module's ``__all__`` (or
public top-level names) with the first line of their docstrings, and
writes a browsable Markdown reference.  Run from the repository root::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

HEADER = """# API Reference

Auto-generated by ``tools/gen_api_docs.py`` — do not edit by hand.

Each section lists a module's public names with the first line of
their docstrings.  See the source for full documentation; every public
item carries a docstring.

## The run surface

`repro.api.run(config)` runs one config: it dispatches on config type
— `ExperimentConfig` → experiment, `FarmConfig` → farm,
`FederationConfig` → federation (see docs/FEDERATION.md) — and takes
an optional `obs=` tracer.  `repro.campaign.Campaign.submit(configs)`
runs many: it deduplicates them, serves finished points from a
content-addressed cache, fans the rest out over worker processes, and
isolates per-point failures; its default runner is `run`.  The
figure, curve (`curve_family`), replication (`replicate`), gap, and
cost-performance helpers build config batches and take a `campaign=`
keyword (default: a serial, uncached `Campaign()`).

CLI: `tape-jukebox sweep|figure|gap|run|federate` share `--jobs N`,
`--cache-dir`, `--no-cache`, and `--progress` (env default:
`REPRO_CACHE_DIR`).
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.strip().splitlines()[0]


def public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    # `from __future__ import annotations` binds a _Feature object.
    return sorted(
        name
        for name in names
        if type(getattr(module, name, None)).__module__ != "__future__"
    )


def iter_modules():
    yield "repro", repro
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda item: item.name,
    ):
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as error:  # pragma: no cover - diagnostic path
            print(f"skipping {info.name}: {error}")


def render() -> str:
    sections = [HEADER]
    for name, module in iter_modules():
        module_summary = first_line(module)
        lines = [f"## `{name}`", "", module_summary, ""]
        members = []
        for member_name in public_names(module):
            member = getattr(module, member_name, None)
            if member is None:
                continue
            # Only document things defined (or re-exported) meaningfully.
            if inspect.ismodule(member):
                continue
            kind = (
                "class"
                if inspect.isclass(member)
                else "function"
                if callable(member)
                else "constant"
            )
            members.append(f"* **`{member_name}`** ({kind}) — {first_line(member)}")
        if not members:
            continue
        lines.extend(members)
        lines.append("")
        sections.append("\n".join(lines))
    return "\n".join(sections)


def main() -> None:
    output = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    output.parent.mkdir(exist_ok=True)
    output.write_text(render())
    print(f"wrote {output} ({output.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
