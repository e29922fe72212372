"""Shared fixtures for scheduling tests: hand-built catalogs and requests."""

import pytest

from repro.core import PendingList, SchedulerContext
from repro.layout import BlockCatalog, Replica
from repro.tape import EXB_8505XL, DriveView, Tape, TapeDrive
from repro.workload import RequestFactory

BLOCK_MB = 16.0


def catalog_from(placements, n_hot=0, block_mb=BLOCK_MB):
    """Build a catalog from ``[(tape_id, position), ...]`` per block."""
    return BlockCatalog(
        block_mb=block_mb,
        n_hot=n_hot,
        replicas_by_block=[
            [Replica(tape_id, position) for tape_id, position in block_placements]
            for block_placements in placements
        ],
    )


@pytest.fixture
def factory():
    return RequestFactory()


def make_context(catalog, tape_count=10, mounted=None, head_mb=0.0):
    """A scheduler context over fresh hardware with optional mount state."""
    context = SchedulerContext(
        jukebox=DriveView(drive=TapeDrive(timing=EXB_8505XL), tape_count=tape_count),
        catalog=catalog,
        pending=PendingList(catalog),
    )
    if mounted is not None:
        mount(context, mounted)
        if head_mb:
            context.jukebox.drive.locate(head_mb)
    return context


def mount(context, tape_id):
    """Mount ``tape_id`` in the context's drive, head at 0 (no-op if mounted)."""
    drive = context.jukebox.drive
    if drive.mounted_id != tape_id:
        drive.force_unload()
        drive.load(Tape(tape_id))


@pytest.fixture
def figure2():
    """The paper's Figure 2 instance.

    Tape 0: C at 0, D-copy at 16 (right after C).
    Tape 1: A at 0, B at 16, D-copy at 6000 (near the end).
    Head at the beginning of tape 1.  Blocks: 0=A, 1=B, 2=C, 3=D.
    """
    catalog = catalog_from(
        [
            [(1, 0.0)],               # A
            [(1, 16.0)],              # B
            [(0, 0.0)],               # C
            [(0, 16.0), (1, 6000.0)], # D (replicated)
        ]
    )
    context = make_context(catalog, tape_count=2, mounted=1, head_mb=0.0)
    return catalog, context
