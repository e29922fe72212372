"""Tape drive state machine.

The drive is a passive model: each operation validates state, updates the
head position / mounted tape, and returns the operation's duration in
seconds.  The simulation layer (:mod:`repro.service.simulator`) turns the
durations into simulated time by yielding timeouts, so the same drive
model also serves the analytic cost calculations in
:mod:`repro.core.cost` without any simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .tape import Tape
from .timing import Direction, DriveTimingModel, EXB_8505XL


class DriveStateError(RuntimeError):
    """Raised on physically impossible drive operations."""


@dataclass
class DriveCounters:
    """Cumulative operation-time breakdown for utilization reporting."""

    locate_s: float = 0.0
    read_s: float = 0.0
    rewind_s: float = 0.0
    eject_load_s: float = 0.0
    locates: int = 0
    reads: int = 0
    rewinds: int = 0
    loads: int = 0

    @property
    def busy_s(self) -> float:
        """Total seconds the drive spent on any operation."""
        return self.locate_s + self.read_s + self.rewind_s + self.eject_load_s


@dataclass
class TapeDrive:
    """A single tape drive with at most one mounted tape."""

    timing: DriveTimingModel = field(default_factory=lambda: EXB_8505XL)
    mounted: Optional[Tape] = None
    head_mb: float = 0.0
    last_motion: Direction = Direction.FORWARD
    #: True when the next read pays the forward-locate startup cost.
    read_startup_pending: bool = True
    counters: DriveCounters = field(default_factory=DriveCounters)

    @property
    def is_loaded(self) -> bool:
        """True when a tape is in the drive."""
        return self.mounted is not None

    @property
    def mounted_id(self) -> Optional[int]:
        """The mounted tape's id, or ``None`` when empty."""
        return self.mounted.tape_id if self.mounted else None

    def _require_loaded(self) -> Tape:
        if self.mounted is None:
            raise DriveStateError("operation requires a mounted tape")
        return self.mounted

    # ------------------------------------------------------------------
    # Head motion and transfer
    # ------------------------------------------------------------------
    def locate(self, target_mb: float) -> float:
        """Move the head to ``target_mb``; return the locate duration."""
        tape = self._require_loaded()
        tape.validate_extent(target_mb, 0.0)
        seconds = self.timing.locate(self.head_mb, target_mb)
        if target_mb > self.head_mb:
            self.last_motion = Direction.FORWARD
            self.read_startup_pending = True
        elif target_mb < self.head_mb:
            self.last_motion = Direction.REVERSE
            self.read_startup_pending = False
        # Zero-distance locate changes nothing: streaming continues
        # without repositioning, so no startup is re-incurred.
        self.head_mb = target_mb
        self.counters.locate_s += seconds
        if seconds > 0:
            self.counters.locates += 1
        return seconds

    def read(self, size_mb: float) -> float:
        """Read ``size_mb`` MB at the head; return the transfer duration.

        The read startup penalty applies when the block was reached by a
        forward locate (per the paper's measurements); reads after a
        reverse locate or streaming straight from the previous block skip
        it.  The head advances past the data read.
        """
        tape = self._require_loaded()
        tape.validate_extent(self.head_mb, size_mb)
        seconds = self.timing.read(size_mb, startup=self.read_startup_pending)
        self.head_mb += size_mb
        self.last_motion = Direction.FORWARD
        self.read_startup_pending = False
        self.counters.read_s += seconds
        self.counters.reads += 1
        return seconds

    def access(self, position_mb: float, size_mb: float) -> float:
        """Locate to ``position_mb`` then read ``size_mb``; return total time."""
        return self.locate(position_mb) + self.read(size_mb)

    # ------------------------------------------------------------------
    # Mount management
    # ------------------------------------------------------------------
    def rewind(self) -> float:
        """Fully rewind the mounted tape; return the duration."""
        self._require_loaded()
        seconds = self.timing.rewind(self.head_mb)
        self.head_mb = 0.0
        self.last_motion = Direction.REVERSE
        self.read_startup_pending = False
        self.counters.rewind_s += seconds
        if seconds > 0:
            self.counters.rewinds += 1
        return seconds

    def eject(self) -> float:
        """Eject the mounted tape (must be rewound); return the duration."""
        self._require_loaded()
        if self.head_mb != 0.0:
            raise DriveStateError(
                f"tape must be rewound before eject (head at {self.head_mb} MB)"
            )
        self.mounted = None
        seconds = self.timing.eject_s
        self.counters.eject_load_s += seconds
        return seconds

    def force_unload(self) -> None:
        """Drop the mounted tape without rewinding and without timing.

        Fault-recovery path: a failed drive's cartridge is pulled by the
        repair technician, so the drive comes back empty with no rewind/
        eject durations charged to the simulation.  A no-op when empty.
        """
        self.mounted = None
        self.head_mb = 0.0
        self.last_motion = Direction.FORWARD
        self.read_startup_pending = True

    def load(self, tape: Tape) -> float:
        """Load ``tape`` into the empty drive; return the duration."""
        if self.mounted is not None:
            raise DriveStateError(
                f"drive already holds tape {self.mounted.tape_id}; eject first"
            )
        self.mounted = tape
        self.head_mb = 0.0
        self.last_motion = Direction.FORWARD
        self.read_startup_pending = True
        seconds = self.timing.load_s
        self.counters.eject_load_s += seconds
        self.counters.loads += 1
        return seconds


@dataclass
class DriveView:
    """The slice of jukebox state one drive's scheduler may see."""

    drive: TapeDrive
    tape_count: int

    @property
    def timing(self) -> DriveTimingModel:
        """Drive timing model."""
        return self.drive.timing

    @property
    def mounted_id(self) -> Optional[int]:
        """Tape mounted in this drive."""
        return self.drive.mounted_id

    @property
    def head_mb(self) -> float:
        """This drive's head position."""
        return self.drive.head_mb
