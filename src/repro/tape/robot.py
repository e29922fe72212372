"""The jukebox robot arm: moves tapes between slots and the drive."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from .timing import DriveTimingModel


class RobotError(RuntimeError):
    """Raised on impossible robot operations (e.g. fetching a loaded tape)."""


@dataclass
class RobotArm:
    """Tracks which tapes sit in slots versus in the drive.

    The swap itself is a single timed motion (the paper measured 20 s for
    the EXB-210's arm to exchange cartridges).
    """

    timing: DriveTimingModel
    slot_count: int
    in_slots: Set[int] = field(default_factory=set)
    in_drive: Optional[int] = None
    swaps: int = 0

    def __post_init__(self) -> None:
        if not self.in_slots and self.in_drive is None:
            self.in_slots = set(range(self.slot_count))

    def swap(self, load_tape_id: int) -> float:
        """Exchange the drive's tape (if any) with ``load_tape_id``.

        Returns the arm motion duration.  The drive must already have
        ejected its cartridge; this models only the robot's part.
        """
        if load_tape_id not in self.in_slots:
            raise RobotError(f"tape {load_tape_id} is not in any slot")
        if self.in_drive is not None:
            self.in_slots.add(self.in_drive)
        self.in_slots.remove(load_tape_id)
        self.in_drive = load_tape_id
        self.swaps += 1
        return self.timing.robot_swap_s
