"""Tape hardware substrate: timing model, drive, robot, and tapes."""

from .drive import DriveCounters, DriveStateError, DriveView, TapeDrive
from .robot import RobotArm, RobotError
from .noisy import NoisyTimingModel, random_walk_validation
from .serpentine import DLT_STYLE, SerpentineTimingModel
from .tape import DEFAULT_TAPE_CAPACITY_MB, DEFAULT_TAPE_COUNT, Tape, TapePool
from .timing import Direction, DriveTimingModel, EXB_8505XL, LinearSegment

__all__ = [
    "DEFAULT_TAPE_CAPACITY_MB",
    "DEFAULT_TAPE_COUNT",
    "DLT_STYLE",
    "Direction",
    "SerpentineTimingModel",
    "DriveCounters",
    "DriveStateError",
    "DriveView",
    "DriveTimingModel",
    "EXB_8505XL",
    "LinearSegment",
    "NoisyTimingModel",
    "RobotArm",
    "RobotError",
    "Tape",
    "TapeDrive",
    "TapePool",
    "random_walk_validation",
]
