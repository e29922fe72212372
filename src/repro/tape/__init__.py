"""Tape hardware substrate: timing model, drive, and tapes."""

from .drive import DriveCounters, DriveStateError, DriveView, TapeDrive
from .noisy import NoisyTimingModel, random_walk_validation
from .serpentine import DLT_STYLE, SerpentineTimingModel
from .tape import DEFAULT_TAPE_CAPACITY_MB, DEFAULT_TAPE_COUNT, Tape, TapePool
from .technology import DRIVE_TECHNOLOGIES, check_drive_technology, timing_model
from .timing import Direction, DriveTimingModel, EXB_8505XL, LinearSegment

__all__ = [
    "DEFAULT_TAPE_CAPACITY_MB",
    "DEFAULT_TAPE_COUNT",
    "DLT_STYLE",
    "DRIVE_TECHNOLOGIES",
    "Direction",
    "SerpentineTimingModel",
    "DriveCounters",
    "DriveStateError",
    "DriveView",
    "DriveTimingModel",
    "EXB_8505XL",
    "LinearSegment",
    "NoisyTimingModel",
    "Tape",
    "TapeDrive",
    "TapePool",
    "check_drive_technology",
    "random_walk_validation",
    "timing_model",
]
