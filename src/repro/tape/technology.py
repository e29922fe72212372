"""Drive technologies a config can name, and the timing model of each."""

from __future__ import annotations

from typing import Dict

from .serpentine import DLT_STYLE
from .timing import EXB_8505XL, DriveTimingModel

#: ``drive_technology`` name -> timing model at nominal speed: "helical"
#: is the paper's single-pass EXB-8505XL, "serpentine" the DLT-style
#: extension model (see :mod:`repro.tape.serpentine`).
DRIVE_TECHNOLOGIES: Dict[str, DriveTimingModel] = {
    "helical": EXB_8505XL,
    "serpentine": DLT_STYLE,
}


def check_drive_technology(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a known drive technology."""
    if name not in DRIVE_TECHNOLOGIES:
        names = " or ".join(repr(known) for known in DRIVE_TECHNOLOGIES)
        raise ValueError(f"drive_technology must be {names}, got {name!r}")


def timing_model(technology: str, speedup: float) -> DriveTimingModel:
    """The timing model of ``technology``, scaled ``speedup`` times faster."""
    timing = DRIVE_TECHNOLOGIES[technology]
    if speedup != 1.0:
        timing = timing.scaled(speedup)
    return timing
