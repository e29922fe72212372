"""Experiment configuration: the paper's six-dimensional parameter space.

One :class:`ExperimentConfig` fully determines a simulation run: the
workload (arrival process, intensity, skew), the data layout (placement,
replication, block size), the hardware (tape count, capacity, drive
speed), and the scheduling algorithm.  The paper's graph annotations map
directly: ``PH`` = ``percent_hot``, ``RH`` = ``percent_requests_hot``,
``NR`` = ``replicas``, ``SP`` = ``start_position``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..faults.config import FaultConfig
from ..layout.placement import Layout
from ..qos.config import QoSConfig
from ..tape.technology import check_drive_technology

#: The paper simulates 10 million seconds; the default here is shorter
#: (steady-state means converge much earlier) and benchmarks can dial it.
DEFAULT_HORIZON_S = 1_000_000.0


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one simulation run (defaults = the paper's base point)."""

    scheduler: str = "dynamic-max-bandwidth"
    layout: Layout = Layout.HORIZONTAL
    percent_hot: float = 10.0
    percent_requests_hot: float = 40.0
    replicas: int = 0
    start_position: float = 0.0
    block_mb: float = 16.0
    tape_count: int = 10
    capacity_mb: float = 7.0 * 1024.0
    #: Closed-queueing intensity; ``None`` selects the open model.
    queue_length: Optional[int] = 60
    #: Open-queueing mean interarrival; requires ``queue_length=None``.
    mean_interarrival_s: Optional[float] = None
    horizon_s: float = DEFAULT_HORIZON_S
    warmup_fraction: float = 0.1
    seed: int = 42
    pack_cold: bool = False
    drive_speedup: float = 1.0
    #: A key of :data:`repro.tape.DRIVE_TECHNOLOGIES`: "helical" = the
    #: paper's single-pass EXB-8505XL model; "serpentine" = the
    #: DLT-style extension model (see repro.tape.serpentine).
    drive_technology: str = "helical"
    #: Drives per jukebox; > 1 runs the multi-drive extension (no
    #: envelope schedulers — see repro.service.simulator).
    drive_count: int = 1
    #: Zipf skew exponent; when set, replaces the hot/cold RH model
    #: (theta = 0 is uniform; ~0.8-1.2 is web/video-like).
    zipf_theta: Optional[float] = None
    #: Cap on logical data volume (blocks); ``None`` fills the jukebox.
    #: Partial fills model the Section 4.8 lifecycle stages.
    data_blocks: Optional[int] = None
    #: Fault-injection knobs; ``None`` (or all-zero rates) runs the
    #: fault-free simulator — results stay bit-identical to builds
    #: without the fault subsystem (see repro.faults).
    faults: Optional[FaultConfig] = None
    #: Overload-control knobs (admission, deadlines, starvation guard,
    #: circuit breaker); ``None`` (or all-off) runs the QoS-free
    #: simulator — results stay bit-identical to builds without the QoS
    #: subsystem (see repro.qos).
    qos: Optional[QoSConfig] = None

    def __post_init__(self) -> None:
        check_drive_technology(self.drive_technology)
        if self.drive_count < 1:
            raise ValueError(f"drive_count must be >= 1, got {self.drive_count!r}")
        if self.zipf_theta is not None and self.zipf_theta < 0:
            raise ValueError(f"zipf_theta must be >= 0, got {self.zipf_theta!r}")
        closed = self.queue_length is not None
        open_model = self.mean_interarrival_s is not None
        if closed == open_model:
            raise ValueError(
                "exactly one of queue_length (closed) or mean_interarrival_s "
                "(open) must be set"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction!r}"
            )
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {self.horizon_s!r}")
        if self.drive_speedup <= 0:
            raise ValueError(
                f"drive_speedup must be positive, got {self.drive_speedup!r}"
            )
        if self.tape_count < 1:
            raise ValueError(f"tape_count must be >= 1, got {self.tape_count!r}")
        if self.capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {self.capacity_mb!r}")
        if self.block_mb <= 0:
            raise ValueError(f"block_mb must be positive, got {self.block_mb!r}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas!r}")
        if self.replicas >= self.tape_count:
            # NR counts *extra* copies, each on a distinct tape, so a
            # block needs replicas + 1 distinct tapes to live on.
            raise ValueError(
                f"replicas must be < tape_count ({self.tape_count}): a block "
                f"needs {self.replicas + 1} distinct tapes, got replicas="
                f"{self.replicas!r}"
            )
        for name in ("percent_hot", "percent_requests_hot"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} must be in [0, 100], got {value!r}")
        if self.queue_length is not None and self.queue_length < 1:
            raise ValueError(
                f"queue_length must be >= 1, got {self.queue_length!r}"
            )
        if self.mean_interarrival_s is not None and self.mean_interarrival_s <= 0:
            raise ValueError(
                f"mean_interarrival_s must be positive, "
                f"got {self.mean_interarrival_s!r}"
            )

    @property
    def is_closed(self) -> bool:
        """True for the closed-queueing arrival model."""
        return self.queue_length is not None

    @property
    def warmup_s(self) -> float:
        """Warm-up cutoff in simulated seconds."""
        return self.horizon_s * self.warmup_fraction

    def with_(self, **overrides) -> "ExperimentConfig":
        """A copy with ``overrides`` applied (convenience for sweeps)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """The paper's compact annotation, e.g. ``PH-10 RH-40 NR-0 SP-0``."""
        intensity = (
            f"Q-{self.queue_length}"
            if self.is_closed
            else f"IA-{self.mean_interarrival_s:g}s"
        )
        return (
            f"PH-{self.percent_hot:g} RH-{self.percent_requests_hot:g} "
            f"NR-{self.replicas} SP-{self.start_position:g} "
            f"{self.layout.value} {self.scheduler} {intensity}"
        )
