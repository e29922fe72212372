"""Federation configuration: a fleet of heterogeneous tape libraries.

One :class:`FederationConfig` fully determines a federated run the same
way :class:`~repro.experiments.config.ExperimentConfig` determines a
single-library run: the fleet composition (one
:class:`LibraryConfig` per library — drive counts, tape counts,
capacities, and timing models may differ), the data layout and
replication knobs shared with the paper's notation (PH/RH/NR/SP), a
global routing policy, and a replica *placement* mode that is the new
fleet-level axis:

* ``placement="home"`` — the paper's setting scaled out: each hot
  block's NR extra copies live on distinct tapes *inside* its home
  library, so only that library can serve it.
* ``placement="spread"`` — the federation twist: the NR extra copies
  live in NR *other* libraries, so the global tier can route each
  request to any of NR+1 libraries holding a copy.

The two modes store the same total number of copies, which is exactly
the comparison the fleet-level NR sweep figure makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..faults.config import FaultConfig
from ..layout.placement import Layout
from ..qos.config import QoSConfig
from ..tape.technology import check_drive_technology
from .registry import global_policy_names

#: Replica placement modes (the fleet-level analogue of the paper's
#: horizontal/vertical layout axis).
PLACEMENTS = ("home", "spread")

#: Requests drawn by the routing phase to estimate per-library load.
DEFAULT_ROUTING_SAMPLES = 4096


@dataclass(frozen=True)
class LibraryConfig:
    """One library's hardware: the heterogeneity knobs of a fleet."""

    tape_count: int = 10
    capacity_mb: float = 7.0 * 1024.0
    drive_count: int = 1
    drive_speedup: float = 1.0
    #: "helical" (EXB-8505XL) or "serpentine" (DLT-style) timing model.
    drive_technology: str = "helical"
    #: Local scheduler override; ``None`` inherits the federation-wide one.
    scheduler: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tape_count < 1:
            raise ValueError(f"tape_count must be >= 1, got {self.tape_count!r}")
        if self.capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {self.capacity_mb!r}")
        if self.drive_count < 1:
            raise ValueError(f"drive_count must be >= 1, got {self.drive_count!r}")
        if self.drive_speedup <= 0:
            raise ValueError(
                f"drive_speedup must be positive, got {self.drive_speedup!r}"
            )
        check_drive_technology(self.drive_technology)

    def with_(self, **overrides) -> "LibraryConfig":
        """A copy with ``overrides`` applied."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class FederationConfig:
    """All knobs of one federated run (defaults = a homogeneous pair)."""

    #: The fleet, one entry per library (order is the library index).
    libraries: Tuple[LibraryConfig, ...] = field(
        default_factory=lambda: (LibraryConfig(), LibraryConfig())
    )
    #: Global routing policy name (see :mod:`repro.federation.registry`).
    global_policy: str = "round-robin"
    #: Where each hot block's NR extra copies live: "home" (same
    #: library, distinct tapes) or "spread" (NR other libraries).
    placement: str = "spread"
    #: NR at fleet level — extra copies of each hot block.
    fleet_replicas: int = 0
    #: Federation-wide local scheduler (per-library override on
    #: :attr:`LibraryConfig.scheduler`).
    scheduler: str = "dynamic-max-bandwidth"
    layout: Layout = Layout.HORIZONTAL
    percent_hot: float = 10.0
    percent_requests_hot: float = 40.0
    start_position: float = 0.0
    block_mb: float = 16.0
    pack_cold: bool = False
    #: Fleet-wide closed population, apportioned to libraries by the
    #: routing phase (the federation analogue of the farm's total queue).
    queue_length: int = 60
    horizon_s: float = 1_000_000.0
    warmup_fraction: float = 0.1
    seed: int = 42
    #: Requests the routing phase draws to estimate per-library load.
    routing_samples: int = DEFAULT_ROUTING_SAMPLES
    #: Fault-injection knobs applied to every library (``None`` = off).
    faults: Optional[FaultConfig] = None
    #: Overload-control knobs applied to every library (``None`` = off).
    qos: Optional[QoSConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.libraries, tuple):
            # Accept any sequence for ergonomics; store hashably.
            object.__setattr__(self, "libraries", tuple(self.libraries))
        if len(self.libraries) < 1:
            raise ValueError("a federation needs at least one library")
        for library in self.libraries:
            if not isinstance(library, LibraryConfig):
                raise TypeError(
                    f"libraries entries must be LibraryConfig, got {library!r}"
                )
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if self.global_policy not in global_policy_names():
            raise ValueError(
                f"unknown global policy {self.global_policy!r}; "
                f"known: {', '.join(global_policy_names())}"
            )
        if self.fleet_replicas < 0:
            raise ValueError(
                f"fleet_replicas must be >= 0, got {self.fleet_replicas!r}"
            )
        if self.placement == "spread" and self.fleet_replicas > len(self.libraries) - 1:
            raise ValueError(
                f"spread placement puts each of the {self.fleet_replicas} extra "
                f"copies in a distinct other library, so fleet_replicas must be "
                f"<= {len(self.libraries) - 1} for {len(self.libraries)} libraries"
            )
        if self.placement == "home":
            min_tapes = min(library.tape_count for library in self.libraries)
            if self.fleet_replicas >= min_tapes:
                raise ValueError(
                    f"home placement puts each copy on a distinct tape inside "
                    f"one library, so fleet_replicas must be < the smallest "
                    f"tape_count ({min_tapes}), got {self.fleet_replicas!r}"
                )
        for name in ("percent_hot", "percent_requests_hot"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} must be in [0, 100], got {value!r}")
        if not 0.0 <= self.start_position <= 1.0:
            raise ValueError(
                f"start_position must be in [0, 1], got {self.start_position!r}"
            )
        if self.block_mb <= 0:
            raise ValueError(f"block_mb must be positive, got {self.block_mb!r}")
        if self.queue_length < len(self.libraries):
            raise ValueError(
                f"queue_length {self.queue_length} cannot give every one of "
                f"{len(self.libraries)} libraries at least one request"
            )
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {self.horizon_s!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction!r}"
            )
        if self.routing_samples < 1:
            raise ValueError(
                f"routing_samples must be >= 1, got {self.routing_samples!r}"
            )

    @property
    def size(self) -> int:
        """Number of libraries in the fleet."""
        return len(self.libraries)

    @property
    def is_closed(self) -> bool:
        """Federations run the closed-queueing model (like farms)."""
        return True

    @property
    def warmup_s(self) -> float:
        """Warm-up cutoff in simulated seconds (per library)."""
        return self.horizon_s * self.warmup_fraction

    def with_(self, **overrides) -> "FederationConfig":
        """A copy with ``overrides`` applied (convenience for sweeps)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """Compact annotation extending the paper's, e.g.
        ``FED-2 PH-10 RH-40 NR-1/spread round-robin Q-60``."""
        return (
            f"FED-{self.size} PH-{self.percent_hot:g} "
            f"RH-{self.percent_requests_hot:g} "
            f"NR-{self.fleet_replicas}/{self.placement} "
            f"{self.global_policy} Q-{self.queue_length}"
        )


def normalize_libraries(
    libraries: Sequence[LibraryConfig],
) -> Tuple[LibraryConfig, ...]:
    """Coerce a library sequence to the canonical tuple form."""
    return tuple(libraries)
