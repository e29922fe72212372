"""Tape geometry: capacity, block positions, and bounds checking.

Positions are measured in MB from the physical beginning of tape, matching
the paper's 1 MB physical-block unit.  A data block of ``size_mb`` placed
at position ``p`` occupies ``[p, p + size_mb)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default tape capacity used throughout the paper (EXB-210 tapes, 7 GB).
DEFAULT_TAPE_CAPACITY_MB = 7 * 1024

#: Number of tapes in the paper's default jukebox (an Exabyte EXB-210).
DEFAULT_TAPE_COUNT = 10


@dataclass(frozen=True)
class Tape:
    """A single tape cartridge: an identifier plus linear geometry."""

    tape_id: int
    capacity_mb: float = DEFAULT_TAPE_CAPACITY_MB

    def __post_init__(self) -> None:
        if self.tape_id < 0:
            raise ValueError(f"tape_id must be >= 0, got {self.tape_id!r}")
        if self.capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {self.capacity_mb!r}")

    def contains(self, position_mb: float, size_mb: float = 0.0) -> bool:
        """True if a block of ``size_mb`` at ``position_mb`` fits on tape."""
        return 0 <= position_mb and position_mb + size_mb <= self.capacity_mb

    def validate_extent(self, position_mb: float, size_mb: float) -> None:
        """Raise ``ValueError`` unless the extent lies within the tape."""
        if not self.contains(position_mb, size_mb):
            raise ValueError(
                f"extent [{position_mb}, {position_mb + size_mb}) MB outside "
                f"tape {self.tape_id} of capacity {self.capacity_mb} MB"
            )

    def slots(self, block_mb: float) -> int:
        """Number of whole blocks of ``block_mb`` that fit on this tape."""
        if block_mb <= 0:
            raise ValueError(f"block_mb must be positive, got {block_mb!r}")
        return int(self.capacity_mb // block_mb)


@dataclass
class TapePool:
    """The fixed collection of tapes resident in one jukebox."""

    tapes: list = field(default_factory=list)

    @classmethod
    def uniform(cls, count: int, capacity_mb: float = DEFAULT_TAPE_CAPACITY_MB) -> "TapePool":
        """A pool of ``count`` identical tapes with ids ``0..count-1``."""
        if count <= 0:
            raise ValueError(f"tape count must be positive, got {count!r}")
        return cls(tapes=[Tape(tape_id, capacity_mb) for tape_id in range(count)])

    def __len__(self) -> int:
        return len(self.tapes)

    def __iter__(self):
        return iter(self.tapes)

    def __getitem__(self, tape_id: int) -> Tape:
        return self.tapes[tape_id]

    @property
    def tape_ids(self) -> range:
        """Tape identifiers in jukebox (slot) order."""
        return range(len(self.tapes))

    def jukebox_order(self, start_after: int) -> list:
        """Tape ids in circular jukebox order starting after ``start_after``.

        Jukebox order is the paper's arbitrary circular ordering on slots;
        ties in tape-selection policies are broken by preferring the first
        tape in this order after the currently mounted tape.
        """
        count = len(self.tapes)
        if count == 0:
            return []
        start = (start_after + 1) % count
        return [(start + offset) % count for offset in range(count)]
