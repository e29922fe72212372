"""Analytic schedule cost model.

Computes, without touching any drive state, the execution time of a sweep
and the *effective bandwidth* of a candidate schedule (paper Section 3.1:
bytes retrieved divided by total seconds including tape-switch overhead).
The arithmetic mirrors :class:`repro.tape.drive.TapeDrive` exactly — a
property the test suite asserts — so scheduling decisions are consistent
with what the simulated hardware will actually do.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from ..tape.timing import DriveTimingModel

#: Bytes per MB, used when converting block counts to bytes.
MB = 1 << 20


@dataclass(frozen=True)
class SweepCost:
    """Breakdown of a sweep's execution time."""

    locate_s: float
    read_s: float
    end_head_mb: float

    @property
    def total_s(self) -> float:
        """Locate plus read time for the sweep."""
        return self.locate_s + self.read_s


def sweep_cost(
    timing: DriveTimingModel,
    head_mb: float,
    positions: Iterable[float],
    block_mb: float,
    startup_pending: bool = True,
) -> SweepCost:
    """Cost of a forward-then-reverse sweep from ``head_mb``.

    ``positions`` are block start positions (any order, duplicates
    allowed once coalesced by the caller).  ``startup_pending`` mirrors
    the drive's state: whether a read begun without any repositioning
    would still pay the forward startup.  Returns the time split and the
    final head position (end of the last block read).

    An exact :class:`DriveTimingModel` is priced call-free through
    :func:`flat_sweep`; any other model goes through its methods.
    """
    constants = extension_constants(timing, block_mb)
    if constants is not None:
        locate_s, read_s, head = flat_sweep(
            constants, head_mb, positions, block_mb, startup_pending
        )
        return SweepCost(locate_s=locate_s, read_s=read_s, end_head_mb=head)
    ordered = sorted(positions)
    split = bisect_left(ordered, head_mb)
    # The block size is fixed for the whole sweep, so only two read
    # costs ever occur (same expression as ``timing.read``).
    locate_forward = timing.locate_forward
    locate_reverse = timing.locate_reverse
    read_plain_s = timing.read(block_mb, startup=False)
    read_startup_s = timing.read(block_mb, startup=True)
    locate_s = 0.0
    read_s = 0.0
    head = head_mb
    for position in ordered[split:]:
        distance = position - head
        if distance > 0:
            locate_s += locate_forward(distance)
            startup_pending = True
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    for position in reversed(ordered[:split]):
        distance = head - position
        if distance > 0:
            locate_s += locate_reverse(distance, lands_on_bot=(position == 0))
            startup_pending = False
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    return SweepCost(locate_s=locate_s, read_s=read_s, end_head_mb=head)


def flat_sweep(
    constants: "ExtensionConstants",
    head_mb: float,
    positions: Iterable[float],
    block_mb: float,
    startup_pending: bool = True,
) -> Tuple[float, float, float]:
    """``(locate_s, read_s, end_head_mb)`` of a sweep, computed call-free.

    The same sweep as :func:`sweep_cost`: blocks at or above ``head_mb``
    ascending, then the rest descending.  Each locate and read applies
    the exact expression the timing model's methods evaluate, in the
    same order, so every float is bit-identical to the method path.
    """
    (
        threshold,
        forward_short_startup,
        forward_short_rate,
        forward_long_startup,
        forward_long_rate,
        reverse_short_startup,
        reverse_short_rate,
        reverse_long_startup,
        reverse_long_rate,
        bot_overhead_s,
        read_plain_s,
        read_startup_s,
        _switch_s,
    ) = constants
    ordered = sorted(positions)
    split = bisect_left(ordered, head_mb)
    locate_s = 0.0
    read_s = 0.0
    head = head_mb
    for position in ordered[split:]:
        distance = position - head
        if distance > 0:
            locate_s += (
                forward_short_startup + forward_short_rate * distance
                if distance <= threshold
                else forward_long_startup + forward_long_rate * distance
            )
            startup_pending = True
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    for position in reversed(ordered[:split]):
        distance = head - position
        if distance > 0:
            seconds = (
                reverse_short_startup + reverse_short_rate * distance
                if distance <= threshold
                else reverse_long_startup + reverse_long_rate * distance
            )
            if position == 0:
                seconds += bot_overhead_s
            locate_s += seconds
            startup_pending = False
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    return locate_s, read_s, head


def schedule_time(
    timing: DriveTimingModel,
    positions: Sequence[float],
    block_mb: float,
    mounted: bool,
    head_mb: float,
    rewind_from_mb: float = 0.0,
) -> float:
    """Total seconds to service ``positions`` on a candidate tape.

    For the currently mounted tape (``mounted=True``) this is just the
    sweep from ``head_mb``.  For another tape it adds the full switch
    overhead — rewinding the mounted tape from ``rewind_from_mb``, eject,
    robot swap, load — and sweeps from position 0.
    """
    if mounted:
        return sweep_cost(timing, head_mb, positions, block_mb).total_s
    overhead = timing.switch_with_rewind(rewind_from_mb)
    return overhead + sweep_cost(timing, 0.0, positions, block_mb).total_s


def effective_bandwidths(
    timing: DriveTimingModel,
    sweeps: Iterable[Tuple[int, Sequence[float]]],
    block_mb: float,
    mounted_id: Optional[int],
    head_mb: float,
    rewind_from_mb: float = 0.0,
) -> Iterator[Tuple[int, float]]:
    """``(tape_id, bytes/s)`` for each candidate sweep ``(tape_id, positions)``.

    Each value is :func:`effective_bandwidth` of the candidate, the tape
    ``mounted_id`` counting as mounted.  With an exact
    :class:`DriveTimingModel` the switch overhead, the same for every
    unmounted tape, is computed once and each sweep is priced by
    :func:`flat_sweep`.  Any other model makes the :func:`schedule_time`
    calls per candidate, in order (a noisy model draws random numbers on
    each call).
    """
    constants = extension_constants(timing, block_mb)
    switch_s: Optional[float] = None
    for tape_id, positions in sweeps:
        if not positions:
            yield tape_id, 0.0
            continue
        if constants is None:
            seconds = schedule_time(
                timing,
                positions,
                block_mb,
                tape_id == mounted_id,
                head_mb,
                rewind_from_mb,
            )
        elif tape_id == mounted_id:
            locate_s, read_s, _end = flat_sweep(constants, head_mb, positions, block_mb)
            seconds = locate_s + read_s
        else:
            if switch_s is None:
                switch_s = timing.switch_with_rewind(rewind_from_mb)
            locate_s, read_s, _end = flat_sweep(constants, 0.0, positions, block_mb)
            seconds = switch_s + (locate_s + read_s)
        if seconds <= 0:
            yield tape_id, float("inf")
        else:
            yield tape_id, len(positions) * block_mb * MB / seconds


def effective_bandwidth(
    timing: DriveTimingModel,
    positions: Sequence[float],
    block_mb: float,
    mounted: bool,
    head_mb: float,
    rewind_from_mb: float = 0.0,
) -> float:
    """Effective bandwidth (bytes/s) of servicing ``positions`` on a tape."""
    ((_tape_id, bandwidth),) = effective_bandwidths(
        timing,
        [(0, positions)],
        block_mb,
        0 if mounted else None,
        head_mb,
        rewind_from_mb,
    )
    return bandwidth


class ExtensionConstants(NamedTuple):
    """Flattened timing constants for the call-free cost loops.

    The envelope scheduler's step-3 search, its per-arrival extension
    pricing and the max-bandwidth sweep pricing all evaluate locate and
    read costs in tight loops.  For the plain piecewise-linear
    :class:`~repro.tape.timing.DriveTimingModel` those method calls
    reduce to straight-line arithmetic over a handful of constants, which
    this bundle hoists once per model and block size.

    Every float here is produced by the timing model's own methods, and
    the consumers apply them with the exact expressions the methods
    would have evaluated, so the results are bit-identical.  Only exact
    :class:`DriveTimingModel` instances qualify (a subclass may override
    the locate arithmetic, and other models may draw random numbers per
    call): callers must check :func:`extension_constants` for ``None``
    and fall back to the method path.  The field order is the unpacking
    order the loops use.
    """

    short_threshold_mb: float
    forward_short_startup: float
    forward_short_rate: float
    forward_long_startup: float
    forward_long_rate: float
    reverse_short_startup: float
    reverse_short_rate: float
    reverse_long_startup: float
    reverse_long_rate: float
    bot_overhead_s: float
    read_plain_s: float
    read_startup_s: float
    switch_s: float


def extension_constants(
    timing: DriveTimingModel, block_mb: float
) -> Optional[ExtensionConstants]:
    """The flattened constants for ``timing``, or ``None`` if ineligible.

    Eligibility is an exact-type check: subclasses of
    :class:`DriveTimingModel` may override the locate arithmetic, so
    they (like every other timing model) keep the method path.  The
    constants are cached lazily on the model instance, per block size,
    the way :meth:`DriveTimingModel._tables` caches its segment tables:
    stored with ``object.__setattr__``, invisible to ``__eq__`` and
    ``replace``, so a lookup never hashes the model.
    """
    if type(timing) is not DriveTimingModel:
        return None
    try:
        cache = timing._extension_constants  # type: ignore[attr-defined]
    except AttributeError:
        cache = {}
        object.__setattr__(timing, "_extension_constants", cache)
    constants = cache.get(block_mb)
    if constants is None:
        constants = cache[block_mb] = ExtensionConstants(
            short_threshold_mb=timing.short_threshold_mb,
            forward_short_startup=timing.forward_short.startup,
            forward_short_rate=timing.forward_short.rate,
            forward_long_startup=timing.forward_long.startup,
            forward_long_rate=timing.forward_long.rate,
            reverse_short_startup=timing.reverse_short.startup,
            reverse_short_rate=timing.reverse_short.rate,
            reverse_long_startup=timing.reverse_long.startup,
            reverse_long_rate=timing.reverse_long.rate,
            bot_overhead_s=timing.bot_overhead_s,
            read_plain_s=timing.read(block_mb, startup=False),
            read_startup_s=timing.read(block_mb, startup=True),
            switch_s=timing.switch(),
        )
    return constants


def extension_bandwidth(
    constants: ExtensionConstants,
    envelope_mb: float,
    position_mb: float,
    block_mb: float,
    switch_s: float,
) -> float:
    """Incremental bandwidth of extending ``envelope_mb`` by one block.

    The block at ``position_mb`` must end beyond the envelope.  The
    result is bit-identical to an :class:`ExtensionCostTracker` built
    with the same envelope (``switch_s`` is ``constants.switch_s`` when
    it charges the switch, else 0.0), extended by that one block, then
    asked for :meth:`~ExtensionCostTracker.prefix_bandwidth`.
    """
    distance = position_mb - envelope_mb
    if distance > 0:
        outbound = (
            constants.forward_short_startup + constants.forward_short_rate * distance
            if distance <= constants.short_threshold_mb
            else constants.forward_long_startup
            + constants.forward_long_rate * distance
        ) + constants.read_startup_s
    else:
        outbound = constants.read_startup_s
    return_distance = (position_mb + block_mb) - envelope_mb
    return_s = (
        constants.reverse_short_startup + constants.reverse_short_rate * return_distance
        if return_distance <= constants.short_threshold_mb
        else constants.reverse_long_startup
        + constants.reverse_long_rate * return_distance
    )
    if envelope_mb == 0:
        return_s += constants.bot_overhead_s
    cost = (switch_s + outbound) + return_s
    if cost <= 0:
        return float("inf")
    return block_mb * MB / cost


class ExtensionCostTracker:
    """Incremental round-trip costs for envelope extension prefixes.

    For one tape's extension list (requests outside the envelope, sorted
    by position), tracks the cost of extending the envelope through the
    first ``j`` blocks: locate/read out from the envelope through the
    prefix, plus the reverse locate back to the envelope position, plus
    the tape-switch overhead when the tape is unmounted with a zero
    envelope (paper Section 3.2, step 3).  Each :meth:`extend` call is
    O(1), keeping the envelope algorithm's inner loop linear.
    """

    def __init__(
        self,
        timing: DriveTimingModel,
        envelope_mb: float,
        block_mb: float,
        charge_switch: bool,
    ) -> None:
        self._timing = timing
        self._envelope_mb = envelope_mb
        self._block_mb = block_mb
        self._switch_s = timing.switch() if charge_switch else 0.0
        self._outbound_s = 0.0
        self._head = envelope_mb
        self._startup_pending = True
        self._count = 0
        # Fixed block size means only two possible read costs; hoisting
        # them (and the locate methods) out of ``extend`` keeps the
        # envelope inner loop call-free with bit-identical floats.
        self._read_plain_s = timing.read(block_mb, startup=False)
        self._read_startup_s = timing.read(block_mb, startup=True)
        self._locate_forward = timing.locate_forward
        self._locate_reverse = timing.locate_reverse

    @property
    def count(self) -> int:
        """Number of blocks in the current prefix."""
        return self._count

    def extend(self, position_mb: float) -> float:
        """Add the block at ``position_mb`` to the prefix; return its cost.

        Returns the full incremental time cost of the extended prefix
        (outbound + return + switch), per the paper's definition.
        """
        if position_mb < self._head - self._block_mb:
            raise ValueError(
                f"extension list not sorted: {position_mb} behind head {self._head}"
            )
        distance = position_mb - self._head
        if distance > 0:
            self._outbound_s += self._locate_forward(distance)
            self._startup_pending = True
        self._outbound_s += (
            self._read_startup_s if self._startup_pending else self._read_plain_s
        )
        self._startup_pending = False
        self._head = position_mb + self._block_mb
        self._count += 1
        return self.prefix_cost()

    def prefix_cost(self) -> float:
        """Cost of the current prefix (outbound + return leg + switch)."""
        if self._count == 0:
            return self._switch_s
        return_s = self._locate_reverse(
            self._head - self._envelope_mb,
            lands_on_bot=(self._envelope_mb == 0),
        )
        return self._switch_s + self._outbound_s + return_s

    def prefix_bandwidth(self) -> float:
        """Incremental bandwidth (bytes/s) of the current prefix."""
        if self._count == 0:
            return 0.0
        cost = self.prefix_cost()
        if cost <= 0:
            return float("inf")
        return self._count * self._block_mb * MB / cost
