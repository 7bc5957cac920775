"""Link-layer schedules: per-cell TDMA frames and S-MAC duty cycling.

Time is integer microseconds throughout.  Slots and wake windows are half-open
intervals: a slot of duration D starting at s covers [s, s + D).  Both
schedules run on the absolute simulation clock; compliant traffic is emitted
only at slot starts that fall inside a wake window.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SchedulingError(Exception):
    """No compliant transmit opportunity exists in the searched range."""


@dataclass(frozen=True)
class TdmaSchedule:
    """A cell's TDMA frame.

    frame[i] is the node id owning slot i; the frame repeats every
    len(frame) * slot_duration_us microseconds.  slots_of maps each owner to
    the indices of its slots in the frame, ascending, built once.
    """

    slot_duration_us: int
    frame: tuple[int, ...]
    slots_of: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        slots: dict[int, list[int]] = {}
        for i, owner in enumerate(self.frame):
            slots.setdefault(owner, []).append(i)
        object.__setattr__(self, "slots_of", {owner: tuple(ix) for owner, ix in slots.items()})

    @property
    def frame_duration_us(self) -> int:
        return len(self.frame) * self.slot_duration_us


def build_tdma(
    member_ids: list[int], frame_length: int, slot_duration_us: int
) -> TdmaSchedule:
    """Round-robin slot assignment over the cell members, ascending node id.

    Slot i is owned by sorted(member_ids)[i % len(member_ids)]; with
    frame_length >= len(member_ids) every member owns at least one slot.
    """
    if not member_ids:
        raise SchedulingError("member_ids must be non-empty")
    if frame_length < len(member_ids):
        raise SchedulingError(
            f"frame_length {frame_length} < {len(member_ids)} members; "
            "every member needs a slot"
        )
    if slot_duration_us <= 0:
        raise SchedulingError("slot_duration_us must be > 0")
    ordered = sorted(member_ids)
    frame = tuple(ordered[i % len(ordered)] for i in range(frame_length))
    return TdmaSchedule(slot_duration_us=slot_duration_us, frame=frame)


def slot_index_at(schedule: TdmaSchedule, t_us: int) -> int:
    if t_us < 0:
        raise ValueError("t_us must be >= 0")
    return (t_us // schedule.slot_duration_us) % len(schedule.frame)


def slot_owner_at(schedule: TdmaSchedule, t_us: int) -> int:
    """Owner of the slot containing time t (slots are half-open)."""
    return schedule.frame[slot_index_at(schedule, t_us)]


@dataclass(frozen=True)
class SmacSchedule:
    """S-MAC duty cycle: awake for the first awake_fraction of each period.

    awake_us, the length of each wake window, is computed once at construction.
    """

    period_us: int
    awake_fraction: float
    phase_offset_us: int = 0
    awake_us: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError("period_us must be > 0")
        if not (0.0 < self.awake_fraction <= 1.0):
            raise ValueError("awake_fraction must be in (0, 1]")
        object.__setattr__(self, "awake_us", int(round(self.period_us * self.awake_fraction)))


def is_awake(schedule: SmacSchedule, t_us: int) -> bool:
    """Whether the cell's sensors are awake at time t (half-open window)."""
    return (t_us - schedule.phase_offset_us) % schedule.period_us < schedule.awake_us


def is_slot_violation(schedule: TdmaSchedule, origin: int, t_tx_us: int) -> bool:
    """True iff a packet claiming `origin` was sent outside origin's slot.

    Raises ValueError for origins that own no slot in this cell; callers
    report those as a foreign-origin violation instead.
    """
    if origin not in schedule.slots_of:
        raise ValueError(f"origin {origin} owns no slot in this cell")
    return slot_owner_at(schedule, t_tx_us) != origin


def is_sleep_violation(schedule: SmacSchedule, t_tx_us: int) -> bool:
    """True iff the claimed transmit time falls in the cell's sleep period."""
    return not is_awake(schedule, t_tx_us)


def next_compliant_slot(
    tdma: TdmaSchedule,
    smac: SmacSchedule,
    owner: int,
    t_from_us: int,
    max_scan_slots: int = 100_000,
) -> int:
    """Earliest slot start >= t_from owned by `owner` with the whole slot awake.

    Only the owner's own slots are visited, from the first slot start at or
    after t_from through the next max_scan_slots slots.  A slot [s, s + D) is
    awake as a whole iff the cell never sleeps or the slot ends inside the
    wake window that holds s: (s - phase) % period + D <= awake_us.  A sleep
    gap shorter than a slot and inside it therefore rules the slot out.
    Compliant workload transmissions are aligned to values returned here.
    """
    slots = tdma.slots_of.get(owner)
    if slots is None:
        raise ValueError(f"owner {owner} owns no slot in this cell")
    d = tdma.slot_duration_us
    n = len(tdma.frame)
    period = smac.period_us
    awake = smac.awake_us
    phase = smac.phase_offset_us
    always = awake == period
    first = (max(t_from_us, 0) + d - 1) // d  # slot number of the first start >= t_from
    limit = first + max_scan_slots
    base = first - first % n  # slot number of the first slot of first's frame
    while base < limit:
        for i in slots:
            k = base + i
            if k < first:
                continue
            if k >= limit:
                break
            s = k * d
            if always or (s - phase) % period + d <= awake:
                return s
        base += n
    raise SchedulingError(
        f"no awake slot for node {owner} within {max_scan_slots} slots of {t_from_us}"
    )
