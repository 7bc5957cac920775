"""TDMA and duty-cycle schedule tests against independent timeline oracles."""

import bisect
import random

import pytest

from hodsim.mac import (
    SchedulingError,
    SmacSchedule,
    TdmaSchedule,
    build_tdma,
    is_awake,
    is_sleep_violation,
    is_slot_violation,
    next_compliant_slot,
    slot_index_at,
    slot_owner_at,
)


class SlotTimelineOracle:
    """Explicit list of slot boundaries over a horizon; lookup via bisect.

    Independent of the modular arithmetic in the implementation.
    """

    def __init__(self, schedule: TdmaSchedule, horizon_us: int) -> None:
        self.starts = list(range(0, horizon_us, schedule.slot_duration_us))
        self.owners = [
            schedule.frame[i % len(schedule.frame)] for i in range(len(self.starts))
        ]
        self.indices = [i % len(schedule.frame) for i in range(len(self.starts))]

    def at(self, t: int) -> tuple[int, int]:
        i = bisect.bisect_right(self.starts, t) - 1
        return self.indices[i], self.owners[i]


class TestTdma:
    def test_round_robin_frame(self):
        sched = build_tdma([12, 5, 9], 3, 10_000)
        assert sched.frame == (5, 9, 12)  # ascending ids, one slot each
        sched2 = build_tdma([12, 5, 9], 7, 10_000)
        assert sched2.frame == (5, 9, 12, 5, 9, 12, 5)  # wraps round robin

    def test_build_errors(self):
        with pytest.raises(SchedulingError):
            build_tdma([], 3, 10_000)
        with pytest.raises(SchedulingError):
            build_tdma([1, 2, 3], 2, 10_000)  # frame shorter than membership
        with pytest.raises(SchedulingError):
            build_tdma([1, 2], 2, 0)

    def test_slot_lookup_against_timeline_oracle(self):
        sched = build_tdma([3, 1, 4, 1 + 10, 5], 5, 7_000)
        horizon = 7_000 * 5 * 40
        oracle = SlotTimelineOracle(sched, horizon)
        rng = random.Random(11)
        for _ in range(10_000):
            t = rng.randrange(horizon)
            idx, owner = oracle.at(t)
            assert slot_index_at(sched, t) == idx
            assert slot_owner_at(sched, t) == owner

    def test_slot_boundaries_half_open(self):
        sched = build_tdma([1, 2], 2, 10_000)
        assert slot_owner_at(sched, 0) == 1
        assert slot_owner_at(sched, 9_999) == 1
        assert slot_owner_at(sched, 10_000) == 2
        assert slot_owner_at(sched, 19_999) == 2
        assert slot_owner_at(sched, 20_000) == 1

    def test_negative_time_rejected(self):
        sched = build_tdma([1, 2], 2, 10_000)
        with pytest.raises(ValueError):
            slot_index_at(sched, -1)

    def test_slot_violation(self):
        sched = build_tdma([7, 8], 2, 10_000)
        assert not is_slot_violation(sched, 7, 500)
        assert is_slot_violation(sched, 8, 500)
        assert not is_slot_violation(sched, 8, 10_500)
        assert is_slot_violation(sched, 7, 10_500)

    def test_slot_violation_foreign_origin_raises(self):
        sched = build_tdma([7, 8], 2, 10_000)
        with pytest.raises(ValueError):
            is_slot_violation(sched, 99, 500)


class TestSmac:
    def test_awake_timeline(self):
        sched = SmacSchedule(period_us=1_000, awake_fraction=0.5, phase_offset_us=0)
        for base in (0, 1_000, 5_000):
            assert is_awake(sched, base)
            assert is_awake(sched, base + 499)
            assert not is_awake(sched, base + 500)
            assert not is_awake(sched, base + 999)

    def test_phase_offset_shifts_window(self):
        sched = SmacSchedule(period_us=1_000, awake_fraction=0.5, phase_offset_us=250)
        assert not is_awake(sched, 0)  # (0-250) mod 1000 = 750, asleep
        assert is_awake(sched, 250)
        assert is_awake(sched, 749)
        assert not is_awake(sched, 750)

    def test_always_awake(self):
        sched = SmacSchedule(period_us=1_000, awake_fraction=1.0, phase_offset_us=0)
        assert all(is_awake(sched, t) for t in range(0, 3_000, 97))

    def test_validation(self):
        with pytest.raises(ValueError):
            SmacSchedule(period_us=0, awake_fraction=0.5, phase_offset_us=0)
        with pytest.raises(ValueError):
            SmacSchedule(period_us=1_000, awake_fraction=0.0, phase_offset_us=0)
        with pytest.raises(ValueError):
            SmacSchedule(period_us=1_000, awake_fraction=1.5, phase_offset_us=0)

    def test_sleep_violation_is_awake_complement(self):
        sched = SmacSchedule(period_us=1_200, awake_fraction=0.4, phase_offset_us=100)
        rng = random.Random(4)
        for _ in range(10_000):
            t = rng.randrange(0, 60_000)
            assert is_sleep_violation(sched, t) == (not is_awake(sched, t))


class TestNextCompliantSlot:
    def brute(self, tdma, smac, owner, t_from, horizon):
        """Oracle: scan every slot start explicitly."""
        first = (max(t_from, 0) // tdma.slot_duration_us) * tdma.slot_duration_us
        if first < t_from:
            first += tdma.slot_duration_us
        t = first
        while t < horizon:
            if slot_owner_at(tdma, t) == owner and all(
                is_awake(smac, u) for u in range(t, t + tdma.slot_duration_us, 997)
            ) and is_awake(smac, t + tdma.slot_duration_us - 1):
                return t
            t += tdma.slot_duration_us
        return None

    # (members, frame_length, slot_us, period_us, awake_fraction, phase_us)
    GEOMETRIES = [
        ([1, 2, 3], 3, 10_000, 60_000, 0.5, 0),
        # frame longer than the membership: owners hold two or three slots
        ([1, 2, 3], 7, 10_000, 90_000, 0.6, 13_000),
        ([4, 9, 11], 7, 7_000, 90_000, 0.4, 13_000),
        # non-zero phase offsets, one past a whole period
        ([1, 2, 3, 4], 4, 5_000, 40_000, 0.75, 2_500),
        ([1, 2, 3, 4], 6, 5_000, 40_000, 0.5, 47_000),
        # never asleep: every owned slot is compliant
        ([4, 9, 11], 5, 7_000, 50_000, 1.0, 3_000),
        # a 6 ms sleep gap inside a 10 ms slot: [392 ms, 398 ms) lies in owner 9's slot at 390 ms
        (list(range(10)), 10, 10_000, 200_000, 0.97, 198_000),
    ]

    def test_matches_brute_scan(self):
        rng = random.Random(9)
        for members, frame_length, slot_us, period_us, fraction, phase_us in self.GEOMETRIES:
            tdma = build_tdma(members, frame_length, slot_us)
            smac = SmacSchedule(period_us=period_us, awake_fraction=fraction, phase_offset_us=phase_us)
            horizon = 12 * max(tdma.frame_duration_us, period_us)
            for _ in range(300):
                owner = rng.choice(members)
                t_from = rng.randrange(0, horizon // 2)
                got = next_compliant_slot(tdma, smac, owner, t_from)
                want = self.brute(tdma, smac, owner, t_from, horizon)
                assert want is not None
                assert got == want, (tdma, smac, owner, t_from)
                # postconditions: slot start, owner matches, fully awake
                assert got % slot_us == 0
                assert got >= t_from
                assert slot_owner_at(tdma, got) == owner
                assert is_awake(smac, got) and is_awake(smac, got + slot_us - 1)

    @pytest.mark.parametrize(
        "members, frame_length, fraction, phase_us, owner, t_from, found_at",
        [
            # always awake: owner 3's first slot is the third scanned
            ([1, 2, 3], 3, 1.0, 0, 3, 0, 20_000),
            # from 300 ms, owner 9's slots at 390 ms (a sleep gap inside) and 490 ms: the 20th scanned
            (list(range(10)), 10, 0.97, 198_000, 9, 300_000, 490_000),
            # a start inside a slot scans from the next slot start
            ([1, 2, 3], 6, 1.0, 0, 1, 1, 30_000),
        ],
    )
    def test_max_scan_slots_counts_every_slot_from_the_first_start(
        self, members, frame_length, fraction, phase_us, owner, t_from, found_at
    ):
        d = 10_000
        tdma = build_tdma(members, frame_length, d)
        smac = SmacSchedule(period_us=200_000, awake_fraction=fraction, phase_offset_us=phase_us)
        scanned = found_at // d - (t_from + d - 1) // d + 1
        assert next_compliant_slot(tdma, smac, owner, t_from, max_scan_slots=scanned) == found_at
        with pytest.raises(SchedulingError):
            next_compliant_slot(tdma, smac, owner, t_from, max_scan_slots=scanned - 1)

    def test_unsatisfiable_raises(self):
        # wake window (500 us) shorter than any slot: no slot is ever compliant
        tdma = build_tdma([1, 2], 2, 10_000)
        smac = SmacSchedule(period_us=1_000, awake_fraction=0.5, phase_offset_us=0)
        with pytest.raises(SchedulingError):
            next_compliant_slot(tdma, smac, 1, 0)

    def test_foreign_owner_raises(self):
        tdma = build_tdma([1, 2], 2, 10_000)
        smac = SmacSchedule(period_us=40_000, awake_fraction=0.5, phase_offset_us=0)
        with pytest.raises(ValueError):
            next_compliant_slot(tdma, smac, 99, 0)


class TestDefaultsCommensurate:
    def test_default_geometry_gives_whole_wake_frames(self):
        # slot 10 ms, 6 owners -> frame 60 ms; period 120 ms, half awake:
        # the first frame of every period is fully awake, the second asleep
        tdma = build_tdma(list(range(6)), 6, 10_000)
        smac = SmacSchedule(
            period_us=2 * tdma.frame_duration_us, awake_fraction=0.5, phase_offset_us=0
        )
        for k in range(4):
            base = k * 120_000
            for s in range(6):
                t = base + s * 10_000
                assert is_awake(smac, t)
                assert is_awake(smac, t + 9_999)
            for s in range(6):
                t = base + 60_000 + s * 10_000
                assert not is_awake(smac, t)
