"""Workload scenarios, generated from a workload seed.

The program only ever sees the generated scenario.  Everything that sets the
amount of work (rings, sensors per cell, windows, attack kinds and interval
lengths) is fixed per workload; the seed moves node placement, shadowing,
which cells are attacked and when, so every seed costs about the same.
"""

from __future__ import annotations

import random

# Workload seeds whose outputs are pinned in references.json: the default and
# one held out from tuning.  Every run checks one of them before it measures.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97


def _interior_cells(rings: int) -> list[list[int]]:
    """Axial cells strictly inside the patch, so every attack has full neighbourhoods."""
    inner = max(rings - 1, 0)
    return [
        [q, r]
        for q in range(-inner, inner + 1)
        for r in range(-inner, inner + 1)
        if (abs(q) + abs(r) + abs(q + r)) // 2 <= inner
    ]


def _all_attacks(rng: random.Random, rings: int, sensors: int, windows: int) -> list[dict]:
    """One attack of each of the five kinds, on distinct interior cells."""
    w = 1_000_000
    cells = rng.sample(_interior_cells(rings), 5)
    start = [rng.randrange(1, 3) * w for _ in range(5)]
    span = (windows // 3) * w
    return [
        {"kind": "Jamming", "start_us": start[0], "end_us": start[0] + span,
         "cell": cells[0], "power_dbm": 10.0},
        {"kind": "SlotSpoof", "start_us": start[1], "end_us": start[1] + span,
         "cell": cells[1], "packet_count": 5, "sensor_index": rng.randrange(sensors)},
        {"kind": "SleepReplay", "start_us": start[2], "end_us": start[2] + span,
         "cell": cells[2], "packet_count": 5, "sensor_index": rng.randrange(sensors)},
        {"kind": "RouteDeviation", "start_us": start[3], "end_us": start[3] + span,
         "cell": cells[3], "sensor_index": rng.randrange(sensors)},
        {"kind": "NodeCompromise", "start_us": start[4], "end_us": start[4] + span,
         "cell": cells[4], "target_role": "cluster",
         "compromise_mode": rng.choice(["Silent", "FalseData"])},
    ]


def _base(seed: int, rings: int, sensors: int, windows: int, attacks: list[dict]) -> dict:
    return {
        "topology": {"rings": rings, "sensors_per_cell": sensors},
        "radio": {"shadowing_sigma_db": 4.0},
        "sim": {"horizon_windows": windows},
        "seed": seed,
        "attacks": attacks,
    }


def hod_large(workload_seed: int) -> dict:
    rng = random.Random(f"hod-large|{workload_seed}")
    rings, sensors, windows = 5, 10, 30
    return _base(rng.randrange(1, 1 << 30), rings, sensors, windows,
                 _all_attacks(rng, rings, sensors, windows))


def flat_dense(workload_seed: int) -> dict:
    rng = random.Random(f"flat-dense|{workload_seed}")
    rings, sensors, windows = 2, 10, 8
    start = rng.randrange(2, 4) * 1_000_000
    jammer = {"kind": "Jamming", "start_us": start, "end_us": start + 3_000_000,
              "cell": rng.choice(_interior_cells(rings)), "power_dbm": 10.0}
    return _base(rng.randrange(1, 1 << 30), rings, sensors, windows, [jammer])


def cli_sweep(workload_seed: int) -> dict:
    rng = random.Random(f"cli-sweep|{workload_seed}")
    rings, sensors, windows = 2, 6, 12
    return _base(rng.randrange(1, 1 << 30), rings, sensors, windows,
                 _all_attacks(rng, rings, sensors, windows))


def scaling(rings: int, workload_seed: int) -> dict:
    """hod scenario for the report-only growth sweep: rings x 10 sensors, 8 windows."""
    rng = random.Random(f"scaling|{rings}|{workload_seed}")
    return _base(rng.randrange(1, 1 << 30), rings, 10, 8, _all_attacks(rng, rings, 10, 8))
