"""Correctness side of the benchmark: output digests and simulated statistics.

A digest covers what a user of hodsim gets out of a run.  For a library run
that is the trace CSV exactly as the CLI writes it, plus
``Metrics.to_row()``; for a CLI run it is every file the invocation wrote.
Simulated statistics are exact counts; a change meant only to make the
simulator faster must leave every one of them, and every digest, unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace


def library_digest(log, metrics, chunk: int = 4096) -> str:
    """sha256 over the trace CSV the CLI would write for a run, and its metrics row.

    The CSV is formatted a chunk of events at a time, so the digest's memory
    stays small next to the run's.
    """
    from hodsim.cli import _trace_rows, rows_to_csv

    h = hashlib.sha256()
    events = log.events
    for i in range(0, len(events), chunk):
        text = rows_to_csv(_trace_rows(SimpleNamespace(events=events[i:i + chunk])))
        h.update((text if i == 0 else text.split("\n", 1)[1]).encode())
    h.update(json.dumps(metrics.to_row()).encode())
    return h.hexdigest()


def directory_digest(directory: Path) -> tuple[str, int, int]:
    """(sha256 over names and bytes of every file, trace rows, bytes) for a CLI output dir."""
    h = hashlib.sha256()
    rows = 0
    size = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
        size += len(data)
        if path.name.startswith("trace_"):
            # one CSV header row after the '#' header block
            rows += sum(1 for line in data.splitlines() if not line.startswith(b"#")) - 1
    return h.hexdigest(), rows, size


def sim_stats(runs) -> dict:
    """Exact simulated counts summed over (log, topology, metrics) triples."""
    s = {
        "events": 0, "tx": 0, "short_range_tx": 0, "short_range_delivered": 0,
        "overheard_rx": 0, "drops_jammed": 0, "drops_collision": 0,
        "alerts": 0, "cluster_alerts": 0, "cluster_alarm_tx": 0, "base_records": 0,
        "flat_anomalies": 0, "ground_truth": 0, "control_messages": 0,
        "total_messages": 0, "detected": {},
    }
    for log, topo, m in runs:
        base = topo.base_id
        clusters = set(topo.cluster_by_cell.values())
        s["events"] += len(log.events)
        for e in log.events:
            kind = e.event_kind
            if kind == "tx":
                s["tx"] += 1
                if e.dst != base:
                    s["short_range_tx"] += 1
                if e.src in clusters and e.pkt_kind == "RegionalAlarm" and e.control:
                    s["cluster_alarm_tx"] += 1
            elif kind == "rx":
                if e.outcome == "Overheard":
                    s["overheard_rx"] += 1
                elif e.dst != base:
                    s["short_range_delivered"] += 1
            elif kind == "drop":
                if e.outcome == "Dropped(Jammed)":
                    s["drops_jammed"] += 1
                elif e.outcome == "Dropped(Collision)":
                    s["drops_collision"] += 1
        s["alerts"] += len(log.alerts)
        s["cluster_alerts"] += sum(1 for a in log.alerts if a.detected_by in clusters)
        s["base_records"] += len(log.base_received)
        s["flat_anomalies"] += len(log.flat_anomalies)
        s["ground_truth"] += len(log.ground_truth)
        s["control_messages"] += m.ids_control_messages
        s["total_messages"] += m.total_messages
        for kind, n in m.detected.items():
            s["detected"][kind] = s["detected"].get(kind, 0) + n
    s["detected"] = dict(sorted(s["detected"].items()))
    return s


class Checker:
    """Counts samples whose digest differs from the expected one.

    With no stored reference, the first digest seen becomes the expectation,
    so every later sample of the same scenario must reproduce it.
    """

    def __init__(self, expected: str | None = None) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, digest: str | None) -> bool:
        """Record one sample; None means the sample raised or exited non-zero."""
        self.attempted += 1
        if digest is not None and self.expected is None:
            self.expected = digest
        ok = digest is not None and digest == self.expected
        if not ok:
            self.failed += 1
        return ok
