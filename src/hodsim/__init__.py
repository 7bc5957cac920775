"""Deterministic simulator for a hierarchical overlay IDS on a hexagonal WSN.

A four-layer detection hierarchy (sensors, cluster nodes, regional nodes,
base station) is laid over a cellular sensor field and exercised against
jamming, MAC-layer forgery, route detours, and monitor compromise, with a
flat per-sensor IDS as the efficiency baseline.  Runs are reproducible
byte-for-byte from (scenario, mode, seed).
"""

from .attacks import AttackKind, AttackSpec, AttackSpecError, TargetRole, apply_attacks
from .config import ConfigError, ScenarioConfig
from .detection import (
    Alert,
    AlertRule,
    BaseAlertRecord,
    ConnectivityGraph,
    DetectorThresholds,
    FlatMonitors,
    HodMonitors,
    SummaryReport,
    base_station_report,
    detect_jamming,
    match_alerts,
)
from .mac import SchedulingError, SmacSchedule, TdmaSchedule, build_tdma
from .metrics import (
    ComparisonReport,
    Metrics,
    compare,
    run_scenario,
    score,
)
from .simcore import (
    ChannelWindowStats,
    CompromiseMode,
    Engine,
    EnergyModel,
    GroundTruthEvent,
    MacConfig,
    Outcome,
    Packet,
    PacketKind,
    RadioModel,
    RunLog,
    TraceEvent,
    WorkloadConfig,
)
from .topology import HexCoord, Node, NodeRole, Topology, build_topology

__version__ = "0.1.0"

__all__ = [
    "Alert",
    "AlertRule",
    "AttackKind",
    "AttackSpec",
    "AttackSpecError",
    "BaseAlertRecord",
    "ChannelWindowStats",
    "ComparisonReport",
    "CompromiseMode",
    "ConfigError",
    "ConnectivityGraph",
    "DetectorThresholds",
    "Engine",
    "EnergyModel",
    "FlatMonitors",
    "GroundTruthEvent",
    "HexCoord",
    "HodMonitors",
    "MacConfig",
    "Metrics",
    "Node",
    "NodeRole",
    "Outcome",
    "Packet",
    "PacketKind",
    "RadioModel",
    "RunLog",
    "ScenarioConfig",
    "SchedulingError",
    "SmacSchedule",
    "SummaryReport",
    "TargetRole",
    "TdmaSchedule",
    "Topology",
    "TraceEvent",
    "WorkloadConfig",
    "apply_attacks",
    "base_station_report",
    "build_tdma",
    "build_topology",
    "compare",
    "detect_jamming",
    "match_alerts",
    "run_scenario",
    "score",
    "__version__",
]
