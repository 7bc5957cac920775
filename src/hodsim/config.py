"""Scenario files: strict YAML parsing, canonical echo, and scenario hashing.

A scenario fully determines a run given a seed and a mode.  The dataclass
annotations are the schema: one recursive builder converts every level (the
scenario, its sections, each attack) by each field's annotation, and any key
the schema does not define, a key given twice or a value of the wrong type
raises ConfigError naming the offending path, so a typo cannot silently fall
back to a default.  Every range and cross-field check (an attack field its
kind never reads, or an attack that does not fit the grid, among them) is the
__post_init__ of the type that holds the values, so it runs wherever a
scenario is built, in code or from YAML.  The canonical form (echo) is what
gets hashed; the hash covers every resolved value plus the seed but never the
mode, so the hierarchical and flat runs of one scenario share a hash and
remain comparable.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import types
import typing
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any

import yaml

from .attacks import AttackSpec, check_attacks_fit
from .detection import DetectorThresholds
from .simcore import EnergyModel, MacConfig, RadioModel, WorkloadConfig
from .topology import HexCoord, uplink_ends


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TopologyConfig:
    rings: int = 2
    sensors_per_cell: int = 6
    cell_radius_m: float = 50.0

    def __post_init__(self) -> None:
        if self.rings < 0:
            raise ValueError("rings must be >= 0")
        if self.sensors_per_cell < 1:
            raise ValueError("sensors_per_cell must be >= 1")
        if not self.cell_radius_m > 0:
            raise ValueError("cell_radius_m must be > 0")


@dataclass(frozen=True)
class SimSection:
    aggregation_window_us: int = 1_000_000
    horizon_windows: int = 30
    sensing_tick_us: int = 100_000
    drain_us: int = 50_000

    def __post_init__(self) -> None:
        if self.aggregation_window_us <= 0:
            raise ValueError("aggregation_window_us must be > 0")
        if self.horizon_windows <= 0:
            raise ValueError("horizon_windows must be > 0")
        if self.sensing_tick_us <= 0:
            raise ValueError("sensing_tick_us must be > 0")
        if self.drain_us < 0:
            raise ValueError("drain_us must be >= 0")


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a mapping key given twice instead of keeping the last."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict[Any, Any]:
        seen = set()
        for key_node, _value in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # keys merged in with << may be overridden; that is YAML's rule
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue  # the base loader reports an unhashable key
            if key in seen:
                raise ConfigError(f"duplicate key {key!r} on line {key_node.start_mark.line + 1}")
            seen.add(key)
        return super().construct_mapping(node, deep)


def _integer(value: Any, key: str) -> int:
    """value itself if it is an int; a float or bool is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return value


def _check_type(hint: Any, value: Any, key: str) -> None:
    """Reject a value that is not of its int, float or bool field's type; a float must be finite."""
    if hint is int:
        _integer(value, key)
    elif hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"'{key}' must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"'{key}' must be finite, got {value!r}")
    elif hint is bool and not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false, got {value!r}")


def _parse_cell(value: Any, path: str) -> HexCoord:
    if isinstance(value, HexCoord):
        return value
    if isinstance(value, dict):
        if set(value) != {"q", "r"}:
            raise ConfigError(f"cell coordinate '{path}' must have the keys q and r, got {list(value)}")
        value = [value["q"], value["r"]]
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return HexCoord(_integer(value[0], f"{path}.q"), _integer(value[1], f"{path}.r"))
    raise ConfigError(f"cell coordinate '{path}' must be [q, r] or {{q, r}}, got {value!r}")


def _parse_position(value: Any, path: str) -> tuple[float, float]:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        for coordinate in value:
            _check_type(float, coordinate, path)
        return (float(value[0]), float(value[1]))
    raise ConfigError(f"'{path}' must be [x, y], got {value!r}")


@functools.cache
def _field_hints(cls: type) -> dict[str, Any]:
    """The resolved annotations of cls, computed once: resolving them is most of what parsing costs."""
    return typing.get_type_hints(cls)


def _convert(hint: Any, value: Any, path: str) -> Any:
    """value converted for a field annotated hint: the annotation picks the conversion."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if hint is HexCoord:
        return _parse_cell(value, path)
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    if typing.get_origin(hint) is tuple and typing.get_args(hint)[1:] == (Ellipsis,):
        if value is None:
            return ()
        if not isinstance(value, list):
            raise ConfigError(f"section '{path}' must be a list")
        item = typing.get_args(hint)[0]
        return tuple(_build(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if typing.get_origin(hint) is tuple:
        return _parse_position(value, path)
    _check_type(hint, value, path)
    return value


def _build(cls: type, data: Any, path: str) -> Any:
    """An instance of the dataclass cls from the mapping data found at path ('' for the scenario).

    Each field is converted by its annotation; range and cross-field checks
    are cls's own __post_init__, so they run however an instance is built.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path}' must be a mapping, got {type(data).__name__}")
    hints = _field_hints(cls)
    prefix = f"{path}." if path else ""
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    kwargs = {key: _convert(hints[key], value, f"{prefix}{key}") for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{path}': {exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    radio: RadioModel = field(default_factory=RadioModel)
    energy: EnergyModel = field(default_factory=EnergyModel)
    mac: MacConfig = field(default_factory=MacConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    detect: DetectorThresholds = field(default_factory=DetectorThresholds)
    sim: SimSection = field(default_factory=SimSection)
    attacks: tuple[AttackSpec, ...] = ()
    seed: int = 42
    compare_tolerance: float = 0.1

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"'seed' must be an integer >= 0, got {self.seed!r}")
        tol = float(self.compare_tolerance)
        if not (math.isfinite(tol) and tol >= 0):
            raise ConfigError(
                f"'compare_tolerance' must be a finite number >= 0, got {self.compare_tolerance!r}"
            )
        object.__setattr__(self, "compare_tolerance", tol)
        frame_length = self.mac.frame_length
        if frame_length is not None and frame_length < self.topology.sensors_per_cell:
            raise ConfigError(
                f"'mac.frame_length' ({frame_length}) must be >= 'topology.sensors_per_cell' "
                f"({self.topology.sensors_per_cell}): every sensor needs a slot"
            )
        latency, window = self.radio.per_hop_latency_us, self.sim.aggregation_window_us
        if not latency < window:
            raise ConfigError(
                f"'radio.per_hop_latency_us' ({latency}) must be < 'sim.aggregation_window_us' ({window}): "
                "the overlay reads a hop sent at a window's end in the next window"
            )
        # a tuple, so that no attack joins after check_attacks_fit has run
        object.__setattr__(self, "attacks", tuple(self.attacks))
        radio = self.radio
        if not radio.long_range_reliable:
            regionals, (base_x, base_y) = uplink_ends(self.topology.rings, self.topology.cell_radius_m)
            farthest_m = max(math.hypot(x - base_x, y - base_y) for x, y in regionals)
            rssi = radio.deterministic_rssi(farthest_m)
            if rssi < radio.rx_sensitivity_dbm:
                raise ConfigError(
                    f"'radio.long_range_reliable' is false, but the farthest regional, {farthest_m:.0f} m "
                    f"from the base, reaches it at {rssi:.1f} dBm, below 'radio.rx_sensitivity_dbm' "
                    f"({radio.rx_sensitivity_dbm}): raise 'radio.tx_power_dbm' or make the uplink reliable"
                )
        try:
            check_attacks_fit(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def thresholds(self) -> DetectorThresholds:
        return self.detect

    # ------------------------------------------------------------ parse / dump

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"scenario must be a mapping, got {type(data).__name__}")
        return _build(cls, data, "")

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            data = yaml.load(text, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"not valid YAML: {exc}") from exc
        if data is None:
            data = {}
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_yaml(fh.read())

    def echo(self) -> dict[str, Any]:
        """Canonical fully-resolved form: every knob explicit, enums as names."""
        return _canonical(self)

    def scenario_hash(self, seed: int | None = None) -> str:
        """sha256 of the canonical scenario plus the effective seed.

        Mode is deliberately excluded so hierarchical and flat runs of one
        scenario can be paired.
        """
        payload = {
            "scenario": self.echo(),
            "seed": self.seed if seed is None else seed,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> Any:
    if isinstance(obj, HexCoord):  # a tuple, but echoed as the mapping the YAML accepts
        return {"q": obj.q, "r": obj.r}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    return obj
