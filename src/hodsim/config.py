"""Scenario files: strict YAML parsing, canonical echo, and scenario hashing.

A scenario fully determines a run given a seed and a mode.  Parsing is
strict — any key the schema does not define raises ConfigError naming the
offending path — so a typo cannot silently fall back to a default.  The
canonical form (echo) is what gets hashed; the hash covers every resolved
value plus the seed but never the mode, so the hierarchical and flat runs of
one scenario share a hash and remain comparable.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Any

import yaml

from .attacks import AttackKind, AttackSpec
from .detection import DetectorThresholds
from .simcore import EnergyModel, MacConfig, RadioModel, SimConfig, WorkloadConfig
from .topology import HexCoord


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


def _integer(value: Any, key: str) -> int:
    """value itself if it is an int; a float or bool is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return value


def _check_type(hint: Any, value: Any, key: str) -> None:
    """Reject a value that is not of its int, float or bool field's type (`X | None` allows None).

    A float field must also be finite.
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
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


def _build(cls: type, data: Any, path: str, converters: dict[str, Any] | None = None) -> Any:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path}' must be a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown key '{path}.{key}'")
    kwargs = {}
    for key, value in data.items():
        conv = (converters or {}).get(key)
        if conv is not None and value is not None:
            try:
                kwargs[key] = conv(value)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid value for '{path}.{key}': {exc}") from exc
        else:
            _check_type(hints[key], value, f"{path}.{key}")
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{path}': {exc}") from exc


def _parse_attack(data: Any, path: str) -> AttackSpec:
    return _build(
        AttackSpec,
        data,
        path,
        converters={
            "kind": lambda v: v if isinstance(v, AttackKind) else AttackKind(str(v)),
            "cell": lambda v: _parse_cell(v, f"{path}.cell"),
            "position": lambda v: _parse_position(v, f"{path}.position"),
        },
    )


_SECTIONS: dict[str, type] = {
    "topology": TopologyConfig,
    "radio": RadioModel,
    "energy": EnergyModel,
    "mac": MacConfig,
    "workload": WorkloadConfig,
    "detect": DetectorThresholds,
    "sim": SimSection,
}


@dataclass
class ScenarioConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    radio: RadioModel = field(default_factory=RadioModel)
    energy: EnergyModel = field(default_factory=EnergyModel)
    mac: MacConfig = field(default_factory=MacConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    detect: DetectorThresholds = field(default_factory=DetectorThresholds)
    sim: SimSection = field(default_factory=SimSection)
    attacks: list[AttackSpec] = field(default_factory=list)
    seed: int = 42
    compare_tolerance: float = 0.1

    # convenience aliases used throughout the harness
    @property
    def rings(self) -> int:
        return self.topology.rings

    @property
    def sensors_per_cell(self) -> int:
        return self.topology.sensors_per_cell

    @property
    def cell_radius_m(self) -> float:
        return self.topology.cell_radius_m

    @property
    def thresholds(self) -> DetectorThresholds:
        return self.detect

    def sim_config(self) -> SimConfig:
        return SimConfig(
            radio=self.radio,
            energy=self.energy,
            mac=self.mac,
            workload=self.workload,
            aggregation_window_us=self.sim.aggregation_window_us,
            horizon_windows=self.sim.horizon_windows,
            sensing_tick_us=self.sim.sensing_tick_us,
            drain_us=self.sim.drain_us,
        )

    # ------------------------------------------------------------ parse / dump

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"scenario must be a mapping, got {type(data).__name__}")
        known = set(_SECTIONS) | {"attacks", "seed", "compare_tolerance"}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown key '{key}'")
        kwargs: dict[str, Any] = {}
        for name, section_cls in _SECTIONS.items():
            if name in data:
                kwargs[name] = _build(section_cls, data[name], name)
        topology = kwargs.get("topology", TopologyConfig())
        frame_length = kwargs.get("mac", MacConfig()).frame_length
        if frame_length is not None and frame_length < topology.sensors_per_cell:
            raise ConfigError(
                f"'mac.frame_length' ({frame_length}) must be >= 'topology.sensors_per_cell' "
                f"({topology.sensors_per_cell}): every sensor needs a slot"
            )
        raw_attacks = data.get("attacks", [])
        if raw_attacks is None:
            raw_attacks = []
        if not isinstance(raw_attacks, list):
            raise ConfigError("section 'attacks' must be a list")
        kwargs["attacks"] = [
            _parse_attack(a, f"attacks[{i}]") for i, a in enumerate(raw_attacks)
        ]
        if "seed" in data:
            seed = data["seed"]
            if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
                raise ConfigError(f"'seed' must be an integer >= 0, got {seed!r}")
            kwargs["seed"] = seed
        if "compare_tolerance" in data:
            tol = data["compare_tolerance"]
            if (
                not isinstance(tol, (int, float))
                or isinstance(tol, bool)
                or not math.isfinite(tol)
                or tol < 0
            ):
                raise ConfigError(f"'compare_tolerance' must be a finite number >= 0, got {tol!r}")
            kwargs["compare_tolerance"] = float(tol)
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            data = yaml.safe_load(text)
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
        out: dict[str, Any] = {}
        for name in _SECTIONS:
            out[name] = _canonical(getattr(self, name))
        out["attacks"] = [_canonical(a) for a in self.attacks]
        out["seed"] = self.seed
        out["compare_tolerance"] = self.compare_tolerance
        return out

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.echo(), sort_keys=False)

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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    return obj
