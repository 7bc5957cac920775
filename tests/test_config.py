"""Scenario configuration: strict parsing, canonical echo, stable hashing."""

import dataclasses
import json
import re

import pytest
import yaml

from hodsim.attacks import AttackKind, AttackSpec, TargetRole
from hodsim.cli import main
from hodsim.config import ConfigError, ScenarioConfig, SimSection, TopologyConfig
from hodsim.metrics import run_scenario
from hodsim.simcore import CompromiseMode, MacConfig, RadioModel
from hodsim.topology import HexCoord

FULL_YAML = """\
topology:
  rings: 1
  sensors_per_cell: 4
radio:
  shadowing_sigma_db: 4.0
detect:
  vote_k: 2
  heartbeat_timeout_windows: 2
sim:
  horizon_windows: 12
seed: 7
attacks:
  - kind: Jamming
    start_us: 2000000
    end_us: 6000000
    cell: [1, 0]
    power_dbm: 10.0
  - kind: NodeCompromise
    start_us: 3000000
    end_us: 12000000
    cell: {q: 0, r: 1}
    compromise_mode: FalseData
"""


class TestDefaults:
    def test_zero_config_is_complete(self):
        sc = ScenarioConfig()
        assert sc.topology.rings == 2
        assert sc.topology.sensors_per_cell == 6
        assert sc.topology.cell_radius_m == 50.0
        assert sc.sim.horizon_windows == 30
        assert sc.sim.aggregation_window_us == 1_000_000
        assert sc.attacks == ()

    def test_empty_yaml_is_defaults(self):
        assert ScenarioConfig.from_yaml("").echo() == ScenarioConfig().echo()


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'topolgy'"):
            ScenarioConfig.from_dict({"topolgy": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown key 'radio.tx_dbm'"):
            ScenarioConfig.from_dict({"radio": {"tx_dbm": 5}})

    def test_unknown_attack_key(self):
        with pytest.raises(ConfigError, match=r"unknown key 'attacks\[0\].cel'"):
            ScenarioConfig.from_dict(
                {"attacks": [{"kind": "Jamming", "start_us": 0, "end_us": 1, "cel": [0, 0]}]}
            )

    def test_bad_attack_kind(self):
        with pytest.raises(ConfigError, match=r"invalid section 'attacks\[0\]': kind must be one of 'Jamming', "):
            ScenarioConfig.from_dict(
                {"attacks": [{"kind": "Flooding", "start_us": 0, "end_us": 1}]}
            )

    def test_bad_cell_form(self):
        with pytest.raises(ConfigError, match="cell coordinate"):
            ScenarioConfig.from_dict(
                {"attacks": [{"kind": "Jamming", "start_us": 0, "end_us": 1, "cell": "here"}]}
            )
        # coordinates and interval ends are integers: never truncated, never a KeyError
        for field, match in [
            ({"cell": {"q": 0}}, r"'attacks\[0\]\.cell' must have the keys q and r"),
            ({"cell": [0.7, 0]}, r"'attacks\[0\]\.cell\.q' must be an integer"),
            ({"cell": {"q": 0, "r": True}}, r"'attacks\[0\]\.cell\.r' must be an integer"),
            ({"start_us": 0.5}, r"'attacks\[0\]\.start_us' must be an integer"),
            ({"start_us": True}, r"'attacks\[0\]\.start_us' must be an integer"),
            ({"end_us": 1.0}, r"'attacks\[0\]\.end_us' must be an integer"),
        ]:
            attack = {"kind": "Jamming", "start_us": 0, "end_us": 1, "cell": [0, 0], **field}
            with pytest.raises(ConfigError, match=match):
                ScenarioConfig.from_dict({"attacks": [attack]})

    @pytest.mark.parametrize(
        "value, kind",
        [(".nan", "finite"), (".inf", "finite"), ("true", "a number"), ('"7"', "a number")],
    )
    def test_position_coordinates_are_finite_numbers(self, value, kind):
        text = (
            "attacks:\n  - {kind: Jamming, start_us: 0, end_us: 1, cell: [0, 0], "
            f"position: [{value}, 0]}}\n"
        )
        with pytest.raises(ConfigError, match=re.escape(f"'attacks[0].position' must be {kind}")):
            ScenarioConfig.from_yaml(text)
        # ints are taken and converted, so the echo reads as floats
        sc = ScenarioConfig.from_yaml(text.replace(f"[{value}, 0]", "[10, 5]"))
        assert sc.attacks[0].position == (10.0, 5.0)
        assert all(type(c) is float for c in sc.attacks[0].position)

    def test_attacks_must_be_a_list(self):
        with pytest.raises(ConfigError, match="must be a list"):
            ScenarioConfig.from_dict({"attacks": {"kind": "Jamming"}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="section 'radio' must be a mapping"):
            ScenarioConfig.from_dict({"radio": [1, 2]})

    def test_scenario_must_be_mapping(self):
        with pytest.raises(ConfigError, match="scenario must be a mapping"):
            ScenarioConfig.from_yaml("- 1\n- 2\n")

    def test_seed_type(self):
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            ScenarioConfig.from_dict({"seed": True})
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            ScenarioConfig.from_dict({"seed": "7"})
        with pytest.raises(ConfigError, match="'seed' must be an integer >= 0"):
            ScenarioConfig.from_yaml("seed: -4\n")

    # the type and finiteness checks are the ones every float field gets; the range check is the scenario's
    @pytest.mark.parametrize(
        "value, message",
        [
            pytest.param(value, f"'compare_tolerance' must be {message}", id=value)
            for value, message in [
                ("abc", "a number"),
                ("-0.1", "a finite number >= 0"),
                (".nan", "finite"),
                (".inf", "finite"),
                ("-.inf", "finite"),
                ("true", "a number"),
                ("[0.1]", "a number"),
            ]
        ],
    )
    def test_compare_tolerance_must_be_finite_and_non_negative(self, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig.from_yaml(f"compare_tolerance: {value}\n")

    def test_compare_tolerance_accepts_int_and_zero(self):
        assert ScenarioConfig.from_yaml("compare_tolerance: 0\n").compare_tolerance == 0.0
        assert ScenarioConfig.from_yaml("compare_tolerance: 1\n").compare_tolerance == 1.0

    # the timing values a run divides by or steps by; report_interval_us <= 0 used to loop forever
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("workload", "report_interval_us", 0),
            ("workload", "report_interval_us", -1),
            ("workload", "jitter_frac", -0.5),
            ("sim", "aggregation_window_us", 0),
            ("sim", "aggregation_window_us", -5),
            ("sim", "sensing_tick_us", 0),
            ("sim", "horizon_windows", 0),
            ("sim", "drain_us", -1),
        ],
    )
    def test_timing_values_must_be_positive(self, section, key, value):
        with pytest.raises(ConfigError, match=f"invalid section '{section}': {key} must be"):
            ScenarioConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize(
        "section, key, value, kind",
        [
            ("topology", "rings", 1.5, "an integer"),
            ("topology", "rings", True, "an integer"),
            ("topology", "sensors_per_cell", 2.0, "an integer"),
            ("sim", "horizon_windows", 2.5, "an integer"),
            ("detect", "vote_k", 1.5, "an integer"),
            ("radio", "airtime_us", 1.5, "an integer"),
            ("energy", "packet_size_bits", 1.5, "an integer"),
            ("mac", "frame_length", 2.0, "an integer"),
            ("attacks", "packet_count", 2.0, "an integer"),
            ("radio", "short_range_m", "abc", "a number"),
            ("topology", "cell_radius_m", "abc", "a number"),
            ("detect", "idle_rssi_max_dbm", True, "a number"),
            ("workload", "sensors_enabled", "no", "true or false"),
            ("radio", "long_range_reliable", 0, "true or false"),
        ],
    )
    def test_scalars_match_their_declared_type(self, section, key, value, kind):
        if section == "attacks":
            data = {"attacks": [{"kind": "SlotSpoof", "start_us": 0, "end_us": 1, key: value}]}
            section = "attacks[0]"
        else:
            data = {section: {key: value}}
        message = f"'{section}.{key}' must be {kind}, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig.from_dict(data)

    # range errors surface at parse time (exit 2), not as a failure inside the run
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("topology", "rings", -1, "rings must be >= 0"),
            ("topology", "sensors_per_cell", 0, "sensors_per_cell must be >= 1"),
            ("topology", "cell_radius_m", -5, "cell_radius_m must be > 0"),
            ("mac", "awake_fraction", 2.0, "awake_fraction must be in (0, 1]"),
            ("mac", "slot_duration_us", 0, "slot_duration_us must be > 0"),
            ("mac", "smac_period_us", 0, "smac_period_us must be > 0"),
            ("radio", "airtime_us", -1, "airtime_us must be > 0"),
            ("radio", "short_range_m", -1, "short_range_m must be > 0"),
            ("radio", "shadowing_sigma_db", -1, "shadowing_sigma_db must be >= 0"),
            ("radio", "per_hop_latency_us", 0, "per_hop_latency_us must be > 0"),
            ("radio", "per_hop_latency_us", -5, "per_hop_latency_us must be > 0"),
            ("radio", "cs_busy_wait_us", -1, "cs_busy_wait_us must be >= 0"),
            # a hop still on the air when it resolves would collide one-sidedly
            ("radio", "per_hop_latency_us", 500, "per_hop_latency_us (500) must be >= airtime_us (1000)"),
            ("energy", "packet_size_bits", 0, "packet_size_bits must be > 0"),
            ("energy", "e_elec_j_per_bit", -1.0, "e_elec_j_per_bit must be >= 0"),
        ],
    )
    def test_values_out_of_range(self, section, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(f"invalid section '{section}': {message}")):
            ScenarioConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_float_fields_must_be_finite(self, value):
        for section, key in [("radio", "path_loss_exponent"), ("topology", "cell_radius_m")]:
            with pytest.raises(ConfigError, match=re.escape(f"'{section}.{key}' must be finite")):
                ScenarioConfig.from_yaml(f"{section}: {{{key}: {value}}}\n")

    def test_frame_must_give_every_sensor_a_slot(self):
        message = "'mac.frame_length' (1) must be >= 'topology.sensors_per_cell' (3)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig.from_dict({"topology": {"sensors_per_cell": 3}, "mac": {"frame_length": 1}})
        # one slot per sensor is enough
        sc = ScenarioConfig.from_dict({"topology": {"sensors_per_cell": 3}, "mac": {"frame_length": 3}})
        assert sc.mac.frame_length == 3

    def test_hop_latency_must_be_below_the_window(self):
        # the outbox ack, the alert ripple and the regional lookback read a hop
        # sent at a window's end in the next window
        message = "'radio.per_hop_latency_us' (1000000) must be < 'sim.aggregation_window_us' (1000000)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig.from_dict({"radio": {"per_hop_latency_us": 1_000_000}})
        sc = ScenarioConfig.from_dict({"radio": {"per_hop_latency_us": 999_999}})
        assert sc.radio.per_hop_latency_us == 999_999

    def test_float_fields_take_ints_and_optional_fields_take_null(self):
        sc = ScenarioConfig.from_dict(
            {"topology": {"cell_radius_m": 50}, "mac": {"frame_length": None}}
        )
        # kept as given, not converted, so the echo and the scenario hash stay as they were
        assert type(sc.topology.cell_radius_m) is int
        assert sc.mac.frame_length is None

    def test_threshold_validation_becomes_config_error(self):
        with pytest.raises(ConfigError, match="invalid section 'detect'"):
            ScenarioConfig.from_dict({"detect": {"pdr_min": 2.0}})
        # a span under one window matches nothing, so every detection rate would read 0
        for count in (0, -2):
            with pytest.raises(ConfigError, match="match_window_count must be >= 1"):
                ScenarioConfig.from_dict({"detect": {"match_window_count": count}})

    def test_invalid_yaml_text(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            ScenarioConfig.from_yaml("a: [unclosed\n- ]: x")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed: 1\nseed: 5\n", "duplicate key 'seed' on line 2"),
            ("topology: {rings: 1}\ntopology: {rings: 3}\n", "duplicate key 'topology' on line 2"),
            ("topology:\n  rings: 1\n  rings: 3\n", "duplicate key 'rings' on line 3"),
            (
                "attacks:\n  - {kind: Jamming, start_us: 0, end_us: 1, cell: [0, 0],\n"
                "     power_dbm: 10, power_dbm: 30}\n",
                "duplicate key 'power_dbm' on line 3",
            ),
        ],
    )
    def test_duplicate_key_is_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_yaml(text)

    def test_merge_key_may_override(self):
        sc = ScenarioConfig.from_yaml(
            "attacks:\n"
            "  - &jam {kind: Jamming, start_us: 0, end_us: 1000, cell: [0, 0]}\n"
            "  - {<<: *jam, end_us: 2000}\n"
        )
        assert [a.end_us for a in sc.attacks] == [1000, 2000]
        assert sc.attacks[1].cell == HexCoord(0, 0)

    @pytest.mark.parametrize(
        "attack, field",
        [
            ({"kind": "SlotSpoof", "cell": [0, 0], "power_dbm": 99}, "power_dbm"),
            ({"kind": "SleepReplay", "cell": [0, 0], "relay_index": 1}, "relay_index"),
            ({"kind": "Jamming", "cell": [0, 0], "sensor_index": 99}, "sensor_index"),
            ({"kind": "RouteDeviation", "cell": [0, 0], "position": [1, 2]}, "position"),
            ({"kind": "NodeCompromise", "target_role": "regional", "region": 0, "cell": [5, 5]}, "cell"),
            ({"kind": "NodeCompromise", "cell": [0, 0], "region": 0}, "region"),
        ],
    )
    def test_attack_field_its_kind_never_reads(self, attack, field):
        message = f"invalid section 'attacks[0]': '{field}' is not used by a {attack['kind']} attack"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig.from_dict({"attacks": [{"start_us": 0, "end_us": 1, **attack}]})


class TestBuiltInCode:
    """The checks belong to the types, so a scenario built in code gets them too."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            pytest.param(
                {"mac": MacConfig(frame_length=1)},
                "'mac.frame_length' (1) must be >= 'topology.sensors_per_cell' (6)",
                id="frame-length",
            ),
            pytest.param(
                {"radio": RadioModel(per_hop_latency_us=50_000), "sim": SimSection(aggregation_window_us=40_000)},
                "'radio.per_hop_latency_us' (50000) must be < 'sim.aggregation_window_us' (40000)",
                id="latency-past-window",
            ),
            pytest.param({"seed": -3}, "'seed' must be an integer >= 0, got -3", id="seed"),
            pytest.param(
                {"compare_tolerance": -1.0},
                "'compare_tolerance' must be a finite number >= 0, got -1.0",
                id="tolerance-negative",
            ),
            pytest.param(
                {"compare_tolerance": float("nan")},
                "'compare_tolerance' must be a finite number >= 0",
                id="tolerance-nan",
            ),
            pytest.param(
                {"radio": RadioModel(long_range_reliable=False)},
                "the farthest regional, 824 m from the base, reaches it at -110.0 dBm, "
                "below 'radio.rx_sensitivity_dbm' (-85.0)",
                id="dead-uplink",
            ),
            pytest.param(
                {"topology": TopologyConfig(rings=0), "radio": RadioModel(long_range_reliable=False)},
                "150 m from the base, reaches it at -92.2 dBm",
                id="dead-uplink-rings-0",
            ),
            pytest.param(
                {
                    "topology": TopologyConfig(rings=1),
                    "attacks": [AttackSpec(kind="Jamming", start_us=0, end_us=1, cell=HexCoord(7, 0))],
                },
                "'attacks[0].cell' (7,0) is not in the grid of 1 rings",
                id="attack-cell",
            ),
            pytest.param(
                {"attacks": [AttackSpec(kind="Jamming", start_us=0, end_us=30_000_001, cell=HexCoord(0, 0))]},
                "'attacks[0].end_us' (30000001) is past the horizon (30000000 us",
                id="attack-past-horizon",
            ),
        ],
    )
    def test_scenario_checks_run_at_construction(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig(**kwargs)

    def test_unreliable_uplink_that_reaches_the_base(self):
        # 30 dBm closes the 824 m worst case of rings 2 at -80.0 dBm
        radio = RadioModel(long_range_reliable=False, tx_power_dbm=30.0)
        assert ScenarioConfig(radio=radio).radio.long_range_reliable is False

    def test_attack_field_its_kind_never_reads(self):
        message = "'power_dbm' is not used by a SlotSpoof attack (it takes kind, start_us, end_us, cell"
        with pytest.raises(ValueError, match=re.escape(message)):
            AttackSpec(
                kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=1000, cell=HexCoord(0, 0), power_dbm=99
            )

    def test_round_trip_through_yaml(self):
        sc = ScenarioConfig(
            topology=TopologyConfig(rings=1, sensors_per_cell=3),
            radio=RadioModel(shadowing_sigma_db=4.0),
            mac=MacConfig(frame_length=3),
            attacks=[
                AttackSpec(kind=AttackKind.JAMMING, start_us=0, end_us=1000, cell=HexCoord(1, 0)),
                AttackSpec(
                    kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=1000, cell=HexCoord(0, 0), position=(1.0, 2.0)
                ),
            ],
            seed=3,
            compare_tolerance=1,
        )
        # stored as a float, as the YAML path stores it, so both echo 1.0
        assert type(sc.compare_tolerance) is float
        back = ScenarioConfig.from_yaml(yaml.safe_dump(sc.echo(), sort_keys=False))
        assert back.echo() == sc.echo()
        assert back.scenario_hash() == sc.scenario_hash()

    def test_enum_fields_take_their_values(self):
        strings = AttackSpec(
            kind="NodeCompromise", start_us=0, end_us=1, target_role="regional", region=0, compromise_mode="FalseData"
        )
        enums = AttackSpec(
            kind=AttackKind.NODE_COMPROMISE,
            start_us=0,
            end_us=1,
            target_role=TargetRole.REGIONAL,
            region=0,
            compromise_mode=CompromiseMode.FALSE_DATA,
        )
        assert strings.kind is AttackKind.NODE_COMPROMISE
        assert strings == enums
        jam = AttackSpec(kind="Jamming", start_us=0, end_us=1, cell=HexCoord(0, 0))
        assert jam.kind is AttackKind.JAMMING
        a = ScenarioConfig(attacks=[strings, jam])
        b = ScenarioConfig(
            attacks=[enums, AttackSpec(kind=AttackKind.JAMMING, start_us=0, end_us=1, cell=HexCoord(0, 0))]
        )
        assert a.echo() == b.echo()
        assert a.scenario_hash() == b.scenario_hash()

    def test_a_plain_tuple_cell_is_its_hex_coord(self):
        topology = TopologyConfig(rings=1, sensors_per_cell=2)
        plain = ScenarioConfig(
            topology=topology, attacks=[AttackSpec(kind="Jamming", start_us=0, end_us=1, cell=(1, 0))]
        )
        hexed = ScenarioConfig(
            topology=topology, attacks=[AttackSpec(kind="Jamming", start_us=0, end_us=1, cell=HexCoord(1, 0))]
        )
        assert type(plain.attacks[0].cell) is HexCoord
        assert plain.echo() == hexed.echo()
        assert plain.echo()["attacks"][0]["cell"] == {"q": 1, "r": 0}
        assert plain.scenario_hash() == hexed.scenario_hash()
        log, _ = run_scenario(plain, "hod", plain.seed)
        assert [g.target for g in log.ground_truth] == ["cell:1,0"]
        with pytest.raises(ValueError, match=re.escape("cell must be a (q, r) pair, got (1, 0, 0)")):
            AttackSpec(kind="Jamming", start_us=0, end_us=1, cell=(1, 0, 0))

    def test_scenario_is_frozen(self):
        sc = ScenarioConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.seed = 5

    def test_attacks_cannot_grow_after_the_checks(self):
        jam = AttackSpec(kind="Jamming", start_us=0, end_us=1000, cell=HexCoord(0, 0))
        sc = ScenarioConfig(topology=TopologyConfig(rings=1, sensors_per_cell=2), attacks=[jam])
        assert sc.attacks == (jam,)
        # a spec that could never pass check_attacks_fit: cell off the grid, end past the horizon
        unfit = AttackSpec(kind="Jamming", start_us=0, end_us=99_000_000, cell=HexCoord(9, 9))
        with pytest.raises(AttributeError):
            sc.attacks.append(unfit)
        assert sc.attacks == (jam,)
        # the echo still writes the attacks as a list, so the hash is the list form's
        assert type(sc.echo()["attacks"]) is list
        assert sc.echo()["attacks"][0]["kind"] == "Jamming"


class TestParseContent:
    def test_full_scenario(self):
        sc = ScenarioConfig.from_yaml(FULL_YAML)
        assert sc.topology.rings == 1
        assert sc.topology.sensors_per_cell == 4
        assert sc.radio.shadowing_sigma_db == 4.0
        assert sc.seed == 7
        assert len(sc.attacks) == 2
        jam, comp = sc.attacks
        assert jam.kind is AttackKind.JAMMING
        assert jam.cell == HexCoord(1, 0)  # list form
        assert comp.cell == HexCoord(0, 1)  # mapping form
        assert comp.compromise_mode is CompromiseMode.FALSE_DATA

    def test_null_section_means_defaults(self):
        sc = ScenarioConfig.from_yaml("radio:\nattacks:\n")
        assert sc.echo() == ScenarioConfig().echo()


class TestEchoAndHash:
    def test_round_trip_through_yaml(self):
        sc = ScenarioConfig.from_yaml(FULL_YAML)
        back = ScenarioConfig.from_yaml(yaml.safe_dump(sc.echo(), sort_keys=False))
        assert back.echo() == sc.echo()
        assert back.scenario_hash() == sc.scenario_hash()

    def test_echo_is_plain_data(self):
        echo = ScenarioConfig.from_yaml(FULL_YAML).echo()
        assert echo["attacks"][0]["kind"] == "Jamming"
        assert echo["attacks"][0]["cell"] == {"q": 1, "r": 0}
        assert type(echo["attacks"][1]["cell"]) is dict  # a HexCoord, itself a tuple, echoes as {q, r}
        assert echo["attacks"][1]["cell"] == {"q": 0, "r": 1}
        assert echo["topology"]["rings"] == 1
        assert echo["seed"] == 7

    def test_hash_covers_seed_and_content(self):
        sc = ScenarioConfig.from_yaml(FULL_YAML)
        assert sc.scenario_hash(1) != sc.scenario_hash(2)
        assert sc.scenario_hash() == sc.scenario_hash(sc.seed)
        other = ScenarioConfig.from_dict({"topology": {"rings": 3}})
        assert other.scenario_hash(7) != sc.scenario_hash(7)

    def test_equal_configs_hash_equal(self):
        # no id()/repr() leakage; tests/test_cli.py checks the hash across processes
        a = ScenarioConfig.from_yaml(FULL_YAML).scenario_hash(3)
        b = ScenarioConfig.from_yaml(FULL_YAML).scenario_hash(3)
        assert a == b
        assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)
        # pinned: the canonical form (attack cells as {q, r} mappings among it) has not moved
        assert a == "5ac659daa5bfbe3a2282aff3827957f0003f76adb1286ffb74ad544b65c86fe3"


class TestUnknownEnumValue:
    """kind, target_role and compromise_mode name the field and its allowed values, in code and from YAML."""

    CASES = [
        ("kind", "Jam", "'Jamming', 'SlotSpoof', 'SleepReplay', 'RouteDeviation', 'NodeCompromise'"),
        ("target_role", "base", "'cluster', 'regional'"),
        ("compromise_mode", "Loud", "'Silent', 'FalseData'"),
    ]

    @staticmethod
    def spec(field, value):
        return {"kind": "NodeCompromise", "start_us": 0, "end_us": 1, field: value}

    @pytest.mark.parametrize("field, value, allowed", CASES, ids=[case[0] for case in CASES])
    def test_built_in_code(self, field, value, allowed):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be one of {allowed}, got {value!r}")):
            AttackSpec(**self.spec(field, value))

    @pytest.mark.parametrize("field, value, allowed", CASES, ids=[case[0] for case in CASES])
    def test_from_yaml_exits_2(self, tmp_path, capsys, field, value, allowed):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(
            f"topology: {{rings: 1, sensors_per_cell: 2}}\nattacks:\n  - {json.dumps(self.spec(field, value))}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--mode", "compare", "--seed", "1"]) == 2
        message = f"invalid section 'attacks[0]': {field} must be one of {allowed}, got {value!r}"
        assert message in capsys.readouterr().err


class TestFromFile:
    def test_reads_file(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text(FULL_YAML, encoding="utf-8")
        sc = ScenarioConfig.from_file(str(p))
        assert sc.seed == 7

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ScenarioConfig.from_file(str(tmp_path / "absent.yaml"))
