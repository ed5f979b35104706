"""Config schema: strict parsing, exact error paths, round-trip stability."""

import json
import math

import numpy as np
import pytest

import focsim as fs
from focsim import cli
from focsim.config import (
    FrontEndConfig,
    default_config,
    load_config,
    parse_config,
    serialize_config,
)
from focsim.constants import ASSUMED_CONSTANTS, SCHEMA_VERSION, constant
from focsim.errors import ConfigError


def _path_of(excinfo) -> str:
    return excinfo.value.key_path


def test_empty_object_yields_the_default_config():
    cfg = default_config()
    assert cfg == parse_config({})
    assert cfg.schema_version == SCHEMA_VERSION
    assert cfg.front_end.kind == "ideal"
    med = cfg.medium.build()
    demo = fs.default_demo_medium()
    assert med.total_length_m == demo.total_length_m
    assert med.delta_rad_per_m == pytest.approx(demo.delta_rad_per_m, rel=1e-15)
    assert med.profile == demo.profile
    assert cfg.trajectory.n_segments == int(constant("sweep_segments"))
    assert cfg.trajectory.metric_kind == "principal"
    assert cfg.current_sweep.max_a == 2000.0
    assert cfg.current_sweep.points == 201
    assert cfg.xi_sweep.ratios == (1.0, 3.0, 5.0, 10.0)
    assert cfg.xi_sweep.profiles == ("linear", "cosine")
    assert cfg.convergence.reference_n == 1 << 20
    coil = cfg.coil
    assert coil.verdet_rad_per_amp_turn * coil.turns * coil.current_a == pytest.approx(
        0.355, rel=1e-12
    )


def test_unknown_keys_fail_with_the_offending_path():
    with pytest.raises(ConfigError) as e:
        parse_config({"bogus": 1})
    assert _path_of(e) == "bogus"
    with pytest.raises(ConfigError) as e:
        parse_config({"medium": {"profile": {"bogus": 1}}})
    assert _path_of(e) == "medium.profile.bogus"
    with pytest.raises(ConfigError) as e:
        parse_config({"coil": {"windings": 12}})
    assert _path_of(e) == "coil.windings"
    # key valid for another front-end kind, not this one
    with pytest.raises(ConfigError) as e:
        parse_config({"front_end": {"kind": "ideal", "cut_deviation_m": 0.0}})
    assert _path_of(e) == "front_end.cut_deviation_m"
    with pytest.raises(ConfigError) as e:
        parse_config({"front_end": {"kind": "imperfect_qwp", "medium": {}}})
    assert _path_of(e) == "front_end.medium"


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError) as e:
        parse_config({"coil": {"current_a": True}})  # bool is not a number here
    assert _path_of(e) == "coil.current_a"
    assert "number" in str(e.value)
    with pytest.raises(ConfigError) as e:
        parse_config({"trajectory": {"n_segments": "many"}})
    assert _path_of(e) == "trajectory.n_segments"
    with pytest.raises(ConfigError) as e:
        parse_config({"trajectory": {"metric_kind": "fancy"}})
    assert _path_of(e) == "trajectory.metric_kind"
    with pytest.raises(ConfigError) as e:
        parse_config({"medium": "thin"})
    assert _path_of(e) == "medium"
    with pytest.raises(ConfigError):
        parse_config([1, 2])
    # plain ints are fine where floats are expected
    cfg = parse_config({"coil": {"current_a": 5}})
    assert cfg.coil.current_a == 5.0


def test_schema_version_gate():
    assert parse_config({"schema_version": SCHEMA_VERSION}).schema_version == SCHEMA_VERSION
    with pytest.raises(ConfigError) as e:
        parse_config({"schema_version": "0"})
    assert _path_of(e) == "schema_version"


def test_constants_block_must_match_the_build():
    good = {
        "constants": {
            "coil_turns": {"value": 355, "source": "assumed"},
            "current_max_a": {"value": 2000.0},
        }
    }
    parse_config(good)
    with pytest.raises(ConfigError) as e:
        parse_config({"constants": {"coil_turns": {"value": 400}}})
    assert _path_of(e) == "constants.coil_turns.value"
    with pytest.raises(ConfigError) as e:
        parse_config({"constants": {"coil_turns": {"source": "measured"}}})
    assert _path_of(e) == "constants.coil_turns.source"
    with pytest.raises(ConfigError) as e:
        parse_config({"constants": {"planck": {"value": 1}}})
    assert _path_of(e) == "constants.planck"
    with pytest.raises(ConfigError) as e:
        parse_config({"constants": {"coil_turns": 355}})
    assert _path_of(e) == "constants.coil_turns"
    with pytest.raises(ConfigError, match="^constants: expected an object$"):
        parse_config({"constants": []})
    with pytest.raises(ConfigError, match="^constants.coil_turns.extra: unknown key$"):
        parse_config({"constants": {"coil_turns": {"value": 355, "extra": 1}}})


def test_value_constraints():
    with pytest.raises(ConfigError) as e:
        parse_config({"trajectory": {"stride": 0}})
    assert _path_of(e) == "trajectory.stride"
    # an integer float() cannot hold reads as infinite
    with pytest.raises(ConfigError, match="^coil.current_a: expected a finite number$"):
        parse_config({"coil": {"current_a": 10**400}})
    with pytest.raises(ConfigError) as e:
        parse_config({"current_sweep": {"points": 1}})
    assert _path_of(e) == "current_sweep.points"
    with pytest.raises(ConfigError) as e:
        parse_config({"xi_sweep": {"ratios": []}})
    assert _path_of(e) == "xi_sweep.ratios"
    with pytest.raises(ConfigError) as e:
        parse_config({"xi_sweep": {"ratios": [1.0, True]}})
    assert _path_of(e) == "xi_sweep.ratios"
    with pytest.raises(ConfigError) as e:
        parse_config({"xi_sweep": {"profiles": ["triangular"]}})
    assert _path_of(e) == "xi_sweep.profiles"
    with pytest.raises(ConfigError) as e:
        parse_config({"convergence": {"segment_counts": [1024, 0]}})
    assert _path_of(e) == "convergence.segment_counts"
    with pytest.raises(ConfigError) as e:
        parse_config({"convergence": {"segment_counts": [4096], "reference_n": 4096}})
    assert _path_of(e) == "convergence.reference_n"
    # a count that sizes an array stops where numpy could still describe
    # the chain's 64 bytes per element
    ceiling = np.iinfo(np.intp).max // 64
    for section, key in (
        ("current_sweep", "points"),
        ("trajectory", "n_segments"),
        ("xi_sweep", "n_segments"),
        ("perturbation", "n_segments"),
    ):
        assert getattr(getattr(parse_config({section: {key: ceiling}}), section), key) == ceiling
        with pytest.raises(ConfigError, match=f"must be at most {ceiling}$") as e:
            parse_config({section: {key: ceiling + 1}})
        assert _path_of(e) == f"{section}.{key}"


def test_front_end_kinds_parse_and_build():
    cfg = parse_config(
        {"front_end": {"kind": "imperfect_qwp", "cut_deviation_m": 5e-4,
                       "splice_angle_rad": 0.01}}
    )
    fe = cfg.front_end.build()
    assert fe.kind == "imperfect_qwp"
    want = fs.ImperfectWaveplate.from_cut_deviation(5e-4, 0.01)
    assert fe.waveplate.rho_rad == want.rho_rad
    assert fe.waveplate.beta_rad == 0.01

    cfg = parse_config({"front_end": {"kind": "high_order_qwp"}})
    fe = cfg.front_end.build()
    assert fe.kind == "high_order_qwp"
    assert fe.medium.profile.kind == "cosine"
    assert 2 * math.pi / fe.medium.delta_rad_per_m == pytest.approx(
        constant("wavelength_m") / constant("birefringence_delta_n"), rel=1e-15
    )
    assert fe.n_segments == int(constant("front_end_segments"))

    cfg = parse_config(
        {"front_end": {"kind": "spun_fiber", "n_segments": 5000,
                       "medium": {"total_length_m": 0.05}}}
    )
    fe = cfg.front_end.build()
    assert fe.kind == "spun_fiber"
    assert fe.medium.total_length_m == 0.05
    assert fe.medium.profile.kind == "constant"
    assert fe.n_segments == 5000


def test_partial_front_end_profile_keeps_the_device_defaults():
    # a front-end medium key left out keeps the device's default, at every
    # depth, never the lab medium's
    for kind in ("spun_fiber", "high_order_qwp"):
        device = FrontEndConfig.default(kind).medium.profile
        cfg = parse_config(
            {"front_end": {"kind": kind, "medium": {"profile": {"xi_over_delta": 3}}}}
        )
        profile = cfg.front_end.medium.profile
        assert profile.kind == device.kind
        assert profile.transition_l2_m == device.transition_l2_m
        assert profile.xi_over_delta == 3.0
        fe = cfg.front_end.build()
        assert fe.medium.profile.kind == device.kind
        assert fe.medium.profile.transition_l2_m == device.transition_l2_m
    assert FrontEndConfig.default("spun_fiber").medium.profile.kind == "constant"
    assert FrontEndConfig.default("high_order_qwp").medium.profile.transition_l2_m == (
        constant("ho_qwp_transition_m")
    )


def test_medium_geometry_fails_at_build_with_the_section_path(tmp_path, capsys):
    cfg = parse_config({"medium": {"total_length_m": 0.01}})  # shorter than L2
    with pytest.raises(ConfigError) as e:
        cfg.medium.build()
    assert _path_of(e) == "medium"
    cfg = parse_config(
        {"front_end": {"kind": "spun_fiber", "medium": {"profile": {"kind": "cosine"}}}}
    )
    with pytest.raises(ConfigError) as e:
        cfg.front_end.build()
    assert _path_of(e) == "front_end.medium"
    # a valid medium whose profile the front-end kind does not take fails
    # in FrontEnd, not in SpinProfile, with the same section path
    p = tmp_path / "run.json"
    for kind, profile, message in (
        ("spun_fiber", {"kind": "cosine", "transition_l2_m": 0.01},
         "spun_fiber needs a constant spin profile"),
        ("high_order_qwp", {"kind": "constant"}, "high_order_qwp needs a ramped spin profile"),
    ):
        doc = {"front_end": {"kind": kind, "medium": {"profile": profile}}}
        cfg = parse_config(doc)
        cfg.front_end.medium.build("front_end.medium")
        with pytest.raises(ConfigError) as e:
            cfg.front_end.build()
        assert (_path_of(e), str(e.value)) == ("front_end.medium", f"front_end.medium: {message}")
        p.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(p)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"focsim: config error: front_end.medium: {message}\n")


def test_serialize_parse_is_a_fixed_point():
    variants = [
        {},
        {"front_end": {"kind": "imperfect_qwp", "cut_deviation_m": -2.5e-4}},
        {
            "medium": {
                "beat_length_m": 0.02,
                "profile": {"kind": "linear", "xi_over_delta": 7.0},
            },
            "trajectory": {"n_segments": 5000, "metric_kind": "axis_ratio", "stride": 7},
            "xi_sweep": {"ratios": [2.0, 4.0], "profiles": ["cosine"]},
        },
    ]
    for obj in variants:
        cfg = parse_config(obj)
        text = serialize_config(cfg)
        again = parse_config(json.loads(text))
        assert again == cfg
        assert serialize_config(again) == text


def test_serialized_config_pins_the_constants():
    obj = json.loads(serialize_config(default_config()))
    assert set(obj["constants"]) == set(ASSUMED_CONSTANTS)
    for name, entry in obj["constants"].items():
        value, source = ASSUMED_CONSTANTS[name]
        assert entry == {"value": value, "source": source}


def test_load_config_reports_file_problems(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(serialize_config(default_config()))
    assert load_config(str(p)) == default_config()
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{\n "front_end": {,}\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(bad))
    # each of these raised out of open().read() or json.loads untranslated
    malformed = (
        (b"\xff\xfe{}", "not UTF-8"),
        (b'{"coil": {"turns": ' + b"1" * 5000 + b"}}", "invalid JSON: Exceeds the limit"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth"),
    )
    for data, message in malformed:
        bad.write_bytes(data)
        with pytest.raises(ConfigError, match=message):
            load_config(str(bad))


def test_medium_config_builds_consistent_delta():
    cfg = parse_config({"medium": {"beat_length_m": 0.02}})
    med = cfg.medium.build()
    assert med.delta_rad_per_m == pytest.approx(2.0 * math.pi / 0.02, rel=1e-15)
    assert 2 * math.pi / med.delta_rad_per_m == pytest.approx(0.02, rel=1e-15)
