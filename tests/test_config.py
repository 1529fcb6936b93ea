import dataclasses
import json
import math

import pytest

from fefetsim import config
from fefetsim.biasing import Topology
from fefetsim.config import (
    SCHEMA_VERSION,
    ConfigError,
    RunConfig,
    UnknownKeyError,
    ValueRangeError,
    load_config,
)
from fefetsim.device import FeFetParams
from fefetsim.engine import Parasitics
from fefetsim.ferro import FerroParams


def _write(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_defaults_are_the_operating_point():
    cfg, prov = load_config()
    assert cfg.ps == 0.2 and cfg.pr == 0.19
    assert cfg.vc == 1.04 and cfg.vc_program == 2.5
    assert cfg.t_fe == 10e-9
    assert cfg.v_w0 == -1.5 and cfg.v_w1 == 3.2
    assert cfg.v_wl == 1.0 and cfg.v_sl == 1.0
    assert cfg.t_pulse == 10e-6
    assert cfg.mem_window == 1.2
    assert cfg.seed == 20260826
    assert all(v == "default" for v in prov.values())


def test_file_values_override_defaults(tmp_path):
    path = _write(tmp_path, {"schema_version": SCHEMA_VERSION,
                             "rows": 64, "topology": "and"})
    cfg, prov = load_config(path)
    assert cfg.rows == 64 and cfg.topology == "and"
    assert prov["rows"] == "file" and prov["topology"] == "file"
    assert prov["cols"] == "default"


def test_flag_overrides_beat_file(tmp_path):
    path = _write(tmp_path, {"schema_version": SCHEMA_VERSION, "rows": 64})
    cfg, prov = load_config(path, overrides={"rows": 8, "cols": None})
    assert cfg.rows == 8
    assert prov["rows"] == "flag"
    assert prov["cols"] == "default"   # None overrides are ignored


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, {"schema_version": SCHEMA_VERSION, "rowz": 64})
    with pytest.raises(UnknownKeyError):
        load_config(path)
    with pytest.raises(UnknownKeyError):
        load_config(overrides={"rowz": 64})


def test_schema_version_required(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"rows": 64}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"schema_version": 99}))


def test_malformed_file_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "absent.json"))


@pytest.mark.parametrize("overrides", [
    {"topology": "nor"},
    {"rows": 0},
    {"samples": 0},
    {"pr": 0.3},          # pr must stay below ps
    {"pr": -0.1},
    {"t_pulse": 0.0},
    {"vc": -1.0},
    {"v_w0": 0.0},        # erase must be negative
    {"v_w0": 0.5},
    {"v_w1": -1.0},       # program must be positive
    {"vt_mid": math.nan},  # json reads NaN and Infinity
    {"lam": math.inf},
    {"r_metal": -math.inf},
    {"i_ref": 10 ** 400},  # too large for a float
    {"t_fe": 0.0},        # the coercive fields divide by it
    {"r_metal": 0.0},     # segment conductances divide by the resistances
    {"r_poly": 0.0},
    {"lam": -1e-9},
    {"c_metal": -1e-15},
    {"c_poly": -1e-15},
    {"n_slope": 0.0},     # the channel's voltage scale divides by it
    {"sigma_v_w0": -0.1},  # variability is a standard deviation
    {"sigma_v_w1": -0.1},
    {"sigma_wl": -1e-9},
])
def test_value_range_validation(overrides):
    with pytest.raises(ValueRangeError):
        load_config(overrides=overrides)


@pytest.mark.parametrize("overrides", [
    {"rows": "many"},
    {"rows": 1.5},
    {"ps": "big"},
    {"topology": 3},
    {"rows": True},
])
def test_type_validation(overrides):
    with pytest.raises(ValueRangeError):
        load_config(overrides=overrides)


def test_error_hierarchy():
    assert issubclass(UnknownKeyError, ConfigError)
    assert issubclass(ValueRangeError, ConfigError)
    assert issubclass(ConfigError, ValueError)


def test_config_dict_round_trips_through_a_file(tmp_path):
    cfg, _ = load_config(overrides={"rows": 32, "seed": 7})
    d = config.config_dict(cfg)
    assert d["schema_version"] == SCHEMA_VERSION
    path = _write(tmp_path, d)
    cfg2, _ = load_config(path)
    assert cfg2 == cfg


def test_builders_carry_config_values():
    cfg, _ = load_config(overrides={"vc": 1.2, "t_fe": 12e-9, "width": 1e-6})
    fe = config.make_ferro(cfg)
    assert fe.ec == pytest.approx(1.2 / 12e-9)
    assert fe.ec_program == pytest.approx(2.5 / 12e-9)
    assert fe.area == pytest.approx(1e-6 * cfg.length)
    dev = config.make_device(cfg)
    assert dev.w == 1e-6
    par = config.make_parasitics(cfg)
    assert par.lam == cfg.lam
    assert config.topology_of(cfg) is Topology.CAND


@pytest.mark.parametrize("cls", [FerroParams, FeFetParams, Parasitics])
def test_parameter_classes_hold_no_defaults(cls):
    # RunConfig is the one place a model value has a default
    assert all(f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(cls))
