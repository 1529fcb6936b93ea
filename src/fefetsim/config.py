"""Run configuration: defaults, config-file parsing, provenance tracking.

`RunConfig` is the one place a model value has a default; the parameter
objects of the model layers are built from it by the `make_*` builders and
check their own values.  The config file is JSON holding a flat object of
the fields below plus a mandatory ``schema_version``.  Unknown keys are
rejected so typos fail loudly.  Every resolved field records where its
value came from (default / file / flag).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .biasing import Topology
from .device import FeFetParams
from .engine import Parasitics
from .ferro import FerroParams

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    # ferroelectric layer
    ps: float = 0.2                 # saturation polarization, C/m^2
    pr: float = 0.19                # remanent polarization, C/m^2
    vc: float = 1.04                # erase coercive voltage, V
    vc_program: float = 2.5         # program coercive voltage, V
    t_fe: float = 10e-9             # layer thickness, m
    tau_eff: float = 1.0e-6        # field relaxation time, s

    # transistor surrogate
    width: float = 500e-9           # channel width, m
    length: float = 500e-9          # channel length, m
    vt_mid: float = 1.15            # midpoint threshold, V
    mem_window: float = 1.2         # threshold window, V
    swing: float = 0.15             # subthreshold swing, V/dec
    n_slope: float = 2.0
    # channel current prefactor, A: a fully programmed cell (vt = vt_low)
    # at vgs = vds = 1 V sources exactly 400 nA at the default geometry
    i_spec: float = 3.2935126652037966e-08
    g_min: float = 1e-14            # off-state floor conductance, S
    gate_mode: str = "direct"
    c_il: float = 2.0e-2            # interlayer capacitance, F/m^2
    eps_fe: float = 30.0

    # operating voltages and timing
    v_w0: float = -1.5              # erase write voltage, V
    v_w1: float = 3.2               # program write voltage, V
    v_wl: float = 1.0               # word-line read voltage, V
    v_sl: float = 1.0               # select-line read voltage, V
    t_pulse: float = 10e-6          # write pulse width, s
    i_ref: float = 2e-9             # read decision reference current, A

    # interconnect
    r_metal: float = 9.45           # Ohm/um
    c_metal: float = 0.22e-15       # F/um
    r_poly: float = 2000.0          # Ohm/um
    c_poly: float = 0.15e-15        # F/um
    lam: float = 50e-9              # layout feature size, m

    # experiment knobs
    seed: int = 20260826
    samples: int = 1000
    rows: int = 16
    cols: int = 16
    topology: str = "cand"

    # variability (one standard deviation)
    sigma_v_w0: float = 0.075       # V
    sigma_v_w1: float = 0.160       # V
    sigma_wl: float = 50e-9         # m, applied to width and length


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


class ConfigError(ValueError):
    """Base class for configuration problems."""


class UnknownKeyError(ConfigError):
    pass


class ValueRangeError(ConfigError):
    pass


def _coerce(name: str, value):
    f = _FIELDS[name]
    if f.type in ("float", float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueRangeError(f"field {name!r} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        # json reads NaN, Infinity and integers too large for a float
        if not math.isfinite(number):
            raise ValueRangeError(f"field {name!r} must be finite, got {value!r}")
        return number
    if f.type in ("int", int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueRangeError(f"field {name!r} must be an integer, got {value!r}")
        return value
    if f.type in ("str", str):
        if not isinstance(value, str):
            raise ValueRangeError(f"field {name!r} must be a string, got {value!r}")
        return value
    raise ConfigError(f"unsupported field type for {name!r}")


def load_config(path: str | None = None,
                overrides: dict | None = None) -> tuple[RunConfig, dict[str, str]]:
    """Resolve a RunConfig from defaults, an optional file, then overrides.

    Returns (config, provenance) where provenance maps every field to
    'default', 'file', or 'flag'.
    """
    values: dict = {}
    provenance = {name: "default" for name in _FIELDS}

    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")
        for key, val in raw.items():
            if key not in _FIELDS:
                raise UnknownKeyError(f"unknown config field {key!r}")
            values[key] = _coerce(key, val)
            provenance[key] = "file"

    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELDS:
            raise UnknownKeyError(f"unknown config field {key!r}")
        values[key] = _coerce(key, val)
        provenance[key] = "flag"

    cfg = RunConfig(**values)
    # fields that no parameter object holds; the builders check the rest
    if cfg.topology not in ("and", "cand"):
        raise ValueRangeError("topology must be 'and' or 'cand'")
    if cfg.rows < 1 or cfg.cols < 1 or cfg.samples < 1:
        raise ValueRangeError("rows, cols, samples must be positive")
    if cfg.seed < 0:
        raise ValueRangeError(f"seed must be nonnegative, got {cfg.seed}")
    if not cfg.v_w0 < 0.0 < cfg.v_w1:
        raise ValueRangeError("write voltages must satisfy v_w0 < 0 < v_w1, "
                              f"got v_w0={cfg.v_w0}, v_w1={cfg.v_w1}")
    if cfg.t_pulse <= 0.0:
        raise ValueRangeError("t_pulse must be positive")
    if min(cfg.sigma_v_w0, cfg.sigma_v_w1, cfg.sigma_wl) < 0.0:
        raise ValueRangeError(
            "sigma_v_w0, sigma_v_w1 and sigma_wl must be nonnegative")
    for label, build in _BUILDERS:
        try:
            build(cfg)
        except ValueError as exc:
            raise ValueRangeError(f"{label}: {exc}") from exc
    return cfg, provenance


def config_dict(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["schema_version"] = SCHEMA_VERSION
    return d


# --------------------------------------------------------------------------
# Parameter-object builders


def make_ferro(cfg: RunConfig) -> FerroParams:
    # the coercive fields divide by t_fe, so it is checked before them
    if cfg.t_fe <= 0.0:
        raise ValueError("t_fe must be positive")
    return FerroParams(
        ps=cfg.ps, pr=cfg.pr,
        ec=cfg.vc / cfg.t_fe,
        ec_program=cfg.vc_program / cfg.t_fe,
        t_fe=cfg.t_fe, tau_eff=cfg.tau_eff,
        area=cfg.width * cfg.length,
    )


def make_device(cfg: RunConfig) -> FeFetParams:
    return FeFetParams(
        w=cfg.width, l=cfg.length,
        vt_mid=cfg.vt_mid, mem_window=cfg.mem_window,
        swing=cfg.swing, n_slope=cfg.n_slope,
        i_spec=cfg.i_spec, g_min=cfg.g_min,
        gate_mode=cfg.gate_mode, c_il=cfg.c_il, eps_fe=cfg.eps_fe,
    )


def make_parasitics(cfg: RunConfig) -> Parasitics:
    return Parasitics(r_metal=cfg.r_metal, c_metal=cfg.c_metal,
                      r_poly=cfg.r_poly, c_poly=cfg.c_poly, lam=cfg.lam)


_BUILDERS = (("ferroelectric parameters", make_ferro),
             ("device parameters", make_device),
             ("interconnect parameters", make_parasitics))


def topology_of(cfg: RunConfig) -> Topology:
    return Topology(cfg.topology)
