"""Desk-scale simulator for 1T ferroelectric-FET memory arrays.

Two array flavors are modeled — the conventional AND array and a
complementary variant with per-column bulk lines that splits the write
path (gate-bulk) from the read path (drain-source) — together with the
hysteresis of the storage layer, bias-scheme disturb auditing, a resistive
array read solver, and power/area analytics.
"""

from .analytics import (
    CellFootprint,
    ReadPowerBreakdown,
    area_ratio,
    array_area,
    cell_area,
    read_power,
    select_line_current,
    select_line_power,
    select_line_power_max,
    sneak_resistance_bound,
    sneak_resistance_formula,
    sneak_resistance_network,
)
from .biasing import (
    BiasPlan,
    CellGroup,
    SchemeKind,
    SchemeReport,
    Topology,
    and_read_bias,
    and_write_bias,
    cand_read_bias,
    cand_write0_bias,
    cand_write1_bias,
    cell_write_voltage,
    classify_cell,
    read_bias,
    verify_scheme,
    write_bias,
)
from .config import ConfigError, RunConfig, load_config
from .device import (
    FeFetParams,
    cell_vt,
    drain_current,
    gate_drive,
    read_current,
    vt_of_polarization,
    write_cell,
)
from .engine import (
    ArrayState,
    ConvergenceError,
    Parasitics,
    ReadResult,
    accumulate_disturb,
    apply_write,
    column_readout_with_leak,
    read_cells,
    solve_read,
)
from .ferro import (
    BranchState,
    FerroParams,
    advance_field,
    apply_pulse,
    branch_polarization,
    delta_of,
    major_loop_envelope,
    make_state,
    negative_saturation,
    positive_saturation,
    settle,
    trace_loop,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayState", "BiasPlan", "BranchState", "CellFootprint", "CellGroup",
    "ConfigError", "ConvergenceError", "FeFetParams", "FerroParams",
    "Parasitics", "ReadPowerBreakdown", "ReadResult", "RunConfig",
    "SchemeKind", "SchemeReport", "Topology",
    "accumulate_disturb", "advance_field", "and_read_bias", "and_write_bias",
    "apply_pulse", "apply_write", "area_ratio", "array_area",
    "branch_polarization", "cand_read_bias", "cand_write0_bias",
    "cand_write1_bias", "cell_area", "cell_vt", "cell_write_voltage",
    "classify_cell", "column_readout_with_leak", "delta_of", "drain_current",
    "gate_drive", "load_config", "major_loop_envelope", "make_state",
    "negative_saturation", "positive_saturation", "read_bias", "read_cells",
    "read_current", "read_power", "select_line_current", "select_line_power",
    "select_line_power_max", "settle", "sneak_resistance_bound",
    "sneak_resistance_formula", "sneak_resistance_network", "solve_read",
    "trace_loop", "verify_scheme", "vt_of_polarization", "write_bias",
    "write_cell",
]
