"""Closed-form readout analytics: sneak resistance, power, cell area.

The sneak-resistance estimate assumes the floating lines split into two
equipotential groups; the tests check it against an exact solve of the
full linear node equations of the leak graph.
"""

from __future__ import annotations

from dataclasses import dataclass


# --------------------------------------------------------------------------
# Sneak-path resistance seen at the sensed line


def sneak_resistance_formula(r_on: float, r_off: float, rows: int, cols: int) -> float:
    """Series/parallel estimate of the aggregate sneak resistance.

    One on-device reaches each of the (cols-1) floating columns; the
    off-grid spans (rows-1)(cols-1) devices; (rows-1) off-devices return to
    the sensed line.
    """
    if rows < 2 or cols < 2:
        raise ValueError("need at least a 2x2 array for a sneak path")
    m1, n1 = rows - 1, cols - 1
    return r_on / n1 + r_off / (m1 * n1) + r_off / m1


# --------------------------------------------------------------------------
# Read power


def select_line_current(n_zeros: int, n_ones: int, i_low: float, i_high: float) -> float:
    """Aggregate current drawn from the select line during a word read, A."""
    if n_zeros < 0 or n_ones < 0:
        raise ValueError("cell counts must be nonnegative")
    return n_zeros * i_low + n_ones * i_high


def select_line_power(n_zeros: int, n_ones: int, i_low: float, i_high: float,
                      v_read: float) -> float:
    return select_line_current(n_zeros, n_ones, i_low, i_high) * v_read


def select_line_power_max(word_width: int, i_high: float, v_read: float) -> float:
    """Worst case: every cell of the word conducts."""
    return word_width * i_high * v_read


@dataclass(frozen=True)
class ReadPowerBreakdown:
    p_select: float   # cell read currents through the select line, W
    p_wordline: float # switching the word line each read cycle, W
    p_leak: float     # sneak/off leakage at read bias, W

    @property
    def total(self) -> float:
        return self.p_select + self.p_wordline + self.p_leak


def wordline_switch_power(c_line: float, v_wl: float, f_read: float) -> float:
    """CV^2 f power of charging the word line once per read cycle."""
    return c_line * v_wl * v_wl * f_read


def read_power(n_zeros: int, n_ones: int, i_low: float, i_high: float,
               v_read: float, c_wordline: float, v_wl: float, f_read: float,
               i_leak: float) -> ReadPowerBreakdown:
    return ReadPowerBreakdown(
        p_select=select_line_power(n_zeros, n_ones, i_low, i_high, v_read),
        p_wordline=wordline_switch_power(c_wordline, v_wl, f_read),
        p_leak=i_leak * v_read,
    )


# --------------------------------------------------------------------------
# Cell area model (layout-rule units, lambda^2)

#: extra spacing between adjacent wells when neighboring cells cannot share
#: a well, in lambda
WELL_SPACING = 35.7

# Cell pitches in lambda.  The across-well pitch (y) is what well spacing
# stretches; products give the per-cell footprints.
AND_PITCH_Y = 557.4 / WELL_SPACING
AND_PITCH_X = 244.14 / AND_PITCH_Y
CAND_PITCH_Y = 331.63 / WELL_SPACING
CAND_PITCH_X = 83.57 / CAND_PITCH_Y


@dataclass(frozen=True)
class CellFootprint:
    pitch_x: float
    pitch_y: float

    def area(self, with_spacing: bool = False) -> float:
        base = self.pitch_x * self.pitch_y
        if with_spacing:
            base += WELL_SPACING * self.pitch_y
        return base


AND_CELL = CellFootprint(AND_PITCH_X, AND_PITCH_Y)
CAND_CELL = CellFootprint(CAND_PITCH_X, CAND_PITCH_Y)


def cell_area(topology, with_spacing: bool = False) -> float:
    """Cell footprint in lambda^2 for a topology ('and'/'cand' or enum)."""
    key = getattr(topology, "value", topology)
    if key == "and":
        return AND_CELL.area(with_spacing)
    if key == "cand":
        return CAND_CELL.area(with_spacing)
    raise ValueError(f"unknown topology {topology!r}")
