"""Array bias plans for write/read and a write-scheme disturb audit.

Two array flavors are supported:

* ``AND``: bit line and source line run per column, one transistor per
  cell, common grounded bulk.  Writes use a thirds (V/3) inhibit scheme
  on both polarities.
* ``CAND``: source lines run per row and a dedicated per-column bulk
  line drives the back gate, so cells in a column share their bulk.
  Writes use thirds for '0' and halves (V/2) for '1'; the halves scheme
  puts exactly 0 V on the diagonal (unselected row and column) cells.

A bias plan assigns every line either a voltage or ``HIGH_Z`` (floating),
one tuple per line family, indexed by row or column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Topology(enum.Enum):
    AND = "and"
    CAND = "cand"


class CellGroup(enum.Enum):
    SEL = "selected"
    SAME_ROW = "same-row"
    SAME_COL = "same-column"
    DIAG = "diagonal"


HIGH_Z = None  # line assignment sentinel: floating / high impedance


@dataclass(frozen=True)
class BiasPlan:
    """Voltage of every line of an array for one operation: `wl` per row,
    `sl` per row (CAND) or per column (AND), `bl` per column and `bul` per
    column (CAND; empty in AND).  A floating line holds ``HIGH_Z``."""

    topology: Topology
    op: str
    sel_row: int
    sel_cols: tuple[int, ...]
    wl: tuple[float, ...]
    sl: tuple[float | None, ...]
    bl: tuple[float | None, ...]
    bul: tuple[float, ...]

    @property
    def rows(self) -> int:
        return len(self.wl)

    @property
    def cols(self) -> int:
        return len(self.bl)


def _check_selection(rows: int, cols: int, sel_row: int, sel_cols) -> tuple[int, ...]:
    if rows < 1 or cols < 1:
        raise ValueError("array must have at least one row and column")
    if not 0 <= sel_row < rows:
        raise ValueError(f"selected row {sel_row} outside 0..{rows - 1}")
    sel = tuple(sorted(set(sel_cols)))
    if not sel:
        raise ValueError("selected column set must be nonempty")
    if sel[0] < 0 or sel[-1] >= cols:
        raise ValueError("selected column outside array")
    return sel


def _inhibit_levels(style: str, v_w: float) -> tuple[float, float, float, float]:
    """(WL selected, WL unselected, column selected, column unselected)."""
    if style == "vdd3":
        return v_w, v_w / 3.0, 0.0, 2.0 * v_w / 3.0
    if style == "vdd2":
        return v_w / 2.0, 0.0, -v_w / 2.0, 0.0
    raise ValueError(style)


def _lines(n: int, sel, on, off) -> tuple:
    """Voltages of n lines: `on` for the lines in `sel`, `off` elsewhere."""
    return tuple(on if k in sel else off for k in range(n))


def _cand_write(rows: int, cols: int, sel_row: int, sel_cols, op: str,
                style: str, v_w: float) -> BiasPlan:
    sel = _check_selection(rows, cols, sel_row, sel_cols)
    wl_s, wl_u, col_s, col_u = _inhibit_levels(style, v_w)
    return BiasPlan(Topology.CAND, op, sel_row, sel,
                    wl=_lines(rows, (sel_row,), wl_s, wl_u), sl=(0.0,) * rows,
                    bl=(0.0,) * cols, bul=_lines(cols, sel, col_s, col_u))


def cand_write0_bias(rows: int, cols: int, sel_row: int, sel_cols,
                     v_w0: float) -> BiasPlan:
    """Thirds-scheme erase of selected cells (v_w0 < 0 on the gate)."""
    return _cand_write(rows, cols, sel_row, sel_cols, "write0", "vdd3", v_w0)


def cand_write1_bias(rows: int, cols: int, sel_row: int, sel_cols,
                     v_w1: float) -> BiasPlan:
    """Halves-scheme program of selected cells (v_w1 > 0 on the gate)."""
    return _cand_write(rows, cols, sel_row, sel_cols, "write1", "vdd2", v_w1)


def cand_read_bias(rows: int, cols: int, sel_row: int, sel_cols,
                   v_wl: float, v_sl: float) -> BiasPlan:
    """Read selected cells: row source line driven, column bit lines sensed
    at virtual ground, everything unselected floating or off."""
    sel = _check_selection(rows, cols, sel_row, sel_cols)
    return BiasPlan(Topology.CAND, "read", sel_row, sel,
                    wl=_lines(rows, (sel_row,), v_wl, 0.0),
                    sl=_lines(rows, (sel_row,), v_sl, HIGH_Z),
                    bl=_lines(cols, sel, 0.0, HIGH_Z), bul=(0.0,) * cols)


def and_write_bias(rows: int, cols: int, sel_row: int, sel_cols,
                   v_w: float) -> BiasPlan:
    """Thirds-scheme write for either polarity (sign of v_w picks it)."""
    sel = _check_selection(rows, cols, sel_row, sel_cols)
    op = "write1" if v_w >= 0.0 else "write0"
    wl_s, wl_u, col_s, col_u = _inhibit_levels("vdd3", v_w)
    col = _lines(cols, sel, col_s, col_u)
    return BiasPlan(Topology.AND, op, sel_row, sel,
                    wl=_lines(rows, (sel_row,), wl_s, wl_u), sl=col, bl=col,
                    bul=())


def and_read_bias(rows: int, cols: int, sel_row: int, sel_cols,
                  v_wl: float, v_sl: float) -> BiasPlan:
    """Read selected cells: column bit lines driven, source lines grounded."""
    sel = _check_selection(rows, cols, sel_row, sel_cols)
    return BiasPlan(Topology.AND, "read", sel_row, sel,
                    wl=_lines(rows, (sel_row,), v_wl, 0.0), sl=(0.0,) * cols,
                    bl=_lines(cols, sel, v_sl, HIGH_Z), bul=())


def write_bias(topology: Topology, rows: int, cols: int, sel_row: int,
               sel_cols, v_w: float) -> BiasPlan:
    """The write plan of `topology`: erase for v_w < 0, program otherwise."""
    if topology is Topology.AND:
        return and_write_bias(rows, cols, sel_row, sel_cols, v_w)
    if v_w < 0.0:
        return cand_write0_bias(rows, cols, sel_row, sel_cols, v_w)
    return cand_write1_bias(rows, cols, sel_row, sel_cols, v_w)


def read_bias(topology: Topology, rows: int, cols: int, sel_row: int,
              sel_cols, v_wl: float, v_sl: float) -> BiasPlan:
    """The read plan of `topology`."""
    build = and_read_bias if topology is Topology.AND else cand_read_bias
    return build(rows, cols, sel_row, sel_cols, v_wl, v_sl)


def _write_body(plan: BiasPlan, col: int) -> float:
    """The potential a write references column `col`'s gates to.

    CAND cells have their body on the column bulk line.  AND cells sit in
    a common bulk, but with drain and source inhibited to the same column
    voltage the effective gate drive is referenced to the channel, i.e.
    the mean of the two channel terminals.
    """
    if plan.topology is Topology.CAND:
        return plan.bul[col]
    bl, sl = plan.bl[col], plan.sl[col]
    if bl is HIGH_Z or sl is HIGH_Z:
        raise ValueError(f"column {col} floats, but a write needs it driven")
    return 0.5 * (bl + sl)


def cell_write_voltage(plan: BiasPlan, row: int, col: int) -> float:
    """Gate-to-body voltage a cell sees under a write plan."""
    return plan.wl[row] - _write_body(plan, col)


def write_bodies(plan: BiasPlan) -> list[float]:
    """The potential each column's gates are referenced to in a write: a
    cell's `cell_write_voltage` is ``plan.wl[row] - write_bodies(plan)[col]``."""
    return [_write_body(plan, c) for c in range(plan.cols)]


def classify_cell(plan: BiasPlan, row: int, col: int) -> CellGroup:
    row_sel = row == plan.sel_row
    col_sel = col in plan.sel_cols
    if row_sel and col_sel:
        return CellGroup.SEL
    if row_sel:
        return CellGroup.SAME_ROW
    if col_sel:
        return CellGroup.SAME_COL
    return CellGroup.DIAG


def exposures(plan: BiasPlan) -> list[tuple[CellGroup, float]]:
    """Each unselected cell's group and gate-to-body voltage under a write
    plan, in row-major order."""
    return [(group, cell_write_voltage(plan, r, c))
            for r in range(plan.rows) for c in range(plan.cols)
            if (group := classify_cell(plan, r, c)) is not CellGroup.SEL]


# --------------------------------------------------------------------------
# Write-scheme audit


class SchemeKind(enum.Enum):
    VDD3_ONLY = "vdd3"      # thirds inhibit for both polarities
    VDD2_ONLY = "vdd2"      # halves inhibit for both polarities
    MIXED = "mixed"         # thirds for '0', halves for '1'

FLAG_PASS = "pass"
FLAG_PARTIAL = "partial-risk"
FLAG_DISTURB = "disturb"

#: fraction of the switching threshold from which an exposure is flagged
#: as partial-risk
PARTIAL_MARGIN = 2.0 / 3.0


@dataclass(frozen=True)
class SchemeFinding:
    op: str
    group: CellGroup
    v_gb: float
    margin: float    # switching threshold minus exposure magnitude, V
    flag: str


@dataclass
class SchemeReport:
    findings: list[SchemeFinding]

    @property
    def any_disturb(self) -> bool:
        return any(f.flag == FLAG_DISTURB for f in self.findings)

    @property
    def any_partial(self) -> bool:
        return any(f.flag != FLAG_PASS for f in self.findings)


def verify_scheme(v_w0: float, v_w1: float,
                  scheme: SchemeKind = SchemeKind.MIXED) -> SchemeReport:
    """Audit unselected-cell exposures of a write scheme.

    Each op's exposures are those of its 2x2 C-AND write plan in the
    scheme's inhibit style: MIXED's are the C-AND plans', and VDD3_ONLY's
    equal the AND plans'.  The write voltages are taken to be chosen at the
    switching minimum, so |v_w0| and v_w1 are the smallest gate voltages
    that flip a cell to '0' and to '1'.  An exposure whose magnitude reaches
    the threshold for its polarity is a `disturb`; reaching `PARTIAL_MARGIN`
    of it is a `partial-risk`.
    """
    if v_w0 >= 0.0 or v_w1 <= 0.0:
        raise ValueError("expected v_w0 < 0 < v_w1")
    thr0, thr1 = abs(v_w0), v_w1

    style0 = "vdd2" if scheme is SchemeKind.VDD2_ONLY else "vdd3"
    style1 = "vdd3" if scheme is SchemeKind.VDD3_ONLY else "vdd2"

    findings = []
    for op, style, v_w in (("write0", style0, v_w0), ("write1", style1, v_w1)):
        plan = _cand_write(2, 2, 0, (0,), op, style, v_w)
        for group, v_gb in exposures(plan):
            thr = thr1 if v_gb > 0.0 else thr0
            mag = abs(v_gb)
            if mag >= thr:
                flag = FLAG_DISTURB
            elif mag >= PARTIAL_MARGIN * thr:
                flag = FLAG_PARTIAL
            else:
                flag = FLAG_PASS
            findings.append(SchemeFinding(op, group, v_gb, thr - mag, flag))
    return SchemeReport(findings)
