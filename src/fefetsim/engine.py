"""Array-level simulation: write transients and resistive read solve.

Writes act purely through each cell's gate stack (drain/source are
inhibited to equal potentials by the bias plans), so a write is just the
per-cell hysteresis transient at that cell's gate-to-body voltage.

Reads solve the nonlinear resistive network spanned by the channel
terminals: every bit-line and source-line segment is a node, joined by
wire resistances derived from the cell pitch, with driven lines attached
through their first segment and floating lines weakly tied to ground.
Word lines and bulk lines carry no DC current and act only as gate/body
potentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import analytics, biasing, device, ferro
from .biasing import BiasPlan, Topology
from .device import FeFetParams
from .ferro import BranchState, FerroParams

#: conductance tying a floating line to ground, S
G_FLOAT = 1e-15

#: read solver targets
RESIDUAL_TOL = 1e-13       # A, max node current residual
MAX_NEWTON_ITER = 200
DAMPING = 0.5


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Parasitics:
    """Wire parasitics per unit length and the cell pitch.

    Resistances are Ohm/um, capacitances F/um; pitches are in units of the
    layout feature size `lam` (m).
    """

    r_metal: float = 9.45
    c_metal: float = 0.22e-15
    r_poly: float = 2000.0
    c_poly: float = 0.15e-15
    lam: float = 50e-9
    pitch_x: float = 9.0     # along a row, lambda units
    pitch_y: float = 9.2896  # along a column, lambda units

    def seg_resistance(self, pitch_lam: float, poly: bool = False) -> float:
        length_um = pitch_lam * self.lam * 1e6
        return length_um * (self.r_poly if poly else self.r_metal)

    def seg_capacitance(self, pitch_lam: float, poly: bool = False) -> float:
        length_um = pitch_lam * self.lam * 1e6
        return length_um * (self.c_poly if poly else self.c_metal)


def _intern(table: dict[tuple, BranchState], state: BranchState) -> BranchState:
    """The state in `table` equal to `state` in every field, adding `state`
    if there is none."""
    key = (state.direction, state.k, state.p_off, state.e_eff, state.p,
           tuple(state.history))
    return table.setdefault(key, state)


@dataclass
class ArrayState:
    """A rows x cols memory array with per-cell hysteresis state.

    Cells with equal state share one interned `BranchState` from a
    per-array table keyed by all of the state's fields, so ``cells[r][c]``
    is a reference that is never mutated in place: a write replaces it.
    By return-point memory and wipe-out, two cells with equal state evolve
    identically under the same pulse, which lets `apply_write` pulse each
    distinct (state, gate voltage) pair once.
    """

    topology: Topology
    rows: int
    cols: int
    fe: FerroParams
    dev: FeFetParams
    parasitics: Parasitics = field(default_factory=Parasitics)
    cells: list[list[BranchState]] = field(default_factory=list)
    _states: dict[tuple, BranchState] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cells:
            self.cells = [[_intern(self._states, st.copy()) for st in row]
                          for row in self.cells]
        else:
            rest = _intern(self._states, ferro.negative_saturation(self.fe))
            self.cells = [[rest] * self.cols for _ in range(self.rows)]

    def copy(self) -> "ArrayState":
        """An independent array in the same state; the interned states are
        shared, the grid and the table are not."""
        twin = ArrayState(self.topology, self.rows, self.cols, self.fe,
                          self.dev, self.parasitics)
        twin.cells = [row[:] for row in self.cells]
        twin._states = dict(self._states)
        return twin

    def set_pattern(self, bits) -> None:
        """Force saturated rest states from a 0/1 matrix (no transient)."""
        self._states = {}
        zero = _intern(self._states, ferro.make_state(self.fe, False))
        one = _intern(self._states, ferro.make_state(self.fe, True))
        self.cells = [[one if row[c] else zero for c in range(self.cols)]
                      for row in (bits[r] for r in range(self.rows))]

    def vt(self, r: int, c: int) -> float:
        return device.cell_vt(self.dev, self.fe, self.cells[r][c])

    def vts(self) -> np.ndarray:
        vt_of = {id(st): device.cell_vt(self.dev, self.fe, st)
                 for st in self._states.values()}
        return np.array([[vt_of[id(st)] for st in row] for row in self.cells])


def apply_write(array: ArrayState, plan: BiasPlan, duration: float) -> None:
    """Run one write phase: every cell sees its plan-derived gate voltage.

    Cells sharing an interned state and a gate voltage form one group; the
    scalar write runs once per group on a copy, and every cell of the
    group then refers to the interned result.
    """
    if plan.topology is not array.topology:
        raise ValueError("bias plan topology does not match array")
    if (plan.rows, plan.cols) != (array.rows, array.cols):
        raise ValueError("bias plan shape does not match array")
    # The new grid and table are built aside, so a write that raises leaves
    # the array as it was; the old grid keeps every pre-state alive until
    # then, so their ids stay unique.
    table: dict[tuple, BranchState] = {}
    written: dict[tuple[int, float], BranchState] = {}
    cells = []
    for row, v_row in zip(array.cells, biasing.write_voltages(plan)):
        new_row = []
        for st, v_gb in zip(row, v_row):
            key = (id(st), v_gb)
            new = written.get(key)
            if new is None:
                new = written[key] = _intern(table, device.write_cell(
                    array.dev, array.fe, st.copy(), v_gb, duration))
            new_row.append(new)
        cells.append(new_row)
    array.cells, array._states = cells, table


@dataclass
class ReadResult:
    plan: BiasPlan
    col_currents: dict[int, float]   # selected column -> sensed current, A
    iterations: int
    max_residual: float

    def current(self, col: int) -> float:
        return self.col_currents[col]


def _line_nodes(array: ArrayState):
    """Node indexing and wiring for the channel-terminal network.

    Returns (n_nodes, sl_idx, bl_idx, chains) where chains is a list of
    (line_name, [node indices in driver-to-end order], seg_resistance).
    """
    rows, cols = array.rows, array.cols
    par = array.parasitics
    sl_idx = np.arange(rows * cols).reshape(rows, cols)
    bl_idx = rows * cols + np.arange(rows * cols).reshape(rows, cols)
    chains = []
    if array.topology is Topology.CAND:
        r_sl = par.seg_resistance(par.pitch_x)
        r_bl = par.seg_resistance(par.pitch_y)
        for r in range(rows):
            chains.append((f"SL{r}", [sl_idx[r][c] for c in range(cols)], r_sl))
        for c in range(cols):
            chains.append((f"BL{c}", [bl_idx[r][c] for r in range(rows)], r_bl))
    else:
        r_seg = par.seg_resistance(par.pitch_y)
        for c in range(cols):
            chains.append((f"SL{c}", [sl_idx[r][c] for r in range(rows)], r_seg))
            chains.append((f"BL{c}", [bl_idx[r][c] for r in range(rows)], r_seg))
    return 2 * rows * cols, sl_idx, bl_idx, chains


def solve_read(array: ArrayState, plan: BiasPlan) -> ReadResult:
    """Damped-Newton DC solve of the read network.

    Raises ConvergenceError if the max node residual does not reach
    RESIDUAL_TOL within MAX_NEWTON_ITER iterations.
    """
    if plan.topology is not array.topology:
        raise ValueError("bias plan topology does not match array")
    rows, cols = array.rows, array.cols
    n_nodes, sl_idx, bl_idx, chains = _line_nodes(array)
    vts = array.vts()
    dev = array.dev

    # Fixed linear part: wire segments, drivers, floating ties.
    g_rows, g_cols, g_vals = [], [], []
    inj = np.zeros(n_nodes)          # current injected by drivers at V=0 nodes

    def add_cond(a: int, b: int | None, g: float, v_src: float = 0.0):
        # conductance between node a and (node b | fixed source v_src)
        g_rows.append(a); g_cols.append(a); g_vals.append(g)
        if b is not None:
            g_rows.append(b); g_cols.append(b); g_vals.append(g)
            g_rows.append(a); g_cols.append(b); g_vals.append(-g)
            g_rows.append(b); g_cols.append(a); g_vals.append(-g)
        else:
            inj[a] += g * v_src

    drive_voltage: dict[str, float] = {}
    for name, nodes, r_seg in chains:
        g_seg = 1.0 / r_seg
        for a, b in zip(nodes[:-1], nodes[1:]):
            add_cond(a, b, g_seg)
        v = plan.lines[name]
        if v is None:
            add_cond(nodes[0], None, G_FLOAT, 0.0)
        else:
            add_cond(nodes[0], None, g_seg, v)
            drive_voltage[name] = v

    g_lin = sp.csr_matrix((g_vals, (g_rows, g_cols)), shape=(n_nodes, n_nodes))

    # initial guess: every node at its line's driven voltage (0 if floating)
    v = np.zeros(n_nodes)
    for name, nodes, _ in chains:
        val = plan.lines[name]
        if val is not None:
            v[np.asarray(nodes)] = val

    wl = np.array([plan.driven(f"WL{r}") for r in range(rows)])

    def assemble(vv: np.ndarray):
        f = g_lin.dot(vv) - inj
        jr, jc, jv = [], [], []
        for r in range(rows):
            for c in range(cols):
                a, b = int(bl_idx[r][c]), int(sl_idx[r][c])
                i, di_da, di_db = device.drain_current_and_derivs(
                    dev, wl[r], vv[a], vv[b], vts[r][c])
                f[a] += i
                f[b] -= i
                jr += [a, a, b, b]
                jc += [a, b, a, b]
                jv += [di_da, di_db, -di_da, -di_db]
        j_dev = sp.csr_matrix((jv, (jr, jc)), shape=(n_nodes, n_nodes))
        return f, g_lin + j_dev

    f, jac = assemble(v)
    res = np.max(np.abs(f))
    it = 0
    while res > RESIDUAL_TOL and it < MAX_NEWTON_ITER:
        it += 1
        step = spla.spsolve(jac.tocsc(), -f)
        scale = 1.0
        while True:
            v_new = v + scale * step
            f_new, jac_new = assemble(v_new)
            res_new = np.max(np.abs(f_new))
            if res_new < res or scale < 1e-8:
                break
            scale *= DAMPING
        v, f, jac, res = v_new, f_new, jac_new, res_new
    if res > RESIDUAL_TOL:
        raise ConvergenceError(
            f"read solve stalled at residual {res:.3e} A after {it} iterations")

    # sensed current: what flows out of each selected sense line driver
    col_currents: dict[int, float] = {}
    for c in plan.sel_cols:
        v_drv = drive_voltage[f"BL{c}"]
        node0 = int(bl_idx[0][c])
        r_seg = array.parasitics.seg_resistance(array.parasitics.pitch_y)
        col_currents[c] = (v[node0] - v_drv) / r_seg
    return ReadResult(plan, col_currents, it, float(res))


def read_cells(array: ArrayState, sel_row: int, sel_cols,
               v_wl: float, v_sl: float) -> ReadResult:
    res = solve_read(array, biasing.read_bias(
        array.topology, array.rows, array.cols, sel_row, sel_cols, v_wl, v_sl))
    if array.topology is Topology.AND:
        # sensing happens at the driven bit line; current flows into the array
        res.col_currents = {c: -i for c, i in res.col_currents.items()}
    return res


def column_readout_with_leak(dev: FeFetParams, topology: Topology,
                             rows: int, cols: int,
                             vt_selected: float, vt_unselected: float,
                             v_wl: float, v_sl: float) -> tuple[float, float]:
    """Scalable worst-case single-column read: (cell current, leak current).

    AND: every unselected cell on the bit line sees the full read voltage,
    so leakage is the sum of their off-state currents.  CAND: leakage must
    thread series paths of an on-device into a floating column followed by
    two gate-closed devices; the path aggregate is composed from the
    series/parallel resistance estimate with closed channels taken at their
    gate-closed floor conductance (g_min) and the on leg linearized at the
    read point.  (A DC nodal solve of the unselected mesh instead lets the
    floating lines drift to the rail and the last closed device carry its
    full gate-grounded subthreshold current, which erases the isolation the
    floating lines provide on read time scales; see solve_read for the
    small-array cross-check.)
    """
    i_cell = device.drain_current(dev, v_wl, v_sl, vt_selected)
    if topology is Topology.AND:
        i_leak = (rows - 1) * device.drain_current(dev, 0.0, v_sl, vt_unselected)
        return i_cell, i_leak
    if rows < 2 or cols < 2:
        return i_cell, 0.0
    i_on = device.drain_current(dev, v_wl, v_sl, vt_unselected)
    r_eff = analytics.sneak_resistance_formula(
        v_sl / i_on, 1.0 / dev.g_min, rows, cols)
    return i_cell, v_sl / r_eff


def accumulate_disturb(dev: FeFetParams, fe: FerroParams, state: BranchState,
                       v_gb: float, n_pulses: int, duration: float):
    """Repeatedly apply a half-select pulse; return vt after each pulse."""
    out = []
    for _ in range(n_pulses):
        device.write_cell(dev, fe, state, v_gb, duration)
        out.append(device.cell_vt(dev, fe, state))
    return out
