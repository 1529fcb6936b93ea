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


def _compressed(rows: np.ndarray, cols: np.ndarray, n: int):
    """Sorted compressed-column layout of an n x n matrix with entries at
    (rows, cols): each pair's slot among the distinct pairs, the row index
    of every slot, and the column pointers."""
    keys, slot = np.unique(cols * n + rows, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return slot, (keys % n).astype(np.intc), indptr.astype(np.intc)


def _wires(chains, plan: BiasPlan, n: int):
    """Linear part of the read network over n nodes: the symmetric wire,
    driver and floating-tie conductance matrix (CSR), the current the
    drivers inject, and the initial guess with every node at its line's
    drive (0 V when floating).

    `chains` holds (line name prefix, node matrix, segment resistance); row
    k of the node matrix is line k's nodes from its driven end on.
    """
    inj, v = np.zeros(n), np.zeros(n)
    stamps = []   # (rows, cols, conductances)
    for prefix, nodes, r_seg in chains:
        g_seg = 1.0 / r_seg
        drive = np.array([plan.lines[f"{prefix}{k}"] for k in range(len(nodes))],
                         dtype=float)
        floating = np.isnan(drive)
        drive[floating] = 0.0
        a, b, h = nodes[:, :-1].ravel(), nodes[:, 1:].ravel(), nodes[:, 0]
        g = np.full(a.size, g_seg)
        stamps += [(a, a, g), (b, b, g), (a, b, -g), (b, a, -g),
                   (h, h, np.where(floating, G_FLOAT, g_seg))]
        inj[h] = g_seg * drive
        v[nodes] = drive[:, None]
    rows, cols, g = (np.concatenate(x) for x in zip(*stamps))
    slot, idx, ptr = _compressed(rows, cols, n)
    # symmetric, so its compressed columns are also its compressed rows
    return sp.csr_matrix((np.bincount(slot, g), idx, ptr), shape=(n, n)), inj, v


def solve_read(array: ArrayState, plan: BiasPlan) -> ReadResult:
    """Damped-Newton DC solve of the read network.

    Node k < rows*cols is the source-side channel terminal of cell
    divmod(k, cols) and node rows*cols + k its bit-line-side terminal.  The
    nodes of each line form a chain of wire segments, driven at its first
    node or, when floating, tied to ground there by G_FLOAT.  That linear
    part (`_wires`) and the Jacobian's sparsity pattern are built once per
    solve; each Newton assembly only evaluates the devices and fills in
    values.

    Raises ConvergenceError if the max node residual does not reach
    RESIDUAL_TOL within MAX_NEWTON_ITER iterations.
    """
    if plan.topology is not array.topology:
        raise ValueError("bias plan topology does not match array")
    rows, cols = array.rows, array.cols
    par = array.parasitics
    n_cells = rows * cols
    n_nodes = 2 * n_cells
    sl = np.arange(n_cells).reshape(rows, cols)
    bl = sl + n_cells
    r_bl = par.seg_resistance(par.pitch_y)
    if array.topology is Topology.CAND:
        chains = (("SL", sl, par.seg_resistance(par.pitch_x)),
                  ("BL", bl.T, r_bl))
    else:
        chains = (("SL", sl.T, r_bl), ("BL", bl.T, r_bl))
    g_lin, inj, v = _wires(chains, plan, n_nodes)

    # Jacobian layout: the linear entries, then the four stamps of every
    # cell.  Each node is the terminal of one cell and lies in one chain, so
    # every entry sums at most two terms and the summation order is moot.
    bl_f, sl_f = bl.ravel(), sl.ravel()
    jac_slot, jac_idx, jac_ptr = _compressed(
        np.concatenate([g_lin.indices, bl_f, bl_f, sl_f, sl_f]),
        np.concatenate([np.repeat(np.arange(n_nodes), np.diff(g_lin.indptr)),
                        bl_f, sl_f, bl_f, sl_f]), n_nodes)
    wl = [plan.driven(f"WL{r}") for r in range(rows)]
    gates = [vg for vg in wl for _ in range(cols)]
    vts = array.vts().ravel().tolist()
    dev = array.dev

    def assemble(vv: np.ndarray):
        i, di_da, di_db = np.array(
            [device.drain_current_and_derivs(dev, vg, vd, vs, vt)
             for vg, vd, vs, vt in zip(gates, vv[bl_f].tolist(),
                                       vv[sl_f].tolist(), vts)]).T
        f = g_lin.dot(vv) - inj
        f[bl_f] += i
        f[sl_f] -= i
        jac_val = np.bincount(
            jac_slot, np.concatenate([g_lin.data, di_da, di_db, -di_da, -di_db]))
        jac = sp.csc_matrix((jac_val, jac_idx, jac_ptr), shape=(n_nodes, n_nodes))
        return f, jac

    f, jac = assemble(v)
    res = np.max(np.abs(f))
    it = 0
    while res > RESIDUAL_TOL and it < MAX_NEWTON_ITER:
        it += 1
        step = spla.spsolve(jac, -f)
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
    col_currents = {c: (v[bl[0, c]] - plan.lines[f"BL{c}"]) / r_bl
                    for c in plan.sel_cols}
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
