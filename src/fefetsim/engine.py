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

from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


#: cell pitch along a row and along a column, in units of the layout
#: feature size `Parasitics.lam`
PITCH_X = 9.0
PITCH_Y = 9.2896


@dataclass(frozen=True)
class Parasitics:
    """Wire parasitics per unit length and the layout feature size.

    Resistances are Ohm/um, capacitances F/um, `lam` is in m; segment
    lengths are given in units of `lam`.
    """

    r_metal: float
    c_metal: float
    r_poly: float
    c_poly: float
    lam: float

    def __post_init__(self):
        if min(self.r_metal, self.r_poly, self.lam) <= 0.0:
            raise ValueError("r_metal, r_poly and lam must be positive")
        if min(self.c_metal, self.c_poly) < 0.0:
            raise ValueError("c_metal and c_poly must be nonnegative")

    def seg_resistance(self, pitch_lam: float, poly: bool = False) -> float:
        length_um = pitch_lam * self.lam * 1e6
        return length_um * (self.r_poly if poly else self.r_metal)

    def seg_capacitance(self, pitch_lam: float, poly: bool = False) -> float:
        length_um = pitch_lam * self.lam * 1e6
        return length_um * (self.c_poly if poly else self.c_metal)


@dataclass
class ArrayState:
    """A rows x cols memory array with per-cell hysteresis state.

    ``cells[r][c]`` is the cell's `BranchState`, an immutable value, so a
    write replaces it and cells may share one state.  By return-point
    memory and wipe-out, two cells with equal state evolve identically
    under the same pulse, which lets `apply_write` pulse each distinct
    (state, gate voltage) pair once.
    """

    topology: Topology
    rows: int
    cols: int
    fe: FerroParams
    dev: FeFetParams
    parasitics: Parasitics
    cells: list[list[BranchState]] = field(default_factory=list)

    def __post_init__(self):
        if not self.cells:
            rest = ferro.negative_saturation(self.fe)
            self.cells = [[rest] * self.cols for _ in range(self.rows)]

    def copy(self) -> "ArrayState":
        """An independent array in the same state; only the grid is copied."""
        return replace(self, cells=[row[:] for row in self.cells])

    def set_pattern(self, bits) -> None:
        """Force saturated rest states from a 0/1 matrix (no transient)."""
        zero = ferro.make_state(self.fe, False)
        one = ferro.make_state(self.fe, True)
        self.cells = [[one if row[c] else zero for c in range(self.cols)]
                      for row in (bits[r] for r in range(self.rows))]

    def vt(self, r: int, c: int) -> float:
        return device.cell_vt(self.dev, self.fe, self.cells[r][c])

    def vts(self) -> np.ndarray:
        p = np.array([[st.p for st in row] for row in self.cells])
        return device.vt_of_polarization(self.dev, self.fe, p)


def _check_plan(array: ArrayState, plan: BiasPlan) -> None:
    if plan.topology is not array.topology:
        raise ValueError("bias plan topology does not match array")
    if (plan.rows, plan.cols) != (array.rows, array.cols):
        raise ValueError("bias plan shape does not match array")


def apply_write(array: ArrayState, plan: BiasPlan, duration: float) -> None:
    """Run one write phase: every cell sees its plan-derived gate voltage.

    Cells with equal state and gate voltage form one group; the scalar
    write runs once per group, and every cell of the group then holds its
    result.  The new grid replaces the old only once every write has
    succeeded, so a write that raises leaves the array as it was.
    """
    _check_plan(array, plan)
    written: dict[tuple[BranchState, float], BranchState] = {}
    cells = []
    for row, v_row in zip(array.cells, biasing.write_voltages(plan)):
        new_row = []
        for key in zip(row, v_row):
            new = written.get(key)
            if new is None:
                new = written[key] = device.write_cell(
                    array.dev, array.fe, *key, duration)
            new_row.append(new)
        cells.append(new_row)
    array.cells = cells


@dataclass
class ReadResult:
    col_currents: dict[int, float]   # selected column -> sensed current, A
    iterations: int
    max_residual: float

    def current(self, col: int) -> float:
        return self.col_currents[col]


#: a box of at most this many cells is listed whole rather than cut again
LEAF_CELLS = 8


def _numbering(topology: Topology, rows: int,
               cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Node ids of every cell's source-side and bit-line-side terminal, as
    two rows x cols matrices, in nested-dissection order (A. George, SIAM J.
    Numer. Anal. 10, 1973).

    A box of cells is cut across an axis that no line crosses where it can
    (the columns of an AND array, which falls apart into column ladders),
    otherwise across its longer side.  The separator is the cut line's
    nodes of each family whose lines cross the cut, so it is one-sided:
    the first column's (row's) nodes of the half after the cut.  It comes
    after both halves, so eliminating the halves fills nothing between
    them.  A leaf box (at most LEAF_CELLS cells) or one-cell-wide strip
    lists its cells in row-major order, each cell's two terminals together.
    """
    # the families (0 source, 1 bit line) whose lines cross a cut between
    # columns, and between rows: no AND line crosses one between columns
    cand = topology is Topology.CAND
    across_cols = slice(0, 1) if cand else slice(0, 0)
    across_rows = slice(1, 2) if cand else slice(0, 2)
    # piece[r, c, k]: post-order rank of the leaf or separator holding
    # terminal k of cell (r, c); a separator overwrites its halves' leaves
    piece = np.empty((rows, cols, 2), dtype=np.intp)
    count = iter(range(piece.size))

    def visit(r0: int, r1: int, c0: int, c1: int) -> None:
        h, w = r1 - r0, c1 - c0
        free = w > 1 and not cand
        if not free and (min(h, w) == 1 or h * w <= LEAF_CELLS):
            piece[r0:r1, c0:c1] = next(count)
        elif free or w >= h:
            cut = c0 + w // 2
            visit(r0, r1, c0, cut)
            visit(r0, r1, cut, c1)
            piece[r0:r1, cut, across_cols] = next(count)
        else:
            cut = r0 + h // 2
            visit(r0, cut, c0, c1)
            visit(cut, r1, c0, c1)
            piece[cut, c0:c1, across_rows] = next(count)

    visit(0, rows, 0, cols)
    ids = np.empty(piece.size, dtype=np.intp)
    ids[np.argsort(piece.ravel(), kind="stable")] = np.arange(piece.size)
    sl, bl = ids.reshape(rows, cols, 2).transpose(2, 0, 1).copy()
    return sl, bl


class _Layout(NamedTuple):
    """The part of a read network that no bias plan or cell state changes.

    `sl[r, c]` and `bl[r, c]` are the node ids of cell (r, c)'s source-side
    and bit-line-side channel terminals, in the nested-dissection order of
    `_numbering`.  Each line is a chain of wire segments over its nodes;
    the source lines are numbered first, then the bit lines, each family in
    the order of its plan tuple.  `line_of` gives each node's line and `heads`
    each line's first node, where its driver or floating tie attaches
    through one more conductance `g_head`.  The Jacobian's compressed
    columns (row `idx` and column `col` of every slot, column pointers
    `ptr`) hold the wire conductances (`wire`, without the head ones), the
    head diagonals (slots `head_slot`) and the four stamps of every cell
    (`cell_slot`).
    """

    sl: np.ndarray
    bl: np.ndarray
    line_of: np.ndarray
    heads: np.ndarray
    g_head: np.ndarray
    wire: np.ndarray
    head_slot: np.ndarray
    cell_slot: np.ndarray
    idx: np.ndarray
    col: np.ndarray
    ptr: np.ndarray
    r_bl: float


def _layout(topology: Topology, rows: int, cols: int,
            par: Parasitics) -> _Layout:
    """The read network's layout for one array shape, built from numpy index
    arrays in the style of modified nodal analysis; read-only, so that every
    read of that shape can share it."""
    n = 2 * rows * cols
    sl, bl = _numbering(topology, rows, cols)
    r_bl = par.seg_resistance(PITCH_Y)
    if topology is Topology.CAND:
        chains = ((sl, par.seg_resistance(PITCH_X)), (bl.T, r_bl))
    else:
        chains = ((sl.T, r_bl), (bl.T, r_bl))
    # row k of a chain's node matrix is a line's nodes from its driven end on
    heads, g_head, stamps = [], [], []
    line_of = np.empty(n, dtype=np.intp)
    for nodes, r_seg in chains:
        g_seg = 1.0 / r_seg
        line_of[nodes] = len(heads) + np.arange(len(nodes))[:, None]
        heads += nodes[:, 0].tolist()
        g_head += [g_seg] * len(nodes)
        a, b = nodes[:, :-1].ravel(), nodes[:, 1:].ravel()
        g = np.full(a.size, g_seg)
        stamps += [(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)]
    heads, g_head = np.array(heads, dtype=np.intp), np.array(g_head)
    rows_w, cols_w, g_w = (np.concatenate(x) for x in zip(*stamps))
    bl_f, sl_f = bl.ravel(), sl.ravel()
    keys, slot = np.unique(
        np.concatenate([cols_w, heads, bl_f, sl_f, bl_f, sl_f]) * n
        + np.concatenate([rows_w, heads, bl_f, bl_f, sl_f, sl_f]),
        return_inverse=True)
    # a one-cell line has no segments, and bincount of nothing is integer
    wire = np.bincount(slot[:g_w.size], g_w,
                       minlength=keys.size).astype(float, copy=False)
    head_end = g_w.size + heads.size
    layout = _Layout(sl, bl, line_of, heads, g_head, wire,
                     slot[g_w.size:head_end].copy(), slot[head_end:].copy(),
                     (keys % n).astype(np.intc), keys // n,
                     np.searchsorted(keys, np.arange(n + 1) * n).astype(np.intc),
                     r_bl)
    for arr in layout:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return layout


#: [key, layout] of the last array shape read; every caller reads one shape
#: at a time.  Kept by hand because an lru_cache builds the new layout before
#: it drops the old one: two 256 x 256 layouts alive at once raised the peak
#: memory of a 64-256 read sweep by 4.5 %.
_last_layout: list = []


def _shared_layout(*key) -> _Layout:
    if not _last_layout or _last_layout[0] != key:
        _last_layout.clear()
        _last_layout.extend((key, _layout(*key)))
    return _last_layout[1]


def solve_read(array: ArrayState, plan: BiasPlan) -> ReadResult:
    """Damped-Newton DC solve of the read network.

    The nodes of each line form a chain of wire segments, driven at its
    first node or, when floating, tied to ground there by G_FLOAT.  The
    Jacobian's compressed-column layout (`_layout`) is cached for the last
    array shape read; per solve only the drives (`plan.sl + plan.bl`), the
    head conductances and the initial guess come from the plan, and each
    Newton assembly only evaluates the devices and, from that one layout,
    the residual and the Jacobian's values.  SuperLU factors the Jacobian
    in its natural column order: the layout's nested-dissection numbering
    is the fill-reducing order, found once per shape rather than on every
    solve.

    Raises ConvergenceError if the max node residual does not reach
    RESIDUAL_TOL within MAX_NEWTON_ITER iterations, if no damped step lowers
    it (a stalled line search), or if the residual or a Newton step is not
    finite (a singular Jacobian).
    """
    _check_plan(array, plan)
    lay = _shared_layout(array.topology, array.rows, array.cols,
                         array.parasitics)
    n_nodes = lay.line_of.size
    drive = np.array(plan.sl + plan.bl, dtype=float)
    floating = np.isnan(drive)
    drive[floating] = 0.0
    lin = lay.wire.copy()
    lin[lay.head_slot] += np.where(floating, G_FLOAT, lay.g_head)
    inj = np.zeros(n_nodes)
    inj[lay.heads] = lay.g_head * drive
    # every node starts at its line's drive (0 V when floating)
    v = drive[lay.line_of]

    # Each node is one cell's terminal on one chain, so a Jacobian entry sums
    # at most one wire and one device term; bincount adds a row's linear
    # terms from 0.0 in ascending column order, as a CSR product would.
    jac = sp.csc_matrix((np.zeros(lay.idx.size), lay.idx, lay.ptr),
                        shape=(n_nodes, n_nodes))
    bl_f, sl_f = lay.bl.ravel(), lay.sl.ravel()
    gates = [vg for vg in plan.wl for _ in range(array.cols)]
    vts = array.vts().ravel().tolist()
    dev = array.dev

    def assemble(vv: np.ndarray) -> np.ndarray:
        """The node residual at vv; refills jac with its Jacobian."""
        i, di_da, di_db = np.array(
            [device.drain_current_and_derivs(dev, vg, vd, vs, vt)
             for vg, vd, vs, vt in zip(gates, vv[bl_f].tolist(),
                                       vv[sl_f].tolist(), vts)]).T
        f = np.bincount(lay.idx, lin * vv[lay.col]) - inj
        f[bl_f] += i
        f[sl_f] -= i
        jac.data[:] = lin + np.bincount(
            lay.cell_slot, np.concatenate([di_da, di_db, -di_da, -di_db]),
            minlength=lin.size)
        return f

    f = assemble(v)
    res = np.max(np.abs(f))
    it = 0
    while res > RESIDUAL_TOL and it < MAX_NEWTON_ITER:
        it += 1
        # jac is always the Jacobian at v: the last assembly is the accepted one
        step = spla.spsolve(jac, -f, permc_spec="NATURAL")
        if not np.isfinite(step).all():
            raise ConvergenceError(
                f"read solve met a singular Jacobian at iteration {it}")
        scale = 1.0
        while True:
            v_new = v + scale * step
            f_new = assemble(v_new)
            res_new = np.max(np.abs(f_new))
            if res_new < res:
                break
            if scale < 1e-8:
                raise ConvergenceError(
                    f"line search stalled at iteration {it}")
            scale *= DAMPING
        v, f, res = v_new, f_new, res_new
    if not res <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"read solve stalled at residual {res:.3e} A after {it} iterations")

    # sensed current: what flows out of each selected sense line driver
    col_currents = {c: (v[lay.bl[0, c]] - plan.bl[c]) / lay.r_bl
                    for c in plan.sel_cols}
    return ReadResult(col_currents, it, float(res))


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
    floating lines provide on read time scales.  Only the AND model is
    cross-checked against solve_read, in tests/test_engine.py::
    test_column_model_cross_checks_full_solver_and; the C-AND gap is open,
    see ROADMAP item 3.)
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
    """Repeatedly apply a half-select pulse; return the final state and vt
    after each pulse."""
    out = []
    for _ in range(n_pulses):
        state = device.write_cell(dev, fe, state, v_gb, duration)
        out.append(device.cell_vt(dev, fe, state))
    return state, out
