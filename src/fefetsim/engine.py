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

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

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

#: cells from which a read evaluates its device terms in one numpy call
#: (`device.drain_current_and_derivs_array`) rather than one scalar call per
#: cell: below about 32 cells numpy's per-call overhead costs more than the
#: scalar loop it replaces (timed assemblies in CHANGES.md)
VECTOR_CELLS = 32


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


@dataclass(eq=False)
class ArrayState:
    """A rows x cols memory array with per-cell hysteresis state.

    `states` is a table of distinct `BranchState` values, each an immutable
    value held once, and `index` a read-only rows x cols integer grid of
    each cell's entry in it, so cells with equal state share one entry.  By
    return-point memory and wipe-out, two cells with equal state evolve
    identically under the same pulse, which lets `apply_write` pulse each
    distinct (state, gate voltage) pair once.  A write swaps in a new table
    and index rather than changing either, so a copy shares both.
    """

    topology: Topology
    rows: int
    cols: int
    fe: FerroParams
    dev: FeFetParams
    parasitics: Parasitics
    states: tuple[BranchState, ...] = field(init=False)
    index: np.ndarray = field(init=False)

    def __post_init__(self):
        self._swap((ferro.negative_saturation(self.fe),),
                   np.zeros((self.rows, self.cols), dtype=np.intp))

    @functools.cached_property
    def cells(self) -> list[list[BranchState]]:
        """``cells[r][c]`` is cell (r, c)'s state: a view built once per
        table or index, not to be changed."""
        table = np.fromiter(self.states, object, len(self.states))
        return table[self.index].tolist()

    def _swap(self, states: tuple[BranchState, ...], index: np.ndarray) -> None:
        """Replace the table and the index, which only this does, and drop
        the `cells` view they outdate."""
        index.flags.writeable = False
        self.states, self.index = states, index
        self.__dict__.pop("cells", None)

    def copy(self) -> "ArrayState":
        """An independent array in the same state; it shares the table and
        the index, since neither is ever changed."""
        twin = replace(self)
        twin._swap(self.states, self.index)
        return twin

    def set_pattern(self, bits) -> None:
        """Force saturated rest states from a rows x cols 0/1 matrix (no
        transient)."""
        bits = np.asarray(bits)
        if bits.shape != (self.rows, self.cols):
            raise ValueError(f"pattern of shape {bits.shape} on a "
                             f"{self.rows}x{self.cols} array")
        self._swap((ferro.make_state(self.fe, False),
                    ferro.make_state(self.fe, True)),
                   (bits != 0).astype(np.intp))

    def vt(self, r: int, c: int) -> float:
        return device.cell_vt(self.dev, self.fe, self.states[self.index[r, c]])

    def vts(self) -> np.ndarray:
        p = np.array([st.p for st in self.states])
        return device.vt_of_polarization(self.dev, self.fe, p)[self.index]


def _check_plan(array: ArrayState, plan: BiasPlan) -> None:
    if plan.topology is not array.topology:
        raise ValueError("bias plan topology does not match array")
    if (plan.rows, plan.cols) != (array.rows, array.cols):
        raise ValueError("bias plan shape does not match array")


def apply_write(array: ArrayState, plan: BiasPlan, duration: float) -> None:
    """Run one write phase: every cell sees its plan-derived gate voltage.

    Cells with equal table entry and gate voltage form one group; the
    scalar write runs once per group, and every cell of the group then
    holds its result.  Equal results share one entry of the new table.  The
    new table and index replace the old only once every write has
    succeeded, so a write that raises leaves the array as it was.
    """
    _check_plan(array, plan)
    voltages = itertools.chain.from_iterable(biasing.write_voltages(plan))
    keys = list(zip(array.index.ravel().tolist(), voltages))
    table: dict[BranchState, int] = {}
    entry: dict[tuple[int, float], int] = {}
    for i, v_gb in dict.fromkeys(keys):
        new = device.write_cell(array.dev, array.fe, array.states[i], v_gb,
                                duration)
        entry[i, v_gb] = table.setdefault(new, len(table))
    index = np.array([entry[k] for k in keys], dtype=np.intp)
    array._swap(tuple(table), index.reshape(array.rows, array.cols))


@dataclass
class ReadResult:
    col_currents: dict[int, float]   # selected column -> sensed current, A
    iterations: int
    max_residual: float

    def current(self, col: int) -> float:
        return self.col_currents[col]


class _Layout(NamedTuple):
    """The read network of one array shape, numbered line-major.

    The source lines come first, then the bit lines, each family in the
    order of its plan tuple, and each line's nodes are contiguous from its
    driven end, where its driver or floating tie attaches through one more
    conductance `g_head`.  `sl` and `bl` are the node ids of every cell's
    source-side and bit-line-side channel terminal, in row-major cell order.
    `partner` gives each node the other terminal of its cell, `line_of` its
    line and `g_prev` the conductance of the segment joining it to the node
    before it (0 at a line's first node, in `heads`).  `blocks` splits the
    nodes into runs [start, stop) of equally long lines, one run when both
    families' lines are equally long, else one per family; each comes with
    its `g_prev` as a (length, lines) view, row j holding node j of every
    line of the run.
    """

    sl: np.ndarray
    bl: np.ndarray
    partner: np.ndarray
    line_of: np.ndarray
    heads: np.ndarray
    g_head: np.ndarray
    g_prev: np.ndarray
    blocks: tuple
    r_bl: float


def _layout(topology: Topology, rows: int, cols: int,
            par: Parasitics) -> _Layout:
    """The line-major read network of one array shape, from index arithmetic
    on the node ids."""
    cells = rows * cols
    ids = np.arange(2 * cells)
    r_bl = par.seg_resistance(PITCH_Y)
    # bit line c holds nodes cells + c * rows ..., from row 0 on
    bl = ids[cells:].reshape(cols, rows).T.ravel()
    if topology is Topology.CAND:
        # source line r holds nodes r * cols ..., from column 0 on
        sl = ids[:cells]
        n_sl, len_sl, r_sl = rows, cols, par.seg_resistance(PITCH_X)
    else:
        # source line c holds nodes c * rows ..., from row 0 on
        sl = bl - cells
        n_sl, len_sl, r_sl = cols, rows, r_bl
    heads = np.concatenate([ids[:cells:len_sl], ids[cells::rows]])
    line_of = np.concatenate([ids[:cells] // len_sl, ids[:cells] // rows + n_sl])
    g_head = np.full(n_sl + cols, 1.0 / r_bl)
    g_head[:n_sl] = 1.0 / r_sl
    g_prev = g_head[line_of]
    g_prev[heads] = 0.0
    partner = np.empty_like(ids)
    partner[bl], partner[sl] = sl, bl
    if len_sl == rows:
        runs = ((0, 2 * cells, n_sl + cols, rows),)
    else:
        runs = ((0, cells, n_sl, len_sl), (cells, 2 * cells, cols, rows))
    blocks = tuple((start, stop, g_prev[start:stop].reshape(lines, length).T)
                   for start, stop, lines, length in runs)
    return _Layout(sl, bl, partner, line_of, heads, g_head, g_prev, blocks,
                   r_bl)


def _wire_currents(lay: _Layout, v: np.ndarray) -> np.ndarray:
    """The current each node sends into its line's wire segments at v."""
    # q[j]: the current node j sends back to node j - 1
    q = np.zeros(v.size + 1)
    q[1:-1] = lay.g_prev[1:] * (v[1:] - v[:-1])
    return q[:-1] - q[1:]


def _line_stamps(kd: np.ndarray, ks: np.ndarray, m: int, di_dd: np.ndarray,
                 di_ds: np.ndarray) -> np.ndarray:
    """The cells' derivative stamps summed by line, as an m x m matrix; each
    cell joins line kd on its bit-line side to line ks on its source side."""
    slots = np.concatenate([kd, kd, ks, ks]) * m + np.concatenate([kd, ks, kd, ks])
    return np.bincount(slots, np.concatenate([di_dd, di_ds, -di_dd, -di_ds]),
                       minlength=m * m).reshape(m, m)


def _factor_lines(lay: _Layout, shunt: np.ndarray) -> list:
    """Each line's tridiagonal block, its segments plus the per-node
    `shunt`, eliminated from the far end towards the head.

    A node's pivot is its segment towards the head plus y, the conductance
    to ground of everything beyond it: y is its shunt plus the next node's y
    in series with the segment between them.  Summed this way no pivot
    cancels, however weakly a floating line is tied.  Returns per block its
    extent, the reciprocal pivots and the segment-to-pivot ratios, the last
    two with row j holding node j of every line.
    """
    out = []
    for start, stop, g in lay.blocks:
        y = shunt[start:stop].reshape(g.shape[::-1]).T.copy()
        for j in range(len(y) - 1, 0, -1):
            y[j - 1] += g[j] * y[j] / (g[j] + y[j])
        y += g
        inv = 1.0 / y
        out.append((start, stop, inv, g * inv))
    return out


def _solve_lines(factors: list, r: np.ndarray) -> np.ndarray:
    """Every line's tridiagonal block solved at right-hand side r (Thomas'
    algorithm, vectorised across the lines of each block)."""
    x = np.empty_like(r)
    for start, stop, inv, ratio in factors:
        z = r[start:stop].reshape(inv.shape[::-1]).T.copy()
        for j in range(len(z) - 1, 0, -1):
            z[j - 1] += ratio[j] * z[j]
        z *= inv
        for j in range(1, len(z)):
            z[j] += ratio[j] * z[j - 1]
        x[start:stop] = z.T.ravel()
    return x


def _newton_step(lay: _Layout, g_tie: np.ndarray, line_d: np.ndarray,
                 line_s: np.ndarray, di_dd: np.ndarray, di_ds: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """x with J x = rhs, for the read Jacobian J of the cells' derivatives
    (di_dd, di_ds), the lines (line_d, line_s) each cell joins and the line
    heads' conductances g_tie.

    Each cycle of a two-level solver (line aggregation: P. Vaněk, J. Mandel
    and M. Brezina, Computing 56, 1996) first corrects x by one unknown per
    line, the residual summed over each line solved against the cells'
    stamps summed by line plus the head conductances, then solves every
    line's tridiagonal block against the residual left.  A wire segment
    (about 0.24 S) outweighs the cells on it (at most about 4e-7 S) by six
    decades, so what a line solve leaves is nearly constant along each line,
    which the next coarse correction removes.  Cycles repeat until the
    residual falls below 1e-3 RESIDUAL_TOL or stops halving.  A singular
    coarse or line matrix gives a non-finite x.
    """
    m = g_tie.size
    shunt, cross = np.empty_like(rhs), np.empty_like(rhs)
    shunt[lay.bl], shunt[lay.sl] = di_dd, -di_ds
    cross[lay.bl], cross[lay.sl] = di_ds, -di_dd
    shunt[lay.heads] += g_tie
    coarse = _line_stamps(line_d, line_s, m, di_dd, di_ds)
    coarse.flat[::m + 1] += g_tie
    x, r, res = np.zeros_like(rhs), rhs, np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lines = _factor_lines(lay, shunt)
        while True:
            try:
                dx = np.linalg.solve(coarse, np.bincount(
                    lay.line_of, r, minlength=m))[lay.line_of]
            except np.linalg.LinAlgError:
                return np.full_like(rhs, np.nan)
            # a correction constant along each line sends nothing into wires
            r = r - shunt * dx - cross * dx[lay.partner]
            x += dx + _solve_lines(lines, r)
            r = rhs - _wire_currents(lay, x) - shunt * x - cross * x[lay.partner]
            new = np.abs(r).max()
            if not (new > 1e-3 * RESIDUAL_TOL and new <= 0.5 * res):
                return x
            res = new


#: grid the predicted line potentials are rounded to, V: far coarser than an
#: ulp, so that numpy's exp and log1p, which may differ from math's and from
#: one CPU to the next by an ulp, do not reach the start of the fine solve.
#: From VECTOR_CELLS cells on the fine solve also uses numpy's exp, log1p and
#: expm1, so there such an ulp may move the currents (by at most 3.3e-16
#: relative on random 256-row C-AND reads)
PREDICTOR_GRID = 2.0 ** -30


def _line_potentials(lay: _Layout, drive: np.ndarray, floating: np.ndarray,
                     dev: FeFetParams, gates: np.ndarray,
                     vts: np.ndarray) -> np.ndarray:
    """Each line's potential with every wire shorted: a driven line at its
    drive, a floating line at the root of its KCL, one unknown per line (the
    coarse level of nested iteration: A. Brandt, Math. Comp. 31, 1977).

    Damped Newton on the dense Jacobian of the numpy device terms runs until
    a step moves no potential by more than PREDICTOR_GRID, to which the
    potentials are then rounded.  It raises ConvergenceError if a step is
    not finite; if its line search stalls or its iterations run out, it
    returns the potentials it reached, since the fine solve decides
    convergence.
    """
    m = np.count_nonzero(floating)
    # each line's unknown, with all driven lines lumped into unknown m
    unknown = np.full(drive.size, m)
    unknown[floating] = np.arange(m)
    line_d, line_s = lay.line_of[lay.bl], lay.line_of[lay.sl]
    kd, ks = unknown[line_d], unknown[line_s]
    pot = drive.copy()

    def assemble(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pot[floating] = u
        i, di_dd, di_ds = device.drain_current_and_derivs_array(
            dev, gates, pot[line_d], pot[line_s], vts)
        f = np.bincount(kd, i, minlength=m + 1) - np.bincount(
            ks, i, minlength=m + 1)
        jac = _line_stamps(kd, ks, m + 1, di_dd, di_ds)[:m, :m]
        jac[np.diag_indices(m)] += G_FLOAT
        return f[:m] + G_FLOAT * u, jac

    u = np.zeros(m)
    f, jac = assemble(u)
    res = np.max(np.abs(f))
    for it in range(1, MAX_NEWTON_ITER + 1):
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step = np.full(m, np.nan)
        if not np.isfinite(step).all():
            raise ConvergenceError(
                f"read predictor met a singular Jacobian at iteration {it}")
        if np.max(np.abs(step)) <= PREDICTOR_GRID:
            break
        scale = 1.0
        while scale >= 1e-8:
            f_new, jac_new = assemble(u + scale * step)
            res_new = np.max(np.abs(f_new))
            if res_new < res:
                break
            scale *= DAMPING
        else:
            break   # stalled: start from the potentials reached
        u, f, jac, res = u + scale * step, f_new, jac_new, res_new
    pot[floating] = np.round(u / PREDICTOR_GRID) * PREDICTOR_GRID
    return pot


def solve_read(array: ArrayState, plan: BiasPlan) -> ReadResult:
    """Damped-Newton DC solve of the read network.

    The network is numbered line-major (`_layout`): the nodes of each line
    form a chain of wire segments, driven at its first node or, when
    floating, tied to ground there by G_FLOAT.  Per solve only the drives
    (`plan.sl + plan.bl`), the head conductances and the start come from the
    plan.  Each Newton assembly evaluates every cell's device terms and forms
    the residual: in one `device.drain_current_and_derivs_array` call on the
    node-voltage arrays from VECTOR_CELLS cells on, else by one scalar
    `device.drain_current_and_derivs` call per cell, which keeps small
    reads' bytes and is cheaper there.  Each Newton step is solved by
    `_newton_step`'s two-level cycles, one unknown per line and then a
    tridiagonal solve of every line, from the derivatives of the last
    accepted assembly.

    Every node starts at its line's drive, a floating line at 0 V.  Its
    wires then carry nothing, and a floating line is out of KCL balance
    exactly when one of its cells joins it to a line driven away from 0 V,
    as in a C-AND single-cell read, whose floating bit lines meet the
    driven source line through the selected row's cells.  Newton would then
    climb the exponential device current one `v_tilde` per step from 0 V;
    the start is instead the line potentials of `_line_potentials`, from
    which a disturb read converges in one iteration.  A C-AND full-row read
    and every AND read float their lines among 0 V lines, so they start
    from the drives.

    Raises ConvergenceError if the max node residual does not reach
    RESIDUAL_TOL within MAX_NEWTON_ITER iterations, if no damped step lowers
    it (a stalled line search), or if the residual or a Newton step, of the
    fine solve or the predictor, is not finite (a singular Jacobian).
    """
    _check_plan(array, plan)
    lay = _layout(array.topology, array.rows, array.cols, array.parasitics)
    line_d, line_s = lay.line_of[lay.bl], lay.line_of[lay.sl]
    drive = np.array(plan.sl + plan.bl, dtype=float)
    floating = np.isnan(drive)
    drive[floating] = 0.0
    g_tie = np.where(floating, G_FLOAT, lay.g_head)
    gates = np.repeat(np.array(plan.wl, dtype=float), array.cols)
    vts = array.vts().ravel()
    dev = array.dev

    def assemble(vv: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The node residual at vv, and every cell's (di_dd, di_ds)."""
        vd, vs = vv[lay.bl], vv[lay.sl]
        if vts.size >= VECTOR_CELLS:
            i, di_dd, di_ds = device.drain_current_and_derivs_array(
                dev, gates, vd, vs, vts)
        else:
            i, di_dd, di_ds = np.array(
                [device.drain_current_and_derivs(dev, *cell) for cell in zip(
                    gates.tolist(), vd.tolist(), vs.tolist(), vts.tolist())]).T
        f = _wire_currents(lay, vv)
        f[lay.heads] += g_tie * (vv[lay.heads] - drive)
        f[lay.bl] += i
        f[lay.sl] -= i
        return f, (di_dd, di_ds)

    away = drive != 0.0
    if (floating[line_d] & away[line_s] | floating[line_s] & away[line_d]).any():
        v = _line_potentials(lay, drive, floating, dev, gates, vts)[lay.line_of]
    else:
        v = drive[lay.line_of]
    f, derivs = assemble(v)
    res = np.abs(f).max()
    it = 0
    while res > RESIDUAL_TOL and it < MAX_NEWTON_ITER:
        it += 1
        # derivs are always those at v: the last assembly is the accepted one
        step = _newton_step(lay, g_tie, line_d, line_s, *derivs, -f)
        if not np.isfinite(step).all():
            raise ConvergenceError(
                f"read solve met a singular Jacobian at iteration {it}")
        scale = 1.0
        while True:
            v_new = v + scale * step
            f_new, derivs_new = assemble(v_new)
            res_new = np.abs(f_new).max()
            if res_new < res:
                break
            if scale < 1e-8:
                raise ConvergenceError(
                    f"line search stalled at iteration {it}")
            scale *= DAMPING
        v, f, derivs, res = v_new, f_new, derivs_new, res_new
    if not res <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"read solve stalled at residual {res:.3e} A after {it} iterations")

    # sensed current: what flows out of each selected sense line driver, from
    # row 0's cell c, the bit line's first node
    col_currents = {c: (v[lay.bl[c]] - plan.bl[c]) / lay.r_bl
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
    see ROADMAP item 5.)
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
