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
    line of the run.  `n_sl` counts the source lines, lines 0 to n_sl - 1.
    """

    n_sl: int
    sl: np.ndarray
    bl: np.ndarray
    partner: np.ndarray
    line_of: np.ndarray
    heads: np.ndarray
    g_head: np.ndarray
    g_prev: np.ndarray
    blocks: tuple
    r_bl: float


@functools.lru_cache(maxsize=1)
def _layout(topology: Topology, rows: int, cols: int,
            par: Parasitics) -> _Layout:
    """The line-major read network of one array shape, from index arithmetic
    on the node ids, as read-only arrays.  The last shape's layout is kept,
    which spares the many equal reads of a Monte Carlo run rebuilding it;
    keeping more would hold large layouts alive."""
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
    for a in (sl, bl, partner, line_of, heads, g_head, g_prev):
        a.flags.writeable = False
    if len_sl == rows:
        runs = ((0, 2 * cells, n_sl + cols, rows),)
    else:
        runs = ((0, cells, n_sl, len_sl), (cells, 2 * cells, cols, rows))
    blocks = tuple((start, stop, g_prev[start:stop].reshape(lines, length).T)
                   for start, stop, lines, length in runs)
    return _Layout(n_sl, sl, bl, partner, line_of, heads, g_head, g_prev,
                   blocks, r_bl)


def _wire_currents(lay: _Layout, v: np.ndarray) -> np.ndarray:
    """The current each node sends into its line's wire segments at v."""
    # q[j]: the current node j sends back to node j - 1
    q = np.zeros(v.size + 1)
    q[1:-1] = lay.g_prev[1:] * (v[1:] - v[:-1])
    return q[:-1] - q[1:]


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


def _coarse_solver(lay: _Layout, g_tie: np.ndarray, line_d: np.ndarray,
                   line_s: np.ndarray, di_dd: np.ndarray, di_ds: np.ndarray,
                   held: np.ndarray | None = None):
    """A solve of the coarse matrix, one unknown per line: the cells'
    derivative stamps summed by line plus the ties g_tie on its diagonal.
    A line in `held` stays at its right-hand side, which must be 0: it gets
    a unit diagonal, and a cell on it adds only to its other line's diagonal.

    No cell joins two lines of one family, so the matrix's source-line and
    bit-line blocks are diagonal.  The source lines are eliminated onto the
    bit lines here, once; each solve then solves the bit lines' Schur
    complement and finds the source lines by one division.  Each column of
    the matrix sums to at least its tie, with a positive diagonal and no
    positive entry off it: it is column diagonally dominant, so this
    elimination is stable without pivoting (G. H. Golub and C. F. Van Loan,
    Matrix Computations, sec. 3.4).  A zero pivot or a singular Schur
    complement gives a non-finite solution; callers keep numpy's
    floating-point warnings off around both the build and the solves.
    """
    n_sl = lay.n_sl
    # the diagonals a_s and a_d, and the couplings c[d, s] = sum di_ds and
    # -c[s, d] = sum di_dd, bit line d and source line s counted from 0
    d = line_d - n_sl
    a_s = g_tie[:n_sl] - np.bincount(line_s, di_ds, minlength=n_sl)
    a_d = g_tie[n_sl:] + np.bincount(d, di_dd, minlength=g_tie.size - n_sl)
    if held is not None:
        a_s[held[:n_sl]], a_d[held[n_sl:]] = 1.0, 1.0
        di_dd, di_ds = np.where(held[line_d] | held[line_s], 0, (di_dd, di_ds))
    slot, size = d * n_sl + line_s, a_d.size * n_sl
    w = np.bincount(slot, di_ds, minlength=size).reshape(a_d.size, n_sl)
    c_dd = np.bincount(slot, di_dd, minlength=size).reshape(a_d.size, n_sl)
    w /= a_s   # c[d, s] / a_s
    schur = w @ c_dd.T
    schur.flat[::a_d.size + 1] += a_d

    def solve(b: np.ndarray) -> np.ndarray:
        try:
            x_d = np.linalg.solve(schur, b[n_sl:] - w @ b[:n_sl])
        except np.linalg.LinAlgError:
            return np.full_like(b, np.nan)
        return np.concatenate([(b[:n_sl] + x_d @ c_dd) / a_s, x_d])

    return solve


def _newton_step(lay: _Layout, g_tie: np.ndarray, line_d: np.ndarray,
                 line_s: np.ndarray, di_dd: np.ndarray, di_ds: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """x with J x = rhs, for the read Jacobian J of the cells' derivatives
    (di_dd, di_ds), the lines (line_d, line_s) each cell joins and the line
    heads' conductances g_tie.

    Each cycle of a two-level solver (line aggregation: P. Vaněk, J. Mandel and
    M. Brezina, Computing 56, 1996) first corrects x by one unknown per line,
    the residual summed over each line solved against the cells' stamps summed
    by line plus the head conductances (`_coarse_solver`, by block elimination
    onto the bit lines), then solves every line's tridiagonal block against the
    residual left.  A wire segment (about 0.24 S) outweighs the cells on it (at
    most about 4e-7 S) by six decades, so what a line solve leaves is nearly
    constant along each line, which the next coarse correction removes.  Cycles
    repeat until the residual falls below 1e-3 RESIDUAL_TOL or stops halving.
    A singular coarse or line matrix gives a non-finite x.
    """
    shunt, cross = np.empty_like(rhs), np.empty_like(rhs)
    shunt[lay.bl], shunt[lay.sl] = di_dd, -di_ds
    cross[lay.bl], cross[lay.sl] = di_ds, -di_dd
    shunt[lay.heads] += g_tie
    x, r, res = np.zeros_like(rhs), rhs, np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coarse = _coarse_solver(lay, g_tie, line_d, line_s, di_dd, di_ds)
        lines = _factor_lines(lay, shunt)
        while True:
            b = np.bincount(lay.line_of, r, minlength=g_tie.size)
            dx = coarse(b)[lay.line_of]
            # a correction constant along each line sends nothing into wires
            r = r - shunt * dx - cross * dx[lay.partner]
            x += dx + _solve_lines(lines, r)
            r = rhs - _wire_currents(lay, x) - shunt * x - cross * x[lay.partner]
            new = np.abs(r).max()
            if not (new > 1e-3 * RESIDUAL_TOL and new <= 0.5 * res):
                return x
            res = new


#: grid the predicted line potentials are rounded to, V.  The predictor
#: rounds after its last step, so neither its start, its linear algebra nor
#: an ulp of numpy's exp and log1p (which may differ from math's and between
#: CPUs) reaches the fine solve.  From VECTOR_CELLS cells on the fine solve
#: also uses numpy's exp, log1p and expm1, so there such an ulp may move the
#: currents (by at most 3.3e-16 relative on random 256-row C-AND reads)
PREDICTOR_GRID = 2.0 ** -30


def _predictor_start(line_d: np.ndarray, line_s: np.ndarray,
                     drive: np.ndarray, floating: np.ndarray,
                     gates: np.ndarray, vts: np.ndarray) -> np.ndarray:
    """The drives, with each floating line at the drive of the driven line
    its most strongly gated cell (highest gate - vt) joins it to, else 0 V."""
    pot = np.where(floating, 0.0, drive)
    for near, far in ((line_d, line_s), (line_s, line_d)):
        tie = np.flatnonzero(floating[near] & ~floating[far])
        # by line, then by gate - vt: each line's last tie is its strongest
        tie = tie[np.lexsort(((gates - vts)[tie], near[tie]))]
        last = tie[np.diff(near[tie], append=-1) != 0]
        pot[near[last]] = drive[far[last]]
    return pot


def _line_potentials(lay: _Layout, drive: np.ndarray, floating: np.ndarray,
                     dev: FeFetParams, gates: np.ndarray,
                     vts: np.ndarray) -> np.ndarray:
    """Each line's potential with every wire shorted: a driven line at its
    drive, a floating line at the root of its KCL, one unknown per line (the
    coarse level of nested iteration: A. Brandt, Math. Comp. 31, 1977).

    Damped Newton on the numpy device terms from `_predictor_start`, each
    step by `_coarse_solver` with the driven lines held, runs until a step
    moves no potential by more than PREDICTOR_GRID, applies it and rounds
    to the grid.  A non-finite step raises ConvergenceError; a stalled line
    search or the last iteration returns the potentials reached.
    """
    line_d, line_s = lay.line_of[lay.bl], lay.line_of[lay.sl]

    def assemble(pot: np.ndarray) -> tuple[np.ndarray, list, float]:
        # the floating lines' KCL residual, 0 on the driven lines
        i, *derivs = device.drain_current_and_derivs_array(
            dev, gates, pot[line_d], pot[line_s], vts)
        f = np.bincount(line_d, i, minlength=pot.size) - np.bincount(
            line_s, i, minlength=pot.size)
        f = np.where(floating, f + G_FLOAT * pot, 0.0)
        return f, derivs, np.abs(f).max()

    pot = _predictor_start(line_d, line_s, drive, floating, gates, vts)
    f, derivs, res = assemble(pot)
    for it in range(1, MAX_NEWTON_ITER + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = _coarse_solver(lay, G_FLOAT * floating, line_d, line_s,
                                  *derivs, held=~floating)(-f)
        if not np.isfinite(step).all():
            raise ConvergenceError(
                f"read predictor met a singular Jacobian at iteration {it}")
        if np.abs(step).max() <= PREDICTOR_GRID:
            pot = pot + step
            break
        scale = 1.0
        while scale >= 1e-8:
            f_new, derivs_new, res_new = assemble(pot + scale * step)
            if res_new < res:
                break
            scale *= DAMPING
        else:
            break   # stalled: start from the potentials reached
        pot, f, derivs, res = pot + scale * step, f_new, derivs_new, res_new
    return np.where(floating, np.round(pot / PREDICTOR_GRID) * PREDICTOR_GRID,
                    drive)


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
                       v_gb: float, n_pulses: int,
                       duration: float) -> BranchState:
    """Repeatedly apply a half-select pulse; return the final state."""
    for _ in range(n_pulses):
        state = device.write_cell(dev, fe, state, v_gb, duration)
    return state
