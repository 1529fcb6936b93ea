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
#: (`device.drain_current_and_derivs_array`), not one scalar call per cell:
#: below about 32 cells numpy's per-call overhead costs more than the scalar
#: loop it replaces (timed assemblies in CHANGES.md)
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
    distinct (state, gate voltage) pair once, and two rows with equal
    entries under one word-line voltage evolve identically, which lets it
    resolve each distinct row once.  A write swaps in a new table and index
    rather than changing either, so a copy shares both.
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

    Rows with equal word-line voltage and equal table entries see equal
    gate voltages, so only the first row of each such key is resolved, and
    a repeated row takes the resolved row whole.  In a resolved row the
    scalar write runs for each (table entry, gate voltage) pair not yet
    written in the phase, so each pair is pulsed once, in row-major order
    of its first cell.  Equal results share one entry of the new table.
    The new table and index replace the old only once every write has
    succeeded, so a write that raises leaves the array as it was.
    """
    _check_plan(array, plan)
    body = biasing.write_bodies(plan)
    table: dict[BranchState, int] = {}
    entry: dict[tuple[int, float], int] = {}
    resolved: dict[tuple, list[int]] = {}
    rows = []
    for w, cells in zip(plan.wl, array.index.tolist()):
        key = (w, *cells)
        row = resolved.get(key)
        if row is None:
            row = resolved[key] = []
            for i, b in zip(cells, body):
                v_gb = w - b
                e = entry.get((i, v_gb))
                if e is None:
                    new = device.write_cell(array.dev, array.fe,
                                            array.states[i], v_gb, duration)
                    e = entry[i, v_gb] = table.setdefault(new, len(table))
                row.append(e)
        rows.append(row)
    array._swap(tuple(table), np.array(rows, dtype=np.intp))


@dataclass
class ReadResult:
    col_currents: dict[int, float]   # selected column -> sensed current, A
    iterations: int
    max_residual: float

    def current(self, col: int) -> float:
        return self.col_currents[col]


class _Layout(NamedTuple):
    """The read network of one array shape, held position-major: a node
    array is one flat buffer of `blocks` (nodes, lines, shape, segment
    conductances), a C-contiguous (length, lines) array per run of equally
    long lines, row j holding node j of every line from its driven end,
    where its driver or floating tie joins through one more `g_line`.  The
    `n_sl` source lines precede the bit lines, in plan-tuple order.  A C-AND
    (`cand`) source line r holds cell (r, j) at [j, r], a bit line c cell
    (j, c) at [j, c], and in AND both at [j, c]: a cell's other terminal is
    at the other family's transposed (C-AND) or same (AND) position."""

    n_sl: int
    cand: bool
    blocks: tuple
    g_line: np.ndarray
    r_bl: float


@functools.lru_cache(maxsize=1)
def _layout(topology: Topology, rows: int, cols: int,
            par: Parasitics) -> _Layout:
    """The read network of one array shape; the last shape's is kept, which
    spares the many equal small reads of a Monte Carlo run rebuilding it;
    keeping more would hold large layouts alive."""
    r_bl, cand = par.seg_resistance(PITCH_Y), topology is Topology.CAND
    n_sl, len_sl, r_sl = ((rows, cols, par.seg_resistance(PITCH_X)) if cand
                          else (cols, rows, r_bl))
    cells, lines = rows * cols, n_sl + cols
    g_line = np.repeat([1.0 / r_sl, 1.0 / r_bl], [n_sl, cols])
    g_line.flags.writeable = False
    runs = (((slice(0, 2 * cells), slice(0, lines), (rows, lines)),)
            if len_sl == rows else
            ((slice(0, cells), slice(0, n_sl), (len_sl, n_sl)),
             (slice(cells, 2 * cells), slice(n_sl, lines), (rows, cols))))
    return _Layout(n_sl, cand, tuple((*run, g_line[run[1]]) for run in runs),
                   g_line, r_bl)


def _terminals(lay: _Layout, a: np.ndarray) -> tuple:
    """The node array a at the cells' source-side and bit-side nodes, each a
    rows x cols grid (C-AND's source lines' block transposed)."""
    if len(lay.blocks) == 1:
        block = a.reshape(lay.blocks[0][2])
        s, d = block[:, :lay.n_sl], block[:, lay.n_sl:]
    else:
        s, d = (a[nodes].reshape(shape) for nodes, _, shape, _ in lay.blocks)
    return (s.T if lay.cand else s), d


def _at_cells(lay: _Layout, per_line: np.ndarray) -> tuple:
    """A per-line array at each cell's source line and bit line, broadcast
    to the rows x cols cell grid."""
    src = per_line[:lay.n_sl]
    return (src[:, None] if lay.cand else src), per_line[lay.n_sl:]


def _join(lay: _Layout, s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The node array holding the grids s and d at the cells' terminals."""
    s = s.T if lay.cand else s
    return (np.concatenate((s, d), axis=1).ravel() if len(lay.blocks) == 1
            else np.concatenate((s, d), axis=None))


def _on_nodes(lay: _Layout, per_line: np.ndarray) -> np.ndarray:
    """The node array holding each line's value at all its nodes."""
    rep = [per_line[None, lines].repeat(length, 0)
           for _, lines, (length, _), _ in lay.blocks]
    return rep[0].ravel() if len(rep) == 1 else np.concatenate(rep, axis=None)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Each column of a (length, lines) array summed from row 0 on, one row
    at a time as np.bincount adds: numpy would sum a lone column pairwise."""
    return np.add.reduce(a) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def _wire_currents(lay: _Layout, v: np.ndarray, g_tie: np.ndarray | None = None,
                   drive: np.ndarray | None = None) -> np.ndarray:
    """The current each node sends into its line's wire segments at v and,
    given the ties g_tie, each line's head into its tie to its drive."""
    f = np.empty_like(v)
    for nodes, lines, (length, n), g in lay.blocks:
        vb = v[nodes].reshape(length, n)
        # q[j]: the current node j sends back to node j - 1 or to its tie
        q = np.zeros((length + 1, n))
        np.multiply(g, vb[1:] - vb[:-1], out=q[1:-1])
        if g_tie is not None:
            np.multiply(g_tie[lines], vb[0] - drive[lines], out=q[0])
        q = q.ravel()
        np.subtract(q[:-n], q[n:], out=f[nodes])
    return f


def _factor_lines(lay: _Layout, shunt: np.ndarray) -> list:
    """Each line's tridiagonal block (segments plus the per-node `shunt`)
    eliminated from the far end: a node's pivot is its segment towards the
    head plus y, its shunt plus the next node's y in series with the segment
    between, so no pivot cancels, however weakly a floating line is tied.
    Per block: nodes, flat reciprocal pivots, segment-to-pivot ratio rows."""
    out = []
    for nodes, _, shape, g in lay.blocks:
        y = shunt[nodes].reshape(shape).copy()
        for prev, row in zip(y[-2::-1], y[:0:-1]):
            prev += g * row / (g + row)
        y[1:] += g
        inv = np.divide(1.0, y, out=y)
        out.append((nodes, inv.ravel(), list(g * inv)))
    return out


def _solve_lines(factors: list, r: np.ndarray) -> np.ndarray:
    """Every line's tridiagonal block solved in place at right-hand side r
    (Thomas' algorithm, vectorised across the lines of each block)."""
    for nodes, inv, ratio in factors:
        rows = list(r[nodes].reshape(len(ratio), -1))
        for prev, row, q in zip(rows[-2::-1], rows[:0:-1], ratio[:0:-1]):
            prev += q * row
        r[nodes] *= inv
        for prev, row, q in zip(rows, rows[1:], ratio[1:]):
            row += q * prev
    return r


def _coarse_solver(lay: _Layout, g_tie: np.ndarray, di_dd: np.ndarray,
                   di_ds: np.ndarray, held: np.ndarray | None = None):
    """A solve of the coarse matrix, one unknown per line: the cells'
    derivative stamps (grids di_dd, di_ds) summed by line, plus the ties
    g_tie on its diagonal; a line in `held` gets a unit diagonal and must
    have a zero right-hand side, and a cell on it adds only to its other
    line's diagonal.  No cell joins two lines of one family, so the source
    lines are eliminated onto the bit lines once and each solve solves the
    bit lines' Schur complement.  Each column sums to at least its tie, with
    a positive diagonal and no positive entry off it: the matrix is column
    diagonally dominant, so this needs no pivoting (G. H. Golub and C. F.
    Van Loan, Matrix Computations, sec. 3.4).  A zero pivot or a singular
    Schur complement gives a non-finite solution; callers keep numpy's
    warnings off."""
    n_sl = lay.n_sl
    ds = di_ds.T.copy() if lay.cand else di_ds
    sum_ds, sum_dd = _column_sums(ds), _column_sums(di_dd)
    a_s, a_d = g_tie[:n_sl] - sum_ds, g_tie[n_sl:] + sum_dd
    # c[d, s] = sum di_ds and -c[s, d] = sum di_dd over the cells joining
    # bit line d to source line s: C-AND's one cell (s, d), AND's column d = s
    w, c_dd = ((ds, di_dd.T.copy()) if lay.cand
               else (np.diag(sum_ds), np.diag(sum_dd)))
    if held is not None:
        a_s[held[:n_sl]], a_d[held[n_sl:]] = 1.0, 1.0
        w, c_dd = np.where(held[n_sl:, None] | held[:n_sl], 0.0, (w, c_dd))
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


def _newton_step(lay: _Layout, g_tie: np.ndarray, di_dd: np.ndarray,
                 di_ds: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with J x = rhs, for the read Jacobian J of the cells' derivative
    grids (di_dd, di_ds) and the heads' ties g_tie, on `_layout`'s nodes.
    Each cycle of a two-level solver (line aggregation: P. Vaněk, J. Mandel
    and M. Brezina, Computing 56, 1996) corrects x by one unknown per line
    (`_coarse_solver` on the residual's line sums), then by z, each line's
    block T (wires, shunt) solved in place, leaving the residual -C z, the
    cells' coupling across lines.  Its roundoff drift from rhs - J x can cost
    an iteration, never pass an unconverged read: `solve_read` tests the true
    residual.  Cycles repeat until the residual is below 1e-3 RESIDUAL_TOL or
    stops halving; a singular coarse or line matrix gives a non-finite x."""
    neg_ds, x, out = -di_ds, np.zeros_like(rhs), np.empty_like(rhs)
    # each node's own stamp, and the one it takes from its cell's other node
    shunt = _join(lay, neg_ds, di_dd)
    for nodes, lines, shape, _ in lay.blocks:
        shunt[nodes][:shape[1]] += g_tie[lines]
    out_s, out_d = _terminals(lay, out)

    def coupled(y_s: np.ndarray, y_d: np.ndarray) -> np.ndarray:
        np.multiply(di_dd, y_d, out=out_s)   # -C y, y at each cell's terminals
        np.multiply(neg_ds, y_s, out=out_d)
        return out

    r, res = rhs, np.inf
    coarse = _coarse_solver(lay, g_tie, di_dd, di_ds)
    lines = _factor_lines(lay, shunt)
    while True:
        dx = coarse(np.concatenate([_column_sums(r[nodes].reshape(
            shape)) for nodes, _, shape, _ in lay.blocks]))
        dx, dx_cells = _on_nodes(lay, dx), _at_cells(lay, dx)
        # no wire carries a per-line dx; r, maybe `out`, is read first
        z = _solve_lines(lines, r - shunt * dx + coupled(*dx_cells))
        x += dx + z
        r = coupled(*_terminals(lay, z))
        new = np.abs(r).max()
        if not (new > 1e-3 * RESIDUAL_TOL and new <= 0.5 * res):
            return x
        res = new


def _damped_newton(assemble, x: np.ndarray, what: str, res_tol: float,
                   step_tol: float) -> tuple:
    """Damped Newton from x, the one loop of the predictor and the read
    solve.  `assemble(x)` gives the residual f at x and a solve of its
    Jacobian, run on -f with numpy's warnings off.  A step moving no entry by
    more than step_tol ends the loop applied whole; else the first of the
    scales 1, DAMPING, ... down to the first under 1e-8 that lowers max |f|
    is applied (backtracking: J. E. Dennis and R. B. Schnabel, 1983, ch. 6).
    Returns (x, iterations, max |f|, stalled) once max |f| <= res_tol, after
    MAX_NEWTON_ITER iterations, or, stalled, when no scale lowers it.  A
    first residual or a step that is not finite raises ConvergenceError."""
    f, solve = assemble(x)
    res, it = np.abs(f).max(), 0
    if not np.isfinite(res):
        raise ConvergenceError(
            f"{what} stalled at residual {res:.3e} A after {it} iterations")
    while res > res_tol and it < MAX_NEWTON_ITER:
        it += 1
        # solve is always the one at x: the last assembly is the accepted one
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = solve(-f)
        if not np.isfinite(step).all():
            raise ConvergenceError(
                f"{what} met a singular Jacobian at iteration {it}")
        if np.abs(step).max() <= step_tol:
            return x + step, it, res, False
        scale = 1.0
        while True:
            x_new = x + scale * step
            f_new, solve_new = assemble(x_new)
            res_new = np.abs(f_new).max()
            if res_new < res:
                break
            if scale < 1e-8:
                return x, it, res, True
            scale *= DAMPING
        x, f, solve, res = x_new, f_new, solve_new, res_new
    return x, it, res, False


#: grid the predicted line potentials are rounded to after the last step,
#: V, so that neither the start, the linear algebra nor an ulp of numpy's
#: exp and log1p (which may differ from math's and between CPUs) reaches the
#: fine solve; from VECTOR_CELLS cells on the fine solve's own numpy device
#: may move the currents (by at most 3.3e-16 relative, 256-row C-AND reads)
PREDICTOR_GRID = 2.0 ** -30


def _predictor_start(lay: _Layout, drive: np.ndarray, floating: np.ndarray,
                     strength: np.ndarray) -> np.ndarray:
    """The drives, with each floating line at the drive of the driven line
    its most strongly gated cell (highest `strength`, gate - vt on the cell
    grid; of equals the farthest from its head) joins it to, else 0 V."""
    pot = np.where(floating, 0.0, drive)
    s, d, across = slice(0, lay.n_sl), slice(lay.n_sl, None), strength.T
    for near, far, grid in ((d, s, strength), (s, d, across if lay.cand
                                                else strength)):
        # grid[j, k]: cell j of line k, joining far line j (C-AND) or k (AND)
        far_line = np.broadcast_to(np.arange(len(grid))[:, None] if lay.cand
                                   else np.arange(grid.shape[1]), grid.shape)
        tie = floating[near] & ~floating[far][far_line]
        best = len(grid) - 1 - np.argmax(np.where(tie, grid, -np.inf)[::-1], 0)
        k = np.flatnonzero(tie.any(axis=0))
        pot[near][k] = drive[far][far_line[best[k], k]]
    return pot


def _line_potentials(lay: _Layout, drive: np.ndarray, floating: np.ndarray,
                     dev: FeFetParams, gates: np.ndarray,
                     vts: np.ndarray) -> np.ndarray:
    """Each line's potential with every wire shorted, a floating line's at
    the root of its KCL (the coarse level of nested iteration: A. Brandt,
    Math. Comp. 31, 1977): `_damped_newton` on the numpy device from
    `_predictor_start`, each step by `_coarse_solver` with the driven lines
    held, to a step of at most PREDICTOR_GRID, then rounded to that grid.  A
    stall or MAX_NEWTON_ITER iterations leave the potentials reached."""
    g_tie, held = G_FLOAT * floating, ~floating

    def assemble(pot: np.ndarray) -> tuple:
        # the floating lines' KCL residual, 0 on the driven lines
        v_s, v_d = _at_cells(lay, pot)
        i, *derivs = device.drain_current_and_derivs_array(
            dev, gates, v_d, v_s, vts)
        f = np.concatenate([-_column_sums(np.ascontiguousarray(
            i.T if lay.cand else i)), _column_sums(i)])
        f = np.where(floating, f + G_FLOAT * pot, 0.0)
        return f, lambda b: _coarse_solver(lay, g_tie, *derivs, held=held)(b)

    pot, *_ = _damped_newton(
        assemble, _predictor_start(lay, drive, floating, gates - vts),
        "read predictor", 0.0, PREDICTOR_GRID)
    return np.where(floating, np.round(pot / PREDICTOR_GRID) * PREDICTOR_GRID,
                    drive)


def solve_read(array: ArrayState, plan: BiasPlan) -> ReadResult:
    """Damped-Newton DC solve of the read network.

    On `_layout`'s network only the drives (`plan.sl + plan.bl`), the ties
    (G_FLOAT at a floating line's head) and the start come from the plan.
    Each assembly evaluates every cell's device terms on the rows x cols
    grid of its terminals (`_terminals`), from VECTOR_CELLS cells on in one
    `device.drain_current_and_derivs_array` call, else by one scalar
    `device.drain_current_and_derivs` call per cell, which keeps small
    reads' bytes and is cheaper there.  `_damped_newton` steps by
    `_newton_step` and raises ConvergenceError as it says; so does a read
    whose fine solve stalls or ends above RESIDUAL_TOL.

    The start holds each line at one potential, its drive or 0 V if
    floating, so no wire carries current, and a floating line is out of KCL
    balance exactly when a cell joins it to a line driven away from 0 V: in
    a C-AND single-cell or partial-row read, each unselected bit line floats
    on a cell of the driven source line.  Newton would then climb the device
    current one `v_tilde` per step; such a read starts instead from
    `_line_potentials`, from which a disturb read converges in one
    iteration.  A C-AND full-row read and every AND read float their lines
    among 0 V lines, so they start from the drives.
    """
    _check_plan(array, plan)
    lay = _layout(array.topology, array.rows, array.cols, array.parasitics)
    drive = np.array(plan.sl + plan.bl, dtype=float)
    floating = np.isnan(drive)
    drive[floating] = 0.0
    g_tie = np.where(floating, G_FLOAT, lay.g_line)
    gates = np.array(plan.wl, dtype=float)[:, None]
    vts, dev = array.vts(), array.dev

    def assemble(vv: np.ndarray) -> tuple:
        """The node residual at vv, and `_newton_step` at vv's Jacobian."""
        v_s, v_d = _terminals(lay, vv)
        # C-contiguous device grids keep `_column_sums`' line sums sequential:
        # numpy would sum F-ordered ones (C-AND's transposed v_s) pairwise
        if vts.size >= VECTOR_CELLS:
            i, di_dd, di_ds = device.drain_current_and_derivs_array(
                dev, gates, v_d, np.ascontiguousarray(v_s), vts)
        else:
            i, di_dd, di_ds = np.array([
                device.drain_current_and_derivs(dev, g, d, s, t)
                for g, rd, rs, rt in zip(gates.ravel().tolist(), v_d.tolist(),
                                         v_s.tolist(), vts.tolist())
                for d, s, t in zip(rd, rs, rt)]).T.copy().reshape(3, *vts.shape)
        return (_wire_currents(lay, vv, g_tie, drive) + _join(lay, -i, i),
                functools.partial(_newton_step, lay, g_tie, di_dd, di_ds))

    (float_s, float_d), (away_s, away_d) = (_at_cells(lay, a)
                                            for a in (floating, drive != 0.0))
    start = (_line_potentials(lay, drive, floating, dev, gates, vts)
             if (float_d & away_s | float_s & away_d).any() else drive)
    v, it, res, stalled = _damped_newton(assemble, _on_nodes(lay, start),
                                         "read solve", RESIDUAL_TOL, 0.0)
    if stalled:
        raise ConvergenceError(f"line search stalled at iteration {it}")
    if res > RESIDUAL_TOL:
        raise ConvergenceError(
            f"read solve stalled at residual {res:.3e} A after {it} iterations")

    # sensed: the current out of each selected bit line's driver, at its head
    heads = _terminals(lay, v)[1][0]
    return ReadResult({c: (heads[c] - plan.bl[c]) / lay.r_bl
                       for c in plan.sel_cols}, it, float(res))


def read_cells(array: ArrayState, sel_row: int, sel_cols,
               v_wl: float, v_sl: float) -> ReadResult:
    """Read row `sel_row` at columns `sel_cols`: each column's sensed current.

    A C-AND read solves the whole array, since each of its lines meets every
    line of the other family.  An AND read solves its read columns alone.
    Each AND column owns its source line and bit line, and no cell joins two
    columns; the read grounds every source line and ties every unread bit
    line to ground.  An unread column's cells then see vds = 0 and carry
    exactly nothing, so its residual and every Newton step on it are exactly
    0, and the coarse Schur complement is diagonal, so the read columns'
    arithmetic is the same either way: on the same device path (VECTOR_CELLS
    counts the cells solved) the currents, `iterations` and `max_residual`
    equal those of the full array's solve.  AND senses at the driven bit
    line, into which the current flows, so its sign is flipped.
    """
    plan = biasing.read_bias(array.topology, array.rows, array.cols, sel_row,
                             sel_cols, v_wl, v_sl)
    if array.topology is Topology.CAND:
        return solve_read(array, plan)
    keep = plan.sel_cols
    part = replace(array, cols=len(keep))
    part._swap(array.states, array.index[:, list(keep)])
    res = solve_read(part, biasing.read_bias(
        Topology.AND, array.rows, len(keep), sel_row, range(len(keep)),
        v_wl, v_sl))
    res.col_currents = {c: -res.col_currents[k] for k, c in enumerate(keep)}
    return res


def column_readout_with_leak(dev: FeFetParams, topology: Topology,
                             rows: int, cols: int,
                             vt_selected: float, vt_unselected: float,
                             v_wl: float, v_sl: float) -> tuple[float, float]:
    """Scalable worst-case single-column read: (cell current, leak current).

    AND: every unselected cell on the bit line sees the full read voltage,
    so leakage is the sum of their off-state currents.  On square worst
    cases (every cell '1' but the read '0' at (0, 0)) the network's read
    over this model is 1.000000 at 16 and 256 rows, 0.999896 at 1024 and
    0.999585 at 2048, where the stored '0' reads 4.54e-9 and 9.08e-9 A,
    above the default i_ref of 2e-9 A (tests/test_engine.py::
    test_column_model_cross_checks_full_solver_and).  CAND: leakage must
    thread series paths of an on-device into a floating column followed by
    two gate-closed devices; the path aggregate is composed from the
    series/parallel resistance estimate with closed channels taken at their
    gate-closed floor conductance (g_min) and the on leg linearized at the
    read point.  (A DC nodal solve of the unselected mesh instead lets the
    floating lines drift to the rail and the last closed device carry its
    full gate-grounded subthreshold current, which erases the isolation the
    floating lines provide on read time scales.  That gap is open, see
    ROADMAP item 3.)
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
