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
from .device import ConvergenceError, FeFetParams
from .ferro import BranchState, FerroParams

#: conductance tying a floating line to ground, S
G_FLOAT = 1e-15

#: read solver targets: each node's residual floor, and the share of the
#: sum of its currents' magnitudes it may add after a step (`solve_read`)
RESIDUAL_TOL = 1e-13       # A
RESIDUAL_RELTOL = 1e-6
MAX_NEWTON_ITER = 200
DAMPING = 0.5

#: cells from which a read evaluates its device terms in one numpy call
#: (`device.drain_current_and_derivs_array`), not one scalar call per cell:
#: below about 32 cells numpy's per-call overhead costs more than the scalar
#: loop it replaces (timed assemblies in CHANGES.md)
VECTOR_CELLS = 32

#: cells a batch of reads solves in lockstep at most (`read_batch`): the numpy
#: device costs about 35 us a call plus about 30 ns a cell, and a batch pays
#: the predictor's fixed cost once and runs as long as its slowest network,
#: so at 11520 cells the 24 x 24 disturb matrix's 20 distinct networks go in
#: one batch; a batch holds about 220 bytes a cell at its peak (2508 KiB for
#: twenty 24 x 24 single-cell reads, 637 KiB for five, tracemalloc), which a
#: process's peak memory pays: the 24 x 24 disturb matrix peaks at 2578 KiB
#: where five networks a batch peaked at 734 KiB
BATCH_CELLS = 11520


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

    `transitions` maps each (state, gate voltage, duration) an array has
    pulsed to the state `device.write_cell` gave, so that an array and its
    copies pulse each once: by the same memory the result depends on nothing
    else but `dev` and `fe`, which an array keeps for life and its copies
    share.  An array built anew, or by `dataclasses.replace`, starts empty.
    """

    topology: Topology
    rows: int
    cols: int
    fe: FerroParams
    dev: FeFetParams
    parasitics: Parasitics
    states: tuple[BranchState, ...] = field(init=False)
    index: np.ndarray = field(init=False)
    transitions: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.transitions = {}
        self._swap((ferro.negative_saturation(self.fe),),
                   np.zeros((self.rows, self.cols), dtype=np.intp))

    @functools.cached_property
    def cells(self) -> list[list[BranchState]]:
        """``cells[r][c]`` is cell (r, c)'s state: a view built once per
        table or index, not to be changed."""
        table = np.fromiter(self.states, object, len(self.states))
        return table[self.index].tolist()

    @functools.cached_property
    def _vts(self) -> np.ndarray:
        p = np.array([st.p for st in self.states])
        vts = device.vt_of_polarization(self.dev, self.fe, p)[self.index]
        vts.flags.writeable = False
        return vts

    def _swap(self, states: tuple[BranchState, ...], index: np.ndarray) -> None:
        """Replace the table and the index, which only this does, and drop
        the `cells` and `vts` views they outdate."""
        index.flags.writeable = False
        self.states, self.index = states, index
        self.__dict__.pop("cells", None)
        self.__dict__.pop("_vts", None)

    def copy(self) -> "ArrayState":
        """An independent array in the same state; it shares the table and
        the index, since neither is ever changed, and the transitions."""
        twin = replace(self)
        twin._swap(self.states, self.index)
        twin.transitions = self.transitions
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
        """Each cell's threshold voltage: a read-only rows x cols grid, built
        once per table and index (a Monte Carlo trial reads each array
        twice)."""
        return self._vts


def _check_plan(array: ArrayState, plan: BiasPlan) -> None:
    if plan.topology is not array.topology:
        raise ValueError("bias plan topology does not match array")
    if (plan.rows, plan.cols) != (array.rows, array.cols):
        raise ValueError("bias plan shape does not match array")


def apply_write(array: ArrayState, plan: BiasPlan, duration: float) -> None:
    """Run one write phase: every cell sees its plan-derived gate voltage.

    Rows with equal word-line voltage and equal table entries see equal
    gate voltages, so only the first row of each such key is resolved, and
    a repeated row takes the resolved row whole.  In a resolved row each
    (table entry, gate voltage) pair not yet met in the phase takes its new
    state from the array's `transitions`, in row-major order of its first
    cell; the scalar write runs only for a (state, gate voltage, duration)
    not found there.  Equal results share one entry of the new table.
    The new table and index replace the old only once every write has
    succeeded, so a write that raises leaves the array as it was.
    """
    _check_plan(array, plan)
    body = biasing.write_bodies(plan)
    memo = array.transitions
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
                    key = (array.states[i], v_gb, duration)
                    new = memo.get(key)
                    if new is None:
                        new = memo[key] = device.write_cell(
                            array.dev, array.fe, *key)
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
    at the other family's transposed (C-AND) or same (AND) position.

    A batch of independent networks of one layout stacks these arrays on
    leading batch axes: node arrays (..., nodes), per-line arrays (...,
    lines) and cell grids (..., rows, cols).  Every helper below acts on
    each network alone, with the bits of the network solved alone."""

    n_sl: int
    sl: tuple   # a per-line array's source lines, batch axes kept
    bl: tuple   # and its bit lines
    cand: bool
    blocks: tuple
    g_line: np.ndarray
    r_bl: float


@functools.lru_cache(maxsize=1)
def _layout(topology: Topology, rows: int, cols: int,
            par: Parasitics) -> _Layout:
    """The read network of one array shape; the last shape's is kept, which
    spares the many equal small reads of a Monte Carlo run rebuilding it (a
    batch builds it once for all its networks); keeping more would hold
    large layouts alive."""
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
    return _Layout(n_sl, (..., slice(0, n_sl)), (..., slice(n_sl, None)), cand,
                   tuple((*run, g_line[run[1]]) for run in runs), g_line, r_bl)


# Per-network values are arrays over a batch's networks, and plain Python
# numbers and bools for one network: numpy's scalars cost a microsecond an
# operation where they meet Python numbers, which a small read would feel.


def _max_abs(a: np.ndarray):
    """Each network's max |a| over the last axis."""
    m = np.maximum.reduce(np.abs(a), axis=-1)
    return m if m.ndim else float(m)


def _any(mask) -> bool:
    """Whether a per-network mask is set for any network."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _where(mask, a, b):
    """Each network's a where its entry of the per-network mask is set, else
    its b."""
    if not isinstance(mask, np.ndarray):
        return a if mask else b
    return np.where(mask.reshape(mask.shape + (1,) * (np.ndim(a) - mask.ndim)),
                    a, b)


def _any_node(mask: np.ndarray):
    """Whether each network's node mask is set at any node."""
    m = np.logical_or.reduce(mask, axis=-1)
    return m if m.ndim else bool(m)


def _first(mask, values):
    """The entry of per-network values of the first network, in batch
    order, that the mask sets."""
    if not isinstance(mask, np.ndarray):
        return values
    return np.broadcast_to(values, mask.shape)[np.argmax(mask)]


def _terminals(lay: _Layout, a: np.ndarray) -> tuple:
    """The node array a at the cells' source-side and bit-side nodes, each a
    rows x cols grid (C-AND's source lines' block transposed)."""
    batch = a.shape[:-1]
    if len(lay.blocks) == 1:
        block = a.reshape(batch + lay.blocks[0][2])
        s, d = block[lay.sl], block[lay.bl]
    else:
        s, d = (a[..., nodes].reshape(batch + shape)
                for nodes, _, shape, _ in lay.blocks)
    return (s.swapaxes(-1, -2) if lay.cand else s), d


def _at_cells(lay: _Layout, per_line: np.ndarray) -> tuple:
    """A per-line array at each cell's source line and bit line, broadcast
    to the rows x cols cell grid."""
    src = per_line[lay.sl]
    return ((src[..., None] if lay.cand else src[..., None, :]),
            per_line[..., None, lay.n_sl:])


def _join(lay: _Layout, s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The node array holding the grids s and d at the cells' terminals."""
    flat, s = s.shape[:-2] + (-1,), (s.swapaxes(-1, -2) if lay.cand else s)
    if len(lay.blocks) == 1:
        return np.concatenate((s, d), axis=-1).reshape(flat)
    return np.concatenate((s.reshape(flat), d.reshape(flat)), axis=-1)


def _on_nodes(lay: _Layout, per_line: np.ndarray) -> np.ndarray:
    """The node array holding each line's value at all its nodes."""
    flat = per_line.shape[:-1] + (-1,)
    rep = [per_line[..., None, lines].repeat(length, -2).reshape(flat)
           for _, lines, (length, _), _ in lay.blocks]
    return rep[0] if len(rep) == 1 else np.concatenate(rep, axis=-1)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Each column of a (..., length, lines) array summed from row 0 on, one
    row at a time as np.bincount adds: numpy would sum a lone column
    pairwise."""
    return (np.add.reduce(a, axis=-2) if a.shape[-1] > 1
            else np.cumsum(a, axis=-2)[..., -1, :])


def _wire_currents(lay: _Layout, v: np.ndarray, g_tie: np.ndarray,
                   drive: np.ndarray, magnitudes: bool = False) -> np.ndarray:
    """The current each node sends into its line's wire segments at v and
    each line's head into its tie g_tie to its drive; with `magnitudes`, the
    sum of those currents' magnitudes instead."""
    f, batch = np.empty_like(v), v.shape[:-1]
    for nodes, lines, (length, n), g in lay.blocks:
        vb = v[..., nodes].reshape(batch + (length, n))
        # q[j]: the current node j sends back to node j - 1 or to its tie
        q = np.zeros(batch + (length + 1, n))
        np.multiply(g, vb[..., 1:, :] - vb[..., :-1, :], out=q[..., 1:-1, :])
        np.multiply(g_tie[..., lines], vb[..., 0, :] - drive[..., lines],
                    out=q[..., 0, :])
        q = q.reshape(batch + (-1,))
        if magnitudes:
            np.abs(q, out=q)
        (np.add if magnitudes else np.subtract)(q[..., :-n], q[..., n:],
                                                out=f[..., nodes])
    return f


def _factor_lines(lay: _Layout, shunt: np.ndarray) -> list:
    """Each line's tridiagonal block (segments plus the per-node `shunt`)
    eliminated from the far end: a node's pivot is its segment towards the
    head plus y, its shunt plus the next node's y in series with the segment
    between, so no pivot cancels, however weakly a floating line is tied.
    Per block: nodes, flat reciprocal pivots, segment-to-pivot ratio rows."""
    out, batch = [], shunt.shape[:-1]
    for nodes, _, shape, g in lay.blocks:
        y = shunt[..., nodes].reshape(batch + shape).copy()
        rows = y.swapaxes(0, -2)   # node j of every line of every network
        for prev, row in zip(rows[-2::-1], rows[:0:-1]):
            prev += g * row / (g + row)
        rows[1:] += g
        inv = np.divide(1.0, y, out=y)
        out.append((nodes, inv.reshape(batch + (-1,)),
                    list((g * inv).swapaxes(0, -2))))
    return out


def _solve_lines(factors: list, r: np.ndarray) -> np.ndarray:
    """Every line's tridiagonal block solved in place at right-hand side r
    (Thomas' algorithm, vectorised across the lines of each block)."""
    for nodes, inv, ratio in factors:
        rows = list(r[..., nodes].reshape(r.shape[:-1] + (len(ratio), -1))
                    .swapaxes(0, -2))
        for prev, row, q in zip(rows[-2::-1], rows[:0:-1], ratio[:0:-1]):
            prev += q * row
        r[..., nodes] *= inv
        for prev, row, q in zip(rows, rows[1:], ratio[1:]):
            row += q * prev
    return r


def _diagonal(v: np.ndarray) -> np.ndarray:
    """The (..., n, n) matrices with v (..., n) on their diagonals."""
    out = np.zeros(v.shape + v.shape[-1:])
    out.reshape(v.shape[:-1] + (-1,))[..., ::v.shape[-1] + 1] = v
    return out


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
    Van Loan, Matrix Computations, sec. 3.4).  A batch's complements are
    solved stacked.  A zero pivot or a singular Schur complement gives a
    non-finite solution, for the whole batch; callers keep numpy's warnings
    off."""
    n_sl = lay.n_sl
    ds = di_ds.swapaxes(-1, -2).copy() if lay.cand else di_ds
    sum_ds, sum_dd = _column_sums(ds), _column_sums(di_dd)
    a_s, a_d = g_tie[lay.sl] - sum_ds, g_tie[lay.bl] + sum_dd
    # c[d, s] = sum di_ds and -c[s, d] = sum di_dd over the cells joining
    # bit line d to source line s: C-AND's one cell (s, d), AND's column d = s
    w, c_dd = ((ds, di_dd.swapaxes(-1, -2).copy()) if lay.cand
               else (_diagonal(sum_ds), _diagonal(sum_dd)))
    if held is not None:
        a_s[held[lay.sl]], a_d[held[lay.bl]] = 1.0, 1.0
        w, c_dd = np.where(held[..., n_sl:, None] | held[..., None, :n_sl],
                           0.0, (w, c_dd))
    w /= a_s[..., None, :]   # c[d, s] / a_s
    schur = w @ c_dd.swapaxes(-1, -2)
    schur.reshape(a_d.shape[:-1] + (-1,))[..., ::a_d.shape[-1] + 1] += a_d

    def solve(b: np.ndarray) -> np.ndarray:
        b_s = b[lay.sl]
        try:
            x_d = np.linalg.solve(schur, (b[lay.bl] - (w @ b_s[..., None])[
                ..., 0])[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return np.full_like(b, np.nan)
        return np.concatenate([(b_s + (x_d[..., None, :] @ c_dd)[..., 0, :])
                               / a_s, x_d], axis=-1)

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
    residual.  A network's cycles repeat until its residual is below 1e-3
    RESIDUAL_TOL or stops halving, an absolute stop that RESIDUAL_RELTOL does
    not loosen (a looser one moves 128-row currents); its residual is then
    zeroed, so that the batch's further cycles correct its x by exact zeros.
    A singular coarse or line matrix gives a non-finite x."""
    neg_ds, x, out = -di_ds, np.zeros(rhs.shape), np.empty(rhs.shape)
    # each node's own stamp, and the one it takes from its cell's other node
    shunt = _join(lay, neg_ds, di_dd)
    for nodes, lines, shape, _ in lay.blocks:
        shunt[..., nodes][..., :shape[1]] += g_tie[..., lines]
    out_s, out_d = _terminals(lay, out)

    def coupled(y_s: np.ndarray, y_d: np.ndarray) -> np.ndarray:
        np.multiply(di_dd, y_d, out=out_s)   # -C y, y at each cell's terminals
        np.multiply(neg_ds, y_s, out=out_d)
        return out

    r, res, batch = rhs, np.inf, rhs.shape[:-1]
    coarse = _coarse_solver(lay, g_tie, di_dd, di_ds)
    lines = _factor_lines(lay, shunt)
    while True:
        dx = coarse(np.concatenate([_column_sums(r[..., nodes].reshape(
            batch + shape)) for nodes, _, shape, _ in lay.blocks], axis=-1))
        dx, dx_cells = _on_nodes(lay, dx), _at_cells(lay, dx)
        # no wire carries a per-line dx; r, maybe `out`, is read first
        z = np.multiply(shunt, dx)
        np.subtract(r, z, out=z)
        z = _solve_lines(lines, np.add(z, coupled(*dx_cells), out=z))
        x += dx + z
        r = coupled(*_terminals(lay, z))
        new = _max_abs(r)
        cycling = (new > 1e-3 * RESIDUAL_TOL) & (new <= 0.5 * res)
        if not _any(cycling):
            return x
        if isinstance(cycling, np.ndarray):
            r[~cycling] = 0.0
        res = new


def _damped_newton(assemble, x: np.ndarray, what: str, res_tol: float,
                   rel_tol: float, step_tol: float) -> tuple:
    """Damped Newton from x, the one loop of the predictor and the read
    solve, for one network (x of shape (n,)) or in lockstep for a batch of
    independent networks (x of shape (batch, n)), each on its own.
    `assemble(x)` gives each network's residual f at x, a solve of its
    Jacobian, run on -f with numpy's warnings off, and a callable giving S
    at x, each node's sum of the magnitudes of the currents meeting there
    (None where rel_tol is 0).  A step moving no entry by more than step_tol
    ends the network's loop applied whole; else the first of the scales 1,
    DAMPING, ... down to the first under 1e-8 that lowers its max |f| is
    applied (backtracking: J. E. Dennis and R. B. Schnabel, 1983, ch. 6);
    the networks still backtracking try each scale together.  A network is
    solved once its max |f| <= res_tol or, after a step, every node has |f|
    <= res_tol + rel_tol * S (SPICE's per-node KCL test: L. W. Nagel,
    SPICE2, UCB/ERL M520, 1975), so a start is accepted by res_tol alone; S
    is taken, for the whole batch, only once a network that has stepped is
    still above res_tol.  A network stops once solved, after
    MAX_NEWTON_ITER iterations, or, stalled, when no scale lowers its max
    |f|, and takes no further update.  Returns (x, iterations, max |f|,
    unsolved, stalled), each per network.  A first residual or a step that
    is not finite raises ConvergenceError, for the first such network in
    batch order."""
    f, solve, sums = assemble(x)
    res = _max_abs(f)
    bad = (res != res) | (res == np.inf)   # a NaN or infinite residual
    if _any(bad):
        raise ConvergenceError(f"{what} stalled at residual "
                               f"{_first(bad, res):.3e} A after 0 iterations")
    unsolved = live = res > res_tol
    it, stalled = 0 * live, live & False
    while _any(live := live & (it < MAX_NEWTON_ITER)):
        it = it + live
        # solve is always the one at x: the last assembly is the accepted one;
        # f, not read again, holds the right-hand side -f
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = solve(np.negative(f, out=f))
            size = _max_abs(step)
        bad = live & ((size != size) | (size == np.inf))
        if _any(bad):
            raise ConvergenceError(f"{what} met a singular Jacobian at "
                                   f"iteration {_first(bad, it)}")
        done = live & (size <= step_tol)
        if _any(done):
            x, live = _where(done, x + step, x), live ^ done
        scale, search, x_new = 1.0, live, x
        while _any(search):
            x_new = _where(search, x + scale * step, x_new)
            f_new, solve_new, sums_new = assemble(x_new)
            res_new = _max_abs(f_new)
            search = search ^ (search & (res_new < res))
            if scale < 1e-8:   # nothing lowers the residual of the rest
                stalled, live = stalled | search, live ^ search
                break
            scale *= DAMPING
        if _any(live):
            x, res = _where(live, x_new, x), _where(live, res_new, res)
            f, solve, sums = f_new, solve_new, sums_new
        stepped, live = live, live & (res > res_tol)
        if rel_tol and _any(live):
            live = live & _any_node(np.abs(f) > res_tol + rel_tol * sums())
        unsolved = unsolved ^ (stepped ^ live)
    return x, it, res, unsolved, stalled


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
    s, d = slice(0, lay.n_sl), slice(lay.n_sl, None)
    across = strength.swapaxes(-1, -2)
    for near, far, grid in ((d, s, strength), (s, d, across if lay.cand
                                               else strength)):
        # grid[j, k]: cell j of line k, joining far line j (C-AND) or k (AND)
        length, n = grid.shape[-2:]
        far_line = np.broadcast_to(np.arange(length)[:, None] if lay.cand
                                   else np.arange(n), (length, n))
        tie = floating[..., None, near] & ~floating[..., far][..., far_line]
        best = length - 1 - np.argmax(np.where(tie, grid, -np.inf)[
            ..., ::-1, :], axis=-2)
        tied = np.take_along_axis(drive[..., far], far_line[best, np.arange(n)],
                                  axis=-1)
        pot[..., near] = np.where(tie.any(axis=-2), tied, pot[..., near])
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
            i.swapaxes(-1, -2) if lay.cand else i)), _column_sums(i)], axis=-1)
        f = np.where(floating, f + G_FLOAT * pot, 0.0)
        return (f, lambda b: _coarse_solver(lay, g_tie, *derivs, held=held)(b),
                None)

    pot, *_ = _damped_newton(
        assemble, _predictor_start(lay, drive, floating, gates - vts),
        "read predictor", 0.0, 0.0, PREDICTOR_GRID)
    return np.where(floating, np.round(pot / PREDICTOR_GRID) * PREDICTOR_GRID,
                    drive)


def _solve(lay: _Layout, dev: FeFetParams, drive: np.ndarray,
           gates: np.ndarray, predict, vts: np.ndarray) -> tuple:
    """The node potentials, Newton iterations and max residual of the read
    networks with the drives `drive` (NaN floating, set to 0 V in place),
    the cells' gates and vts: one network, or a batch on a leading axis (see
    `solve_read`).  The networks `predict` sets start from the predictor
    (`_needs_predictor`), which runs on the whole batch should any need it."""
    floating = np.isnan(drive)
    drive[floating] = 0.0
    g_tie = np.where(floating, G_FLOAT, lay.g_line)
    rows, cols = vts.shape[-2:]
    if rows * cols < VECTOR_CELLS:
        gate_rows = gates.ravel().tolist()
        vt_rows = vts.reshape(-1, cols).tolist()

    def assemble(vv: np.ndarray) -> tuple:
        """The node residual at vv, `_newton_step` at vv's Jacobian, and the
        sums of the node currents' magnitudes at vv, on call."""
        v_s, v_d = _terminals(lay, vv)
        # C-contiguous device grids keep `_column_sums`' line sums sequential:
        # numpy would sum F-ordered ones (C-AND's transposed v_s) pairwise
        if rows * cols >= VECTOR_CELLS:
            i, di_dd, di_ds = device.drain_current_and_derivs_array(
                dev, gates, v_d, np.ascontiguousarray(v_s), vts)
        else:
            i, di_dd, di_ds = np.array([
                device.drain_current_and_derivs(dev, g, d, s, t)
                for g, rd, rs, rt in zip(
                    gate_rows, v_d.reshape(-1, cols).tolist(),
                    v_s.reshape(-1, cols).tolist(), vt_rows)
                for d, s, t in zip(rd, rs, rt)]).T.copy().reshape(3, *vts.shape)

        def current_sums() -> np.ndarray:
            a = np.abs(i)
            return (_wire_currents(lay, vv, g_tie, drive, magnitudes=True)
                    + _join(lay, a, a))

        return (_wire_currents(lay, vv, g_tie, drive) + _join(lay, -i, i),
                functools.partial(_newton_step, lay, g_tie, di_dd, di_ds),
                current_sums)

    start = (_where(predict, _line_potentials(lay, drive, floating, dev,
                                              gates, vts), drive)
             if _any(predict) else drive)
    v, it, res, unsolved, stalled = _damped_newton(
        assemble, _on_nodes(lay, start), "read solve", RESIDUAL_TOL,
        RESIDUAL_RELTOL, 0.0)
    if _any(stalled):
        raise ConvergenceError(
            f"line search stalled at iteration {_first(stalled, it)}")
    if _any(unsolved):
        raise ConvergenceError(
            f"read solve stalled at residual {_first(unsolved, res):.3e} A "
            f"after {_first(unsolved, it)} iterations")
    return v, it, res


def _needs_predictor(plan: BiasPlan) -> bool:
    """Whether a cell joins a floating line to a line driven away from 0 V
    (see `solve_read`): in C-AND every source line meets every bit line, in
    AND each column's cells join its own two lines."""
    pairs = (zip(plan.sl, plan.bl) if plan.topology is Topology.AND
             else itertools.product(set(plan.sl), set(plan.bl)))
    return any(s is None and d not in (None, 0.0) or
               d is None and s not in (None, 0.0) for s, d in pairs)


def _inputs(plan: BiasPlan) -> tuple:
    """A plan's line drives (NaN floating), its rows' gates, and whether its
    read starts from the predictor."""
    return (np.array(plan.sl + plan.bl, dtype=float),
            np.array(plan.wl, dtype=float)[:, None], _needs_predictor(plan))


def _sensed(lay: _Layout, plan: BiasPlan, v: np.ndarray, it,
            res) -> ReadResult:
    """The current out of each selected bit line's driver, at its head."""
    heads = _terminals(lay, v)[1][0]
    return ReadResult({c: float((heads[c] - plan.bl[c]) / lay.r_bl)
                       for c in plan.sel_cols}, int(it), float(res))


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
    whose fine solve stalls or ends unsolved.  A read is solved at its start
    once its max node residual is at most RESIDUAL_TOL, and after a step also
    once each node's is at most RESIDUAL_TOL + RESIDUAL_RELTOL times the sum
    of the magnitudes of the currents meeting there: one step leaves a
    random 256-row read at 2.0-3.4e-13 A, within 1.4-3.4e-7 of those sums,
    and its currents within 1e-6 |i| + 1e-13 A of a tight solve, where
    RESIDUAL_TOL alone forced a second iteration.  `max_residual` is the max
    node residual.

    The start holds each line at one potential, its drive or 0 V if
    floating, so no wire carries current, and a floating line is out of KCL
    balance exactly when a cell joins it to a line driven away from 0 V: in
    a C-AND single-cell or partial-row read, each unselected bit line floats
    on a cell of the driven source line.  Newton would then climb the device
    current one `v_tilde` per step; such a read starts instead from
    `_line_potentials`, from which a disturb read converges in one
    iteration.  A C-AND full-row read and every AND read float their lines
    among 0 V lines, so they start from the drives.

    This is the batch of one: `read_batch` solves networks of one layout in
    lockstep through the same code, each network with the bits it has here.
    """
    _check_plan(array, plan)
    lay = _layout(array.topology, array.rows, array.cols, array.parasitics)
    return _sensed(lay, plan, *_solve(lay, array.dev, *_inputs(plan),
                                      array.vts()))


def _read_network(array: ArrayState, sel_row: int, sel_cols, v_wl: float,
                  v_sl: float) -> tuple:
    """The array a read solves, its plan, and the read columns (None when
    the read solves the whole array): see `read_cells`."""
    plan = biasing.read_bias(array.topology, array.rows, array.cols, sel_row,
                             sel_cols, v_wl, v_sl)
    if array.topology is Topology.CAND:
        return array, plan, None
    keep = plan.sel_cols
    part = replace(array, cols=len(keep))
    part._swap(array.states, array.index[:, list(keep)])
    return part, biasing.read_bias(Topology.AND, array.rows, len(keep),
                                   sel_row, range(len(keep)), v_wl, v_sl), keep


def _in_columns(res: ReadResult, keep) -> ReadResult:
    """An AND read of the columns `keep` alone, as the full array's read."""
    if keep is not None:
        res.col_currents = {c: -res.col_currents[k]
                            for k, c in enumerate(keep)}
    return res


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
    array, plan, keep = _read_network(array, sel_row, sel_cols, v_wl, v_sl)
    return _in_columns(solve_read(array, plan), keep)


def read_batch(reads, v_wl: float, v_sl: float) -> list[ReadResult]:
    """`read_cells` of each (array, sel_row, sel_cols) in `reads`, with the
    same currents, `iterations` and `max_residual`, solved in lockstep.

    A network is solved once however many reads solve it: two reads solve
    the same network when they have the same layout and device, their plans
    the same drives and gates to the bit, and their arrays equal vts grids
    (keyed by a hash of the grid's bytes, confirmed by `np.array_equal`), as
    when a write leaves every vt as it was.  Each read still senses its own
    plan's columns into a `ReadResult` of its own.  The distinct networks
    are grouped by layout and device, and each group is solved in batches of
    at most BATCH_CELLS cells (at least one network) on a leading batch
    axis.  Each network keeps its own drives, ties, gates, vts, predictor,
    Newton iterations, line search and two-level cycles, and takes no update
    once it has stopped; each picks its device path by its own cells.  A
    read that fails raises: should any network of a batch fail, every read
    is solved again alone, in order, so the first that fails raises its own
    ConvergenceError.  Reads change no array."""
    nets = [_read_network(array, row, cols, v_wl, v_sl)
            for array, row, cols in reads]
    # each distinct network as [plan, vts, the reads that solve it]
    groups: dict[tuple, list[list]] = {}
    distinct: dict[tuple, list[list]] = {}
    for k, (array, plan, _) in enumerate(nets):
        kind = (array.topology, array.rows, array.cols, array.parasitics,
                array.dev)
        lines, vts = (plan.wl, plan.sl, plan.bl), array.vts()
        same = distinct.setdefault((*kind, *lines, hash(vts.tobytes())), [])
        # equal tuples may still differ in the sign of a zero, which repr shows
        net = next((net for net in same if np.array_equal(net[1], vts) and
                    repr(lines) == repr((net[0].wl, net[0].sl, net[0].bl))),
                   None)
        if net is None:
            net = [plan, vts, []]
            same.append(net)
            groups.setdefault(kind, []).append(net)
        net[2].append(k)
    out = [None] * len(nets)

    def solve_batch(lay: _Layout, dev: FeFetParams, batch: list) -> None:
        # a call, so that one batch's arrays are gone before the next's
        drive, gates, predict = (np.stack(a) for a in zip(
            *(_inputs(plan) for plan, _, _ in batch)))
        v, it, res = _solve(lay, dev, drive, gates, predict,
                            np.stack([vts for _, vts, _ in batch]))
        for b, (_, _, ks) in enumerate(batch):
            for k in ks:
                out[k] = _sensed(lay, nets[k][1], v[b], it[b], res[b])

    try:
        for (topology, rows, cols, par, dev), group in groups.items():
            lay = _layout(topology, rows, cols, par)
            # the fewest batches within BATCH_CELLS, as even as they go
            n = -(-len(group) // max(1, BATCH_CELLS // (rows * cols)))
            for j in range(n):
                solve_batch(lay, dev, group[j * len(group) // n:
                                            (j + 1) * len(group) // n])
    except ConvergenceError:
        return [read_cells(array, row, cols, v_wl, v_sl)
                for array, row, cols in reads]
    return [_in_columns(res, keep) for res, (_, _, keep) in zip(out, nets)]


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
