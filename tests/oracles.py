"""Test oracles with no caller in the program: an exact network solve of
the sneak-path graph with its return-leg bound, against which the closed
form in `fefetsim.analytics` is checked, the hysteresis helpers the
ferro tests drive the branch model with, a write phase grouped cell by cell,
against which `engine.apply_write`'s grouping by row is checked, and, from
a description of the read network that does not depend on how the solver
numbers its nodes, the sparse read Jacobian and the dense line matrix
against which the read solve's Newton step and its elimination of the
source lines are checked, and the numpy device kernel as it allocated one
array per step, whose bits the in-place kernel must keep.
"""

import itertools
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from fefetsim import biasing, device, ferro
from fefetsim.biasing import BiasPlan
from fefetsim.device import _EXPM1_MAX, FeFetParams
from fefetsim.engine import ArrayState
from fefetsim.ferro import BranchState, FerroParams


def sneak_resistance_bound(r_off: float, rows: int) -> float:
    """Limit of the estimate for wide arrays: the return leg alone."""
    if rows < 2:
        raise ValueError("need at least two rows")
    return r_off / (rows - 1)


def sneak_resistance_network(r_on: float, r_off: float, rows: int, cols: int) -> float:
    """Exact two-terminal resistance of the sneak-path graph.

    Nodes: (cols-1) floating bit lines and (rows-1) floating source lines.
    Edges: driven line -> each floating bit line through r_on; complete
    bipartite floating-bit-line -> floating-source-line grid through r_off;
    each floating source line -> sensed line through r_off.  Solves the
    node equations with the driven line at 1 V and the sensed line at 0 V.
    """
    if rows < 2 or cols < 2:
        raise ValueError("need at least a 2x2 array for a sneak path")
    m1, n1 = rows - 1, cols - 1
    g_on, g_off = 1.0 / r_on, 1.0 / r_off
    n_unk = n1 + m1                   # bit-line nodes first, then source lines
    g = np.zeros((n_unk, n_unk))
    rhs = np.zeros(n_unk)
    for j in range(n1):               # floating bit lines
        g[j, j] += g_on               # to driven line (1 V)
        rhs[j] += g_on * 1.0
        for i in range(m1):
            s = n1 + i
            g[j, j] += g_off
            g[s, s] += g_off
            g[j, s] -= g_off
            g[s, j] -= g_off
    for i in range(m1):               # floating source lines to sensed line
        g[n1 + i, n1 + i] += g_off
    v = np.linalg.solve(g, rhs)
    i_total = float(np.sum(g_on * (1.0 - v[:n1])))
    return 1.0 / i_total


def cell_grouped_write(array: ArrayState, plan: BiasPlan, duration: float
                       ) -> tuple[tuple[BranchState, ...], np.ndarray]:
    """The table and index a write phase leaves, without changing `array`:
    cells with equal table entry and gate voltage form one group, the
    scalar write runs once per group in row-major order of first
    appearance, and equal results share one entry of the new table."""
    voltages = itertools.chain.from_iterable(biasing.write_voltages(plan))
    keys = list(zip(array.index.ravel().tolist(), voltages))
    table: dict[BranchState, int] = {}
    entry: dict[tuple[int, float], int] = {}
    for i, v_gb in dict.fromkeys(keys):
        new = device.write_cell(array.dev, array.fe, array.states[i], v_gb,
                                duration)
        entry[i, v_gb] = table.setdefault(new, len(table))
    index = np.array([entry[k] for k in keys], dtype=np.intp)
    return tuple(table), index.reshape(array.rows, array.cols)


class ReadNetwork(NamedTuple):
    """A read network as lines and cells, whatever the node ids: `lines[k]`
    lists line k's nodes from its head, each joined to the next by a segment
    of conductance `g_seg[k]`; cell i joins node `cell_d[i]` on its bit-line
    side to node `cell_s[i]` on its source side."""

    lines: list
    g_seg: np.ndarray
    cell_d: np.ndarray
    cell_s: np.ndarray

    def cell_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """The line of each cell's bit-line-side and source-side node."""
        line_of = np.empty(sum(len(nodes) for nodes in self.lines), dtype=int)
        for k, nodes in enumerate(self.lines):
            line_of[nodes] = k
        return line_of[self.cell_d], line_of[self.cell_s]


def read_jacobian(net: ReadNetwork, g_tie: np.ndarray, di_dd: np.ndarray,
                  di_ds: np.ndarray) -> sp.csc_matrix:
    """The read Jacobian over the nodes: the wire segments, each line's head
    tied by g_tie, and each cell's derivative stamps."""
    heads = np.array([nodes[0] for nodes in net.lines])
    p = np.concatenate([nodes[:-1] for nodes in net.lines])
    q = np.concatenate([nodes[1:] for nodes in net.lines])
    g = np.repeat(net.g_seg, [len(nodes) - 1 for nodes in net.lines])
    d, s = net.cell_d, net.cell_s
    i = np.concatenate([q, p, q, p, heads, d, d, s, s])
    j = np.concatenate([q, p, p, q, heads, d, s, d, s])
    val = np.concatenate([g, g, -g, -g, g_tie, di_dd, di_ds, -di_dd, -di_ds])
    n = heads.size + p.size
    return sp.csc_matrix((val, (i, j)), shape=(n, n))


def line_matrix(net: ReadNetwork, g_tie: np.ndarray, di_dd: np.ndarray,
                di_ds: np.ndarray) -> np.ndarray:
    """The coarse matrix with one unknown per line, lines x lines: the
    cells' stamps summed by line plus the head ties g_tie."""
    return line_stamps(*net.cell_lines(), g_tie.size, di_dd, di_ds) + \
        np.diag(g_tie)


def line_stamps(kd: np.ndarray, ks: np.ndarray, m: int, di_dd: np.ndarray,
                di_ds: np.ndarray) -> np.ndarray:
    """The cells' derivative stamps summed by line, as a dense m x m matrix;
    each cell joins line kd on its bit-line side to line ks on its source
    side."""
    slots = np.concatenate([kd, kd, ks, ks]) * m + np.concatenate([kd, ks, kd, ks])
    return np.bincount(slots, np.concatenate([di_dd, di_ds, -di_dd, -di_ds]),
                       minlength=m * m).reshape(m, m)


def drain_current_and_derivs_array(dev: FeFetParams, vg: np.ndarray,
                                   vd: np.ndarray, vs: np.ndarray,
                                   vt: np.ndarray):
    """`device.drain_current_and_derivs_array` as it was before it computed
    in place: one new array per operation.  The in-place kernel must return
    its bits."""
    flip = vd < vs
    hi, lo = np.where(flip, vs, vd), np.where(flip, vd, vs)
    vtl = dev.v_tilde
    pref = dev.i_spec * (dev.w / dev.l)
    vgs, vds = vg - lo, hi - lo
    x1 = (vgs - vt) / vtl
    x2 = (vgs - vt - vds) / vtl
    # softplus and sigmoid with one exp(-|x|) each, never overflowing
    e1, e2 = np.exp(-np.abs(x1)), np.exp(-np.abs(x2))
    s1 = np.maximum(x1, 0.0) + np.log1p(e1)
    s2 = np.maximum(x2, 0.0) + np.log1p(e2)
    g1 = np.where(x1 >= 0.0, 1.0, e1) / (1.0 + e1)
    g2 = np.where(x2 >= 0.0, 1.0, e2) / (1.0 + e2)
    d = vds / vtl
    diff = np.where(d < _EXPM1_MAX,
                    np.log1p(g2 * np.expm1(np.minimum(d, _EXPM1_MAX))),
                    s1 - s2)
    i = pref * diff * (s1 + s2) + dev.g_min * vds
    di_dhi = pref * (2.0 * s2 * g2) / vtl + dev.g_min
    di_dlo = -pref * (2.0 * s1 * g1) / vtl - dev.g_min
    return (np.where(flip, -i, i), np.where(flip, -di_dlo, di_dhi),
            np.where(flip, -di_dhi, di_dlo))


def reverse_branch(state: BranchState, params: FerroParams) -> BranchState:
    """The state with its sweep direction reversed at the current
    (E_eff, P) point: the turning point is pushed and the new branch fitted
    through it."""
    d = -state.direction
    history = state.history + ((state.e_eff, state.p),)
    k, p_off = ferro._fit_branch(params, d, history)
    return BranchState(d, k, p_off, state.e_eff, state.p, history)


def major_loop_envelope(params: FerroParams, e: float) -> tuple[float, float]:
    """(lower, upper) polarization bounds of the full major loop at field `e`."""
    lo = params.ps * ferro._branch_tanh(params, ferro.ASCENDING, e)
    hi = params.ps * ferro._branch_tanh(params, ferro.DESCENDING, e)
    return lo, hi
