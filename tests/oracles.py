"""Test oracles with no caller in the program: an exact network solve of
the sneak-path graph with its return-leg bound, against which the closed
form in `fefetsim.analytics` is checked, the hysteresis helpers the
ferro tests drive the branch model with, and the dense line matrix against
which the read solve's elimination of the source lines is checked.
"""

import numpy as np

from fefetsim import ferro
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


def line_stamps(kd: np.ndarray, ks: np.ndarray, m: int, di_dd: np.ndarray,
                di_ds: np.ndarray) -> np.ndarray:
    """The cells' derivative stamps summed by line, as a dense m x m matrix;
    each cell joins line kd on its bit-line side to line ks on its source
    side."""
    slots = np.concatenate([kd, kd, ks, ks]) * m + np.concatenate([kd, ks, kd, ks])
    return np.bincount(slots, np.concatenate([di_dd, di_ds, -di_dd, -di_ds]),
                       minlength=m * m).reshape(m, m)


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
