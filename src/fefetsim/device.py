"""Single 1T FeFET cell: threshold mapping, channel current, gate stack.

The stored polarization shifts the transistor threshold linearly across
the memory window.  The channel uses a smooth squared-softplus surrogate
whose deep-subthreshold slope is set by the swing parameter, plus a small
ohmic floor so fully-off devices stay numerically well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ferro
from .ferro import BranchState, FerroParams

EPS0 = 8.8541878128e-12  # vacuum permittivity, F/m

GATE_DIRECT = "direct"
GATE_DIVIDER = "divider"

#: the divider's charge balance: absolute residual charge it must reach, C,
#: and the most damped Newton steps it takes
DIVIDER_TOL = 1e-15
DIVIDER_MAX_ITER = 200

_LN10 = math.log(10.0)

#: largest argument for which math.expm1 stays finite
_EXPM1_MAX = 709.0


class ConvergenceError(RuntimeError):
    """A solve that did not converge: the gate divider here, a read in
    `engine` (which raises this same class)."""


@dataclass(frozen=True)
class FeFetParams:
    """Transistor surrogate parameters.

    Attributes
    ----------
    w, l : float
        Channel width / length, m.
    vt_mid : float
        Threshold voltage at zero stored polarization, V.
    mem_window : float
        Threshold shift between fully erased and fully programmed, V.
    swing : float
        Subthreshold swing, V/decade of drain current.
    n_slope : float
        Slope ideality factor of the surrogate; the squared softplus doubles
        the exponential rate, so n_slope = 2 makes the deep-subthreshold
        slope exactly 1/swing decades per volt.
    i_spec : float
        Specific current prefactor, A (scaled by w/l).
    g_min : float
        Ohmic floor conductance, S.
    gate_mode : str
        'direct': the full gate-to-body voltage drops across the
        ferroelectric.  'divider': charge balance against a series
        interlayer capacitance decides the split.
    c_il : float
        Interlayer capacitance per area for divider mode, F/m^2.
    eps_fe : float
        Relative permittivity of the ferroelectric (divider mode).
    """

    w: float
    l: float
    vt_mid: float
    mem_window: float
    swing: float
    n_slope: float
    i_spec: float
    g_min: float
    gate_mode: str
    c_il: float
    eps_fe: float

    def __post_init__(self):
        if self.gate_mode not in (GATE_DIRECT, GATE_DIVIDER):
            raise ValueError(f"unknown gate_mode {self.gate_mode!r}")
        if min(self.w, self.l, self.swing, self.n_slope, self.i_spec) <= 0.0:
            raise ValueError("width w, length l, swing, n_slope and i_spec "
                             "must be positive")
        if self.g_min < 0.0:
            raise ValueError("g_min must be nonnegative")

    @property
    def v_tilde(self) -> float:
        """Exponential voltage scale of the channel surrogate, V."""
        return self.swing * self.n_slope / _LN10

    @property
    def vt_low(self) -> float:
        return self.vt_mid - 0.5 * self.mem_window

    @property
    def vt_high(self) -> float:
        return self.vt_mid + 0.5 * self.mem_window


def vt_of_polarization(dev: FeFetParams, fe: FerroParams, p):
    """Threshold voltage for stored polarization `p` (C/m^2): a float, or
    elementwise for an array, with the same roundings."""
    return dev.vt_mid - (p / fe.ps) * 0.5 * dev.mem_window


def drain_current(dev: FeFetParams, vgs: float, vds: float, vt: float) -> float:
    """Drain current, A.  Symmetric under source/drain exchange."""
    return drain_current_and_derivs(dev, vgs, vds, 0.0, vt)[0]


def drain_current_and_derivs(dev: FeFetParams, vg: float, vd: float, vs: float,
                             vt: float) -> tuple[float, float, float]:
    """Current drain->source plus partials w.r.t. (vd, vs) node voltages.

    Used by the array read solver's Newton iteration; gate voltages are
    driven so no gate partial is needed.
    """
    if vd < vs:
        i, di_dd, di_ds = drain_current_and_derivs(dev, vg, vs, vd, vt)
        return -i, -di_ds, -di_dd
    vtl = dev.swing * dev.n_slope / _LN10
    pref = dev.i_spec * (dev.w / dev.l)
    vgs, vds = vg - vs, vd - vs
    x1 = (vgs - vt) / vtl
    x2 = (vgs - vt - vds) / vtl
    # softplus s = log(1 + exp(x)) and sigmoid g = 1 / (1 + exp(-x)), both
    # from one e = exp(-|x|), which never overflows
    e1, e2 = math.exp(-abs(x1)), math.exp(-abs(x2))
    if x1 > 0.0:
        s1, g1 = x1 + math.log1p(e1), 1.0 / (1.0 + e1)
    else:
        s1, g1 = math.log1p(e1), e1 / (1.0 + e1)
    if x2 > 0.0:
        s2, g2 = x2 + math.log1p(e2), 1.0 / (1.0 + e2)
    else:
        s2, g2 = math.log1p(e2), e2 / (1.0 + e2)
    # s1^2 - s2^2 = (s1 - s2)(s1 + s2), with the difference taken without
    # cancellation: s1 - s2 = log1p(sigmoid(x2) * expm1(x1 - x2)), and
    # x1 - x2 taken as vds / vtl rather than from the rounded x1 and x2.
    # Past expm1's range the plain difference has no cancellation to lose.
    d = vds / vtl
    diff = math.log1p(g2 * math.expm1(d)) if d < _EXPM1_MAX else s1 - s2
    i = pref * diff * (s1 + s2) + dev.g_min * vds
    di_dvd = pref * (2.0 * s2 * g2) / vtl + dev.g_min
    di_dvs = -pref * (2.0 * s1 * g1) / vtl - dev.g_min
    return i, di_dvd, di_dvs


def drain_current_and_derivs_array(dev: FeFetParams, vg: np.ndarray,
                                   vd: np.ndarray, vs: np.ndarray,
                                   vt: np.ndarray):
    """`drain_current_and_derivs` elementwise over arrays, with the same
    formulas; numpy's exp, log1p and expm1 may differ from math's by an ulp,
    so the results may too.  vd and vs broadcast together to the result's
    shape, and vg and vt to it.  The read predictor and every read of at
    least `engine.VECTOR_CELLS` cells use it; the scalar routine stays the
    oracle.  Each step writes into a grid that no later step reads, in the
    operations and order of the one-array-per-step kernel kept in
    tests/oracles.py, whose bits it returns, with ten float grids live at
    its peak, its three results among them."""
    flip = vd < vs
    vtl = dev.v_tilde
    pref = dev.i_spec * (dev.w / dev.l)
    vds, x1 = np.where(flip, vs, vd), np.where(flip, vd, vs)   # hi, lo
    vds -= x1
    np.subtract(vg, x1, out=x1)   # vgs
    x1 -= vt
    x2 = x1 - vds
    x1 /= vtl
    x2 /= vtl
    # e1 and e2 end as spent scratch grids
    e1, e2 = np.abs(x1), np.abs(x2)
    g1, g2 = _softplus_sigmoid(x1, e1), _softplus_sigmoid(x2, e2)
    s1, s2 = x1, x2
    # s1 - s2 without cancellation below expm1's overflow, as the scalar
    # routine takes it
    d = np.divide(vds, vtl, out=e1)
    past = ~(d < _EXPM1_MAX)
    np.expm1(np.minimum(d, _EXPM1_MAX, out=d), out=d)
    diff = np.log1p(np.multiply(g2, d, out=d), out=d)
    np.subtract(s1, s2, out=diff, where=past)
    i = np.add(s1, s2, out=e2)
    np.multiply(np.multiply(pref, diff, out=diff), i, out=i)
    i += np.multiply(dev.g_min, vds, out=vds)
    # di_dhi = pref * (2 s2 g2) / vtl + g_min in s2's grid, di_dlo in s1's
    for s, g, p in ((s2, g2, pref), (s1, g1, -pref)):
        np.multiply(2.0, s, out=s)
        s *= g
        np.multiply(p, s, out=s)
        s /= vtl
    s2 += dev.g_min
    s1 -= dev.g_min
    di_dhi, di_dlo = s2, s1
    # a flipped cell's current negated, its two partials negated and swapped
    return (np.where(flip, np.negative(i, out=diff), i),
            np.where(flip, np.negative(di_dlo, out=g1), di_dhi),
            np.where(flip, np.negative(di_dhi, out=g2), di_dlo))


def _softplus_sigmoid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x's softplus s = max(x, 0) + log1p(e) in place of x, and its sigmoid
    g = (1 if x >= 0 else e) / (1 + e), from one e = exp(-|x|), which never
    overflows, taken in place of e = |x|."""
    np.exp(np.negative(e, out=e), out=e)
    g = np.where(x >= 0.0, 1.0, e)
    np.maximum(x, 0.0, out=x)
    x += np.log1p(e)
    g /= np.add(1.0, e, out=e)
    return g


def gate_drive(dev: FeFetParams, fe: FerroParams, state: BranchState,
               v_gb: float) -> float:
    """Voltage across the ferroelectric layer for a gate-to-body bias.

    Direct mode passes v_gb through.  Divider mode solves the charge
    balance  area * (P(E) + eps_fe*eps0*E) = c_il * area * (v_gb - v_fe)
    with at most DIVIDER_MAX_ITER damped Newton steps on v_fe, down to an
    absolute residual charge of DIVIDER_TOL.  A balance it cannot meet
    raises ConvergenceError.
    """
    if dev.gate_mode == GATE_DIRECT:
        return v_gb

    area = fe.area

    def residual(v_fe: float) -> float:
        e = v_fe / fe.t_fe
        q_fe = ferro.branch_polarization(fe, state, e) + dev.eps_fe * EPS0 * e
        return area * (dev.c_il * (v_gb - v_fe) - q_fe)

    v_fe = v_gb * dev.c_il / (dev.c_il + dev.eps_fe * EPS0 / fe.t_fe)
    r = residual(v_fe)
    h = 1e-6 * max(1.0, abs(v_gb))
    for _ in range(DIVIDER_MAX_ITER):
        if abs(r) < DIVIDER_TOL:
            return v_fe
        dr = (residual(v_fe + h) - residual(v_fe - h)) / (2.0 * h)
        if dr == 0.0:
            break
        step = -r / dr
        damp = 1.0
        while damp > 1e-6:
            v_new = v_fe + damp * step
            r_new = residual(v_new)
            if abs(r_new) < abs(r):
                v_fe, r = v_new, r_new
                break
            damp *= 0.5
        else:
            break
    if abs(r) >= DIVIDER_TOL:
        raise ConvergenceError(
            f"gate divider did not converge: residual {r:.3e} C at v_gb={v_gb}")
    return v_fe


def write_cell(dev: FeFetParams, fe: FerroParams, state: BranchState,
               v_gb: float, duration: float) -> BranchState:
    """Apply a gate-to-body write pulse, then let the field relax.

    Drain and source are held at equal potential during writes, so the
    pulse acts purely through the gate stack.  Returns the new state.
    """
    v_fe = gate_drive(dev, fe, state, v_gb)
    return ferro.settle(fe, ferro.apply_pulse(fe, state, v_fe, duration))


def cell_vt(dev: FeFetParams, fe: FerroParams, state: BranchState) -> float:
    return vt_of_polarization(dev, fe, state.p)


def read_current(dev: FeFetParams, fe: FerroParams, state: BranchState,
                 vgs: float, vds: float) -> float:
    """Drain current of a single isolated cell at the given bias."""
    return drain_current(dev, vgs, vds, cell_vt(dev, fe, state))
