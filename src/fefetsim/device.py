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

_LN10 = math.log(10.0)

#: largest argument for which math.expm1 stays finite
_EXPM1_MAX = 709.0


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


def _softplus(x: float) -> float:
    # overflow-safe log(1 + exp(x))
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


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
    vtl = dev.v_tilde
    pref = dev.i_spec * (dev.w / dev.l)
    vgs, vds = vg - vs, vd - vs
    x1 = (vgs - vt) / vtl
    x2 = (vgs - vt - vds) / vtl
    s1, s2 = _softplus(x1), _softplus(x2)
    g1, g2 = _sigmoid(x1), _sigmoid(x2)
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
    formulas; numpy's exp and log1p may differ from math's by an ulp, so
    the results may too."""
    flip = vd < vs
    hi, lo = np.where(flip, vs, vd), np.where(flip, vd, vs)
    vtl = dev.v_tilde
    pref = dev.i_spec * (dev.w / dev.l)
    vgs, vds = vg - lo, hi - lo
    x1 = (vgs - vt) / vtl
    x2 = (vgs - vt - vds) / vtl
    # _softplus and _sigmoid with one exp(-|x|) each, never overflowing
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


def gate_drive(dev: FeFetParams, fe: FerroParams, state: BranchState,
               v_gb: float, tol: float = 1e-15, max_iter: int = 200) -> float:
    """Voltage across the ferroelectric layer for a gate-to-body bias.

    Direct mode passes v_gb through.  Divider mode solves the charge
    balance  area * (P(E) + eps_fe*eps0*E) = c_il * area * (v_gb - v_fe)
    with a damped Newton iteration on v_fe; `tol` is the absolute residual
    charge in Coulombs.
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
    for _ in range(max_iter):
        if abs(r) < tol:
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
    if abs(r) >= tol:
        raise RuntimeError(
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
