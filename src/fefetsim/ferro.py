"""Ferroelectric polarization hysteresis with rate-limited field response.

The polarization of the ferroelectric layer follows a saturating branch
model: each ascending or descending branch is a scaled tanh centered on
the branch's coercive field, and minor loops are built from turning-point
history so that periodic drives retrace closed loops (return-point
memory).  The field seen by the layer lags the applied field through a
single first-order relaxation, integrated exactly per step.

Program and erase directions may carry different coercive fields.  Each
branch derives its transition width from its own coercive field, which
keeps the remanence identity P(0) = -/+ Pr exact on both branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

ASCENDING = +1
DESCENDING = -1

# Guard for degenerate branch fits (reversal at an already-visited field).
_DENOM_EPS = 1e-30

#: relaxation times `settle` waits: E_eff reaches zero within float precision
SETTLE_TAUS = 50.0

#: field steps of `trace_loop`'s full loop, half of them each way
LOOP_STEPS = 400


@dataclass(frozen=True)
class FerroParams:
    """Material and geometry parameters of the ferroelectric layer.

    Attributes
    ----------
    ps : float
        Saturation polarization, C/m^2.
    pr : float
        Remanent polarization, C/m^2.  Must satisfy 0 < pr < ps.
    ec : float
        Coercive field of the erase (descending) branch, V/m.
    ec_program : float
        Coercive field of the program (ascending) branch, V/m; equal to
        `ec` for a symmetric loop.
    t_fe : float
        Layer thickness, m.
    tau_eff : float
        Relaxation time of the effective field, s.
    area : float
        Device area, m^2 (used for charge bookkeeping by the gate stack).
    """

    ps: float
    pr: float
    ec: float
    ec_program: float
    t_fe: float
    tau_eff: float
    area: float

    def __post_init__(self):
        if not (0.0 < self.pr < self.ps):
            raise ValueError("require 0 < pr < ps")
        if min(self.ec, self.ec_program, self.t_fe, self.tau_eff) <= 0.0:
            raise ValueError("coercive fields ec, ec_program (coercive voltage"
                             " / t_fe), t_fe and tau_eff must be positive")


def delta_of(params: FerroParams, ec: float) -> float:
    """Transition width of a branch with coercive field `ec`, V/m.

    Chosen so the branch passes through the remanent point exactly:
    tanh(ec / (2*delta)) == pr/ps.
    """
    ratio = params.pr / params.ps
    return ec / math.log((1.0 + ratio) / (1.0 - ratio))


def _branch_ec(params: FerroParams, direction: int) -> float:
    return params.ec_program if direction == ASCENDING else params.ec


def _branch_tanh(params: FerroParams, direction: int, e: float) -> float:
    """tanh shape factor of the major branch in `direction` at field `e`."""
    ec = _branch_ec(params, direction)
    delta = delta_of(params, ec)
    if direction == ASCENDING:
        return math.tanh((e - ec) / (2.0 * delta))
    return math.tanh((e + ec) / (2.0 * delta))


class BranchState(NamedTuple):
    """Polarization state: current branch, lagged field, and loop history.

    ``history`` holds past turning points (field, polarization), innermost
    last.  The live branch starts at history[-1] and closes at history[-2];
    with fewer entries it closes into saturation, which reproduces the
    major loop.  (k, p_off) is always the fit `_fit_branch` gives for
    (direction, history).

    A state is an immutable value: every transition returns a new one, and
    two states are equal, with equal hashes, exactly when every field is.
    By return-point memory and wipe-out, equal states evolve identically
    under the same pulse.
    """

    direction: int
    k: float
    p_off: float
    e_eff: float
    p: float
    history: tuple[tuple[float, float], ...]


def _on_branch(params: FerroParams, direction: int, k: float, p_off: float,
               e: float) -> float:
    return k * params.ps * _branch_tanh(params, direction, e) + p_off


def _rest_state(params: FerroParams, direction: int) -> BranchState:
    return BranchState(direction, 1.0, 0.0, 0.0,
                       _on_branch(params, direction, 1.0, 0.0, 0.0), ())


def negative_saturation(params: FerroParams) -> BranchState:
    """Rest state after deep negative saturation (ascending major branch)."""
    return _rest_state(params, ASCENDING)


def positive_saturation(params: FerroParams) -> BranchState:
    """Rest state after deep positive saturation (descending major branch)."""
    return _rest_state(params, DESCENDING)


def branch_polarization(params: FerroParams, state: BranchState, e: float) -> float:
    """Polarization on the state's current branch at field `e`, C/m^2."""
    return _on_branch(params, state.direction, state.k, state.p_off, e)


def _fit_branch(params: FerroParams, d: int,
                history: tuple[tuple[float, float], ...]) -> tuple[float, float]:
    """(k, p_off) of the branch in direction `d` over the turning points.

    Continuity at the newest turning point; closure either at the turning
    point one level out, or into the saturation the branch is heading for
    when no outer turning point exists.
    """
    if not history:
        return 1.0, 0.0
    e_top, p_top = history[-1]
    t_top = _branch_tanh(params, d, e_top)
    ps = params.ps
    if len(history) >= 2:
        e_anchor, p_anchor = history[-2]
        t_anchor = _branch_tanh(params, d, e_anchor)
        denom = ps * (t_top - t_anchor)
        if abs(denom) < _DENOM_EPS:
            return 0.0, p_top
        k = (p_top - p_anchor) / denom
    elif d == ASCENDING:
        denom = ps * (1.0 - t_top)
        k = (ps - p_top) / denom if abs(denom) >= _DENOM_EPS else 0.0
    else:
        denom = ps * (1.0 + t_top)
        k = (p_top + ps) / denom if abs(denom) >= _DENOM_EPS else 0.0
    return k, p_top - k * ps * t_top


def _move_to(params: FerroParams, state: BranchState,
             e_target: float) -> BranchState:
    """The state after E_eff advances monotonically to `e_target`, with
    reversal and wipe-out of exhausted turning points."""
    d, k, p_off, e_eff, p, history = state
    if e_target == e_eff:
        return state
    step = ASCENDING if e_target > e_eff else DESCENDING
    refit = step != d
    if refit:
        d, history = step, history + ((e_eff, p),)
    # Wipe out turning-point pairs the move passes beyond: the branch
    # rejoins the loop that was interrupted there.
    while len(history) >= 2 and (e_target >= history[-2][0] if d == ASCENDING
                                 else e_target <= history[-2][0]):
        history, refit = history[:-2], True
    if refit:
        k, p_off = _fit_branch(params, d, history)
    return BranchState(d, k, p_off, e_target,
                       _on_branch(params, d, k, p_off, e_target), history)


def advance_field(params: FerroParams, e_eff: float, e_ext: float, dt: float) -> float:
    """Exact one-step update of the lagged field under constant drive.

    dE_eff/dt = (E_ext - E_eff) / tau_eff  integrated over dt.
    """
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    return e_ext + (e_eff - e_ext) * math.exp(-dt / params.tau_eff)


def apply_pulse(params: FerroParams, state: BranchState, v_fe: float,
                duration: float) -> BranchState:
    """Drive the layer with a constant voltage pulse across it.

    Under constant drive the lagged field moves monotonically, so a single
    step is exact.
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    e_ext = v_fe / params.t_fe
    return _move_to(params, state,
                    advance_field(params, state.e_eff, e_ext, duration))


def settle(params: FerroParams, state: BranchState) -> BranchState:
    """Let the lagged field relax at zero applied voltage for SETTLE_TAUS
    relaxation times."""
    return apply_pulse(params, state, 0.0, SETTLE_TAUS * params.tau_eff)


def trace_loop(params: FerroParams, v_amplitude: float):
    """Quasi-static bipolar triangular sweep -V_A -> +V_A -> -V_A.

    Starts from negative saturation preconditioned at -V_A.  Returns a list
    of (v_fe, p) pairs tracing the full loop in LOOP_STEPS field steps.
    """
    if v_amplitude <= 0.0:
        raise ValueError("v_amplitude must be positive")
    e_amp = v_amplitude / params.t_fe
    state = _move_to(params, negative_saturation(params), -e_amp)
    points = [(-v_amplitude, state.p)]
    half = LOOP_STEPS // 2
    steps = range(1, half + 1)
    fields = ([-e_amp + 2.0 * e_amp * i / half for i in steps]     # -A -> +A
              + [e_amp - 2.0 * e_amp * i / half for i in steps])   # +A -> -A
    for e in fields:
        state = _move_to(params, state, e)
        points.append((e * params.t_fe, state.p))
    return points


def make_state(params: FerroParams, stored_one: bool) -> BranchState:
    """Saturated rest state for a stored logic value ('1' => +Pr side)."""
    return positive_saturation(params) if stored_one else negative_saturation(params)
