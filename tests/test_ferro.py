import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fefetsim import ferro
from fefetsim.config import RunConfig, make_ferro
from oracles import major_loop_envelope, reverse_branch


PARAMS = make_ferro(RunConfig())


def test_delta_matches_remanence_construction():
    # delta is defined so the descending branch passes through (0, +Pr)
    d = ferro.delta_of(PARAMS, PARAMS.ec)
    p0 = PARAMS.ps * math.tanh(PARAMS.ec / (2.0 * d))
    assert p0 == pytest.approx(PARAMS.pr, rel=1e-12)


def test_major_loop_remanence():
    desc = ferro.positive_saturation(PARAMS)
    asc = ferro.negative_saturation(PARAMS)
    assert desc.p == pytest.approx(PARAMS.pr, rel=1e-9)
    assert asc.p == pytest.approx(-PARAMS.pr, rel=1e-9)


def test_major_loop_saturation():
    e_sat = 10.0 * PARAMS.ec
    asc = ferro.negative_saturation(PARAMS)
    assert ferro.branch_polarization(PARAMS, asc, e_sat) >= 0.999 * PARAMS.ps
    desc = ferro.positive_saturation(PARAMS)
    assert ferro.branch_polarization(PARAMS, desc, -e_sat) <= -0.999 * PARAMS.ps


def test_branch_monotone_in_field():
    st_ = ferro.negative_saturation(PARAMS)
    es = np.linspace(-5 * PARAMS.ec, 5 * PARAMS.ec, 400)
    ps = [ferro.branch_polarization(PARAMS, st_, e) for e in es]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_reversal_is_continuous():
    state = ferro.negative_saturation(PARAMS)
    state = ferro._move_to(PARAMS, state, 1.5 * PARAMS.ec)
    p_before = state.p
    state = reverse_branch(state, PARAMS)
    assert abs(state.p - p_before) < 1e-12


def test_closed_minor_loop_returns_exactly():
    # drive 0 -> e1 -> e0 -> e1: the second visit of e1 must close the loop
    state = ferro.negative_saturation(PARAMS)
    state = ferro._move_to(PARAMS, state, 2.0 * PARAMS.ec)
    state = ferro._move_to(PARAMS, state, 0.5 * PARAMS.ec)
    p_top = ferro.branch_polarization(PARAMS, state, 2.0 * PARAMS.ec)
    state = ferro._move_to(PARAMS, state, 2.0 * PARAMS.ec)
    assert state.p == pytest.approx(p_top, abs=1e-15)


def test_repeated_identical_pulses_do_not_ratchet():
    # a '0' cell exposed to the same inhibit pulse many times must come
    # back to the same remanent polarization every time
    state = ferro.negative_saturation(PARAMS)
    for v in (3.2, -1.5, 1.6):
        state = ferro.settle(PARAMS, ferro.apply_pulse(PARAMS, state, v, 10e-6))
    p_once = state.p
    for _ in range(49):
        state = ferro.settle(PARAMS, ferro.apply_pulse(PARAMS, state, 1.6, 10e-6))
    assert state.p == pytest.approx(p_once, abs=1e-15)


def test_full_bipolar_sweep_closes():
    pts = ferro.trace_loop(PARAMS, 8.0, nsteps=600)
    assert pts[0][1] == pytest.approx(pts[-1][1], abs=1e-6 * PARAMS.ps)


@given(st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1,
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_polarization_bounded(drive):
    state = ferro.negative_saturation(PARAMS)
    for v in drive:
        state = ferro._move_to(PARAMS, state, v / PARAMS.t_fe)
        assert abs(state.p) <= PARAMS.ps + 1e-15


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2,
                max_size=30))
@settings(max_examples=150, deadline=None)
def test_subloops_contained_in_major_loop_symmetric(drive):
    params = dataclasses.replace(PARAMS, ec_program=PARAMS.ec)  # symmetric
    state = ferro.negative_saturation(params)
    for v in drive:
        e = v / params.t_fe
        state = ferro._move_to(params, state, e)
        lo, hi = major_loop_envelope(params, e)
        assert lo - 1e-9 <= state.p <= hi + 1e-9


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2,
                max_size=30))
@settings(max_examples=150, deadline=None)
def test_subloops_within_outer_hull_asymmetric(drive):
    # with split coercive fields the two major branches are no longer a
    # tight envelope (subloops closing at saturation can undercut the wide
    # programming branch near its tail); saturation and the erase branch
    # still bound the trajectory
    state = ferro.negative_saturation(PARAMS)
    for v in drive:
        e = v / PARAMS.t_fe
        state = ferro._move_to(PARAMS, state, e)
        _, hi = major_loop_envelope(PARAMS, e)
        assert -PARAMS.ps - 1e-15 <= state.p <= hi + 1e-9


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=1e-9, max_value=1e-3),
       st.floats(min_value=1e-8, max_value=1e-4))
@settings(max_examples=200, deadline=None)
def test_advance_field_is_exact_exponential(e0_v, ev, dt, tau):
    params = dataclasses.replace(PARAMS, tau_eff=tau)
    e0, e_ext = e0_v / params.t_fe, ev / params.t_fe
    got = ferro.advance_field(params, e0, e_ext, dt)
    want = e_ext + (e0 - e_ext) * math.exp(-dt / tau)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_advance_field_against_ode_oracle():
    from scipy.integrate import solve_ivp

    params = PARAMS
    e0, e_ext, dt = 2.5e8, -0.7e8, 3.7e-7
    sol = solve_ivp(lambda t, y: (e_ext - y) / params.tau_eff, (0.0, dt),
                    [e0], rtol=1e-12, atol=1e-2)
    got = ferro.advance_field(params, e0, e_ext, dt)
    assert got == pytest.approx(sol.y[0, -1], rel=1e-8)


def test_asymmetric_programming_threshold():
    # descending switching is governed by ec, ascending by ec_program
    asc = ferro.negative_saturation(PARAMS)
    assert ferro.branch_polarization(PARAMS, asc, PARAMS.ec_program) \
        == pytest.approx(0.0, abs=1e-12)
    desc = ferro.positive_saturation(PARAMS)
    assert ferro.branch_polarization(PARAMS, desc, -PARAMS.ec) \
        == pytest.approx(0.0, abs=1e-12)


def test_erase_pulse_from_positive_saturation():
    # a -1.5 V erase lands well negative (enough to store '0'), though far
    # from full saturation at this amplitude
    state = ferro.positive_saturation(PARAMS)
    state = ferro.settle(PARAMS, ferro.apply_pulse(PARAMS, state, -1.5, 10e-6))
    assert state.p < -0.5 * PARAMS.pr
    assert state.p > -PARAMS.ps


def test_parameter_validation():
    for bad in ({"pr": 0.25}, {"ec": -1.0}, {"ec_program": -1.0}):
        with pytest.raises(ValueError):
            dataclasses.replace(PARAMS, **bad)


def test_transitions_leave_their_input_state_as_it_was():
    a = ferro.negative_saturation(PARAMS)
    b = ferro._move_to(PARAMS, a, 3.0 * PARAMS.ec)
    c = ferro._move_to(PARAMS, b, 0.5 * PARAMS.ec)
    assert a == ferro.negative_saturation(PARAMS)
    assert a.p == pytest.approx(-PARAMS.pr, rel=1e-9)
    assert b.p > 0.0 and b.history == ()
    assert len(c.history) == 1 and c != b
    d = reverse_branch(c, PARAMS)
    assert len(c.history) == 1 and len(d.history) == 2
    e = ferro.apply_pulse(PARAMS, d, -1.5, 10e-6)
    assert ferro.settle(PARAMS, e) != e and len(d.history) == 2
