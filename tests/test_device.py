import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fefetsim import device, ferro
from fefetsim.config import RunConfig, make_device, make_ferro

DEV = make_device(RunConfig())
FE = make_ferro(RunConfig())
DIVIDER = dataclasses.replace(DEV, gate_mode=device.GATE_DIVIDER)
T_PULSE = 10e-6


def test_threshold_window_endpoints():
    assert DEV.vt_low == pytest.approx(DEV.vt_mid - 0.6)
    assert DEV.vt_high == pytest.approx(DEV.vt_mid + 0.6)
    assert device.vt_of_polarization(DEV, FE, FE.ps) == pytest.approx(DEV.vt_low)
    assert device.vt_of_polarization(DEV, FE, -FE.ps) == pytest.approx(DEV.vt_high)
    assert device.vt_of_polarization(DEV, FE, 0.0) == pytest.approx(DEV.vt_mid)


def test_on_current_calibration():
    # fully programmed cell at the read point sources 400 nA
    i = device.drain_current(DEV, 1.0, 1.0, DEV.vt_low)
    assert i == pytest.approx(400e-9, rel=1e-9)


def test_off_current_calibration():
    # fully erased cell at the read point stays below 100 pA
    i = device.drain_current(DEV, 1.0, 1.0, DEV.vt_high)
    assert 0.0 < i <= 1e-10


def test_subthreshold_slope():
    # deep subthreshold: one decade of current per `swing` volts of gate
    # drive, within 5%
    vgs = np.linspace(0.1, 0.4, 31)
    ids = [device.drain_current(DEV, v, 1.0, DEV.vt_mid) - DEV.g_min * 1.0
           for v in vgs]
    slope = np.polyfit(vgs, np.log10(ids), 1)[0]
    assert slope == pytest.approx(1.0 / DEV.swing, rel=0.05)


def test_source_drain_symmetry():
    fwd = device.drain_current(DEV, 0.8, 0.6, 0.7)
    rev = device.drain_current(DEV, 0.8 - 0.6, -0.6, 0.7)
    assert rev == pytest.approx(-fwd, rel=1e-12)


@given(st.floats(min_value=-0.5, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.4, max_value=1.8))
@settings(max_examples=300, deadline=None)
@example(vgs=3.0, vds=1e-15, vt=0.40625)
def test_monotone_in_gate_and_drain(vgs, vds, vt):
    i0 = device.drain_current(DEV, vgs, vds, vt)
    assert device.drain_current(DEV, vgs + 0.05, vds, vt) >= i0
    assert device.drain_current(DEV, vgs, vds + 0.05, vt) >= i0
    if vds > 1e-6:
        assert i0 > 0.0


@given(st.floats(min_value=-0.5, max_value=2.5),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=200, deadline=None)
def test_derivatives_match_finite_differences(vg, vd, vs):
    h = 1e-7
    i, did, dis = device.drain_current_and_derivs(DEV, vg, vd, vs, 1.0)
    ip = device.drain_current_and_derivs(DEV, vg, vd + h, vs, 1.0)[0]
    im = device.drain_current_and_derivs(DEV, vg, vd - h, vs, 1.0)[0]
    assert did == pytest.approx((ip - im) / (2 * h), rel=1e-4, abs=1e-12)
    ip = device.drain_current_and_derivs(DEV, vg, vd, vs + h, 1.0)[0]
    im = device.drain_current_and_derivs(DEV, vg, vd, vs - h, 1.0)[0]
    assert dis == pytest.approx((ip - im) / (2 * h), rel=1e-4, abs=1e-12)


@given(st.floats(min_value=-0.5, max_value=3.0),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.4, max_value=1.8))
@settings(max_examples=300, deadline=None)
@example(vg=3.0, vd=1e-15, vs=0.0, vt=0.40625)
@example(vg=3.05, vd=1e-15, vs=0.0, vt=0.40625)
def test_solver_current_is_the_drain_current(vg, vd, vs, vt):
    # the read solver's current is drain_current at the terminal voltage
    # differences, bit for bit, in both conduction directions
    i = device.drain_current_and_derivs(DEV, vg, vd, vs, vt)[0]
    if vd >= vs:
        assert i == device.drain_current(DEV, vg - vs, vd - vs, vt)
    else:
        assert i == -device.drain_current(DEV, vg - vd, vs - vd, vt)


_LINE_VOLTS = st.one_of(st.floats(-1.5, 1.5), st.floats(-120.0, 120.0))


@given(st.lists(st.tuples(st.floats(-0.5, 3.0), _LINE_VOLTS, _LINE_VOLTS,
                          st.floats(0.4, 1.8)), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
@example([(3.0, 1e-15, 0.0, 0.40625), (3.0, 0.0, 1e-15, 0.40625)])
@example([(1.0, 100.0, 0.0, 0.7), (1.0, 0.0, 100.0, 0.7), (0.5, 0.3, 0.9, 1.0)])
def test_array_device_matches_the_scalar_device(cells):
    # both orientations, both sides of _EXPM1_MAX (vds past 92 V here), all
    # in one call; numpy's exp and log1p may differ from math's by an ulp
    assert 92.0 < DEV.v_tilde * device._EXPM1_MAX < 100.0
    got = device.drain_current_and_derivs_array(DEV, *np.array(cells).T)
    for k, cell in enumerate(cells):
        want = device.drain_current_and_derivs(DEV, *cell)
        for g, w in zip(got, want):
            assert abs(g[k] - w) <= 8 * np.finfo(float).eps * abs(w) + 1e-30


def test_solver_current_rises_with_gate_at_tiny_drain_bias():
    # s1^2 - s2^2 formed directly cancels to noise here and fell with the gate
    lo = device.drain_current_and_derivs(DEV, 3.0, 1e-15, 0.0, 0.40625)[0]
    hi = device.drain_current_and_derivs(DEV, 3.05, 1e-15, 0.0, 0.40625)[0]
    assert 0.0 < lo < hi


def test_write_then_read_state_separation():
    one = device.write_cell(DEV, FE, ferro.negative_saturation(FE), 3.2, T_PULSE)
    zero = device.write_cell(DEV, FE, one, -1.5, T_PULSE)
    i_one = device.read_current(DEV, FE, one, 1.0, 1.0)
    i_zero = device.read_current(DEV, FE, zero, 1.0, 1.0)
    assert i_one / i_zero > 1e3
    assert device.cell_vt(DEV, FE, one) < 1.0 < device.cell_vt(DEV, FE, zero)


def test_write_idempotence():
    a = device.write_cell(DEV, FE, ferro.negative_saturation(FE), 3.2, T_PULSE)
    vt_once = device.cell_vt(DEV, FE, a)
    a = device.write_cell(DEV, FE, a, 3.2, T_PULSE)
    assert device.cell_vt(DEV, FE, a) == pytest.approx(vt_once, abs=1e-6)


def test_read_of_programmed_cell_is_non_destructive():
    # after a program pulse the read gate bias retraces a closed minor
    # excursion, so the remanent state is recovered exactly on return
    state = device.write_cell(DEV, FE, ferro.negative_saturation(FE), 3.2,
                              T_PULSE)
    vt0 = device.cell_vt(DEV, FE, state)
    state = device.write_cell(DEV, FE, state, 1.0, T_PULSE)   # read-bias episode
    assert abs(device.cell_vt(DEV, FE, state) - vt0) < 1e-9


def test_read_of_erased_cell_settles_after_first_read():
    # the first read after an erase is the one open excursion: the gate
    # swing partially programs the cell (same mechanism as a half-select
    # disturb), moving vt by a few percent of the window.  Every read after
    # that retraces a closed loop, so the state is stable from then on and
    # never leaves the erased logic band.
    state = device.write_cell(DEV, FE, ferro.negative_saturation(FE), 3.2,
                              T_PULSE)
    state = device.write_cell(DEV, FE, state, -1.5, T_PULSE)
    vt0 = device.cell_vt(DEV, FE, state)
    state = device.write_cell(DEV, FE, state, 1.0, T_PULSE)   # first read episode
    vt1 = device.cell_vt(DEV, FE, state)
    assert abs(vt1 - vt0) < 0.1 * DEV.mem_window
    assert vt1 > DEV.vt_mid          # still reads as an erased cell
    for _ in range(5):               # subsequent reads are exactly closed
        state = device.write_cell(DEV, FE, state, 1.0, T_PULSE)
        assert abs(device.cell_vt(DEV, FE, state) - vt1) < 1e-9


def test_determinism():
    def written():
        st_ = device.write_cell(DEV, FE, ferro.negative_saturation(FE), 3.2,
                                T_PULSE)
        return device.write_cell(DEV, FE, st_, 1.6, T_PULSE)

    a, b = written(), written()
    assert device.read_current(DEV, FE, a, 1.0, 1.0) \
        == device.read_current(DEV, FE, b, 1.0, 1.0)


def test_divider_gate_mode_balances_charge():
    state = ferro.negative_saturation(FE)
    v_fe = device.gate_drive(DIVIDER, FE, state, 2.0)
    # the interlayer takes up the remainder of the applied voltage and its
    # charge must equal the total gate-stack charge on the ferroelectric
    e = v_fe / FE.t_fe
    p = ferro.branch_polarization(FE, state, e)
    q_fe = FE.area * (p + 30.0 * device.EPS0 * e)
    q_il = DIVIDER.c_il * FE.area * (2.0 - v_fe)
    assert q_il == pytest.approx(q_fe, abs=1e-15 * max(1.0, abs(q_fe) * 1e15))


def test_divider_passes_less_than_direct():
    # with a weakly polarized film the stack acts as a plain capacitive
    # divider and the ferroelectric sees only part of the applied voltage.
    # (at full polarization the remanent charge can push v_fe past the
    # applied voltage, which the charge-balance test above covers.)
    weak = dataclasses.replace(FE, ps=0.002, pr=0.0019)
    state = ferro.negative_saturation(weak)
    v_fe = device.gate_drive(DIVIDER, weak, state, 2.0)
    assert 0.0 < v_fe < 2.0


def test_divider_that_does_not_converge_raises():
    state = ferro.negative_saturation(FE)
    with pytest.raises(RuntimeError):
        device.gate_drive(DIVIDER, FE, state, 2.0, max_iter=0)


def test_gate_mode_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(DEV, gate_mode="nonsense")
