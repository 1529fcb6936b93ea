import pytest
from hypothesis import given, strategies as st

from fefetsim import analytics
from oracles import sneak_resistance_bound, sneak_resistance_network


def test_sneak_formula_hand_values():
    # worked by hand: r_on/(n-1) + r_off/((m-1)(n-1)) + r_off/(m-1)
    r = analytics.sneak_resistance_formula(1e3, 1e6, rows=3, cols=5)
    assert r == pytest.approx(1e3 / 4 + 1e6 / 8 + 1e6 / 2)
    r = analytics.sneak_resistance_formula(2e3, 1e7, rows=2, cols=2)
    assert r == pytest.approx(2e3 + 1e7 + 1e7)


def test_sneak_formula_square_array_scaling():
    # for n x n arrays with r_off >> r_on the estimate collapses toward the
    # return-leg bound r_off/(n-1)
    r_off = 1e8
    for n in (16, 256, 2048):
        r = analytics.sneak_resistance_formula(1.0, r_off, n, n)
        bound = sneak_resistance_bound(r_off, n)
        assert r >= bound
        # the mid-grid term decays as 1/(n-1) relative to the return leg
        assert r == pytest.approx(bound, rel=1.1 / (n - 1))


def test_sneak_network_2x2_is_plain_series():
    # one floating bit line, one floating source line: a single series path
    r = sneak_resistance_network(1e3, 1e6, 2, 2)
    assert r == pytest.approx(1e3 + 1e6 + 1e6)


@given(rows=st.integers(2, 8), cols=st.integers(2, 8),
       log_ratio=st.floats(2.0, 6.0))
def test_sneak_formula_tracks_network_within_2x(rows, cols, log_ratio):
    # with closed devices at least 100x more resistive than the on leg the
    # equipotential-group estimate stays within a factor of two of the
    # exact graph resistance
    r_on = 1.0
    r_off = 10.0 ** log_ratio
    est = analytics.sneak_resistance_formula(r_on, r_off, rows, cols)
    exact = sneak_resistance_network(r_on, r_off, rows, cols)
    assert exact / 2.0 <= est <= exact * 2.0


@given(rows=st.integers(2, 8), cols=st.integers(2, 8),
       log_ratio=st.floats(2.0, 6.0))
def test_network_resistance_exceeds_half_return_leg(rows, cols, log_ratio):
    # the return leg alone lower-bounds the whole path to within 2x
    r_off = 10.0 ** log_ratio
    exact = sneak_resistance_network(1.0, r_off, rows, cols)
    assert exact > sneak_resistance_bound(r_off, rows) / 2.0


def test_sneak_validation():
    with pytest.raises(ValueError):
        analytics.sneak_resistance_formula(1.0, 1.0, 1, 4)
    with pytest.raises(ValueError):
        sneak_resistance_network(1.0, 1.0, 4, 1)
    with pytest.raises(ValueError):
        sneak_resistance_bound(1.0, 1)


# --------------------------------------------------------------------------
# read power


def test_select_line_current_is_affine_in_counts():
    i = analytics.select_line_current(3, 5, 1e-12, 4e-7)
    assert i == pytest.approx(3e-12 + 5 * 4e-7)
    assert analytics.select_line_current(0, 0, 1e-12, 4e-7) == 0.0
    with pytest.raises(ValueError):
        analytics.select_line_current(-1, 0, 1e-12, 4e-7)


def test_worst_case_byte_read_power():
    # eight conducting cells at 400 nA and 1 V read bias draw 3.2 uW
    p = analytics.select_line_power_max(8, 400e-9, 1.0)
    assert p == 3.2e-6


def test_read_power_breakdown_totals():
    bd = analytics.read_power(n_zeros=4, n_ones=4, i_low=1e-12, i_high=4e-7,
                              v_read=1.0, c_wordline=2e-15, v_wl=1.0,
                              f_read=1e5, i_leak=1e-11)
    assert bd.total == pytest.approx(bd.p_select + bd.p_wordline + bd.p_leak)
    assert bd.p_wordline == pytest.approx(2e-15 * 1.0 * 1e5)
    assert bd.p_select == pytest.approx((4e-12 + 1.6e-6))
    assert bd.p_leak == pytest.approx(1e-11)


# --------------------------------------------------------------------------
# area


def test_cell_areas_match_layout_numbers():
    assert analytics.cell_area("and") == pytest.approx(244.14, abs=0.01)
    assert analytics.cell_area("cand") == pytest.approx(83.57, abs=0.01)
    assert analytics.cell_area("and", with_spacing=True) \
        == pytest.approx(801.54, abs=0.01)
    assert analytics.cell_area("cand", with_spacing=True) \
        == pytest.approx(415.2, abs=0.01)
    with pytest.raises(ValueError):
        analytics.cell_area("nor")
