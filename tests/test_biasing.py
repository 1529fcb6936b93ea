import pytest
from hypothesis import given, strategies as st

from fefetsim import biasing
from fefetsim.biasing import (
    FLAG_DISTURB,
    FLAG_PARTIAL,
    FLAG_PASS,
    CellGroup,
    SchemeKind,
    Topology,
    and_read_bias,
    and_write_bias,
    cand_read_bias,
    cand_write0_bias,
    cand_write1_bias,
    cell_write_voltage,
    classify_cell,
    verify_scheme,
)


def test_cand_write1_selected_cell_sees_full_voltage():
    plan = cand_write1_bias(4, 4, 1, (2,), 3.2)
    assert cell_write_voltage(plan, 1, 2) == pytest.approx(3.2)


def test_cand_write0_selected_cell_sees_full_voltage():
    plan = cand_write0_bias(4, 4, 1, (2,), -1.5)
    assert cell_write_voltage(plan, 1, 2) == pytest.approx(-1.5)


def test_cand_write0_thirds_inhibit():
    # every unselected cell in a thirds scheme sees |v_w0|/3
    plan = cand_write0_bias(4, 4, 1, (2,), -1.5)
    for r in range(4):
        for c in range(4):
            if classify_cell(plan, r, c) is CellGroup.SEL:
                continue
            assert abs(cell_write_voltage(plan, r, c)) \
                == pytest.approx(1.5 / 3.0)


def test_cand_write1_halves_inhibit():
    # halves scheme: half-selected cells see v_w1/2, diagonal cells see 0
    plan = cand_write1_bias(4, 4, 1, (2,), 3.2)
    for r in range(4):
        for c in range(4):
            group = classify_cell(plan, r, c)
            v = cell_write_voltage(plan, r, c)
            if group is CellGroup.SEL:
                continue
            if group is CellGroup.DIAG:
                assert v == pytest.approx(0.0)
            else:
                assert abs(v) == pytest.approx(1.6)


def test_cand_write1_gate_body_never_negative():
    # program pulses must never push an unselected gate below its body
    plan = cand_write1_bias(6, 6, 2, (0, 3), 3.2)
    for r in range(6):
        for c in range(6):
            assert cell_write_voltage(plan, r, c) >= 0.0


def test_cand_quiescent_channel_lines_grounded():
    # writes keep every source and bit line at 0 V so no channel current
    # flows while the gate stack is being switched
    for plan in (cand_write0_bias(4, 4, 0, (1,), -1.5),
                 cand_write1_bias(4, 4, 0, (1,), 3.2)):
        assert plan.sl == (0.0,) * 4 and plan.bl == (0.0,) * 4


def test_and_write_inhibits_both_channel_terminals_equally():
    plan = and_write_bias(4, 4, 1, (2,), 3.2)
    assert plan.bl == plan.sl and len(plan.bl) == 4 and plan.bul == ()
    assert cell_write_voltage(plan, 1, 2) == pytest.approx(3.2)
    assert abs(cell_write_voltage(plan, 0, 0)) == pytest.approx(3.2 / 3.0)


def test_read_plans_drive_selected_lines_only():
    z = biasing.HIGH_Z
    plan = cand_read_bias(4, 4, 1, (2,), 1.0, 0.8)
    assert plan.wl == (0.0, 1.0, 0.0, 0.0)
    assert plan.sl == (z, 0.8, z, z)
    assert plan.bl == (z, z, 0.0, z)
    assert plan.bul == (0.0,) * 4

    plan = and_read_bias(4, 4, 1, (2,), 1.0, 0.8)
    assert plan.wl == (0.0, 1.0, 0.0, 0.0)
    assert plan.bl == (z, z, 0.8, z)
    assert plan.sl == (0.0,) * 4
    assert plan.bul == ()


def test_selection_validation():
    with pytest.raises(ValueError):
        cand_write1_bias(4, 4, 4, (0,), 3.2)
    with pytest.raises(ValueError):
        cand_write1_bias(4, 4, 0, (), 3.2)
    with pytest.raises(ValueError):
        cand_write1_bias(4, 4, 0, (4,), 3.2)
    with pytest.raises(ValueError):
        and_write_bias(0, 4, 0, (0,), 3.2)


def test_write_voltages_of_a_plan_with_floating_lines_raise():
    # the AND read plan floats its unselected bit lines
    plan = and_read_bias(4, 4, 1, (2,), 1.0, 1.0)
    with pytest.raises(ValueError):
        biasing.write_voltages(plan)
    with pytest.raises(ValueError):
        cell_write_voltage(plan, 0, 0)


@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       v_w=st.floats(0.5, 5.0))
def test_every_cell_classified_and_exposed(rows, cols, v_w):
    # the plan builders assign a finite gate-body voltage and a group to
    # every cell in the array, with no gaps
    plan = cand_write1_bias(rows, cols, rows - 1, (cols - 1,), v_w)
    seen = set()
    for r in range(rows):
        for c in range(cols):
            seen.add(classify_cell(plan, r, c))
            assert abs(cell_write_voltage(plan, r, c)) <= v_w
    assert CellGroup.SEL in seen


@given(rows=st.integers(1, 6), cols=st.integers(1, 6),
       v_w=st.floats(0.2, 5.0))
def test_write_voltage_matrix_equals_per_cell_voltages(rows, cols, v_w):
    sel = range(0, cols, 2)
    for plan in (cand_write1_bias(rows, cols, rows - 1, sel, v_w),
                 cand_write0_bias(rows, cols, 0, sel, -v_w),
                 and_write_bias(rows, cols, 0, sel, v_w),
                 and_write_bias(rows, cols, rows - 1, sel, -v_w)):
        assert biasing.write_voltages(plan) == [
            [cell_write_voltage(plan, r, c) for c in range(cols)]
            for r in range(rows)]


@pytest.mark.parametrize("topology, v_w, named, op", [
    (Topology.CAND, -1.5, cand_write0_bias, "write0"),
    (Topology.CAND, 3.2, cand_write1_bias, "write1"),
    (Topology.AND, -1.5, and_write_bias, "write0"),
    (Topology.AND, 3.2, and_write_bias, "write1"),
])
def test_write_bias_is_the_named_plan(topology, v_w, named, op):
    plan = biasing.write_bias(topology, 4, 5, 1, (3, 0), v_w)
    want = named(4, 5, 1, (3, 0), v_w)
    assert (plan.topology, plan.op) == (topology, op)
    assert (plan.wl, plan.sl, plan.bl, plan.bul) == \
        (want.wl, want.sl, want.bl, want.bul)
    assert plan == want


@pytest.mark.parametrize("topology, named", [
    (Topology.CAND, cand_read_bias),
    (Topology.AND, and_read_bias),
])
def test_read_bias_is_the_named_plan(topology, named):
    plan = biasing.read_bias(topology, 4, 5, 2, (1, 4), 1.0, 0.8)
    want = named(4, 5, 2, (1, 4), 1.0, 0.8)
    assert (plan.topology, plan.op) == (topology, "read")
    assert (plan.wl, plan.sl, plan.bl, plan.bul) == \
        (want.wl, want.sl, want.bl, want.bul)
    assert plan == want


# --------------------------------------------------------------------------
# scheme audit


def test_thirds_program_disturbs_opposite_polarity_diagonal():
    # 4.5 V thirds program against a 1 V erase threshold: the diagonal
    # group sits at -1.5 V of the wrong polarity and must be flagged
    report = verify_scheme(-1.0, 4.5, SchemeKind.VDD3_ONLY)
    assert report.any_disturb
    worst = report.worst()
    assert worst.group is CellGroup.DIAG
    assert worst.op == "write1"
    assert worst.v_gb == pytest.approx(-1.5)
    assert sum(f.flag == FLAG_DISTURB for f in report.findings) == 1


def test_thirds_program_partial_risk_near_threshold():
    # 2.1 V thirds program: the diagonal group sees -0.7 V, inside the
    # partial-risk band of the 1.0 V erase threshold but below it
    report = verify_scheme(-1.0, 2.1, SchemeKind.VDD3_ONLY)
    assert not report.any_disturb
    assert report.any_partial
    partial = [f for f in report.findings if f.flag == FLAG_PARTIAL]
    assert len(partial) == 1
    assert partial[0].group is CellGroup.DIAG
    assert partial[0].v_gb == pytest.approx(-0.7)


def test_mixed_scheme_at_nominal_voltages_passes():
    # the default operating point: thirds for erase, halves for program
    report = verify_scheme(-1.5, 3.2, SchemeKind.MIXED)
    assert all(f.flag == FLAG_PASS for f in report.findings)
    # halves program: only the two half-selected groups see v_w1/2, the
    # diagonal group sees exactly nothing
    diag = [f for f in report.findings
            if f.op == "write1" and f.group is CellGroup.DIAG]
    assert diag[0].v_gb == 0.0


def test_scheme_report_covers_all_unselected_groups():
    report = verify_scheme(-1.5, 3.2)
    assert len(report.findings) == 6
    for op in ("write0", "write1"):
        groups = {f.group for f in report.findings if f.op == op}
        assert groups == {CellGroup.SAME_ROW, CellGroup.SAME_COL,
                          CellGroup.DIAG}


def test_scheme_margin_is_threshold_minus_exposure():
    report = verify_scheme(-1.5, 3.2)
    for f in report.findings:
        thr = 3.2 if f.v_gb > 0 else 1.5
        assert f.margin == pytest.approx(thr - abs(f.v_gb))


def test_scheme_argument_validation():
    with pytest.raises(ValueError):
        verify_scheme(1.5, 3.2)
    with pytest.raises(ValueError):
        verify_scheme(-1.5, -3.2)


@given(v_w0=st.floats(-5.0, -0.1), v_w1=st.floats(0.1, 5.0))
def test_vdd2_program_never_disturbs_at_matched_threshold(v_w0, v_w1):
    # halves inhibit keeps all program exposures at half of the threshold,
    # so write-'1' findings can never be flagged when thresholds match the
    # write voltages
    report = verify_scheme(v_w0, v_w1, SchemeKind.MIXED)
    for f in report.findings:
        if f.op == "write1":
            assert f.flag != FLAG_DISTURB
            assert abs(f.v_gb) <= v_w1 / 2.0 + 1e-12
