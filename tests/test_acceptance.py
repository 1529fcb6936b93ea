"""End-to-end acceptance checks for the whole toolkit.

Each test is one release criterion; the terminal summary prints one
PASS/FAIL line per criterion (see conftest.py).  Tolerances and runtime
budgets are part of the criteria and asserted explicitly.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fefetsim import analytics, biasing, experiments, ferro
from fefetsim.biasing import CellGroup, SchemeKind
from fefetsim.config import (load_config, make_device, make_ferro,
                             make_parasitics)
from fefetsim.engine import ArrayState
from oracles import (reverse_branch, sneak_resistance_bound,
                     sneak_resistance_network)

CFG, _ = load_config()
FE = make_ferro(CFG)
DEV = make_device(CFG)
PAR = make_parasitics(CFG)


def test_a01_hysteresis_identities_and_continuity():
    t0 = time.monotonic()
    # major-loop remanence is +/-Pr to 1e-6 relative
    down = ferro.positive_saturation(FE)
    down = ferro._move_to(FE, down, 0.0)
    assert down.p == pytest.approx(FE.pr, rel=1e-6)
    up = ferro.negative_saturation(FE)
    up = ferro._move_to(FE, up, 0.0)
    assert up.p == pytest.approx(-FE.pr, rel=1e-6)
    # saturation at +/-10 Ec
    up = ferro._move_to(FE, up, 10.0 * FE.ec)
    assert up.p >= 0.999 * FE.ps * (1.0 - 1e-6)
    down = ferro._move_to(FE, down, -10.0 * FE.ec)
    assert down.p <= -0.999 * FE.ps * (1.0 - 1e-6)
    # branch continuity across 1e4 random reversals, < 1e-12 C/m^2
    rng = np.random.default_rng(CFG.seed)
    state = ferro.negative_saturation(FE)
    for e in rng.uniform(-3.0 * FE.ec_program, 3.0 * FE.ec_program, 10_000):
        state = ferro._move_to(FE, state, float(e))
        p_here = state.p
        state = reverse_branch(state, FE)
        assert abs(state.p - p_here) < 1e-12
    assert time.monotonic() - t0 < 10.0


def test_a02_field_update_matches_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(CFG.seed)
    for _ in range(1000):
        e0 = float(rng.uniform(-5e8, 5e8))
        e_ext = float(rng.uniform(-5e8, 5e8))
        dt = float(10.0 ** rng.uniform(-9, -3))
        tau = float(10.0 ** rng.uniform(-8, -4))
        params = dataclasses.replace(FE, tau_eff=tau)
        expected = e_ext + (e0 - e_ext) * math.exp(-dt / tau)
        assert ferro.advance_field(params, e0, e_ext, dt) \
            == pytest.approx(expected, rel=1e-12)
    assert time.monotonic() - t0 < 1.0


def test_a03_write_scheme_audit_golden_cases():
    t0 = time.monotonic()
    # thirds-only at (v_w0, v_w1) = (-1, 4.5): the program pulse leaves the
    # diagonal group at exactly -1.5 V, past the 1 V erase threshold
    report = biasing.verify_scheme(-1.0, 4.5, SchemeKind.VDD3_ONLY)
    hits = [f for f in report.findings if f.flag == biasing.FLAG_DISTURB]
    assert len(hits) == 1
    assert hits[0].group is CellGroup.DIAG and hits[0].op == "write1"
    assert hits[0].v_gb == 4.5 / 3.0 - 2.0 * 4.5 / 3.0    # exactly -1.5
    # same scheme at 2.1 V: exposure -0.7 V is partial-risk, not disturb
    report = biasing.verify_scheme(-1.0, 2.1, SchemeKind.VDD3_ONLY)
    assert not report.any_disturb
    partial = [f for f in report.findings if f.flag == biasing.FLAG_PARTIAL]
    assert len(partial) == 1
    assert partial[0].v_gb == 2.1 / 3.0 - 2.0 * 2.1 / 3.0  # exactly -0.7
    # the mixed scheme at the operating point passes everywhere and keeps
    # the program-pulse diagonal group at exactly 0 V
    report = biasing.verify_scheme(-1.5, 3.2, SchemeKind.MIXED)
    assert all(f.flag == biasing.FLAG_PASS for f in report.findings)
    diag1 = [f for f in report.findings
             if f.op == "write1" and f.group is CellGroup.DIAG]
    assert diag1[0].v_gb == 0.0
    assert time.monotonic() - t0 < 1.0


def test_a04_single_write_disturb_matrix_16x16():
    t0 = time.monotonic()
    res = experiments.disturb_matrix(
        dataclasses.replace(CFG, rows=16, cols=16))
    assert len(res.rows) == 16
    # selected cell lands in the target band; every unselected cell keeps
    # its logic state through either write op
    assert all(e.read_logic == e.expected_logic for e in res.rows)
    assert res.summary["band_separation"] >= 1e2
    assert time.monotonic() - t0 < 120.0


def test_a05_long_bitline_scaling_to_2048_rows():
    t0 = time.monotonic()
    res = experiments.long_bitline_sweep(CFG)
    s = res.summary
    assert 3e-9 <= s["and_read0_at_2048"] <= 300e-9
    assert s["and_over_cand_read0_at_2048"] >= 100.0
    assert s["cand_on_off_at_2048"] >= 1e3
    # read window degrades monotonically with array size for both flavors
    for topo in ("and", "cand"):
        ratios = [r.window_ratio for r in res.rows if r.topology == topo]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert time.monotonic() - t0 < 120.0


def test_a06_two_cycle_word_write_all_256_words():
    t0 = time.monotonic()
    array = ArrayState(biasing.Topology.CAND, 8, 8, FE, DEV, PAR)
    for word in range(256):
        row = word % 8
        cycles = experiments.write_word(CFG, array, row, word)
        assert cycles == 2
        readback, _ = experiments.read_word(CFG, array, row)
        assert readback == word
    assert time.monotonic() - t0 < 300.0


def test_a07_sneak_resistance_formula_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(CFG.seed)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        r_on = float(10.0 ** rng.uniform(0, 4))
        r_off = r_on * float(10.0 ** rng.uniform(2, 6))
        est = analytics.sneak_resistance_formula(r_on, r_off, m, n)
        # hand-written arithmetic oracle, exact
        assert est == r_on / (n - 1) + r_off / ((m - 1) * (n - 1)) \
            + r_off / (m - 1)
        # return-leg lower bound holds in every evaluation
        assert est >= sneak_resistance_bound(r_off, m)
        # exact linear-network oracle agrees within a factor of two
        exact = sneak_resistance_network(r_on, r_off, m, n)
        assert exact / 2.0 <= est <= exact * 2.0
    assert time.monotonic() - t0 < 10.0


def test_a08_read_power_worst_case_and_flatness():
    t0 = time.monotonic()
    assert analytics.select_line_power_max(8, 400e-9, 1.0) == 3.2e-6
    res = experiments.power_sweep(CFG)
    assert [r[0] for r in res.rows] == [2, 4, 8, 16, 32]
    assert res.summary["flatness"] <= 1.2
    assert res.summary["max_leak_share"] < 0.1
    assert time.monotonic() - t0 < 60.0


def test_a09_cell_area_table():
    t0 = time.monotonic()
    assert analytics.cell_area("and") == pytest.approx(244.14, abs=0.005)
    assert analytics.cell_area("cand") == pytest.approx(83.57, abs=0.005)
    assert analytics.cell_area("and", True) == pytest.approx(801.54, abs=0.005)
    assert analytics.cell_area("cand", True) == pytest.approx(415.2, abs=0.005)
    # the improvement factors `fefetsim area` reports
    summary = experiments.area_comparison().summary
    assert summary["improvement_without_spacing"] == pytest.approx(2.92, abs=0.005)
    assert summary["improvement_with_spacing"] == pytest.approx(1.93, abs=0.005)
    assert time.monotonic() - t0 < 1.0


def test_a10_monte_carlo_variability_1000_samples():
    t0 = time.monotonic()
    cfg = dataclasses.replace(CFG, samples=1000)
    res = experiments.monte_carlo(cfg)
    assert res.summary["samples"] == 1000
    assert not res.summary["band_overlap"]
    assert res.summary["min_on_off_ratio"] >= 10.0
    rerun = experiments.monte_carlo(cfg)
    assert rerun.rows == res.rows       # bit-identical per seed
    assert time.monotonic() - t0 < 300.0
