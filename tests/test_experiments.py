import dataclasses

import numpy as np
import pytest

from fefetsim import biasing, device, engine, experiments, ferro
from fefetsim.biasing import Topology
from fefetsim.config import load_config
from fefetsim.engine import ArrayState
from fefetsim import config as cfgmod
from oracles import cells_of

CFG, _ = load_config()


def test_nominal_cell_bands():
    # program, erase from programmed, then one half-select pulse
    fe, dev = cfgmod.make_ferro(CFG), cfgmod.make_device(CFG)
    one = device.write_cell(dev, fe, ferro.negative_saturation(fe),
                            CFG.v_w1, CFG.t_pulse)
    zero = device.write_cell(dev, fe, one, CFG.v_w0, CFG.t_pulse)
    zdist = device.write_cell(dev, fe, zero, CFG.v_w1 / 2.0, CFG.t_pulse)
    vt_one, vt_zero, vt_zdist = (device.cell_vt(dev, fe, st)
                                 for st in (one, zero, zdist))
    i_one, i_zero, i_zdist = (device.read_current(dev, fe, st, CFG.v_wl,
                                                  CFG.v_sl)
                              for st in (one, zero, zdist))
    assert vt_one < vt_zdist < vt_zero
    assert i_one / i_zdist > 100
    assert i_zdist > i_zero


def test_bitline_sweep_monotone_and_ordered():
    res = experiments.long_bitline_sweep(CFG)
    by_topo = {}
    for r in res.rows:
        by_topo.setdefault(r.topology, []).append(r)
    for topo, rows in by_topo.items():
        # '0' read current (pure leak background) grows with array size...
        i0 = [r.i_read0 for r in rows]
        assert all(b > a for a, b in zip(i0, i0[1:]))
        # ...so the read window shrinks with array size
        ratios = [r.window_ratio for r in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert all(r.window_ratio > 1.0 for r in rows)
    # column isolation: the shared-bulk flavor leaks far less at every size
    for a, c in zip(by_topo["and"], by_topo["cand"]):
        assert a.i_read0 > 10 * c.i_read0


def test_disturb_matrix_preserves_logic():
    res = experiments.disturb_matrix(dataclasses.replace(CFG, rows=8, cols=8))
    assert len(res.rows) == 16
    assert res.summary["all_logic_preserved"]
    assert res.summary["band_separation"] > 1e2


@pytest.mark.parametrize("topology", ["cand", "and"])
def test_state_one_array_copied_from_state_zero_matches_a_fresh_one(topology):
    # disturb_matrix builds its state-0 array with a program and an erase
    # sweep, and its state-1 array as a copy of it plus one program sweep;
    # every cell must hold the state the same sweeps give it when it is
    # pulsed on its own
    cfg = dataclasses.replace(CFG, topology=topology)
    rows, cols = 3, 4
    zero = experiments._make_array(cfg, rows, cols)
    experiments._init_uniform(cfg, zero, cfg.v_w0, cfg.v_w1)
    one = zero.copy()
    experiments._write_rows(cfg, one, range(rows), range(cols), cfg.v_w1)

    fe, dev = cfgmod.make_ferro(cfg), cfgmod.make_device(cfg)
    ref = [[ferro.negative_saturation(fe) for _ in range(cols)]
           for _ in range(rows)]
    swept = []
    for v_w in (cfg.v_w1, cfg.v_w0, cfg.v_w1):
        for r in range(rows):
            plan = biasing.write_bias(cfgmod.topology_of(cfg), rows, cols, r,
                                      range(cols), v_w)
            for rr in range(rows):
                for c in range(cols):
                    ref[rr][c] = device.write_cell(
                        dev, fe, ref[rr][c],
                        biasing.cell_write_voltage(plan, rr, c), cfg.t_pulse)
        swept.append([row[:] for row in ref])
    assert cells_of(zero) == swept[1]
    assert cells_of(one) == swept[2]


def test_write_word_always_two_cycles():
    for word in (0x00, 0xFF, 0x5A):
        array = ArrayState(Topology.CAND, 4, 8, cfgmod.make_ferro(CFG),
                           cfgmod.make_device(CFG), cfgmod.make_parasitics(CFG))
        cycles = experiments.write_word(CFG, array, 1, word)
        assert cycles == 2
        readback, _ = experiments.read_word(CFG, array, 1)
        assert readback == word


def test_word_write_demo_small_subset():
    res = experiments.word_write_demo(CFG, rows=4, cols=8,
                                      words=(0x00, 0x0F, 0xA5, 0xFF))
    assert res.summary["all_match"]
    assert res.summary["words"] == 4


def test_monte_carlo_reruns_bit_identical():
    cfg = dataclasses.replace(CFG, samples=20, seed=1234)
    a = experiments.monte_carlo(cfg)
    b = experiments.monte_carlo(cfg)
    assert a.rows == b.rows
    assert a.summary == b.summary
    c = experiments.monte_carlo(dataclasses.replace(cfg, seed=99))
    assert c.rows != a.rows


def test_monte_carlo_bands_do_not_overlap():
    res = experiments.monte_carlo(dataclasses.replace(CFG, samples=50))
    assert not res.summary["band_overlap"]
    assert res.summary["min_on_off_ratio"] > 10
    assert len(res.rows) == 50 * 4


def test_monte_carlo_counts_reads_against_i_ref():
    cfg = dataclasses.replace(CFG, samples=5)
    assert experiments.monte_carlo(cfg).summary["misreads"] == 0
    # in the AND array the 511-cell leak lifts every '0' above i_ref
    res = experiments.monte_carlo(dataclasses.replace(cfg, topology="and"))
    assert res.summary["misreads"] > 0


def test_power_sweep_flat_and_leak_dominated_by_cells():
    res = experiments.power_sweep(CFG)
    assert res.summary["flatness"] <= 1.2
    assert res.summary["max_leak_share"] < 0.1
    assert res.summary["word_power_max_8x"] == pytest.approx(3.2e-6)


def test_power_sweep_leak_share_follows_topology():
    shares = {t: experiments.power_sweep(dataclasses.replace(
        CFG, topology=t)).summary["max_leak_share"] for t in ("and", "cand")}
    assert shares["and"] > 100 * shares["cand"]


def test_accumulative_disturb_monotone():
    res = experiments.accumulative_disturb_sweep(CFG)
    assert res.rows[0][0] == 1
    assert res.rows[-1][0] == experiments.DISTURB_PULSES
    assert res.summary["monotone_drift"]


def test_accumulative_disturb_stress_follows_topology():
    # C-AND half-selects at exactly v_w1 / 2; the AND array's thirds
    # program plan exposes an unselected cell to about v_w1 / 3
    cand = experiments.accumulative_disturb_sweep(CFG)
    fe, dev = cfgmod.make_ferro(CFG), cfgmod.make_device(CFG)
    st = device.write_cell(dev, fe, ferro.negative_saturation(fe),
                           CFG.v_w1, CFG.t_pulse)
    st = device.write_cell(dev, fe, st, CFG.v_w0, CFG.t_pulse)
    st = engine.accumulate_disturb(dev, fe, st, CFG.v_w1 / 2.0,
                                   experiments.DISTURB_PULSES, CFG.t_pulse)
    assert cand.summary["final_vt"] == device.cell_vt(dev, fe, st)
    and_ = experiments.accumulative_disturb_sweep(
        dataclasses.replace(CFG, topology="and"))
    assert and_.rows != cand.rows
    assert 0.0 < and_.summary["final_delta_vt"] < cand.summary["final_delta_vt"]


_TABLES = {
    "bitline": (lambda: experiments.long_bitline_sweep(CFG),
                experiments.BitlineRow),
    "disturb": (lambda: experiments.disturb_matrix(
        dataclasses.replace(CFG, rows=4, cols=4)),
                experiments.DisturbEntry),
    "word_write": (lambda: experiments.word_write_demo(CFG, rows=2, cols=2),
                   experiments.WordWriteEntry),
    "mc": (lambda: experiments.monte_carlo(
        dataclasses.replace(CFG, samples=3)), None),
    "power": (lambda: experiments.power_sweep(CFG), None),
    "disturb_accumulate": (
        lambda: experiments.accumulative_disturb_sweep(CFG), None),
    "transfer": (lambda: experiments.device_transfer_sweep(CFG), None),
    "hysteresis": (lambda: experiments.hysteresis_sweep(CFG), None),
    "findings": (lambda: experiments.scheme_audit(
        CFG, biasing.SchemeKind.MIXED), None),
    "area": (experiments.area_comparison, None),
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_every_table_is_well_formed(name):
    make, row_type = _TABLES[name]
    table = make()
    assert isinstance(table, experiments.Table)
    assert table.rows
    assert all(len(row) == len(table.header) for row in table.rows)
    assert table.summary is None or isinstance(table.summary, dict)
    if row_type is not None:
        assert len(row_type._fields) == len(table.header)
        assert all(type(row) is row_type for row in table.rows)


def test_device_transfer_sweep_window():
    sweep = experiments.device_transfer_sweep(CFG)
    header, rows = sweep.header, sweep.rows
    assert header == ["vgs_volts", "ids_amps_state0", "ids_amps_state1"]
    arr = np.array(rows)
    # the stored '1' conducts more than the stored '0' at every gate bias
    assert np.all(arr[:, 2] >= arr[:, 1])


def test_hysteresis_sweep_is_a_closed_loop():
    loop = experiments.hysteresis_sweep(CFG)
    header, pts = loop.header, loop.rows
    assert header == ["v_volts", "p_c_per_m2"]
    v = np.array([p[0] for p in pts])
    p = np.array([p[1] for p in pts])
    assert v.max() >= CFG.v_w1
    # the default amplitude does not fully saturate the program branch, so
    # closure is near-exact rather than exact
    assert abs(p[-1] - p[0]) < 1e-5 * CFG.ps
