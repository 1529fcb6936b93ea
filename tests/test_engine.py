import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from fefetsim import biasing, device, engine, experiments, ferro
from fefetsim.biasing import Topology
from fefetsim.config import (RunConfig, make_device, make_ferro,
                             make_parasitics)
from fefetsim.device import GATE_DIRECT, GATE_DIVIDER
from fefetsim.engine import ArrayState
from oracles import line_stamps

FE = make_ferro(RunConfig())
DEV = make_device(RunConfig())
PAR = make_parasitics(RunConfig())
T_PULSE = 10e-6
V_READ = 1.0


def _array(topology, rows, cols, bits=None):
    arr = ArrayState(topology, rows, cols, FE, DEV, PAR)
    if bits is not None:
        arr.set_pattern(bits)
    return arr


def test_parasitic_segment_values():
    # a 9-lambda metal segment at lambda = 50 nm is 0.45 um of wire
    assert PAR.seg_resistance(9.0) == pytest.approx(0.45 * 9.45)
    assert PAR.seg_capacitance(9.0) == pytest.approx(0.45 * 0.22e-15)
    assert PAR.seg_resistance(9.0, poly=True) == pytest.approx(0.45 * 2000.0)


def test_solve_read_meets_residual_everywhere():
    for topology in Topology:
        arr = _array(topology, 8, 8, np.ones((8, 8)))
        res = engine.read_cells(arr, 3, (0, 4, 7), V_READ, V_READ)
        assert res.max_residual <= engine.RESIDUAL_TOL


def test_single_cell_read_matches_device_current():
    # a 1x1 array has no sneak paths: the sensed current is the device
    # current less only the wire drop, which is negligible at these levels
    for topology in Topology:
        arr = _array(topology, 1, 1, [[1]])
        res = engine.read_cells(arr, 0, (0,), V_READ, V_READ)
        i_dev = device.drain_current(DEV, V_READ, V_READ, arr.vt(0, 0))
        assert res.current(0) == pytest.approx(i_dev, rel=1e-4)


def test_read_window_ordering_small_arrays():
    # every '1' read exceeds every '0' read by orders of magnitude, with
    # the worst-case all-opposite background
    for topology in Topology:
        bits1 = np.ones((8, 8)); bits1[3][4] = 1
        bits0 = np.ones((8, 8)); bits0[3][4] = 0
        arr1 = _array(topology, 8, 8, bits1)
        arr0 = _array(topology, 8, 8, bits0)
        i1 = engine.read_cells(arr1, 3, (4,), V_READ, V_READ).current(4)
        i0 = engine.read_cells(arr0, 3, (4,), V_READ, V_READ).current(4)
        assert i1 > 0 and i0 > 0
        assert i1 / i0 > 1e3


def test_read_does_not_flip_stored_pattern():
    bits = (np.arange(16).reshape(4, 4) % 2).tolist()
    arr = _array(Topology.CAND, 4, 4, bits)
    vts_before = arr.vts()
    engine.read_cells(arr, 1, (0, 1, 2, 3), V_READ, V_READ)
    # the DC read solve itself never touches the hysteresis state
    assert np.array_equal(arr.vts(), vts_before)


def test_read_determinism():
    arr_a = _array(Topology.AND, 6, 6, np.eye(6))
    arr_b = _array(Topology.AND, 6, 6, np.eye(6))
    res_a = engine.read_cells(arr_a, 2, (2, 3), V_READ, V_READ)
    res_b = engine.read_cells(arr_b, 2, (2, 3), V_READ, V_READ)
    assert res_a.col_currents == res_b.col_currents


def test_read_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(engine, "MAX_NEWTON_ITER", 0)
    arr = _array(Topology.CAND, 2, 2, [[1, 0], [0, 1]])
    with pytest.raises(engine.ConvergenceError, match="after 0 iterations"):
        engine.read_cells(arr, 0, (0, 1), V_READ, V_READ)


def test_read_whose_steps_all_go_uphill_raises_at_once(monkeypatch):
    # a linear cell of 4e-7 S that reports itself as a -1 S conductance, so
    # every Newton step raises the residual at every damping scale
    calls = []

    def uphill(dev, vg, vd, vs, vt):
        calls.append(vd)
        return 4e-7 * (vd - vs), -1.0, 1.0

    monkeypatch.setattr(device, "drain_current_and_derivs", uphill)
    arr = _array(Topology.CAND, 1, 1, [[1]])
    with pytest.raises(engine.ConvergenceError,
                       match="line search stalled at iteration 1"):
        engine.read_cells(arr, 0, (0,), V_READ, V_READ)
    # the first assembly, then one iteration's damped steps down to 1e-8
    assert len(calls) == 1 + 28


def test_numpy_read_whose_steps_all_go_uphill_raises_at_once(monkeypatch):
    # the same -1 S cells on a network above the crossover, where every
    # assembly is one call of the numpy device
    calls = []

    def uphill(dev, vg, vd, vs, vt):
        calls.append(vd.size)
        return 4e-7 * (vd - vs), np.full_like(vd, -1.0), np.full_like(vd, 1.0)

    monkeypatch.setattr(device, "drain_current_and_derivs_array", uphill)
    arr = _array(Topology.CAND, 8, 8, np.ones((8, 8)))
    assert arr.rows * arr.cols >= engine.VECTOR_CELLS
    with pytest.raises(engine.ConvergenceError,
                       match="line search stalled at iteration 1"):
        engine.read_cells(arr, 0, range(8), V_READ, V_READ)
    assert calls == [64] * (1 + 28)


def test_plan_array_mismatch_rejected():
    arr = _array(Topology.CAND, 4, 4)
    wrong_shape = biasing.cand_write1_bias(4, 5, 0, (0,), 3.2)
    wrong_topology = biasing.and_write_bias(4, 4, 0, (0,), 3.2)
    with pytest.raises(ValueError):
        engine.apply_write(arr, wrong_shape, T_PULSE)
    with pytest.raises(ValueError):
        engine.apply_write(arr, wrong_topology, T_PULSE)
    with pytest.raises(ValueError):
        engine.solve_read(arr, biasing.and_read_bias(4, 4, 0, (0,), 1.0, 1.0))


@pytest.mark.parametrize("rows, cols", [(8, 8), (2, 2), (4, 5), (5, 4)])
def test_read_plan_of_another_shape_rejected(rows, cols):
    # unchecked, a larger plan would read part of the array and a smaller
    # one would leave lines without a drive
    for topology in Topology:
        arr = _array(topology, 4, 4)
        plan = biasing.read_bias(topology, rows, cols, 0, (0,), V_READ, V_READ)
        with pytest.raises(ValueError, match="shape"):
            engine.solve_read(arr, plan)


def test_write_then_read_round_trip():
    arr = _array(Topology.CAND, 4, 4)
    engine.apply_write(arr, biasing.cand_write1_bias(4, 4, 0, range(4), 3.2),
                       T_PULSE)
    engine.apply_write(arr, biasing.cand_write1_bias(4, 4, 2, (1, 3), 3.2),
                       T_PULSE)
    engine.apply_write(arr, biasing.cand_write0_bias(4, 4, 2, (0, 2), -1.5),
                       T_PULSE)
    res = engine.read_cells(arr, 2, range(4), V_READ, V_READ)
    assert res.current(1) > 1e-8 and res.current(3) > 1e-8
    assert res.current(0) < 1e-9 and res.current(2) < 1e-9


def test_halves_write_leaves_diagonal_cells_untouched():
    arr = _array(Topology.CAND, 4, 4)
    vt_before = arr.vt(3, 3)
    engine.apply_write(arr, biasing.cand_write1_bias(4, 4, 0, (0,), 3.2),
                       T_PULSE)
    # cell (3,3) is in the diagonal group of a halves-scheme program and
    # sees exactly 0 V, so its state cannot move at all
    assert arr.vt(3, 3) == vt_before


@pytest.mark.parametrize("topology", Topology)
def test_vts_has_the_bytes_of_per_cell_vt_after_real_writes(topology):
    # program, erase and partial pulses leave cells on minor loops, not
    # only at the saturated rest states set_pattern gives
    rows, cols = 5, 6
    arr = _array(topology, rows, cols)
    for r, sel, v in ((0, range(cols), 3.2), (1, (1, 4), 3.2),
                      (1, (1,), -1.5), (3, (0, 2, 5), 2.7),
                      (4, range(cols), -1.1), (2, (3,), 4.1)):
        engine.apply_write(arr, biasing.write_bias(topology, rows, cols, r,
                                                   sel, v), T_PULSE)
    ref = np.array([[device.cell_vt(DEV, FE, st) for st in row]
                    for row in arr.cells])
    assert len(set(ref.ravel())) > 3
    vts = arr.vts()
    assert vts.shape == (rows, cols)
    assert vts.tobytes() == ref.tobytes()


def test_column_model_cross_checks_full_solver_and():
    # the scalable AND column model must agree with the Newton solve of the
    # real network for a mid-size array (wire drops are tiny at 16 rows)
    rows = 16
    bits = np.ones((rows, 2)); bits[0][0] = 0
    arr = _array(Topology.AND, rows, 2, bits)
    i_solver = engine.read_cells(arr, 0, (0,), V_READ, V_READ).current(0)
    i_cell, i_leak = engine.column_readout_with_leak(
        DEV, Topology.AND, rows, 2, arr.vt(0, 0), arr.vt(1, 0),
        V_READ, V_READ)
    assert i_solver == pytest.approx(i_cell + i_leak, rel=0.05)
    # square worst cases, every cell '1' but the read (0, 0): network / model
    # is 1.000000 at 16 and 256 rows, 0.999896 at 1024 and 0.999585 at 2048
    i_ref = RunConfig().i_ref
    for rows in (16, 256, 1024, 2048):
        bits = np.ones((rows, rows), dtype=np.uint8); bits[0, 0] = 0
        arr = _array(Topology.AND, rows, rows, bits)
        i_solver = engine.read_cells(arr, 0, (0,), V_READ, V_READ).current(0)
        i_cell, i_leak = engine.column_readout_with_leak(
            DEV, Topology.AND, rows, rows, arr.vt(0, 0), arr.vt(1, 0),
            V_READ, V_READ)
        assert i_solver == pytest.approx(i_cell + i_leak, rel=1e-3)
        # AND's long-bitline read error: from 1024 rows on the leak lifts the
        # stored '0' above i_ref (4.54e-9 A at 1024 rows, 9.08e-9 A at 2048)
        assert (i_solver > i_ref) == (rows >= 1024)


def test_cand_leak_stays_below_and_leak():
    # column isolation is the whole point of the shared-bulk topology
    vt1 = device.vt_of_polarization(DEV, FE, FE.pr)
    vt0 = device.vt_of_polarization(DEV, FE, -FE.pr)
    for rows in (16, 256, 2048):
        _, leak_and = engine.column_readout_with_leak(
            DEV, Topology.AND, rows, rows, vt0, vt1, V_READ, V_READ)
        _, leak_cand = engine.column_readout_with_leak(
            DEV, Topology.CAND, rows, rows, vt0, vt1, V_READ, V_READ)
        assert leak_cand < leak_and / 10.0


def test_column_model_leak_grows_with_rows():
    vt1 = device.vt_of_polarization(DEV, FE, FE.pr)
    vt0 = device.vt_of_polarization(DEV, FE, -FE.pr)
    for topology in Topology:
        leaks = [engine.column_readout_with_leak(
            DEV, topology, n, n, vt0, vt1, V_READ, V_READ)[1]
            for n in (4, 16, 64, 256)]
        assert all(b > a for a, b in zip(leaks, leaks[1:]))


def test_accumulate_disturb_reports_every_pulse():
    state = device.write_cell(DEV, FE, ferro.negative_saturation(FE), -1.5,
                              T_PULSE)
    final = engine.accumulate_disturb(DEV, FE, state, 1.6, 50, T_PULSE)
    states = [state]
    for _ in range(50):
        states.append(engine.accumulate_disturb(DEV, FE, states[-1], 1.6, 1,
                                                T_PULSE))
    vts = [device.cell_vt(DEV, FE, st) for st in states[1:]]
    assert len(vts) == 50
    assert states[-1] == final
    # half-select stress can only program, never erase further
    assert all(b <= a + 1e-12 for a, b in zip(vts, vts[1:]))


def test_set_pattern_hits_saturated_rest_states():
    arr = _array(Topology.AND, 2, 2, [[0, 1], [1, 0]])
    vt1 = device.vt_of_polarization(DEV, FE, FE.pr)
    vt0 = device.vt_of_polarization(DEV, FE, -FE.pr)
    assert arr.vt(0, 1) == pytest.approx(vt1)
    assert arr.vt(0, 0) == pytest.approx(vt0)


@pytest.mark.parametrize("shape", [(3, 4), (5, 4), (4, 3), (4, 5), (16,)])
@pytest.mark.parametrize("as_array", [False, True])
def test_set_pattern_of_another_shape_is_rejected(shape, as_array):
    # callers pass nested lists and numpy matrices; a 4x4 one of either is
    # taken, and one of any other shape leaves the array as it was
    bits = np.random.default_rng(5).integers(0, 2, size=(4, 4))
    arr = _array(Topology.CAND, 4, 4, bits if as_array else bits.tolist())
    assert arr.cells == [[ferro.make_state(FE, bool(b)) for b in row]
                         for row in bits]
    states, index = arr.states, arr.index
    wrong = np.ones(shape, dtype=int)
    with pytest.raises(ValueError, match="pattern of shape"):
        arr.set_pattern(wrong if as_array else wrong.tolist())
    assert arr.states is states and arr.index is index


# --------------------------------------------------------------------------
# The state table and its index grid


def _assert_table_invariants(arr):
    """Every state is held once and every cell points at one."""
    assert len(set(arr.states)) == len(arr.states)
    assert arr.index.shape == (arr.rows, arr.cols)
    assert np.issubdtype(arr.index.dtype, np.integer)
    assert 0 <= arr.index.min() and arr.index.max() < len(arr.states)
    assert not arr.index.flags.writeable


def _count_writes(monkeypatch):
    real, calls = device.write_cell, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(device, "write_cell", counted)
    return calls


@pytest.mark.parametrize("pattern", ["uniform", "random"])
def test_each_distinct_state_and_gate_voltage_is_written_once(monkeypatch,
                                                               pattern):
    n = 24
    arr = _array(Topology.CAND, n, n)
    if pattern == "random":
        arr.set_pattern(np.random.default_rng(3).integers(0, 2, size=(n, n)))
    calls = _count_writes(monkeypatch)
    # a program sweep, an erase sweep and single-cell writes: the cells part
    # into few (state, v_gb) pairs, and the later phases start from states
    # the earlier ones left
    plans = [biasing.write_bias(Topology.CAND, n, n, r, range(n), v)
             for v in (3.2, -1.5) for r in (0, 11, 23)]
    plans += [biasing.write_bias(Topology.CAND, n, n, 11, (11,), v)
              for v in (3.2, -1.5)]
    for plan in plans:
        groups = {(arr.cells[r][c], biasing.cell_write_voltage(plan, r, c))
                  for r in range(n) for c in range(n)}
        before = len(calls)
        engine.apply_write(arr, plan, T_PULSE)
        assert len(calls) - before == len(groups)
        assert {(st, v) for _, _, st, v, _ in calls[before:]} == groups
        _assert_table_invariants(arr)
    assert len(arr.states) > 2


def test_random_pattern_vts_has_the_bytes_of_per_cell_vt():
    n = 256
    arr = _array(Topology.CAND, n, n,
                 np.random.default_rng(11).integers(0, 2, size=(n, n)))
    _assert_table_invariants(arr)
    ref = np.array([[device.cell_vt(DEV, FE, st) for st in row]
                    for row in arr.cells])
    assert arr.vts().tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# Grouped write path against a per-cell oracle


def _oracle_write(dev, cells, plan, duration):
    """Every cell pulsed on its own: the scalar write at its plan voltage."""
    for r, row in enumerate(cells):
        for c, state in enumerate(row):
            row[c] = device.write_cell(
                dev, FE, state, biasing.cell_write_voltage(plan, r, c), duration)


@st.composite
def _write_runs(draw):
    topology = draw(st.sampled_from(Topology))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols,
                                  max_size=cols), min_size=rows, max_size=rows))
    plans = []
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.integers(0, rows - 1))
        sel = draw(st.sets(st.integers(0, cols - 1), min_size=1))
        # repeated levels revisit turning points; free levels make new ones
        v = draw(st.sampled_from((1.5, 3.2)) | st.floats(0.2, 4.5))
        if draw(st.booleans()):
            v = -v
        plan = biasing.write_bias(topology, rows, cols, row, sel, v)
        plans.append((plan, draw(st.sampled_from((1e-7, 1e-6, T_PULSE)))))
    return topology, rows, cols, bits, plans


@given(_write_runs(), st.sampled_from((GATE_DIRECT, GATE_DIVIDER)))
@settings(max_examples=150, deadline=None)
def test_interned_writes_match_per_cell_oracle(run, gate_mode):
    topology, rows, cols, bits, plans = run
    dev = dataclasses.replace(DEV, gate_mode=gate_mode)
    arr = ArrayState(topology, rows, cols, FE, dev, PAR)
    arr.set_pattern(bits)
    ref = [[ferro.make_state(FE, bool(b)) for b in row] for row in bits]
    for plan, duration in plans:
        engine.apply_write(arr, plan, duration)
        _oracle_write(dev, ref, plan, duration)
        assert arr.cells == ref
        _assert_table_invariants(arr)
        ref_vts = np.array([[device.cell_vt(dev, FE, s) for s in row]
                            for row in ref])
        assert np.array_equal(arr.vts(), ref_vts)


def test_writes_never_reach_a_copy_or_another_array():
    arr = _array(Topology.CAND, 4, 4, np.eye(4))
    twin = arr.copy()
    other = _array(Topology.CAND, 4, 4, np.eye(4))
    seen = [row[:] for a in (arr, twin, other) for row in a.cells]
    before = [row[:] for row in seen]
    for plan in (biasing.cand_write1_bias(4, 4, 1, (0, 2), 3.2),
                 biasing.cand_write0_bias(4, 4, 0, range(4), -1.5)):
        engine.apply_write(arr, plan, T_PULSE)
    assert seen == before
    assert twin.cells == before[4:8]
    assert other.cells == before[8:]
    assert not np.array_equal(arr.vts(), twin.vts())


def test_write_that_raises_leaves_the_array_unchanged(monkeypatch):
    arr = _array(Topology.CAND, 3, 3, np.eye(3))
    cells, vts = [row[:] for row in arr.cells], arr.vts()
    real, calls = device.write_cell, []

    def fail_on_second_group(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("gate divider did not converge")
        return real(*args)

    monkeypatch.setattr(device, "write_cell", fail_on_second_group)
    with pytest.raises(RuntimeError):
        engine.apply_write(arr, biasing.cand_write1_bias(3, 3, 0, (0,), 3.2),
                           T_PULSE)
    assert all(a is b for ra, rb in zip(arr.cells, cells)
               for a, b in zip(ra, rb))
    assert np.array_equal(arr.vts(), vts)


# --------------------------------------------------------------------------
# Read network against a dense oracle


def _oracle_read(arr, plan):
    """Sensed currents of the read network built from its description:
    dense nodal matrices, one scalar device call per cell, plain Newton
    to a residual far below the solver's, or to its roundoff floor below
    1e-2 RESIDUAL_TOL."""
    rows, cols, par = arr.rows, arr.cols, arr.parasitics
    n = 2 * rows * cols
    sl = lambda r, c: r * cols + c
    bl = lambda r, c: rows * cols + r * cols + c
    r_col = par.seg_resistance(engine.PITCH_Y)
    # (nodes from the driven end, segment resistance, drive) of every line
    lines = [([bl(r, c) for r in range(rows)], r_col, plan.bl[c])
             for c in range(cols)]
    if arr.topology is Topology.CAND:
        lines += [([sl(r, c) for c in range(cols)],
                   par.seg_resistance(engine.PITCH_X), plan.sl[r])
                  for r in range(rows)]
    else:
        lines += [([sl(r, c) for r in range(rows)], r_col, plan.sl[c])
                  for c in range(cols)]
    g_lin, inj, v = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    for nodes, r_seg, drive in lines:
        for p, q in zip(nodes, nodes[1:]):
            g_lin[[p, q, p, q], [p, q, q, p]] += [1 / r_seg] * 2 + [-1 / r_seg] * 2
        if drive is None:
            g_lin[nodes[0], nodes[0]] += engine.G_FLOAT
        else:
            g_lin[nodes[0], nodes[0]] += 1 / r_seg
            inj[nodes[0]] += drive / r_seg
            v[nodes] = drive
    vts = arr.vts()
    res = np.inf
    for _ in range(50):
        f, jac = g_lin @ v - inj, g_lin.copy()
        for r in range(rows):
            for c in range(cols):
                d, s = bl(r, c), sl(r, c)
                i, di_dd, di_ds = device.drain_current_and_derivs(
                    arr.dev, plan.wl[r], v[d], v[s], vts[r, c])
                f[d] += i
                f[s] -= i
                jac[[d, d, s, s], [d, s, d, s]] += [di_dd, di_ds, -di_dd, -di_ds]
        # a residual that stops falling has met roundoff, which sits just
        # above 1e-3 RESIDUAL_TOL on some arrays (1.05e-16 A on a 7 x 9 one)
        new = np.max(np.abs(f))
        if new < 1e-3 * engine.RESIDUAL_TOL or (
                new >= res and new < 1e-2 * engine.RESIDUAL_TOL):
            break
        res = new
        v = v - np.linalg.solve(jac, f)
    else:
        raise AssertionError("oracle Newton did not converge")
    # read_cells reports the current through the cells towards the sensed
    # line: into the grounded bit line (C-AND), out of the driven one (AND)
    sign = 1.0 if arr.topology is Topology.CAND else -1.0
    return {c: sign * (v[bl(0, c)] - plan.bl[c]) / r_col
            for c in plan.sel_cols}


#: '1' cells at vt 0 V and '0' cells at 200 V with no ohmic floor: a '0'
#: cell conducts nothing at all, so a floating line of them is held to
#: ground by its tie alone
OPEN_ZERO_DEV = dataclasses.replace(DEV, g_min=0.0, vt_mid=100.0,
                                    mem_window=200.0 * FE.ps / FE.pr)


@st.composite
def _reads(draw):
    topology = draw(st.sampled_from(Topology))
    # up to 9 x 9: square and non-square, lines of one node included
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols,
                                  max_size=cols), min_size=rows, max_size=rows))
    row = draw(st.integers(0, rows - 1))
    sel = draw(st.sets(st.integers(0, cols - 1), min_size=1))
    return topology, bits, row, sel


@given(_reads(), st.sampled_from((DEV, OPEN_ZERO_DEV)))
@settings(max_examples=150, deadline=None)
@example((Topology.CAND, [[1, 0], [0, 0]], 0, {0}), OPEN_ZERO_DEV)
@example((Topology.AND, [[1, 0], [0, 0]], 0, {0}), OPEN_ZERO_DEV)
@example((Topology.CAND, np.eye(9, dtype=int).tolist(), 4, set(range(9))), DEV)
@example((Topology.CAND, np.tri(9, 7, dtype=int).tolist(), 8, {0, 3, 6}),
         OPEN_ZERO_DEV)
@example((Topology.AND, np.eye(9, 8, dtype=int).tolist(), 5, {2, 5}), DEV)
def test_read_currents_match_dense_network_oracle(read, dev):
    topology, bits, row, sel = read
    arr = ArrayState(topology, len(bits), len(bits[0]), FE, dev, PAR)
    arr.set_pattern(bits)
    got = engine.read_cells(arr, row, sel, V_READ, V_READ).col_currents
    want = _oracle_read(arr, biasing.read_bias(
        topology, arr.rows, arr.cols, row, sel, V_READ, V_READ))
    assert got.keys() == want.keys()
    for c in sel:
        assert abs(got[c] - want[c]) <= 1e-9 * abs(want[c]) + engine.RESIDUAL_TOL


def test_read_with_a_singular_jacobian_raises(monkeypatch):
    arr = ArrayState(Topology.CAND, 2, 2, FE, OPEN_ZERO_DEV, PAR)
    arr.set_pattern([[1, 0], [0, 0]])
    # a read of this shape first: the tie conductance is read at call time
    assert engine.read_cells(arr, 0, [0], V_READ, V_READ).current(0) > 0
    # untied, the floating lines of non-conducting cells connect to nothing
    monkeypatch.setattr(engine, "G_FLOAT", 0.0)
    with pytest.raises(engine.ConvergenceError, match="singular Jacobian"):
        engine.read_cells(arr, 0, [0], V_READ, V_READ)


def test_read_with_a_non_finite_residual_raises(monkeypatch):
    arr = _array(Topology.CAND, 2, 2, [[1, 0], [0, 1]])
    monkeypatch.setattr(device, "drain_current_and_derivs",
                        lambda *args: (float("nan"), 0.0, 0.0))
    with pytest.raises(engine.ConvergenceError, match="residual nan"):
        engine.read_cells(arr, 0, (0, 1), V_READ, V_READ)


def test_numpy_read_with_a_non_finite_residual_raises(monkeypatch):
    # a full-row read never predicts, so only the fine solve sees the nan
    arr = _array(Topology.CAND, 8, 8, np.eye(8))
    assert arr.rows * arr.cols >= engine.VECTOR_CELLS
    monkeypatch.setattr(device, "drain_current_and_derivs_array",
                        lambda dev, vg, vd, vs, vt: (np.full_like(vd, np.nan),
                                                     vd * 0.0, vd * 0.0))
    with pytest.raises(engine.ConvergenceError, match="residual nan"):
        engine.read_cells(arr, 0, range(8), V_READ, V_READ)


@pytest.mark.parametrize("topology", Topology)
def test_drive_change_between_reads_of_one_shape(topology):
    arr = _array(topology, 3, 3, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    got = []
    for row, cols, v_sl in ((1, (0, 2), V_READ), (1, (0, 2), 0.5),
                            (2, (0, 2), 0.5), (2, (1,), 0.5)):
        plan = biasing.read_bias(topology, 3, 3, row, cols, V_READ, v_sl)
        res = engine.read_cells(arr, row, cols, V_READ, v_sl).col_currents
        want = _oracle_read(arr, plan)
        assert res.keys() == want.keys()
        for c in cols:
            assert abs(res[c] - want[c]) <= 1e-9 * abs(want[c]) + engine.RESIDUAL_TOL
        got.append(res)
    # each read changes the drive of at least one line, and its currents
    assert all(a != b for a, b in zip(got, got[1:]))


# --------------------------------------------------------------------------
# Two-level Newton step against SuperLU


def _superlu_step(lay, g_tie, line_d, line_s, di_dd, di_ds, rhs):
    """The Newton step solved directly: the read Jacobian built from the
    layout's description, wires, heads and cell stamps, factored by SuperLU."""
    n = rhs.size
    nodes = np.arange(n)
    seg = nodes[lay.g_prev > 0]
    g = lay.g_prev[seg]
    d, s = lay.bl, lay.sl
    i = np.concatenate([seg, seg - 1, seg, seg - 1, lay.heads, d, d, s, s])
    j = np.concatenate([seg, seg - 1, seg - 1, seg, lay.heads, d, s, d, s])
    val = np.concatenate([g, g, -g, -g, g_tie, di_dd, di_ds, -di_dd, -di_ds])
    jac = sp.csc_matrix((val, (i, j)), shape=(n, n))
    return spla.spsolve(jac, rhs)


@pytest.mark.parametrize("topology, rows, cols, sel", [
    (Topology.CAND, 64, 64, tuple(range(64))),
    (Topology.AND, 64, 64, (21,)),
    (Topology.CAND, 40, 72, (50,)),
])
def test_read_matches_the_superlu_newton_solve(monkeypatch, topology, rows,
                                               cols, sel):
    arr = _array(topology, rows, cols, np.random.default_rng(rows + cols)
                 .integers(0, 2, (rows, cols)).tolist())
    got = engine.read_cells(arr, rows // 2, sel, V_READ, V_READ)
    with monkeypatch.context() as m:
        m.setattr(engine, "_newton_step", _superlu_step)
        want = engine.read_cells(arr, rows // 2, sel, V_READ, V_READ)
    i_ref = RunConfig().i_ref
    assert got.iterations == want.iterations
    for c in sel:
        i, j = got.current(c), want.current(c)
        assert abs(i - j) <= 1e-9 * abs(j) + engine.RESIDUAL_TOL
        assert (i > i_ref) == (j > i_ref)


@pytest.mark.parametrize("topology", Topology)
@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1)])
def test_reads_of_one_cell_lines_match_the_dense_oracle(topology, rows, cols):
    # a line of one node has no wire segment at all
    bits = np.random.default_rng(rows * cols).integers(0, 2, (rows, cols))
    arr = _array(topology, rows, cols, bits.tolist())
    for row, sel in ((0, range(cols)), (rows - 1, (cols - 1,))):
        got = engine.read_cells(arr, row, sel, V_READ, V_READ).col_currents
        want = _oracle_read(arr, biasing.read_bias(
            topology, rows, cols, row, sel, V_READ, V_READ))
        assert got.keys() == want.keys()
        for c in sel:
            assert abs(got[c] - want[c]) <= 1e-9 * abs(want[c]) + engine.RESIDUAL_TOL


def test_each_newton_step_takes_at_most_four_cycles(monkeypatch):
    cycles = []
    step, solve_lines = engine._newton_step, engine._solve_lines

    def counted_step(*args):
        cycles.append(0)
        return step(*args)

    def counted_lines(*args):
        cycles[-1] += 1
        return solve_lines(*args)

    monkeypatch.setattr(engine, "_newton_step", counted_step)
    monkeypatch.setattr(engine, "_solve_lines", counted_lines)
    rng = np.random.default_rng(4)
    for k in range(80):
        topology = (Topology.CAND, Topology.AND)[k % 2]
        dev = (DEV, dataclasses.replace(DEV, g_min=0.0))[k // 2 % 2]
        rows, cols = (int(x) for x in rng.integers(1, 71, 2))
        arr = ArrayState(topology, rows, cols, FE, dev, PAR)
        arr.set_pattern(rng.integers(0, 2, (rows, cols)).tolist())
        sel = range(cols) if k // 4 % 2 else (int(rng.integers(cols)),)
        engine.read_cells(arr, int(rng.integers(rows)), sel, V_READ, V_READ)
    assert cycles and max(cycles) <= 4


def test_fine_solve_with_a_singular_jacobian_raises(monkeypatch):
    # a full-row read never predicts; its floating source line of
    # non-conducting cells is singular in both the coarse and the line solve
    arr = ArrayState(Topology.CAND, 2, 2, FE, OPEN_ZERO_DEV, PAR)
    arr.set_pattern([[1, 0], [0, 0]])
    monkeypatch.setattr(engine, "G_FLOAT", 0.0)
    with pytest.raises(engine.ConvergenceError,
                       match="read solve met a singular Jacobian at iteration 1"):
        engine.read_cells(arr, 0, [0, 1], V_READ, V_READ)


# --------------------------------------------------------------------------
# Coarse solve by elimination of the source lines, against the dense matrix


def _record_newton_steps(monkeypatch):
    """A list that gathers the arguments of every Newton step from here on."""
    steps, step = [], engine._newton_step

    def record(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(engine, "_newton_step", record)
    return steps


def _dense_line_matrix(g_tie, line_d, line_s, di_dd, di_ds):
    """The coarse matrix with one unknown per line, lines x lines."""
    return line_stamps(line_d, line_s, g_tie.size, di_dd, di_ds) + np.diag(g_tie)


@pytest.mark.parametrize("topology", Topology)
@pytest.mark.parametrize("dev", [DEV, OPEN_ZERO_DEV], ids=["g_min", "no_g_min"])
@pytest.mark.parametrize("rows, cols", [(1, 7), (7, 1), (5, 9), (9, 4), (8, 8)])
def test_coarse_solve_matches_the_dense_line_matrix(monkeypatch, topology, dev,
                                                    rows, cols):
    rng = np.random.default_rng(rows * 16 + cols)
    bits = rng.integers(0, 2, (rows, cols))
    # a '1' read cell conducts, so that no read starts converged
    bits[rows // 2, 0] = bits[rows - 1, 0] = 1
    arr = ArrayState(topology, rows, cols, FE, dev, PAR)
    arr.set_pattern(bits)
    steps = _record_newton_steps(monkeypatch)
    # full-row and single-cell reads float lines of either family
    engine.read_cells(arr, rows // 2, range(cols), V_READ, V_READ)
    engine.read_cells(arr, rows - 1, (0,), V_READ, V_READ)
    assert steps
    for lay, g_tie, line_d, line_s, di_dd, di_ds, _ in steps:
        b = rng.normal(0.0, 1e-9, g_tie.size)
        want = np.linalg.solve(_dense_line_matrix(
            g_tie, line_d, line_s, di_dd, di_ds), b)
        got = engine._coarse_solver(lay, g_tie, line_d, line_s, di_dd,
                                    di_ds)(b)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_a_zero_source_line_pivot_raises_without_a_warning(monkeypatch):
    # untied, the floating source line of row 1's non-conducting cells has
    # a zero diagonal, a pivot the elimination divides by
    arr = ArrayState(Topology.CAND, 3, 2, FE, OPEN_ZERO_DEV, PAR)
    arr.set_pattern([[1, 0], [0, 0], [1, 1]])
    monkeypatch.setattr(engine, "G_FLOAT", 0.0)
    steps = _record_newton_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(engine.ConvergenceError,
                           match="read solve met a singular Jacobian"):
            engine.read_cells(arr, 0, [0, 1], V_READ, V_READ)
    _, *coarse, _ = steps[0]
    assert np.diag(_dense_line_matrix(*coarse))[1] == 0.0


@pytest.mark.parametrize("topology", Topology)
def test_full_row_reads_of_512_rows_read_back_every_bit(topology):
    bits = np.random.default_rng(512).integers(0, 2, (512, 512))
    arr = _array(topology, 512, 512, bits)
    res = engine.read_cells(arr, 200, range(512), V_READ, V_READ)
    i_ref = RunConfig().i_ref
    assert [res.current(c) > i_ref for c in range(512)] == \
        (bits[200] == 1).tolist()


def test_single_cell_read_of_512_random_rows_reads_back_its_bit():
    bits = np.random.default_rng(7).integers(0, 2, (512, 512))
    arr = _array(Topology.CAND, 512, 512, bits)
    res = engine.read_cells(arr, 256, [170], V_READ, V_READ)
    assert (res.current(170) > RunConfig().i_ref) == (bits[256, 170] == 1)


def test_worst_case_single_cell_read_of_256_rows_reads_zero():
    # all but the read cell store '1', so every sneak path conducts
    bits = np.ones((256, 256))
    bits[0, 0] = 0
    res = engine.read_cells(_array(Topology.CAND, 256, 256, bits), 0, [0],
                            V_READ, V_READ)
    assert res.current(0) < RunConfig().i_ref


# --------------------------------------------------------------------------
# Line-potential predictor


def test_predicted_disturb_reads_take_one_iteration_to_the_tight_solve(
        monkeypatch):
    reads = []
    solve = engine.solve_read

    def record(array, plan):
        res = solve(array, plan)
        reads.append((array.copy(), plan, res))
        return res

    monkeypatch.setattr(engine, "solve_read", record)
    cfg = dataclasses.replace(RunConfig(), rows=16, cols=16)
    experiments.disturb_matrix(cfg)
    monkeypatch.undo()
    assert len(reads) == 24
    assert all(res.iterations == 1 for _, _, res in reads)
    # the same reads from the drive start, to a residual that roundoff
    # still reaches: the default start's currents lie up to 2.3e-15 A away
    monkeypatch.setattr(engine, "_line_potentials",
                        lambda lay, drive, *args: drive)
    monkeypatch.setattr(engine, "RESIDUAL_TOL", 1e-15)
    for array, plan, res in reads:
        tight = engine.solve_read(array, plan)
        assert tight.iterations > 1
        for c, i in res.col_currents.items():
            assert abs(i - tight.current(c)) <= 5e-15


def test_reads_with_balanced_floating_lines_never_predict(monkeypatch):
    def no_predictor(*args):
        raise AssertionError("predictor called")

    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, (12, 10)).tolist()
    monkeypatch.setattr(engine, "_line_potentials", no_predictor)
    # a C-AND full row floats its source lines at the sensed bit lines'
    # 0 V, and an AND read floats bit lines among grounded source lines
    engine.read_cells(_array(Topology.CAND, 12, 10, bits), 5, range(10),
                      V_READ, V_READ)
    engine.read_cells(_array(Topology.AND, 12, 10, bits), 5, [3],
                      V_READ, V_READ)
    with pytest.raises(AssertionError, match="predictor called"):
        engine.read_cells(_array(Topology.CAND, 12, 10, bits), 5, [3],
                          V_READ, V_READ)


def _record_predictor_steps(monkeypatch):
    """A list that gathers every predictor step from here on: the arguments
    of its coarse solver, the lines it holds, its right-hand side and the
    step."""
    steps, solver = [], engine._coarse_solver

    def record(*args, held=None):
        solve = solver(*args, held=held)
        if held is None:
            return solve   # a step of the fine solve

        def recorded(b):
            steps.append((args, held, b, solve(b)))
            return steps[-1][-1]

        return recorded

    monkeypatch.setattr(engine, "_coarse_solver", record)
    return steps


@pytest.mark.parametrize("dev", [DEV, OPEN_ZERO_DEV], ids=["g_min", "no_g_min"])
@pytest.mark.parametrize("rows, cols", [(1, 7), (7, 1), (5, 9), (9, 4), (8, 8)])
def test_predictor_step_matches_the_dense_line_matrix(monkeypatch, dev, rows,
                                                      cols):
    rng = np.random.default_rng(rows * 16 + cols)
    bits = rng.integers(0, 2, (rows, cols))
    bits[rows // 2] = 1   # conducting read cells, so that no read starts converged
    arr = ArrayState(Topology.CAND, rows, cols, FE, dev, PAR)
    arr.set_pattern(bits)
    # single-cell and partial-row reads; one column is all a read can
    # select, so there the predictor problem floats it as well
    steps = _record_predictor_steps(monkeypatch)
    for sel in ((0,), range(0, cols, 2)):
        plan = biasing.read_bias(Topology.CAND, rows, cols, rows // 2, sel,
                                 V_READ, V_READ)
        if cols == 1:
            plan = dataclasses.replace(plan, sel_cols=(), bl=(biasing.HIGH_Z,))
        engine.solve_read(arr, plan)
    monkeypatch.undo()
    assert steps
    for (_, _, line_d, line_s, di_dd, di_ds), held, rhs, got in steps:
        fl = ~held
        jac = line_stamps(line_d, line_s, held.size, di_dd, di_ds)[np.ix_(fl, fl)]
        jac[np.diag_indices_from(jac)] += engine.G_FLOAT
        want = np.linalg.solve(jac, rhs[fl])
        assert np.abs(got[fl] - want).max() <= 1e-12 * np.abs(want).max()
        assert not got[held].any()


def _zero_start(line_d, line_s, drive, floating, gates, vts):
    return np.where(floating, 0.0, drive)


@pytest.mark.parametrize("rows", [24, 64])
@pytest.mark.parametrize("pattern", ["zeros", "ones", "worst", "random"])
def test_predicted_potentials_do_not_depend_on_the_start(monkeypatch, rows,
                                                         pattern):
    bits = {"zeros": np.zeros((rows, rows)), "ones": np.ones((rows, rows)),
            "worst": np.ones((rows, rows)),
            "random": np.random.default_rng(rows).integers(0, 2, (rows, rows))
            }[pattern]
    if pattern == "worst":
        bits[0, 0] = 0   # a '0' read among '1's
    arr = _array(Topology.CAND, rows, rows, bits)
    predicted, predict = [], engine._line_potentials

    def record(*args):
        predicted.append(predict(*args))
        return predicted[-1]

    monkeypatch.setattr(engine, "_line_potentials", record)
    reads = [engine.read_cells(arr, 0, [0], V_READ, V_READ)]
    monkeypatch.setattr(engine, "_predictor_start", _zero_start)
    reads.append(engine.read_cells(arr, 0, [0], V_READ, V_READ))
    assert len(predicted) == 2
    assert np.array_equal(*predicted)
    assert reads[0].col_currents == reads[1].col_currents


def test_predictor_starts_floating_lines_at_their_strongest_tie():
    # '1' cells have vt 0.58 V and '0' cells 1.72 V
    arr = _array(Topology.CAND, 3, 4, [[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
    lay = engine._layout(Topology.CAND, 3, 4, PAR)
    line_d, line_s = lay.line_of[lay.bl], lay.line_of[lay.sl]
    gates, vts = np.repeat([0.0, 0.3, 0.6], 4), arr.vts().ravel()

    def start(drive):
        drive = np.array(drive)
        floating = np.isnan(drive)
        return engine._predictor_start(line_d, line_s, np.nan_to_num(drive),
                                       floating, gates, vts).tolist()

    nan = float("nan")
    # source lines 0 and 2 driven: each bit line takes the drive of its
    # highest gate - vt cell among rows 0 and 2, and source line 1, which
    # meets no driven line, starts at 0 V
    assert start([1.0, nan, 0.25, nan, nan, nan, nan]) == \
        [1.0, 0.0, 0.25, 0.25, 0.25, 1.0, 0.25]
    # bit lines 1 and 2 driven: each source line takes the drive of its '1'
    # cell among columns 1 and 2, and bit lines 0 and 3 start at 0 V
    assert start([nan, nan, nan, nan, 0.5, 0.25, nan]) == \
        [0.25, 0.5, 0.5, 0.0, 0.5, 0.25, 0.0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("slope", [float("nan"), 0.0])
def test_predictor_with_a_non_finite_step_raises(monkeypatch, slope):
    array_device = device.drain_current_and_derivs_array

    def flat(*args):
        i, did, dis = array_device(*args)
        return i, np.full_like(did, slope), np.full_like(dis, slope)

    monkeypatch.setattr(device, "drain_current_and_derivs_array", flat)
    # with zero slopes and no tie the coarse Jacobian is exactly singular
    monkeypatch.setattr(engine, "G_FLOAT", 0.0)
    with pytest.raises(engine.ConvergenceError,
                       match="read predictor met a singular Jacobian at "
                             "iteration 1"):
        engine.read_cells(_array(Topology.CAND, 4, 4, np.ones((4, 4))), 1,
                          [2], V_READ, V_READ)


# --------------------------------------------------------------------------
# Scalar device below VECTOR_CELLS cells, numpy device from there on


@pytest.mark.parametrize("topology, n, row, sel", [
    (Topology.CAND, 64, 31, tuple(range(64))),   # full row
    (Topology.AND, 64, 40, (17,)),                # single column
    (Topology.CAND, 24, 5, (9,)),                 # single cell, predicted
])
def test_scalar_and_numpy_device_paths_give_the_same_read(monkeypatch,
                                                          topology, n, row,
                                                          sel):
    arr = _array(topology, n, n, np.random.default_rng(n + row)
                 .integers(0, 2, (n, n)).tolist())
    scalar, calls = device.drain_current_and_derivs, []

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(device, "drain_current_and_derivs", counted)
    # an AND read solves its read columns alone
    solved = n * (len(sel) if topology is Topology.AND else n)
    reads = []
    for threshold in (solved, solved + 1):
        monkeypatch.setattr(engine, "VECTOR_CELLS", threshold)
        reads.append(engine.read_cells(arr, row, sel, V_READ, V_READ))
        # the numpy path at the threshold itself, the scalar one below it
        assert bool(calls) == (threshold > solved)
    got, want = reads
    assert got.iterations == want.iterations
    for c in sel:
        i, j = got.current(c), want.current(c)
        assert abs(i - j) <= 1e-9 * abs(j) + engine.RESIDUAL_TOL


@pytest.mark.parametrize("topology, rows, cols, sel", [
    (Topology.CAND, 2, 2, (0, 1)),     # a Monte Carlo read
    (Topology.AND, 5, 6, (3,)),
])
def test_reads_below_the_crossover_call_the_scalar_device_per_cell(
        monkeypatch, topology, rows, cols, sel):
    assert rows * cols < engine.VECTOR_CELLS
    scalar, calls, depth = device.drain_current_and_derivs, [], []

    def counted(*args):
        # the device calls itself once more for a cell with vd < vs
        if not depth:
            calls.append(args)
        depth.append(args)
        try:
            return scalar(*args)
        finally:
            depth.pop()

    def no_array(*args):
        raise AssertionError("numpy device called")

    monkeypatch.setattr(device, "drain_current_and_derivs", counted)
    monkeypatch.setattr(device, "drain_current_and_derivs_array", no_array)
    arr = _array(topology, rows, cols, np.random.default_rng(rows * cols)
                 .integers(0, 2, (rows, cols)).tolist())
    res = engine.read_cells(arr, 1, sel, V_READ, V_READ)
    # every assembly calls the device once per solved cell, in row-major
    # order; an AND read solves its read columns alone
    plan = biasing.read_bias(topology, rows, cols, 1, sel, V_READ, V_READ)
    solved = list(sel if topology is Topology.AND else range(cols))
    cells = [(vg, vt) for vg, row in zip(plan.wl, arr.vts())
             for vt in row[solved]]
    assemblies = len(calls) // len(cells)
    assert assemblies >= 1 + res.iterations
    assert [(vg, vt) for _, vg, _, _, vt in calls] == cells * assemblies


# --------------------------------------------------------------------------
# AND reads solve their read columns alone


def _and_selections(cols):
    """One column, two non-adjacent columns where the array has them, and
    every column."""
    sels = [(cols // 2,), tuple(range(cols))]
    if cols > 2:
        sels.append((0, cols - 1))
    return sels


# one device path for both solves, so that only the columns solved differ
@pytest.mark.parametrize("vector_cells", [1, 10 ** 9], ids=["numpy", "scalar"])
@pytest.mark.parametrize("dev", [DEV, OPEN_ZERO_DEV], ids=["g_min", "no_g_min"])
@pytest.mark.parametrize("rows, cols", [(12, 10), (1, 6), (6, 1), (64, 64)])
def test_and_read_of_its_columns_is_the_full_array_solve(monkeypatch,
                                                         vector_cells, dev,
                                                         rows, cols):
    monkeypatch.setattr(engine, "VECTOR_CELLS", vector_cells)
    arr = ArrayState(Topology.AND, rows, cols, FE, dev, PAR)
    arr.set_pattern(np.random.default_rng(rows * cols).integers(
        0, 2, (rows, cols)))
    row = rows // 2
    for sel in _and_selections(cols):
        got = engine.read_cells(arr, row, sel, V_READ, V_READ)
        full = engine.solve_read(arr, biasing.and_read_bias(
            rows, cols, row, sel, V_READ, V_READ))
        assert list(got.col_currents.items()) == [
            (c, -i) for c, i in full.col_currents.items()]
        assert got.iterations == full.iterations
        assert got.max_residual == full.max_residual


@pytest.mark.parametrize("sel, message", [
    ((-1,), "selected column outside array"),
    ((0, -1), "selected column outside array"),
    ((6,), "selected column outside array"),
    ((), "selected column set must be nonempty"),
])
def test_and_read_of_no_column_or_one_outside_the_array_raises(sel, message):
    # numpy would read column -1 as the last column
    arr = _array(Topology.AND, 4, 6, np.ones((4, 6)))
    with pytest.raises(ValueError, match=message):
        engine.read_cells(arr, 1, sel, V_READ, V_READ)
