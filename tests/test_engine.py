import dataclasses

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
    final, vts = engine.accumulate_disturb(DEV, FE, state, 1.6, 50, T_PULSE)
    assert len(vts) == 50
    assert vts[-1] == device.cell_vt(DEV, FE, final)
    # half-select stress can only program, never erase further
    assert all(b <= a + 1e-12 for a, b in zip(vts, vts[1:]))


def test_set_pattern_hits_saturated_rest_states():
    arr = _array(Topology.AND, 2, 2, [[0, 1], [1, 0]])
    vt1 = device.vt_of_polarization(DEV, FE, FE.pr)
    vt0 = device.vt_of_polarization(DEV, FE, -FE.pr)
    assert arr.vt(0, 1) == pytest.approx(vt1)
    assert arr.vt(0, 0) == pytest.approx(vt0)


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
    to a residual far below the solver's."""
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
        if np.max(np.abs(f)) < 1e-3 * engine.RESIDUAL_TOL:
            break
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
    # up to 9 x 9, so that reads cross the separators of several cuts
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


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_read_with_a_singular_jacobian_raises(monkeypatch):
    arr = ArrayState(Topology.CAND, 2, 2, FE, OPEN_ZERO_DEV, PAR)
    arr.set_pattern([[1, 0], [0, 0]])
    # a read of this shape first, so the cached layout is warm: the tie
    # conductance must still be read at call time
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


# --------------------------------------------------------------------------
# Layout cache


def _random_reads(n_reads, seed):
    rng = np.random.default_rng(seed)
    shapes = [(Topology.CAND, 3, 4), (Topology.AND, 3, 4), (Topology.CAND, 2, 2),
              (Topology.AND, 4, 1), (Topology.CAND, 1, 3)]
    arrays = {s: _array(*s, rng.integers(0, 2, s[1:]).tolist()) for s in shapes}
    reads = []
    for _ in range(n_reads):
        arr = arrays[shapes[rng.integers(len(shapes))]]
        cols = sorted(set(rng.integers(0, arr.cols, 2).tolist()))
        reads.append((arr, int(rng.integers(arr.rows)), cols))
    return reads


def test_cached_layouts_read_exactly_as_fresh_ones(monkeypatch):
    reads = _random_reads(40, seed=5)
    builds = []
    build = engine._layout
    monkeypatch.setattr(engine, "_layout",
                        lambda *key: builds.append(key) or build(*key))
    engine._last_layout.clear()
    cached = [engine.read_cells(arr, row, cols, V_READ, V_READ)
              for arr, row, cols in reads]
    # interleaved shapes, topologies and rows both reuse and replace layouts
    assert len({id(a) for a, _, _ in reads}) < len(builds) < len(reads)
    for (arr, row, cols), got in zip(reads, cached):
        engine._last_layout.clear()
        want = engine.read_cells(arr, row, cols, V_READ, V_READ)
        assert (got.col_currents, got.iterations, got.max_residual) == \
            (want.col_currents, want.iterations, want.max_residual)


def test_a_new_shape_drops_the_old_layout_before_building(monkeypatch):
    build = engine._layout

    def build_alone(*key):
        assert not engine._last_layout
        return build(*key)

    engine.read_cells(_array(Topology.CAND, 2, 2), 0, [0], V_READ, V_READ)
    monkeypatch.setattr(engine, "_layout", build_alone)
    engine.read_cells(_array(Topology.AND, 2, 2), 0, [0], V_READ, V_READ)
    assert engine._last_layout[0][0] is Topology.AND


def test_cached_layout_is_read_only():
    lay = engine._layout(Topology.CAND, 3, 4, PAR)
    arrays = [x for x in lay if isinstance(x, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        lay.wire[0] = 1.0


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
# Node numbering


def _row_major(topology, rows, cols):
    """The plain numbering: every source-side terminal in row-major cell
    order, then every bit-line-side one."""
    sl = np.arange(rows * cols).reshape(rows, cols)
    return sl, sl + rows * cols


def _terminals(lay):
    """Node ids of (source terminals, then bit-line terminals) in row-major
    cell order, the order `_row_major` numbers them in."""
    return np.concatenate([lay.sl.ravel(), lay.bl.ravel()])


def _linear_matrix(lay):
    """The wire and head conductances of a layout as a dense matrix."""
    lin = lay.wire.copy()
    lin[lay.head_slot] += lay.g_head
    n = lay.line_of.size
    return sp.csc_matrix((lin, lay.idx, lay.ptr), shape=(n, n)).toarray()


@pytest.mark.parametrize("topology", Topology)
def test_numbering_renumbers_the_row_major_network(topology, monkeypatch):
    for rows in range(1, 13):
        for cols in range(1, 13):
            lay = engine._layout(topology, rows, cols, PAR)
            with monkeypatch.context() as m:
                m.setattr(engine, "_numbering", _row_major)
                plain = engine._layout(topology, rows, cols, PAR)
            ids = _terminals(lay)
            assert np.array_equal(np.sort(ids), np.arange(2 * rows * cols))
            # node ids[j] here is node j of the row-major network
            assert np.array_equal(lay.line_of[ids], plain.line_of)
            assert np.array_equal(lay.heads, ids[plain.heads])
            assert np.array_equal(lay.g_head, plain.g_head)
            assert np.array_equal(_linear_matrix(lay)[np.ix_(ids, ids)],
                                  _linear_matrix(plain))


@pytest.mark.parametrize("topology, cols", [
    (Topology.CAND, tuple(range(64))), (Topology.AND, (21,))])
def test_read_matches_the_row_major_colamd_solve(monkeypatch, topology, cols):
    arr = _array(topology, 64, 64,
                 np.random.default_rng(64).integers(0, 2, (64, 64)).tolist())
    monkeypatch.setattr(engine, "_last_layout", [])
    got = engine.read_cells(arr, 32, cols, V_READ, V_READ)
    solve = spla.spsolve
    with monkeypatch.context() as m:
        m.setattr(engine, "_last_layout", [])
        m.setattr(engine, "_numbering", _row_major)
        m.setattr(spla, "spsolve", lambda jac, rhs, permc_spec:
                  solve(jac, rhs, permc_spec="COLAMD"))
        want = engine.read_cells(arr, 32, cols, V_READ, V_READ)
    i_ref = RunConfig().i_ref
    assert got.iterations == want.iterations
    for c in cols:
        i, j = got.current(c), want.current(c)
        assert abs(i - j) <= 1e-9 * abs(j) + engine.RESIDUAL_TOL
        assert (i > i_ref) == (j > i_ref)


def _fill(monkeypatch, topology, n, seed):
    """L+U nonzeros of one n x n read Jacobian: in NATURAL order under the
    layout's numbering, and under COLAMD renumbered row-major."""
    arr = _array(topology, n, n,
                 np.random.default_rng(seed).integers(0, 2, (n, n)).tolist())
    jacs = []
    solve = spla.spsolve
    with monkeypatch.context() as m:
        m.setattr(engine, "_last_layout", [])
        m.setattr(spla, "spsolve", lambda jac, rhs, **kw:
                  jacs.append(jac.copy()) or solve(jac, rhs, **kw))
        engine.read_cells(arr, n // 2, range(n), V_READ, V_READ)
        ids = _terminals(engine._last_layout[1])
    return [lu.L.nnz + lu.U.nnz for lu in (
        spla.splu(jacs[0], permc_spec="NATURAL"),
        spla.splu(jacs[0][ids][:, ids], permc_spec="COLAMD"))]


def test_dissection_cuts_the_fill_of_the_read_jacobian(monkeypatch):
    # about 1.1 M against 2.4 M nonzeros
    nested, colamd = _fill(monkeypatch, Topology.CAND, 128, 7)
    assert nested <= 0.6 * colamd
    # the AND array falls apart into column ladders
    nested, colamd = _fill(monkeypatch, Topology.AND, 128, 7)
    assert nested <= colamd


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
    # still reaches: the default start's currents lie up to 3.9e-14 A away
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
