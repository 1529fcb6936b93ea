import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fefetsim import biasing, device, engine, ferro
from fefetsim.biasing import Topology
from fefetsim.device import GATE_DIRECT, GATE_DIVIDER, FeFetParams
from fefetsim.engine import ArrayState, Parasitics
from fefetsim.ferro import FerroParams

FE = FerroParams(ec_program=2.5e8)
DEV = FeFetParams()
T_PULSE = 10e-6
V_READ = 1.0


def _array(topology, rows, cols, bits=None):
    arr = ArrayState(topology, rows, cols, FE, DEV)
    if bits is not None:
        arr.set_pattern(bits)
    return arr


def test_parasitic_segment_values():
    par = Parasitics()
    # a 9-lambda metal segment at lambda = 50 nm is 0.45 um of wire
    assert par.seg_resistance(9.0) == pytest.approx(0.45 * 9.45)
    assert par.seg_capacitance(9.0) == pytest.approx(0.45 * 0.22e-15)
    assert par.seg_resistance(9.0, poly=True) == pytest.approx(0.45 * 2000.0)


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
    state = ferro.negative_saturation(FE)
    device.write_cell(DEV, FE, state, -1.5, T_PULSE)
    vts = engine.accumulate_disturb(DEV, FE, state, 1.6, 50, T_PULSE)
    assert len(vts) == 50
    # half-select stress can only program, never erase further
    assert all(b <= a + 1e-12 for a, b in zip(vts, vts[1:]))


def test_set_pattern_hits_saturated_rest_states():
    arr = _array(Topology.AND, 2, 2, [[0, 1], [1, 0]])
    vt1 = device.vt_of_polarization(DEV, FE, FE.pr)
    vt0 = device.vt_of_polarization(DEV, FE, -FE.pr)
    assert arr.vt(0, 1) == pytest.approx(vt1)
    assert arr.vt(0, 0) == pytest.approx(vt0)


# --------------------------------------------------------------------------
# Interned write path against a per-cell oracle


def _key(state):
    return (state.direction, state.k, state.p_off, state.e_eff, state.p,
            tuple(state.history))


def _oracle_write(dev, cells, plan, duration):
    """Every cell pulsed on its own: the scalar write at its plan voltage."""
    for r, row in enumerate(cells):
        for c, state in enumerate(row):
            device.write_cell(dev, FE, state,
                              biasing.cell_write_voltage(plan, r, c), duration)


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
    dev = FeFetParams(gate_mode=gate_mode)
    arr = ArrayState(topology, rows, cols, FE, dev)
    arr.set_pattern(bits)
    ref = [[ferro.make_state(FE, bool(b)) for b in row] for row in bits]
    for plan, duration in plans:
        engine.apply_write(arr, plan, duration)
        _oracle_write(dev, ref, plan, duration)
        assert [[_key(s) for s in row] for row in arr.cells] == \
            [[_key(s) for s in row] for row in ref]
        ref_vts = np.array([[device.cell_vt(dev, FE, s) for s in row]
                            for row in ref])
        assert np.array_equal(arr.vts(), ref_vts)


def test_writes_never_reach_a_copy_or_another_array():
    arr = _array(Topology.CAND, 4, 4, np.eye(4))
    twin = arr.copy()
    other = _array(Topology.CAND, 4, 4, np.eye(4))
    seen = [row[:] for a in (arr, twin, other) for row in a.cells]
    before = [[_key(cell) for cell in row] for row in seen]
    for plan in (biasing.cand_write1_bias(4, 4, 1, (0, 2), 3.2),
                 biasing.cand_write0_bias(4, 4, 0, range(4), -1.5)):
        engine.apply_write(arr, plan, T_PULSE)
    assert [[_key(cell) for cell in row] for row in seen] == before
    assert [[_key(cell) for cell in row] for row in twin.cells] == before[4:8]
    assert [[_key(cell) for cell in row] for row in other.cells] == before[8:]
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
    r_col = par.seg_resistance(par.pitch_y)
    lines = {}   # line name -> (nodes from the driven end, segment resistance)
    for c in range(cols):
        lines[f"BL{c}"] = ([bl(r, c) for r in range(rows)], r_col)
    if arr.topology is Topology.CAND:
        for r in range(rows):
            lines[f"SL{r}"] = ([sl(r, c) for c in range(cols)],
                               par.seg_resistance(par.pitch_x))
    else:
        for c in range(cols):
            lines[f"SL{c}"] = ([sl(r, c) for r in range(rows)], r_col)
    g_lin, inj, v = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    for name, (nodes, r_seg) in lines.items():
        for p, q in zip(nodes, nodes[1:]):
            g_lin[[p, q, p, q], [p, q, q, p]] += [1 / r_seg] * 2 + [-1 / r_seg] * 2
        drive = plan.lines[name]
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
                    arr.dev, plan.lines[f"WL{r}"], v[d], v[s], vts[r, c])
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
    return {c: sign * (v[bl(0, c)] - plan.lines[f"BL{c}"]) / r_col
            for c in plan.sel_cols}


#: '1' cells at vt 0 V and '0' cells at 200 V with no ohmic floor: a '0'
#: cell conducts nothing at all, so a floating line of them is held to
#: ground by its tie alone
OPEN_ZERO_DEV = FeFetParams(g_min=0.0, vt_mid=100.0,
                            mem_window=200.0 * FE.ps / FE.pr)


@st.composite
def _reads(draw):
    topology = draw(st.sampled_from(Topology))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols,
                                  max_size=cols), min_size=rows, max_size=rows))
    row = draw(st.integers(0, rows - 1))
    sel = draw(st.sets(st.integers(0, cols - 1), min_size=1))
    return topology, bits, row, sel


@given(_reads(), st.sampled_from((DEV, OPEN_ZERO_DEV)))
@settings(max_examples=150, deadline=None)
@example((Topology.CAND, [[1, 0], [0, 0]], 0, {0}), OPEN_ZERO_DEV)
@example((Topology.AND, [[1, 0], [0, 0]], 0, {0}), OPEN_ZERO_DEV)
def test_read_currents_match_dense_network_oracle(read, dev):
    topology, bits, row, sel = read
    arr = ArrayState(topology, len(bits), len(bits[0]), FE, dev)
    arr.set_pattern(bits)
    got = engine.read_cells(arr, row, sel, V_READ, V_READ).col_currents
    want = _oracle_read(arr, biasing.read_bias(
        topology, arr.rows, arr.cols, row, sel, V_READ, V_READ))
    assert got.keys() == want.keys()
    for c in sel:
        assert abs(got[c] - want[c]) <= 1e-9 * abs(want[c]) + engine.RESIDUAL_TOL


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_read_with_a_singular_jacobian_raises(monkeypatch):
    arr = ArrayState(Topology.CAND, 2, 2, FE, OPEN_ZERO_DEV)
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
    lay = engine._layout(Topology.CAND, 3, 4, Parasitics())
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
