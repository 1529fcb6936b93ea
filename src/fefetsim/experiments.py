"""Seeded experiment campaigns over the device and array models.

Each campaign is a pure function of a RunConfig and returns a `Table`:
rows ready for CSV export under a header, and a summary dict; nothing here
touches the filesystem.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from . import analytics, biasing, config, device, engine, ferro
from .biasing import SchemeKind, Topology
from .config import RunConfig

#: array sizes of the long bit-line sweep
POWERS_OF_TWO = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)

#: array sizes of the read power sweep
POWER_SIZES = (2, 4, 8, 16, 32)

#: half-select pulses the accumulative disturb sweep applies
DISTURB_PULSES = 10000

#: gate-voltage points of the transfer sweep, 0 V to 3 V
TRANSFER_POINTS = 121

#: rows and columns of the word-write demo's array: all 256 words of 8 bits
WORD_WRITE_SIZE = 8

#: rows and columns of the large array whose sneak leakage Monte Carlo
#: reads add
MC_LEAK_SIZE = 512


class Table(NamedTuple):
    """One campaign's result: CSV rows under `header`, each as wide as it,
    and the summary written beside them (None where there is none)."""

    header: list[str]
    rows: list
    summary: dict | None


def _make_array(cfg: RunConfig, rows: int, cols: int) -> engine.ArrayState:
    return engine.ArrayState(
        topology=config.topology_of(cfg), rows=rows, cols=cols,
        fe=config.make_ferro(cfg), dev=config.make_device(cfg),
        parasitics=config.make_parasitics(cfg),
    )


# --------------------------------------------------------------------------
# Bit-line length sweep


class BitlineRow(NamedTuple):
    rows: int
    topology: str
    i_read0: float
    i_read1: float
    window_ratio: float


def long_bitline_sweep(cfg: RunConfig) -> Table:
    """Worst-case single-bit read current vs array size for both flavors.

    Worst case: every unselected cell conducts as hard as possible (stores
    a saturated '1'); the selected cell stores either value saturated.
    """
    dev = config.make_device(cfg)
    vt_on, vt_off = dev.vt_low, dev.vt_high
    rows = []
    for topo in (Topology.AND, Topology.CAND):
        for n in POWERS_OF_TWO:
            i1, leak1 = engine.column_readout_with_leak(
                dev, topo, n, n, vt_on, vt_on, cfg.v_wl, cfg.v_sl)
            i0, leak0 = engine.column_readout_with_leak(
                dev, topo, n, n, vt_off, vt_on, cfg.v_wl, cfg.v_sl)
            read1, read0 = i1 + leak1, i0 + leak0
            rows.append(BitlineRow(n, topo.value, read0, read1, read1 / read0))
    by = {(r.topology, r.rows): r for r in rows}
    summary = {
        "and_read0_at_2048": by[("and", 2048)].i_read0,
        "cand_read0_at_2048": by[("cand", 2048)].i_read0,
        "cand_on_off_at_2048": by[("cand", 2048)].window_ratio,
        "and_over_cand_read0_at_2048":
            by[("and", 2048)].i_read0 / by[("cand", 2048)].i_read0,
    }
    return Table(["rows", "topology", "i_read0_amps", "i_read1_amps",
                  "window_ratio"], rows, summary)


# --------------------------------------------------------------------------
# Single-op disturb matrix


class DisturbEntry(NamedTuple):
    group: str
    initial_state: int
    op: str
    i_before: float
    i_after: float
    expected_logic: int
    read_logic: int


def _write_rows(cfg: RunConfig, array: engine.ArrayState, rows, cols,
                v_w: float) -> None:
    """One write phase per row in `rows` on the columns `cols`, with the
    array topology's plan for v_w (erase if negative, else program)."""
    for r in rows:
        engine.apply_write(array, biasing.write_bias(
            array.topology, array.rows, array.cols, r, cols, v_w), cfg.t_pulse)


def _init_uniform(cfg: RunConfig, array: engine.ArrayState,
                  v_w0: float, v_w1: float) -> None:
    """Write every cell to '0' through real row-by-row operations: a
    program sweep, then an erase sweep."""
    for v_w in (v_w1, v_w0):
        _write_rows(cfg, array, range(array.rows), range(array.cols), v_w)


def check_disturb_size(cfg: RunConfig) -> None:
    """Raise ValueRangeError unless the disturb matrix's cfg.rows x cfg.cols
    array has a neighbour row and column around its center cell."""
    if cfg.rows < 2 or cfg.cols < 2:
        raise config.ValueRangeError(f"disturb matrix needs at least a 2x2 "
                                     f"array, got {cfg.rows}x{cfg.cols}")


def disturb_matrix(cfg: RunConfig) -> Table:
    """All (cell group) x (initial state) x (write op) single-shot cases on
    a cfg.rows x cfg.cols array.

    For each (initial state, op) a copy of the uniformly initialized array
    gets one write at the center cell; the cases of every group share it.
    Each case reads its observed cell (at the group position relative to
    the center) before, on the uniform array, and after, on that copy.  Reads change no state, so they are
    deferred until every write is done and solved together by
    `engine.read_batch`.
    A repeated network is solved once: programming a cell of the programmed
    array leaves every vt as it was, so in C-AND the four state-1 write1
    reads are the reads before the write, and 20 of the 24 are solved.
    """
    check_disturb_size(cfg)
    m, n = cfg.rows, cfg.cols
    sel_r, sel_c = m // 2 - 1, n // 2 - 1
    observers = {
        biasing.CellGroup.SEL: (sel_r, sel_c),
        biasing.CellGroup.SAME_ROW: (sel_r, sel_c + 1),
        biasing.CellGroup.SAME_COL: (sel_r + 1, sel_c),
        biasing.CellGroup.DIAG: (sel_r + 1, sel_c + 1),
    }
    uniform = {0: _make_array(cfg, m, n)}
    _init_uniform(cfg, uniform[0], cfg.v_w0, cfg.v_w1)
    uniform[1] = uniform[0].copy()
    _write_rows(cfg, uniform[1], range(m), range(n), cfg.v_w1)
    written = {}
    for state in (0, 1):
        for op, v_w in (("write0", cfg.v_w0), ("write1", cfg.v_w1)):
            written[state, op] = uniform[state].copy()
            _write_rows(cfg, written[state, op], [sel_r], [sel_c], v_w)
    cases, reads = [], []
    for group, (obs_r, obs_c) in observers.items():
        for state in (0, 1):
            # a read leaves the array as it was: one i_before serves both ops
            before = len(reads)
            reads.append((uniform[state], obs_r, [obs_c]))
            for op in ("write0", "write1"):
                cases.append((group, state, op, obs_c, before, len(reads)))
                reads.append((written[state, op], obs_r, [obs_c]))
    read = engine.read_batch(reads, cfg.v_wl, cfg.v_sl)
    entries = []
    for group, state, op, obs_c, before, after in cases:
        i_before, i_after = (read[k].current(obs_c) for k in (before, after))
        if group is biasing.CellGroup.SEL:
            expected = 0 if op == "write0" else 1
        else:
            expected = state
        entries.append(DisturbEntry(
            group.value, state, op, i_before, i_after,
            expected, int(i_after > cfg.i_ref)))
    ones = [e.i_after for e in entries if e.expected_logic == 1]
    zeros = [e.i_after for e in entries if e.expected_logic == 0]
    summary = {
        "min_one_current": min(ones),
        "max_zero_current": max(zeros),
        "band_separation": min(ones) / max(zeros),
        "all_logic_preserved": all(e.read_logic == e.expected_logic
                                   for e in entries),
        "rows": m, "cols": n,
    }
    return Table(["group", "initial_state", "op", "i_before_amps",
                  "i_after_amps", "expected_logic", "read_logic"],
                 entries, summary)


# --------------------------------------------------------------------------
# Two-cycle word write


class WordWriteEntry(NamedTuple):
    word: int
    row: int
    readback: int
    match: bool
    min_one: float
    max_zero: float


def write_word(cfg: RunConfig, array: engine.ArrayState, row: int,
               word: int) -> int:
    """Two-cycle word write: erase the '0' columns, then program the '1's.

    Always consumes exactly two write cycles; a cycle with no target
    columns is a timed hold (the bias ops require a nonempty selection, so
    nothing is driven during it).  Returns the cycle count.
    """
    zeros = [c for c in range(array.cols) if not (word >> c) & 1]
    ones = [c for c in range(array.cols) if (word >> c) & 1]
    for cols, v_w in ((zeros, cfg.v_w0), (ones, cfg.v_w1)):
        if cols:
            _write_rows(cfg, array, [row], cols, v_w)
    return 2


def _word_of(cfg: RunConfig, res: engine.ReadResult) -> tuple[int, dict]:
    """The word a full-row read senses, and its column currents."""
    word = 0
    for c, i in res.col_currents.items():
        if i > cfg.i_ref:
            word |= 1 << c
    return word, res.col_currents


def read_word(cfg: RunConfig, array: engine.ArrayState, row: int) -> tuple[int, dict]:
    return _word_of(cfg, engine.read_cells(array, row, range(array.cols),
                                           cfg.v_wl, cfg.v_sl))


def word_write_demo(cfg: RunConfig, rows: int, cols: int, words=None) -> Table:
    """Write words with the two-cycle scheme and read them back.

    Words are written sequentially into one array (rotating through rows),
    so later words run against the disturb history of earlier ones.  Each
    word is read back from a snapshot of the array taken right after it is
    written; reads change no state, so they are deferred and solved
    together by `engine.read_batch`, whenever the pending snapshots fill
    `engine.BATCH_CELLS` cells and after the last word.
    """
    if words is None:
        words = range(1 << cols)
    array = _make_array(cfg, rows, cols)
    _init_uniform(cfg, array, cfg.v_w0, cfg.v_w1)
    written, reads, results = [], [], []
    for idx, word in enumerate(words):
        row = idx % rows
        write_word(cfg, array, row, word)
        written.append((word, row))
        reads.append((array.copy(), row, range(cols)))
        if len(reads) * rows * cols >= engine.BATCH_CELLS:
            results += engine.read_batch(reads, cfg.v_wl, cfg.v_sl)
            reads = []
    results += engine.read_batch(reads, cfg.v_wl, cfg.v_sl)
    entries = []
    for (word, row), res in zip(written, results):
        readback, currents = _word_of(cfg, res)
        ones = [i for c, i in currents.items() if (word >> c) & 1]
        zeros = [i for c, i in currents.items() if not (word >> c) & 1]
        entries.append(WordWriteEntry(
            word, row, readback, readback == word,
            min(ones) if ones else float("nan"),
            max(zeros) if zeros else float("nan")))
    summary = {
        "words": len(entries),
        "matches": sum(e.match for e in entries),
        "all_match": all(e.match for e in entries),
    }
    return Table(["word", "row", "readback", "match", "min_one_amps",
                  "max_zero_amps"], entries, summary)


# --------------------------------------------------------------------------
# Monte Carlo variability


def monte_carlo(cfg: RunConfig) -> Table:
    """Write-voltage and geometry variability on a 2x2 array, cfg.samples
    trials drawn from cfg.seed.

    Per trial: one Gaussian draw each for the erase and program voltages
    and one shared draw applied to channel width and length.  The array is
    programmed, erased, then one cell is rewritten to '1', leaving the
    three '0' cells at the three disturb positions.  Read currents include
    the sneak leakage a large (MC_LEAK_SIZE square) array would add;
    ``misreads`` counts the reads whose comparison with ``cfg.i_ref``
    disagrees with the logic value written.
    """
    n = cfg.samples
    rng = np.random.default_rng(cfg.seed)
    dv0 = rng.normal(0.0, cfg.sigma_v_w0, n)
    dv1 = rng.normal(0.0, cfg.sigma_v_w1, n)
    dwl = rng.normal(0.0, cfg.sigma_wl, n)
    # a sigma_wl so wide that a trial draws no channel is rejected like any
    # other model value out of range
    short = np.flatnonzero(min(cfg.width, cfg.length) + dwl <= 0.0)
    if short.size:
        t = int(short[0])
        raise config.ValueRangeError(
            f"Monte Carlo trial {t} draws width {cfg.width + dwl[t]:.3e} m "
            f"and length {cfg.length + dwl[t]:.3e} m; both must be positive "
            f"(sigma_wl={cfg.sigma_wl})")

    topology, dev_nom = config.topology_of(cfg), config.make_device(cfg)
    _, i_leak_large = engine.column_readout_with_leak(
        dev_nom, topology, MC_LEAK_SIZE, MC_LEAK_SIZE,
        dev_nom.vt_high, dev_nom.vt_low, cfg.v_wl, cfg.v_sl)

    fe, par = config.make_ferro(cfg), config.make_parasitics(cfg)
    rows_out = []
    trial_ratios = []
    ones_all, zeros_all = [], []
    misreads = 0
    for t in range(n):
        v_w0 = cfg.v_w0 + dv0[t]
        v_w1 = cfg.v_w1 + dv1[t]
        dev = dataclasses.replace(dev_nom, w=cfg.width + dwl[t],
                                  l=cfg.length + dwl[t])
        array = engine.ArrayState(topology, 2, 2, fe, dev, par)
        _init_uniform(cfg, array, v_w0, v_w1)
        _write_rows(cfg, array, [0], [0], v_w1)

        currents = {}
        for r in range(2):
            res = engine.read_cells(array, r, (0, 1), cfg.v_wl, cfg.v_sl)
            for c in (0, 1):
                currents[(r, c)] = res.current(c) + i_leak_large
        ones, zeros = [], []
        for (r, c), i in sorted(currents.items()):
            logic = 1 if (r, c) == (0, 0) else 0
            (ones if logic else zeros).append(i)
            misreads += int(i > cfg.i_ref) != logic
            rows_out.append((t, r, c, logic, float(array.vts[r, c]), i))
        trial_ratios.append(min(ones) / max(zeros))
        ones_all += ones
        zeros_all += zeros

    summary = {
        "samples": n,
        "seed": cfg.seed,
        "min_on_off_ratio": min(trial_ratios),
        "global_min_one": min(ones_all),
        "global_max_zero": max(zeros_all),
        "band_overlap": min(ones_all) <= max(zeros_all),
        "misreads": misreads,
        "added_leak_amps": i_leak_large,
    }
    return Table(["trial", "row", "col", "logic", "vt_volts", "i_amps"],
                 rows_out, summary)


# --------------------------------------------------------------------------
# Read power vs array size


def power_sweep(cfg: RunConfig) -> Table:
    """Peak single-bit read power vs square array size.

    Peak means the strongest possible cell (fully programmed) conducts; the
    word-line energy covers the gate stacks of the whole selected row (the
    ferroelectric and interlayer capacitances in series) plus the poly wire.
    """
    dev = config.make_device(cfg)
    par = config.make_parasitics(cfg)
    fe = config.make_ferro(cfg)
    c_fe = dev.eps_fe * device.EPS0 / fe.t_fe * (dev.w * dev.l)
    c_il = dev.c_il * (dev.w * dev.l)
    gate_cap = c_fe * c_il / (c_fe + c_il)
    i_high = device.drain_current(dev, cfg.v_wl, cfg.v_sl, dev.vt_low)
    f_read = 1.0 / cfg.t_pulse
    rows = []
    for n in POWER_SIZES:
        c_wl = n * (par.seg_capacitance(engine.PITCH_X, poly=True) + gate_cap)
        _, i_leak = engine.column_readout_with_leak(
            dev, config.topology_of(cfg), n, n, dev.vt_high, dev.vt_low,
            cfg.v_wl, cfg.v_sl)
        p_select, p_wordline, p_leak = analytics.read_power(
            i_high, cfg.v_sl, c_wl, cfg.v_wl, f_read, i_leak)
        rows.append((n, p_select, p_wordline, p_leak,
                     p_select + p_wordline + p_leak))
    totals = [r[4] for r in rows]
    summary = {
        "flatness": max(totals) / min(totals),
        "max_leak_share": max(r[3] / r[4] for r in rows),
        "word_power_max_8x": analytics.select_line_power_max(
            8, i_high, cfg.v_sl),
    }
    return Table(["size", "p_select_watts", "p_wordline_watts",
                  "p_leak_watts", "p_total_watts"], rows, summary)


# --------------------------------------------------------------------------
# Accumulative half-select disturb


def accumulative_disturb_sweep(cfg: RunConfig) -> Table:
    """Half-select pulses applied repeatedly to a written '0' cell.

    The pulse is the strongest program-polarity gate voltage an unselected
    cell sees under the topology's program plan.
    """
    fe = config.make_ferro(cfg)
    dev = config.make_device(cfg)
    plan = biasing.write_bias(config.topology_of(cfg), 2, 2, 0, [0], cfg.v_w1)
    v_stress = max(v for _, v in biasing.exposures(plan))
    st = device.write_cell(dev, fe, ferro.negative_saturation(fe),
                           cfg.v_w1, cfg.t_pulse)
    st = device.write_cell(dev, fe, st, cfg.v_w0, cfg.t_pulse)
    vt0 = device.cell_vt(dev, fe, st)

    # eight checkpoints per decade of pulses
    steps = int(8 * math.log10(DISTURB_PULSES))
    checkpoints = sorted({int(round(10 ** (k / 8.0))) for k in range(steps + 1)}
                         | {1, DISTURB_PULSES})
    rows = []
    pulses_done = 0
    for target in checkpoints:
        st = engine.accumulate_disturb(dev, fe, st, v_stress,
                                       target - pulses_done, cfg.t_pulse)
        pulses_done = target
        vt = device.cell_vt(dev, fe, st)
        delta = vt0 - vt
        rows.append((target, vt, delta, abs(delta) > dev.mem_window / 2.0))
    summary = {
        "initial_vt": vt0,
        "final_vt": rows[-1][1],
        "final_delta_vt": rows[-1][2],
        "crossed_half_window": rows[-1][3],
        "monotone_drift": all(rows[i + 1][2] >= rows[i][2] - 1e-12
                              for i in range(len(rows) - 1)),
    }
    return Table(["pulses", "vt_volts", "delta_vt_volts",
                  "crossed_half_window"], rows, summary)


# --------------------------------------------------------------------------
# Device sweeps (for the CLI's device characterization command)


def device_transfer_sweep(cfg: RunConfig) -> Table:
    """Transfer curves for both stored states."""
    dev = config.make_device(cfg)
    rows = []
    for k in range(TRANSFER_POINTS):
        vgs = 3.0 * k / (TRANSFER_POINTS - 1)
        rows.append((vgs,
                     device.drain_current(dev, vgs, cfg.v_sl, dev.vt_high),
                     device.drain_current(dev, vgs, cfg.v_sl, dev.vt_low)))
    return Table(["vgs_volts", "ids_amps_state0", "ids_amps_state1"], rows,
                 None)


def hysteresis_sweep(cfg: RunConfig) -> Table:
    """Quasi-static polarization loop."""
    fe = config.make_ferro(cfg)
    amplitude = max(cfg.v_w1, 2.0 * cfg.vc_program)
    return Table(["v_volts", "p_c_per_m2"],
                 ferro.trace_loop(fe, amplitude), None)


# --------------------------------------------------------------------------
# Closed-form tables: write-scheme exposure audit and cell area


def scheme_audit(cfg: RunConfig, scheme: SchemeKind) -> Table:
    """Gate-to-bulk exposure of every unselected cell group per write op."""
    report = biasing.verify_scheme(cfg.v_w0, cfg.v_w1, scheme)
    rows = [(f.op, f.group.value, f.v_gb, f.margin, f.flag)
            for f in report.findings]
    summary = {"v_w0": cfg.v_w0, "v_w1": cfg.v_w1, "scheme": scheme.value,
               "any_disturb": report.any_disturb,
               "any_partial": report.any_partial}
    return Table(["op", "group", "exposure_volts", "margin_volts", "flag"],
                 rows, summary)


def area_comparison() -> Table:
    """AND and C-AND cell footprints with and without well spacing."""
    rows = []
    for with_spacing, label in ((True, "with"), (False, "without")):
        a = analytics.cell_area(Topology.AND, with_spacing)
        c = analytics.cell_area(Topology.CAND, with_spacing)
        rows.append((label, a, c, a / c))
    summary = {"improvement_with_spacing": rows[0][3],
               "improvement_without_spacing": rows[1][3]}
    return Table(["spacing", "and_lambda2", "cand_lambda2", "improvement"],
                 rows, summary)
