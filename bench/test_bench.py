"""Self-tests of the benchmark: span arithmetic, wrapper lifetime, checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import run_bench
import spans
import workloads
import yardstick

BENCH = Path(__file__).resolve().parent


def _log(rows):
    """SpanLog from (name, start, end, parent index) rows."""
    log = spans.SpanLog()
    for name, start, end, parent in rows:
        log.name_ids.append(log.name_id(name))
        log.starts.append(start)
        log.ends.append(end)
        log.parents.append(parent)
    return log


def test_self_time_on_synthetic_span_tree():
    log = _log([
        ("x.a", 0.0, 10.0, -1),   # 0: children 1 and 2 cover 3 + 4
        ("y.b", 1.0, 4.0, 0),     # 1
        ("x.c", 5.0, 9.0, 0),     # 2: child 3 covers 1
        ("y.d", 6.0, 7.0, 2),     # 3
        ("y.d", 6.2, 6.7, 3),     # 4: recursion inside 3
    ])
    sm = spans.Summary.of(log)
    assert sm.self_s.tolist() == pytest.approx([3.0, 3.0, 3.0, 0.5, 0.5])
    assert sm.layer_self() == pytest.approx({"x": 6.0, "y": 4.0})
    assert sum(sm.layer_self().values()) == pytest.approx(10.0)
    # the recursive call is part of the outer call, not a second call
    assert sm.calls("y.d") == 1
    assert sm.seconds("y.d") == pytest.approx(1.0)
    assert sm.calls("missing") == 0 and sm.seconds("missing") == 0.0


def test_tracer_records_nested_spans_and_hook_time_apart():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    seen = []
    targets = [
        (ns, "outer", "a.outer", {}),
        (ns, "inner", "b.inner",
         {"after": lambda ctx, args, kwargs, result, idx: seen.append(result)}),
    ]
    ticks = iter(range(100))
    tracer = spans.Tracer(targets, clock=lambda: float(next(ticks)))
    with tracer:
        assert ns.outer(1) == 4
    log = tracer.log
    names = [log.names[i] for i in log.name_ids]
    assert names == ["a.outer", "b.inner", spans.HOOK]
    assert list(log.parents) == [-1, 0, 0]
    assert seen == [2]
    sm = spans.Summary.of(log)
    assert sm.layer_self()["trace"] == pytest.approx(1.0)
    assert sum(sm.layer_self().values()) == pytest.approx(log.ends[0] - log.starts[0])


def test_wrappers_restore_the_originals():
    tracer = layers.make_tracer()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in tracer.targets]
    assert len(originals) > 30
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("abort inside the traced block")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    tracer = layers.make_tracer()
    with tracer:
        wall, rc = run_bench.timed_pass(workloads.WORKLOADS["mc_1000"],
                                        ["mc", "--samples", "3"], tmp_path / "p")
    assert rc == 0 and tracer.hook_errors == 0
    m = layers.metrics(tracer.log, wall, wall, 0)
    assert list(m) == list(layers.METRICS)
    assert m["engine.apply_write.calls"] == 15 and m["engine.solve_read.calls"] == 6
    assert m["engine.apply_write.cells"] == 60
    assert m["engine.solve_read.assemblies"] >= m["engine.solve_read.newton_iters"] > 0
    layer_sum = sum(m[f"{layer}.s"] for layer in layers.LAYERS)
    assert layer_sum + m["trace.hooks_s"] + m["trace.unattributed_s"] == \
        pytest.approx(wall)
    assert 0.0 <= m["trace.unattributed_s"] < 0.05 * wall


def test_traced_solve_that_raises_counts_as_a_failed_solve(monkeypatch):
    from fefetsim import engine

    inputs = workloads.WORKLOADS["read_scaling"].make_inputs(1)
    fe, dev, par = inputs.params
    array = engine.ArrayState(engine.Topology.CAND, 2, 2, fe, dev, par)
    monkeypatch.setattr(engine, "MAX_NEWTON_ITER", 0)
    tracer = layers.make_tracer()
    with tracer, pytest.raises(engine.ConvergenceError):
        engine.read_cells(array, 0, (0, 1), 1.0, 1.0)
    m = layers.metrics(tracer.log, 1.0, 1.0, 0)
    assert m["engine.solve_read.calls"] == 1 and m["engine.solve_read.fail"] == 1
    assert m["engine.solve_read.newton_iters"] == 0


def _disturb_folder(tmp_path, flip=None, separation=296.0):
    wl = workloads.WORKLOADS["disturb_24"]
    folder = tmp_path / wl.command
    folder.mkdir(parents=True)
    rows = ["group,initial_state,op,i_before_amps,i_after_amps,"
            "expected_logic,read_logic"]
    for k in range(wl.entries):
        logic = k % 2
        read = 1 - logic if k == flip else logic
        rows.append(f"g,{logic},write0,1e-9,1e-9,{logic},{read}")
    (folder / "disturb.csv").write_text("\n".join(rows) + "\n")
    (folder / "summary.json").write_text(json.dumps({"band_separation": separation}))
    return wl


def test_corrupted_disturb_output_is_counted_as_failed(tmp_path):
    wl = _disturb_folder(tmp_path / "good")
    good = wl.collect(0, tmp_path / "good", [])
    assert good.failed == 0
    assert good.attempted == wl.write_phases + wl.read_solves + 1 + wl.entries + 1

    _disturb_folder(tmp_path / "bad", flip=3)
    bad = wl.collect(0, tmp_path / "bad", [])
    assert bad.failed == 1 and bad.attempted == good.attempted
    assert bad.digest() != good.digest()
    low = _disturb_folder(tmp_path / "low", separation=50.0)
    assert low.collect(0, tmp_path / "low", []).failed == 1
    assert wl.collect(1, tmp_path / "good", []).failed == 1
    assert wl.collect(0, tmp_path / "empty", []).failed >= 1


def test_corrupted_mc_output_is_counted_as_failed(tmp_path):
    wl = workloads.WORKLOADS["mc_1000"]
    folder = tmp_path / wl.command
    folder.mkdir()
    (folder / "mc.csv").write_text("h\n" + "r\n" * (4 * wl.samples))
    summary = {"band_overlap": False, "min_on_off_ratio": 120.0}
    (folder / "summary.json").write_text(json.dumps(summary))
    assert wl.collect(0, tmp_path, []).failed == 0
    (folder / "summary.json").write_text(json.dumps({**summary, "band_overlap": True}))
    assert wl.collect(0, tmp_path, []).failed == 1


def test_corrupted_read_currents_are_counted_as_failed(tmp_path):
    wl = workloads.WORKLOADS["read_scaling"]
    n = 4
    bits = np.array([[1, 0, 1, 0]] * n, dtype=np.uint8)
    cfg = workloads.config.load_config()[0]
    inputs = workloads.ReadInputs(cfg, (), {n: (bits, 1, 2)})
    on, off = 4e-7, 1e-11
    currents = {f"cand{n}": [on, off, on, off], f"and{n}": [on]}
    reference = {"currents": currents}
    good = wl.collect(workloads.ReadOutput(currents, {}), tmp_path, inputs, reference)
    assert good.failed == 0 and good.attempted == 2 + n + 1

    off_ref = {f"cand{n}": [on * (1 + 1e-4), off, on, off], f"and{n}": [on]}
    assert wl.collect(workloads.ReadOutput(off_ref, {}), tmp_path, inputs,
                      reference).failed == 1
    flipped = {f"cand{n}": [on, off, off, off], f"and{n}": [on]}
    assert wl.collect(workloads.ReadOutput(flipped, {}), tmp_path, inputs,
                      None).failed == 1
    stalled = workloads.ReadOutput({f"cand{n}": currents[f"cand{n}"]},
                                   {f"and{n}": "stalled"})
    assert wl.collect(stalled, tmp_path, inputs, reference).failed == 2


def test_times_scale_to_the_yardstick_reference_speed():
    ref = yardstick.REFERENCE_S
    # the host ran the yardstick at half the reference speed (mean 2 * ref)
    assert yardstick.at_reference_speed(3.0, [ref, 2 * ref, 3 * ref]) == \
        pytest.approx(1.5)


def test_disturb_size_matches_the_workload_definition():
    wl = workloads.WORKLOADS["disturb_24"]
    assert (wl.write_phases, wl.read_solves) == (976, 32)
    assert wl.cell_ops == (976 + 32) * 24 * 24


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) \
        == list(run_bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run_bench.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.METRICS.items())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "mc_1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
