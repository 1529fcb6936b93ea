"""fefetsim's layers as the traced run sees them, and the per-layer metrics.

A layer is one module of the package.  The traced run wraps each layer's
boundary: the public functions that another layer or the benchmark calls.
For ferro, device, biasing and engine that set is listed by hand, so that
helpers called only inside their own module on the hot path (``ferro.
delta_of`` runs several times per pulse) add no span; their time stays in
the calling span of the same layer.  For the other layers every public
function is a boundary.
"""

from __future__ import annotations

import inspect
import os

import numpy as np
import scipy.sparse.linalg as spla

from fefetsim import (analytics, biasing, cli, config, device, engine,
                      experiments, ferro, output)

import spans

LAYERS = ("ferro", "device", "biasing", "engine", "analytics", "experiments",
          "config", "output", "cli")

_BOUNDARY = {
    ferro: ("apply_pulse", "settle", "make_state", "negative_saturation",
            "positive_saturation", "trace_loop"),
    device: ("write_cell", "drain_current_and_derivs", "drain_current",
             "read_current", "cell_vt"),
    biasing: ("cell_write_voltage", "classify_cell", "verify_scheme",
              "cand_write0_bias", "cand_write1_bias", "cand_read_bias",
              "and_write_bias", "and_read_bias"),
    engine: ("apply_write", "solve_read", "read_cells",
             "column_readout_with_leak", "accumulate_disturb"),
}

#: the read-solve sizes reported one by one (read_scaling's arrays)
SOLVE_KEYS = tuple(f"{t}{n}" for t in ("and", "cand") for n in (64, 128, 256))

#: per-layer metrics, in report order: name -> unit
METRICS = {
    "ferro.apply_pulse.calls": "count",
    "ferro.apply_pulse.s": "s",
    "device.write_cell.calls": "count",
    "device.write_cell.s": "s",
    "biasing.cell_write_voltage.calls": "count",
    "biasing.cell_write_voltage.s": "s",
    "engine.apply_write.calls": "count",
    "engine.apply_write.cells": "count",
    "engine.apply_write.s": "s",
    "engine.apply_write.cells_per_group": "ratio",
    "ferro.distinct_states_max": "count",
    "ferro.history_depth_max": "count",
    "device.drain_current_and_derivs.calls": "count",
    "device.drain_current_and_derivs.s": "s",
    "engine.solve_read.calls": "count",
    "engine.solve_read.s": "s",
    "engine.solve_read.self_s": "s",
    "engine.solve_read.factor_s": "s",
    **{f"engine.solve_read.{k}.{m}": u for k in SOLVE_KEYS
       for m, u in (("s", "s"), ("iters", "count"))},
    "engine.solve_read.newton_iters": "count",
    "engine.solve_read.newton_iters_max": "count",
    "engine.solve_read.assemblies": "count",
    "engine.solve_read.useful_ratio": "ratio",
    "engine.solve_read.max_residual_a": "A",
    "engine.solve_read.fail": "count",
    "config.make_device.calls": "count",
    "config.make_device.s": "s",
    "biasing.plan.calls": "count",
    "biasing.plan.s": "s",
    "engine.column_readout_with_leak.s": "s",
    "experiments.monte_carlo.per_trial_ms": "ms",
    "config.load_config.s": "s",
    "output.bytes": "bytes",
    "output.bytes_identical": "count",
    **{f"{layer}.s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.hooks_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _public_functions(module) -> tuple[str, ...]:
    return tuple(name for name, obj in vars(module).items()
                 if inspect.isfunction(obj) and not name.startswith("_")
                 and obj.__module__ == module.__name__)


def _bind(args, kwargs) -> dict:
    """Arguments of engine.apply_write / engine.solve_read by name; both
    take (array, plan, ...)."""
    return {**dict(zip(("array", "plan"), args)), **kwargs}


def _state_key(st) -> tuple:
    return (st.direction, st.k, st.p_off, st.e_eff, st.p, tuple(st.history))


def _write_groups(cell_write_voltage):
    """Hook before engine.apply_write: cells, distinct (pre-state, v_gb)
    pairs, distinct pre-states and the deepest turning-point history."""

    def before(args, kwargs):
        a = _bind(args, kwargs)
        array, plan = a["array"], a["plan"]
        try:
            cells = [(_state_key(array.cells[r][c]), cell_write_voltage(plan, r, c),
                      len(array.cells[r][c].history))
                     for r in range(array.rows) for c in range(array.cols)]
        except (AttributeError, TypeError, IndexError):
            return {"cells": array.rows * array.cols}
        return {"cells": len(cells),
                "groups": len({(s, v) for s, v, _ in cells}),
                "states": len({s for s, _, _ in cells}),
                "depth": max(d for _, _, d in cells)}

    return before


def targets(log_notes: dict) -> list:
    """(owner, attribute, span name, hooks) for every traced boundary."""

    def note(fn):
        def after(ctx, args, kwargs, result, idx):
            value = fn(ctx, _bind(args, kwargs), result)
            if value is not None:
                log_notes[idx] = value
        return after

    out = []
    for module in (ferro, device, biasing, engine, analytics, experiments,
                   config, output, cli):
        layer = module.__name__.rsplit(".", 1)[1]
        names = _BOUNDARY.get(module) or _public_functions(module)
        for name in names:
            out.append((module, name, f"{layer}.{name}", {}))
    hooks = {
        "engine.apply_write": {
            "before": _write_groups(biasing.cell_write_voltage),
            "after": note(lambda ctx, args, result: ctx)},
        "engine.solve_read": {"after": note(lambda ctx, a, result: {
            "key": f"{a['plan'].topology.value}{a['array'].rows}",
            "cells": a["array"].rows * a["array"].cols,
            "iters": int(result.iterations),
            "residual": float(result.max_residual)})},
        "experiments.monte_carlo": {"after": note(lambda ctx, args, result: {
            "samples": int(result.summary["samples"])})},
    }
    for name in ("write_csv", "write_json", "write_manifest", "svg_line_plot"):
        hooks[f"output.{name}"] = {"after": note(
            lambda ctx, args, result: {"bytes": os.path.getsize(result)})}
    out = [(owner, attr, span, hooks.get(span, h)) for owner, attr, span, h in out]
    out += [(engine.ArrayState, "__init__", "engine.ArrayState", {}),
            (engine.ArrayState, "set_pattern", "engine.ArrayState.set_pattern", {}),
            (spla, "spsolve", "engine.solve_read.factor", {})]
    return out


def make_tracer() -> spans.Tracer:
    log = spans.SpanLog()
    return spans.Tracer(targets(log.notes), log=log)


def metrics(log: spans.SpanLog, traced_wall: float, untraced_wall: float,
            identical: int) -> dict[str, float]:
    """Every per-layer metric of METRICS from one traced pass's spans."""
    sm = spans.Summary.of(log)
    m: dict[str, float] = {}
    for fn in ("ferro.apply_pulse", "device.write_cell",
               "biasing.cell_write_voltage", "engine.apply_write",
               "device.drain_current_and_derivs", "engine.solve_read",
               "config.make_device"):
        m[f"{fn}.calls"] = sm.calls(fn)
        m[f"{fn}.s"] = sm.seconds(fn)

    def notes_of(name):
        return [log.notes[i] for i in sm.outermost(name) if i in log.notes]

    writes = notes_of("engine.apply_write")
    m["engine.apply_write.cells"] = sum(w["cells"] for w in writes)
    grouped = [w for w in writes if "groups" in w]
    groups = sum(w["groups"] for w in grouped)
    m["engine.apply_write.cells_per_group"] = \
        sum(w["cells"] for w in grouped) / groups if groups else 0.0
    m["ferro.distinct_states_max"] = max((w["states"] for w in grouped), default=0)
    m["ferro.history_depth_max"] = max((w["depth"] for w in grouped), default=0)

    solve_idx = sm.outermost("engine.solve_read")
    # solves that returned; one that raised carries only an "error" note
    solved = {i: log.notes[i] for i in solve_idx.tolist()
              if "iters" in log.notes.get(i, {})}
    m["engine.solve_read.self_s"] = float(sm.self_s[solve_idx].sum())
    m["engine.solve_read.factor_s"] = sm.seconds("engine.solve_read.factor")
    for key in SOLVE_KEYS:
        idx = [i for i, s in solved.items() if s["key"] == key]
        m[f"engine.solve_read.{key}.s"] = float(sm.durations[idx].sum())
        m[f"engine.solve_read.{key}.iters"] = sum(solved[i]["iters"] for i in idx)
    iters = [s["iters"] for s in solved.values()]
    m["engine.solve_read.newton_iters"] = sum(iters)
    m["engine.solve_read.newton_iters_max"] = max(iters, default=0)
    # one residual assembly evaluates every cell once, so per solve the
    # assemblies are the device calls made directly by it over its cells
    dcd = sm.outermost("device.drain_current_and_derivs")
    parents = sm.parents[dcd]
    per_solve = np.bincount(parents[parents >= 0], minlength=len(sm.ids))
    assemblies = sum(int(per_solve[i]) // s["cells"] for i, s in solved.items())
    m["engine.solve_read.assemblies"] = assemblies
    m["engine.solve_read.useful_ratio"] = sum(iters) / assemblies if assemblies else 0.0
    m["engine.solve_read.max_residual_a"] = max(
        (s["residual"] for s in solved.values()), default=0.0)
    m["engine.solve_read.fail"] = sum(
        "error" in log.notes.get(i, {}) for i in solve_idx.tolist())

    plan_names = [n for n in log.names
                  if n.startswith("biasing.") and n.endswith("_bias")]
    m["biasing.plan.calls"] = sum(sm.calls(n) for n in plan_names)
    m["biasing.plan.s"] = sum(sm.seconds(n) for n in plan_names)
    m["engine.column_readout_with_leak.s"] = sm.seconds(
        "engine.column_readout_with_leak")
    mc = sm.outermost("experiments.monte_carlo")
    samples = sum(log.notes.get(i, {}).get("samples", 0) for i in mc)
    m["experiments.monte_carlo.per_trial_ms"] = \
        1e3 * float(sm.durations[mc].sum()) / samples if samples else 0.0
    m["config.load_config.s"] = sm.seconds("config.load_config")

    out_ids = [k for k, n in enumerate(log.names) if spans.layer_of(n) == "output"]
    is_out = np.isin(sm.ids, out_ids)
    top_out = np.nonzero(is_out & ~(
        (sm.parents >= 0) & is_out[np.maximum(sm.parents, 0)]))[0]
    m["output.bytes"] = sum(log.notes.get(i, {}).get("bytes", 0) for i in top_out)
    m["output.bytes_identical"] = identical

    self_by_layer = sm.layer_self()
    for layer in LAYERS:
        m[f"{layer}.s"] = self_by_layer.get(layer, 0.0)
    hooks_s = self_by_layer.get("trace", 0.0)
    m["trace.wall_s"] = traced_wall
    m["trace.hooks_s"] = hooks_s
    m["trace.unattributed_s"] = traced_wall - sum(self_by_layer.values())
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: m[name] for name in METRICS}
