"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload turns a seed into inputs during set-up, runs one pass of
fefetsim over them (the only timed region), and afterwards checks what the
pass produced.  A pass's size in simulated cell operations is fixed by the
workload definition, not counted from the program, so no implementation
change can redefine it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fefetsim import cli, config, engine
from fefetsim.biasing import Topology

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: read_scaling tolerance against the reference currents: relative part,
#: plus the solver's own absolute node-current tolerance (engine.RESIDUAL_TOL)
REL_TOL = 1e-6
ABS_TOL_A = 1e-13


@dataclass
class PassResult:
    """What one pass produced, reduced to checks and artifact hashes."""

    checks: list[tuple[str, bool]] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    #: write phases and read solves the pass attempted, and how many failed
    solver_ops: int = 0
    solver_failures: int = 0

    @property
    def attempted(self) -> int:
        return self.solver_ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.solver_failures + sum(not ok for _, ok in self.checks)

    def digest(self) -> str:
        blob = json.dumps(sorted(self.hashes.items())).encode()
        return hashlib.sha256(blob).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference hashes (and currents) recorded at the defining commit for
    this workload and seed, or None when the seed has none."""
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    return data.get(workload, {}).get(str(seed))


def bytes_identical(result: PassResult, reference: dict | None) -> int:
    if reference is None:
        return 0
    ref = reference["hashes"]
    return sum(ref.get(name) == h for name, h in result.hashes.items())


# --------------------------------------------------------------------------
# CLI workloads: `fefetsim ...` called in-process


class CliWorkload:
    """A fefetsim command run in-process through ``cli.main``."""

    name = ""
    command = ""
    argv: tuple[str, ...] = ()
    #: write phases and read solves of one pass
    write_phases = 0
    read_solves = 0
    cells_per_phase = 0
    cells_per_read = 0
    artifacts: tuple[str, ...] = ()

    @property
    def cell_ops(self) -> int:
        return (self.write_phases * self.cells_per_phase
                + self.read_solves * self.cells_per_read)

    def make_inputs(self, seed: int) -> list[str]:
        # the command resolves its config again; loading it here makes set-up
        # pay the same config cost as read_scaling's
        config.load_config()
        return [*self.argv, "--seed", str(seed)]

    def run(self, argv: list[str], out: Path) -> int:
        # the CLI prints tables for some commands; keep stdout for the result
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main([*argv, "--out", str(out)])

    def collect(self, rc: int, out: Path, argv: list[str],
                reference: dict | None = None) -> PassResult:
        res = PassResult(solver_ops=self.write_phases + self.read_solves)
        res.checks.append(("cli exit 0", rc == 0))
        folder = out / self.command
        for name in self.artifacts:
            path = folder / name
            res.hashes[name] = sha256_file(path) if path.is_file() else "missing"
        try:
            self.check(folder, res)
        except (OSError, ValueError, KeyError) as exc:
            res.checks.append((f"outputs readable ({exc})", False))
        return res

    def check(self, folder: Path, res: PassResult) -> None:
        raise NotImplementedError


class Disturb24(CliWorkload):
    name = "disturb_24"
    why = ("write path: 976 write phases on 24x24 C-AND arrays whose uniform "
           "cells share hysteresis states, plus 32 single-cell reads")
    command = "disturb"
    rows = cols = 24
    argv = ("run", "disturb", "--rows", str(rows), "--cols", str(cols))
    # 4 cell groups x 2 initial states x 2 ops; each case initializes a fresh
    # array with 2 (state 0) or 3 (state 1) full sweeps of row writes, then
    # applies one write and reads the observed cell before and after it
    write_phases = 4 * 2 * ((2 * rows + 1) + (3 * rows + 1))
    read_solves = 4 * 2 * 2 * 2
    cells_per_phase = cells_per_read = rows * cols
    artifacts = ("disturb.csv", "summary.json")
    entries = 16
    min_band_separation = 1e2

    def check(self, folder: Path, res: PassResult) -> None:
        with open(folder / "disturb.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for k in range(self.entries):
            ok = k < len(rows) and rows[k]["read_logic"] == rows[k]["expected_logic"]
            res.checks.append((f"entry {k} keeps logic", ok))
        summary = json.loads((folder / "summary.json").read_text())
        res.checks.append(("band_separation >= 1e2",
                           summary["band_separation"] >= self.min_band_separation))


class MonteCarlo1000(CliWorkload):
    name = "mc_1000"
    why = ("fixed per-call cost: 1000 2x2 arrays, 5000 tiny write phases and "
           "2000 eight-node read solves, plus a 4000-row CSV and manifest")
    command = "mc"
    samples = 1000
    argv = ("mc", "--samples", str(samples))
    # per trial: program both rows, erase both rows, rewrite one cell; then
    # one full-row read per row
    write_phases = samples * 5
    read_solves = samples * 2
    cells_per_phase = cells_per_read = 2 * 2
    artifacts = ("mc.csv", "summary.json")
    min_on_off_ratio = 10.0

    def check(self, folder: Path, res: PassResult) -> None:
        summary = json.loads((folder / "summary.json").read_text())
        res.checks.append(("no band overlap", summary["band_overlap"] is False))
        res.checks.append(("min_on_off_ratio >= 10",
                           summary["min_on_off_ratio"] >= self.min_on_off_ratio))
        with open(folder / "mc.csv", newline="") as fh:
            n_rows = sum(1 for _ in fh) - 1
        res.checks.append(("4 csv rows per sample", n_rows == 4 * self.samples))


# --------------------------------------------------------------------------
# read_scaling: large random-pattern arrays read without any write


@dataclass
class ReadInputs:
    cfg: config.RunConfig
    params: tuple      # (FerroParams, FeFetParams, Parasitics)
    #: size -> (bit pattern, selected row, selected AND column)
    cases: dict[int, tuple[np.ndarray, int, int]]


@dataclass
class ReadOutput:
    #: read key ("cand64", "and256", ...) -> sensed currents in column order
    currents: dict[str, list[float]]
    errors: dict[str, str]


class ReadScaling:
    name = "read_scaling"
    why = ("read solve only: C-AND full-row and AND single-column reads of "
           "64, 128 and 256 square random patterns, no write pulses")
    sizes = (64, 128, 256)

    @property
    def cell_ops(self) -> int:
        return sum(2 * n * n for n in self.sizes)

    def make_inputs(self, seed: int) -> ReadInputs:
        cfg, _ = config.load_config()
        rng = np.random.default_rng(seed)
        cases = {}
        for n in self.sizes:
            bits = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
            row, col = (int(x) for x in rng.integers(0, n, size=2))
            cases[n] = (bits, row, col)
        params = (config.make_ferro(cfg), config.make_device(cfg),
                  config.make_parasitics(cfg))
        return ReadInputs(cfg, params, cases)

    def reads(self, inputs: ReadInputs):
        """(key, topology, size, selected row, selected columns) per read."""
        for n, (_, row, col) in inputs.cases.items():
            yield f"cand{n}", Topology.CAND, n, row, tuple(range(n))
            yield f"and{n}", Topology.AND, n, row, (col,)

    def run(self, inputs: ReadInputs, out: Path) -> ReadOutput:
        fe, dev, par = inputs.params
        cfg = inputs.cfg
        result = ReadOutput({}, {})
        for key, topo, n, row, cols in self.reads(inputs):
            array = engine.ArrayState(topo, n, n, fe, dev, par)
            array.set_pattern(inputs.cases[n][0])
            try:
                res = engine.read_cells(array, row, cols, cfg.v_wl, cfg.v_sl)
            except engine.ConvergenceError as exc:
                result.errors[key] = str(exc)
                continue
            result.currents[key] = [float(res.current(c)) for c in cols]
        return result

    def collect(self, output: ReadOutput, out: Path, inputs: ReadInputs,
                reference: dict | None = None) -> PassResult:
        res = PassResult()
        ref = reference["currents"] if reference else None
        for key, _, n, row, cols in self.reads(inputs):
            res.solver_ops += 1
            res.solver_failures += key in output.errors
            got = output.currents.get(key)
            bits = inputs.cases[n][0]
            if got is not None:
                res.hashes[key] = hashlib.sha256(
                    np.asarray(got, dtype=np.float64).tobytes()).hexdigest()
            for k, c in enumerate(cols):
                ok = got is not None and len(got) == len(cols) and \
                    (got[k] > inputs.cfg.i_ref) == bool(bits[row, c])
                if ok and ref is not None:
                    want = ref[key][k]
                    ok = abs(got[k] - want) <= REL_TOL * abs(want) + ABS_TOL_A
                res.checks.append((f"{key} column {c}", ok))
        return res


WORKLOADS = {w.name: w for w in (Disturb24(), ReadScaling(), MonteCarlo1000())}

