"""The answer key: what seeded commands print and write, checked in as
tests/answer_key.json and compared by test_answer_key.py.

Record it again from the repository root, only on purpose, and name in
CHANGES.md every value the new key moves:

    PYTHONPATH=src python tests/answer_key.py

A rerun must match the key exactly in exit status, stdout lines and every
CSV cell or summary field that is not a current; a current (a CSV column
named ``*_amps``, or a float summary field) may move by REL_TOL relative,
so that the key holds across Python and numpy builds whose exp and log1p
differ by an ulp.  Manifests are not compared: they name versions and
paths, not answers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from fefetsim import cli

KEY = Path(__file__).resolve().with_suffix(".json")

#: name -> command line, each run with the default config and seed
COMMANDS = {
    "disturb_24": ["run", "disturb", "--rows", "24", "--cols", "24"],
    "disturb_24_and": ["run", "disturb", "--rows", "24", "--cols", "24",
                       "--topology", "and"],
    # the two-block layouts: source and bit lines of different lengths
    "disturb_16x40": ["run", "disturb", "--rows", "16", "--cols", "40"],
    "disturb_40x16": ["run", "disturb", "--rows", "40", "--cols", "16"],
    # five 48x48 reads share a read batch
    "disturb_48": ["run", "disturb", "--rows", "48", "--cols", "48"],
    "word_write": ["run", "word-write"],
    "word_write_and": ["run", "word-write", "--topology", "and"],
    "device_sweep": ["device-sweep"],
    "verify_scheme": ["verify-scheme"],
    # a scheme that over-stresses unselected cells: exits 1
    "verify_scheme_vdd3": ["verify-scheme", "--vw0", "-1.0", "--vw1", "4.5",
                           "--scheme", "vdd3"],
    "bitline": ["run", "bitline"],
    "disturb_accumulate": ["run", "disturb-accumulate"],
    "mc_200": ["mc", "--samples", "200", "--seed", "914003"],
    # AND sneak leakage closes the read window: exits 1
    "mc_20_and": ["mc", "--samples", "20", "--topology", "and"],
    "power": ["power"],
    "area": ["area"],
}

#: relative tolerance of a current against the key
REL_TOL = 1e-12


def run(argv: list[str], out: Path) -> dict:
    """One command's exit status, stdout lines, CSV rows (as text) and
    summary, run in-process with `out` as its output root: the tables and
    summary are read from the one folder the command wrote there."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main([*argv, "--out", str(out)])
    (folder,) = [p for p in out.iterdir() if p.is_dir()]
    tables = {}
    for path in sorted(folder.glob("*.csv")):
        with open(path, newline="") as fh:
            tables[path.name] = list(csv.reader(fh))
    summary = folder / "summary.json"
    return {"argv": argv, "status": status,
            "stdout": buf.getvalue().splitlines(), "csv": tables,
            "summary": json.loads(summary.read_text())
            if summary.is_file() else None}


def _close(got: float, want: float) -> bool:
    return (math.isnan(got) and math.isnan(want)) or \
        abs(got - want) <= REL_TOL * abs(want)


def differences(got: dict, want: dict) -> list[str]:
    """Every way a run differs from its key entry, one line each."""
    out = [f"{field}: {got[field]!r} != {want[field]!r}"
           for field in ("argv", "status", "stdout")
           if got[field] != want[field]]
    if got["csv"].keys() != want["csv"].keys():
        out.append(f"csv files {sorted(got['csv'])} != {sorted(want['csv'])}")
    for name in got["csv"].keys() & want["csv"].keys():
        rows, key = got["csv"][name], want["csv"][name]
        if len(rows) != len(key) or rows[:1] != key[:1]:
            out.append(f"{name}: header or row count differs")
            continue
        amps = [h.endswith("_amps") for h in key[0]]
        for k, (row, ref) in enumerate(zip(rows[1:], key[1:]), 1):
            if len(row) != len(ref):
                out.append(f"{name} row {k}: {len(row)} cells != {len(ref)}")
            for col, a, b, is_amps in zip(key[0], row, ref, amps):
                if not (_close(float(a), float(b)) if is_amps else a == b):
                    out.append(f"{name} row {k} {col}: {a} != {b}")
    summary, ref = got["summary"], want["summary"]
    if (summary is None) != (ref is None) or (
            summary is not None and summary.keys() != ref.keys()):
        out.append(f"summary fields differ: {summary} != {ref}")
    elif summary is not None:
        for field, b in ref.items():
            a = summary[field]
            if not (_close(a, b) if isinstance(b, float) else a == b):
                out.append(f"summary {field}: {a!r} != {b!r}")
    return out


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run(argv, Path(tmp) / name)
                for name, argv in COMMANDS.items()}


if __name__ == "__main__":
    KEY.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"recorded {len(COMMANDS)} commands in {KEY}", file=sys.stderr)
