"""Audit the mixed write scheme, then watch it hold up in a real array.

First the exposure audit (what every unselected cell group sees under
the C-AND write plans, read off the plans themselves), then the full
disturb matrix simulated on a 16x16 array of each topology, then a word
write with readback.

Run:  python3 demos/demo_write_disturb.py
"""

import dataclasses

from fefetsim import biasing, experiments
from fefetsim.biasing import SchemeKind, Topology
from fefetsim.config import (load_config, make_device, make_ferro,
                             make_parasitics)
from fefetsim.engine import ArrayState


def main():
    cfg, _ = load_config()

    print("== exposure audit, mixed scheme at the operating point ==")
    report = biasing.verify_scheme(cfg.v_w0, cfg.v_w1, SchemeKind.MIXED)
    for f in report.findings:
        print(f"  {f.op:7} {f.group.value:12} {f.v_gb:+6.2f} V "
              f"(margin {f.margin:+.2f} V) -> {f.flag}")
    print(f"  any disturb: {report.any_disturb}")

    print("\n== single-write disturb matrix, 16x16, AND next to C-AND ==")
    res = {t: experiments.disturb_matrix(
        dataclasses.replace(cfg, topology=t, rows=16, cols=16))
        for t in ("and", "cand")}
    print(f"  {'group':12} {'init':>4} {'op':7} {'AND read':>8} "
          f"{'C-AND read':>10}")
    for a, c in zip(res["and"].rows, res["cand"].rows):
        marks = ["" if e.read_logic == e.expected_logic else " FLIP"
                 for e in (a, c)]
        print(f"  {a.group:12} {a.initial_state:4} {a.op:7} "
              f"{a.read_logic:8}{marks[0]:5} {c.read_logic:5}{marks[1]}")
    for t, label in (("and", "AND"), ("cand", "C-AND")):
        flips = sum(e.read_logic != e.expected_logic for e in res[t].rows)
        print(f"  {label:5}: {flips} logic flips in 16 cases, band separation "
              f"(min '1' / max '0') {res[t].summary['band_separation']:.3g}")

    print("\n== two-cycle word write, 8x8 ==")
    array = ArrayState(Topology.CAND, 8, 8, make_ferro(cfg), make_device(cfg),
                       make_parasitics(cfg))
    for word in (0x00, 0x5A, 0xFF):
        cycles = experiments.write_word(cfg, array, 0, word)
        readback, _ = experiments.read_word(cfg, array, 0)
        ok = "ok" if readback == word else "MISMATCH"
        print(f"  0x{word:02X} -> {cycles} cycles -> readback "
              f"0x{readback:02X} {ok}")


if __name__ == "__main__":
    main()
