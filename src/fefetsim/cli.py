"""Command-line front end: config ingestion, experiment dispatch, artifacts.

Every subcommand writes CSV tables plus a JSON summary under
`<out>/<command>/` along with a manifest recording the command, resolved
configuration (with per-field provenance), seed, and library versions.
The process exits nonzero when a registered check fails or a solve does
not converge.  The default output directory comes from the FEFETSIM_OUT
environment variable, falling back to ./fefetsim-out.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import biasing, config, engine, experiments, output

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MISSING_FILE = 3
EXIT_UNKNOWN_KEY = 4
EXIT_BAD_VALUE = 5

#: widest array whose 2**cols words `run word-write` enumerates (65 536)
WORD_WRITE_MAX_COLS = 16


# Steps: each prints its stdout lines and returns its tables, its plots
# (name -> `output.svg_line_plot`'s arguments after the path) and whether
# its checks passed; a top-level command's help is its step's docstring


def _device_sweep(args, cfg, prov):
    """transfer curves and hysteresis loop"""
    transfer = experiments.device_transfer_sweep(cfg)
    loop = experiments.hysteresis_sweep(cfg)
    ids = {f"state {s}": [(r[0], max(r[1 + s], 1e-16)) for r in transfer.rows]
           for s in (0, 1)}
    plots = {"transfer": (ids, "Transfer curves", "Vgs (V)", "Ids (A)",
                          False, True),
             "hysteresis": ({"loop": loop.rows}, "Polarization loop",
                            "V (V)", "P (C/m^2)", False, False)}
    return {"transfer": transfer, "hysteresis": loop}, plots, True


def _verify_scheme(args, cfg, prov):
    """audit write-voltage exposure of unselected cells"""
    # `all` has no --scheme: it audits the mixed scheme
    scheme = getattr(args, "scheme", None) or biasing.SchemeKind.MIXED.value
    res = experiments.scheme_audit(cfg, biasing.SchemeKind(scheme))
    print(f"{'op':8} {'group':10} {'exposure':>10} {'margin':>10} flag")
    for op, group, exposure, margin, flag in res.rows:
        print(f"{op:8} {group:10} {exposure:10.3f} {margin:10.3f} {flag}")
    return {"findings": res}, {}, not res.summary["any_disturb"]


def _bitline(args, cfg, prov):
    res = experiments.long_bitline_sweep(cfg)
    by_topo = {t: [(r.rows, r.window_ratio) for r in res.rows
                   if r.topology == t] for t in ("and", "cand")}
    plots = {"window": (by_topo, "Read window vs rows", "rows",
                        "on/off ratio", True, True)}
    return {"bitline": res}, plots, all(r.window_ratio > 1.0 for r in res.rows)


def _disturb(args, cfg, prov):
    res = experiments.disturb_matrix(cfg)
    return {"disturb": res}, {}, res.summary["all_logic_preserved"]


def _word_write(args, cfg, prov):
    word = getattr(args, "word", None)
    # the demo keeps its own 8x8 unless `run` is given a size: the config's
    # 16x16 default would mean 65 536 words, and `all` must run at any
    # configured size
    rows, cols = (getattr(cfg, k)
                  if args.command == "run" and prov[k] != "default"
                  else experiments.WORD_WRITE_SIZE for k in ("rows", "cols"))
    if word is None and cols > WORD_WRITE_MAX_COLS:
        raise config.ValueRangeError(
            f"run word-write writes all 2**cols words; above "
            f"{WORD_WRITE_MAX_COLS} columns give --word")
    if word is not None and not 0 <= word < 1 << cols:
        raise config.ValueRangeError(
            f"--word {word:#x} does not fit in {cols} columns")
    res = experiments.word_write_demo(
        cfg, rows, cols, words=None if word is None else [word])
    for e in res.rows:
        print(f"word 0x{e.word:02X} row {e.row} -> readback "
              f"0x{e.readback:02X} {'ok' if e.match else 'MISMATCH'}")
    return {"word_write": res}, {}, res.summary["all_match"]


def _disturb_accumulate(args, cfg, prov):
    res = experiments.accumulative_disturb_sweep(cfg)
    plots = {"drift": ({"vt drift": [(r[0], r[2] + 1e-12) for r in res.rows]},
                       "Half-select vt drift", "pulses", "delta vt (V)",
                       True, False)}
    return {"disturb_accumulate": res}, plots, True


def _mc(args, cfg, prov):
    """process-variation Monte Carlo"""
    res = experiments.monte_carlo(cfg)
    ok = (not res.summary["band_overlap"] and res.summary["misreads"] == 0
          and res.summary["min_on_off_ratio"] >= 10.0)
    return {"mc": res}, {}, ok


def _power(args, cfg, prov):
    """read power vs array size"""
    res = experiments.power_sweep(cfg)
    plots = {"power": ({"total": [(r[0], r[4]) for r in res.rows]},
                       "Peak single-bit read power", "array size",
                       "power (W)", True, False)}
    ok = (res.summary["flatness"] <= 1.2
          and res.summary["max_leak_share"] < 0.1)
    return {"power": res}, plots, ok


def _area(args, cfg, prov):
    """cell area comparison"""
    res = experiments.area_comparison()
    for label, a, c, ratio in res.rows:
        print(f"{label:8} AND {a:8.2f} λ²   C-AND {c:8.2f} λ²   "
              f"{ratio:.2f}X")
    return {"area": res}, {}, True


#: every command, in the order `all` runs them: name -> (the size, word and
#: plot flags it reads, any other of which it refuses with exit 5; its step)
COMMANDS = {
    "device-sweep": (("plot",), _device_sweep),
    "verify-scheme": ((), _verify_scheme),
    "run bitline": (("plot",), _bitline),
    "run disturb": (("rows", "cols"), _disturb),
    "run word-write": (("rows", "cols", "word"), _word_write),
    "run disturb-accumulate": (("plot",), _disturb_accumulate),
    "mc": (("samples",), _mc),
    "power": (("plot",), _power),
    "area": ((), _area),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fefetsim",
        description="Ferroelectric-FET memory array simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (strict schema)")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", metavar="DIR",
                        default=os.environ.get("FEFETSIM_OUT", "fefetsim-out"))
    common.add_argument("--samples", type=int)
    common.add_argument("--rows", type=int)
    common.add_argument("--cols", type=int)
    common.add_argument("--topology", choices=["and", "cand"])
    common.add_argument("--plot", action="store_true", default=None,
                        help="also emit SVG line charts")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, step) in COMMANDS.items():
        command = name.split()[0]
        if command not in sub.choices:
            sub.add_parser(command, parents=[common], help=(
                "run one experiment" if command == "run" else step.__doc__))
    sub.add_parser("all", parents=[common], help="every experiment in sequence")

    vs = sub.choices["verify-scheme"]
    vs.add_argument("--vw0", type=float, help="erase voltage (negative), V")
    vs.add_argument("--vw1", type=float, help="program voltage (positive), V")
    vs.add_argument("--scheme", choices=[k.value for k in biasing.SchemeKind])

    run = sub.choices["run"]
    run.add_argument("experiment", choices=[
        name.split()[1] for name in COMMANDS if name.startswith("run ")])
    run.add_argument("--word", type=lambda s: int(s, 0),
                     help="single word to write (word-write only)")
    return parser


def _run(name: str, args, cfg, prov) -> int:
    """Run a command's step, then write into `<out>/<last word of name>/`
    each table's CSV, the one summary, the plots (with --plot), a manifest."""
    tables, plots, ok = COMMANDS[name][1](args, cfg, prov)
    command = name.split()[-1]
    out = os.path.join(args.out, command)
    os.makedirs(out, exist_ok=True)
    files = []
    for table_name, table in tables.items():
        files.append(output.write_csv(os.path.join(out, f"{table_name}.csv"),
                                      table.header, table.rows))
        if table.summary is not None:
            files.append(output.write_json(os.path.join(out, "summary.json"),
                                           table.summary))
    for plot, spec in plots.items() if args.plot else ():
        files.append(output.svg_line_plot(os.path.join(out, f"{plot}.svg"),
                                          *spec))
    output.write_manifest(out, command, config.config_dict(cfg), prov, files)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # a flag its command never reads would be accepted as if used
    name = f"{args.command} {getattr(args, 'experiment', '')}".strip()
    # `all` reads its steps' flags but --word: it writes every word
    reads = COMMANDS[name][0] if name != "all" else \
        {f for flags, _ in COMMANDS.values() for f in flags} - {"word"}
    for flag in ("rows", "cols", "samples", "word", "plot"):
        if getattr(args, flag, None) is not None and flag not in reads:
            print(f"error: {name} does not read --{flag}", file=sys.stderr)
            return EXIT_BAD_VALUE
    overrides = {k: getattr(args, k, None)
                 for k in ("seed", "samples", "rows", "cols", "topology")}
    overrides.update(v_w0=getattr(args, "vw0", None),
                     v_w1=getattr(args, "vw1", None))
    try:
        cfg, prov = config.load_config(args.config, overrides)
    except FileNotFoundError as exc:
        print(f"error: config file not found: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except config.UnknownKeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_KEY
    except config.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_VALUE
    try:
        if name != "all":
            return _run(name, args, cfg, prov)
        # refuse a size the disturb step cannot run before any step writes
        experiments.check_disturb_size(cfg)
        return max(_run(step, args, cfg, prov) for step in COMMANDS)
    except config.ConfigError as exc:
        # a configured value that this command cannot run with
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_VALUE
    except engine.ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
