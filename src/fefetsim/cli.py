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

RUN_EXPERIMENTS = ("bitline", "disturb", "word-write", "disturb-accumulate")

#: widest array whose 2**cols words `run word-write` enumerates (65 536)
WORD_WRITE_MAX_COLS = 16

#: the size, word and plot flags each command reads; any other command
#: refuses them (exit 5)
COMMAND_FLAGS = {"device-sweep": ("plot",),
                 "run bitline": ("plot",),
                 "run disturb": ("rows", "cols"),
                 "run word-write": ("rows", "cols", "word"),
                 "run disturb-accumulate": ("plot",),
                 "mc": ("samples",), "power": ("plot",),
                 "all": ("rows", "cols", "samples", "plot")}


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
    sub.add_parser("device-sweep", parents=[common],
                   help="transfer curves and hysteresis loop")

    vs = sub.add_parser("verify-scheme", parents=[common],
                        help="audit write-voltage exposure of unselected cells")
    vs.add_argument("--vw0", type=float, help="erase voltage (negative), V")
    vs.add_argument("--vw1", type=float, help="program voltage (positive), V")
    vs.add_argument("--scheme", choices=[k.value for k in biasing.SchemeKind],
                    default=biasing.SchemeKind.MIXED.value)

    run = sub.add_parser("run", parents=[common], help="run one experiment")
    run.add_argument("experiment", choices=RUN_EXPERIMENTS)
    run.add_argument("--word", type=lambda s: int(s, 0),
                     help="single word to write (word-write only)")

    sub.add_parser("mc", parents=[common], help="process-variation Monte Carlo")
    sub.add_parser("power", parents=[common], help="read power vs array size")
    sub.add_parser("area", parents=[common], help="cell area comparison")
    sub.add_parser("all", parents=[common], help="every experiment in sequence")
    return parser


def _resolve_config(args) -> tuple[config.RunConfig, dict]:
    overrides = {k: getattr(args, k, None)
                 for k in ("seed", "samples", "rows", "cols", "topology")}
    overrides.update(v_w0=getattr(args, "vw0", None),
                     v_w1=getattr(args, "vw1", None))
    return config.load_config(args.config, overrides)


def _out_dir(args, command: str) -> str:
    path = os.path.join(args.out, command)
    os.makedirs(path, exist_ok=True)
    return path


def _emit(args, command: str, cfg, provenance,
          tables: dict[str, experiments.Table],
          plots: dict | None = None) -> list[str]:
    """Write each table as `<name>.csv`, the summary of the one table that
    has one as `summary.json`, the plots, and the manifest; return the
    artifact paths."""
    out = _out_dir(args, command)
    files = []
    for name, table in tables.items():
        files.append(output.write_csv(os.path.join(out, f"{name}.csv"),
                                      table.header, table.rows))
        if table.summary is not None:
            files.append(output.write_json(os.path.join(out, "summary.json"),
                                           _summary_jsonable(table.summary)))
    if args.plot and plots:
        for name, (series, title, xl, yl, log_x, log_y) in plots.items():
            files.append(output.svg_line_plot(
                os.path.join(out, f"{name}.svg"), series, title, xl, yl,
                log_x=log_x, log_y=log_y))
    output.write_manifest(out, command, config.config_dict(cfg),
                          provenance, files)
    return files


def _summary_jsonable(summary: dict) -> dict:
    return {k: (v.item() if hasattr(v, "item") else v)
            for k, v in summary.items()}


# --------------------------------------------------------------------------
# Subcommands (each returns an exit status)


def cmd_device_sweep(args, cfg, prov) -> int:
    transfer = experiments.device_transfer_sweep(cfg)
    loop = experiments.hysteresis_sweep(cfg)
    ids = {f"state {s}": [(r[0], max(r[1 + s], 1e-16)) for r in transfer.rows]
           for s in (0, 1)}
    plots = {
        "transfer": (ids, "Transfer curves", "Vgs (V)", "Ids (A)", False, True),
        "hysteresis": ({"loop": loop.rows},
                       "Polarization loop", "V (V)", "P (C/m^2)",
                       False, False),
    }
    _emit(args, "device-sweep", cfg, prov,
          {"transfer": transfer, "hysteresis": loop}, plots)
    return EXIT_OK


def cmd_verify_scheme(args, cfg, prov) -> int:
    res = experiments.scheme_audit(cfg, biasing.SchemeKind(args.scheme))
    print(f"{'op':8} {'group':10} {'exposure':>10} {'margin':>10} flag")
    for op, group, exposure, margin, flag in res.rows:
        print(f"{op:8} {group:10} {exposure:10.3f} {margin:10.3f} {flag}")
    _emit(args, "verify-scheme", cfg, prov, {"findings": res})
    return EXIT_CHECK_FAILED if res.summary["any_disturb"] else EXIT_OK


def cmd_run(args, cfg, prov) -> int:
    if args.experiment == "bitline":
        res = experiments.long_bitline_sweep(cfg)
        by_topo = {t: [(r.rows, r.window_ratio) for r in res.rows
                       if r.topology == t] for t in ("and", "cand")}
        plots = {"window": (by_topo, "Read window vs rows", "rows",
                            "on/off ratio", True, True)}
        _emit(args, "bitline", cfg, prov, {"bitline": res}, plots)
        ok = all(r.window_ratio > 1.0 for r in res.rows)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.experiment == "disturb":
        res = experiments.disturb_matrix(cfg)
        _emit(args, "disturb", cfg, prov, {"disturb": res})
        return EXIT_OK if res.summary["all_logic_preserved"] \
            else EXIT_CHECK_FAILED
    if args.experiment == "word-write":
        words = [args.word] if args.word is not None else None
        # the demo keeps its own 8x8 unless `run` is given a size: the
        # config's 16x16 default would mean 65 536 words, and `all` must run
        # at any configured size
        rows, cols = (getattr(cfg, k)
                      if args.command == "run" and prov[k] != "default"
                      else experiments.WORD_WRITE_SIZE for k in ("rows", "cols"))
        if words is None and cols > WORD_WRITE_MAX_COLS:
            print(f"error: run word-write writes all 2**cols words; above "
                  f"{WORD_WRITE_MAX_COLS} columns give --word", file=sys.stderr)
            return EXIT_BAD_VALUE
        if words is not None and not 0 <= args.word < 1 << cols:
            print(f"error: --word {args.word:#x} does not fit in {cols} "
                  f"columns", file=sys.stderr)
            return EXIT_BAD_VALUE
        res = experiments.word_write_demo(cfg, rows, cols, words=words)
        for e in res.rows:
            print(f"word 0x{e.word:02X} row {e.row} -> readback "
                  f"0x{e.readback:02X} {'ok' if e.match else 'MISMATCH'}")
        _emit(args, "word-write", cfg, prov, {"word_write": res})
        return EXIT_OK if res.summary["all_match"] else EXIT_CHECK_FAILED
    res = experiments.accumulative_disturb_sweep(cfg)
    plots = {"drift": ({"vt drift": [(r[0], r[2] + 1e-12) for r in res.rows]},
                       "Half-select vt drift", "pulses", "delta vt (V)",
                       True, False)}
    _emit(args, "disturb-accumulate", cfg, prov,
          {"disturb_accumulate": res}, plots)
    return EXIT_OK


def cmd_mc(args, cfg, prov) -> int:
    res = experiments.monte_carlo(cfg)
    _emit(args, "mc", cfg, prov, {"mc": res})
    ok = (not res.summary["band_overlap"]
          and res.summary["misreads"] == 0
          and res.summary["min_on_off_ratio"] >= 10.0)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_power(args, cfg, prov) -> int:
    res = experiments.power_sweep(cfg)
    plots = {"power": ({"total": [(r[0], r[4]) for r in res.rows]},
                       "Peak single-bit read power", "array size",
                       "power (W)", True, False)}
    _emit(args, "power", cfg, prov, {"power": res}, plots)
    ok = (res.summary["flatness"] <= 1.2
          and res.summary["max_leak_share"] < 0.1)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_area(args, cfg, prov) -> int:
    res = experiments.area_comparison()
    for label, a, c, ratio in res.rows:
        print(f"{label:8} AND {a:8.2f} λ²   C-AND {c:8.2f} λ²   "
              f"{ratio:.2f}X")
    _emit(args, "area", cfg, prov, {"area": res})
    return EXIT_OK


def cmd_all(args, cfg, prov) -> int:
    # refuse a size the disturb step cannot run before any step writes
    experiments.check_disturb_size(cfg)
    status = EXIT_OK
    status = max(status, cmd_device_sweep(args, cfg, prov))
    args.scheme = "mixed"
    status = max(status, cmd_verify_scheme(args, cfg, prov))
    for exp in RUN_EXPERIMENTS:
        args.experiment, args.word = exp, None
        status = max(status, cmd_run(args, cfg, prov))
    status = max(status, cmd_mc(args, cfg, prov))
    status = max(status, cmd_power(args, cfg, prov))
    status = max(status, cmd_area(args, cfg, prov))
    return status


_COMMANDS = {
    "device-sweep": cmd_device_sweep,
    "verify-scheme": cmd_verify_scheme,
    "run": cmd_run,
    "mc": cmd_mc,
    "power": cmd_power,
    "area": cmd_area,
    "all": cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # a flag its command never reads would be accepted as if used
    name = f"{args.command} {getattr(args, 'experiment', '')}".strip()
    for flag in ("rows", "cols", "samples", "word", "plot"):
        if getattr(args, flag, None) is not None and \
                flag not in COMMAND_FLAGS.get(name, ()):
            print(f"error: {name} does not read --{flag}", file=sys.stderr)
            return EXIT_BAD_VALUE
    try:
        cfg, prov = _resolve_config(args)
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
        return _COMMANDS[args.command](args, cfg, prov)
    except config.ConfigError as exc:
        # a configured value that this command cannot run with
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_VALUE
    except engine.ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
