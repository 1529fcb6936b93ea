"""fefetsim benchmark: one workload in one process, untraced or traced.

Run from the repository root:

    python3 bench/run_bench.py --workload disturb_24 --seed 20260826 \
        --seconds 36 --trace 0

With ``--trace 0`` it measures set-up (several fresh interpreters that
import fefetsim and build the inputs), then repeats passes of the workload
for about ``--seconds`` seconds and reports the end-to-end metrics: the
median pass time, simulated cell operations per second, the median set-up
time and the process's peak resident memory.  The pass time is scaled to the
reference speed of a fixed yardstick timed between the run's intervals (see
yardstick.py); the host times are printed too.  With ``--trace 1`` it runs
untraced passes for half the time, then one pass with every layer boundary
wrapped (see layers.py) and reports the per-layer metrics.

Every pass's outputs are checked (see workloads.py) and must be identical
across passes, traced or not.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  All times are
host time, never simulated time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
#: run artifacts and span files; listed in .gitignore
OUT = REPO / ".bench_out"

WORKLOADS = ("disturb_24", "read_scaling", "mc_1000")
DEFAULT_SEED = 20260826
#: second seed, never used while the benchmark was tuned; re-check claims on it
HELD_OUT_SEED = 914003
SETUP_REPEATS = 5
#: yardstick time taken after each timed interval, as a share of the interval
YARDSTICK_SHARE = 0.1

# numpy/scipy run single-threaded so that the two cores of a small machine
# do not make BLAS timings depend on what else runs there
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cell_ops_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                   help="one workload, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


def probe(args) -> int:
    """Set-up as a user pays it: import fefetsim, load config, make inputs."""
    import workloads

    workloads.WORKLOADS[args.workload].make_inputs(args.seed)
    print("ready", flush=True)
    return 0


def measure_setup(args, yards: list[float]) -> list[float]:
    """Seconds from starting a fresh interpreter until its inputs are ready;
    appends yardstick times after each start to ``yards``."""
    import yardstick

    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        times.append(elapsed)
        yards += yardstick.sample(YARDSTICK_SHARE * elapsed)
    return times


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_PIN,
            "src_lines": src_lines}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    failed = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
            failed.append(name)
    if failed:
        print(f"failed: {' '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def timed_pass(workload, inputs, out: Path):
    out.mkdir()
    t0 = time.perf_counter()
    raw = workload.run(inputs, out)
    return time.perf_counter() - t0, raw


def run(args) -> dict:
    import workloads
    import yardstick

    yardstick.work()  # the first call pays scipy's lazy set-up; keep it out
    yards = [yardstick.timed()]
    setup = [] if args.trace else measure_setup(args, yards)
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    reference = workloads.load_reference(wl.name, args.seed)

    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    walls, results = [], []
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        t_start = time.perf_counter()
        while True:
            out = run_dir / f"pass{len(walls)}"
            wall, raw = timed_pass(wl, inputs, out)
            walls.append(wall)
            yards += yardstick.sample(YARDSTICK_SHARE * wall)
            results.append(wl.collect(raw, out, inputs, reference))
            shutil.rmtree(out)
            if time.perf_counter() - t_start + statistics.median(walls) > budget:
                break
        if args.trace:
            import layers

            tracer = layers.make_tracer()
            out = run_dir / "traced"
            with tracer:
                traced_wall, raw = timed_pass(wl, inputs, out)
            traced = wl.collect(raw, out, inputs, reference)
            tracer.log.save(str(OUT / f"spans-{wl.name}.npz"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # outputs must not depend on the pass or on tracing
    identity = [r.digest() == results[0].digest() for r in results[1:]]
    if args.trace:
        identity.append(traced.digest() == results[0].digest())
    checked = results + ([traced] if args.trace else [])
    attempted = sum(r.attempted for r in checked) + len(identity)
    failed = sum(r.failed for r in checked) + identity.count(False)

    report = {"passes": len(walls), "pass_s": walls,
              "yardstick_s": yards, "fail_ratio": failed / attempted,
              "failed_checks": sorted({name for r in checked
                                       for name, ok in r.checks if not ok}),
              "bytes_identical": workloads.bytes_identical(results[0], reference),
              "reference": reference is not None}
    if args.trace:
        m = layers.metrics(tracer.log, traced_wall, statistics.median(walls),
                           workloads.bytes_identical(traced, reference))
        units = layers.METRICS
        report["hook_errors"] = tracer.hook_errors
    else:
        wall = yardstick.at_reference_speed(statistics.median(walls), yards)
        m = {"wall_s": wall, "cell_ops_per_s": wl.cell_ops / wall,
             # set-up is process start and imports, which do not follow the
             # yardstick; it stays in host time
             "setup_s": statistics.median(setup),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        report["host_wall_s"] = statistics.median(walls)
        report["setup_s_samples"] = setup
    report["result"] = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m[k], "unit": units[k]} for k in units}}
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fefetsim" / "__init__.py").is_file():
        print("error: fefetsim sources not found in src/ next to the benchmark",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)

    report = run(args)
    result = report.pop("result")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reference {'yes' if report['reference'] else 'none for this seed'}")
    for key, value in report.items():
        if key != "reference":
            print(f"  {key}: {value}")
    for name, mv in result["metrics"].items():
        print(f"  {name:44s} {mv['value']:.6g} {mv['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
