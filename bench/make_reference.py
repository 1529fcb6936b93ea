"""Record the reference outputs that later runs are compared against.

    python3 bench/make_reference.py

Runs one untraced pass of every workload on the default and the held-out
seed and writes their artifact SHA-256s (and, for read_scaling, the sensed
currents) to bench/reference.json.  Run it only at a commit whose outputs
are known good: a pass that fails its own checks is not recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run_bench


def main() -> int:
    os.environ.update(run_bench.BLAS_PIN)
    sys.path.insert(0, str(run_bench.SRC))
    import workloads

    reference: dict = {}
    run_bench.OUT.mkdir(exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        for seed in (run_bench.DEFAULT_SEED, run_bench.HELD_OUT_SEED):
            inputs = wl.make_inputs(seed)
            out = Path(tempfile.mkdtemp(prefix="reference-", dir=run_bench.OUT))
            try:
                raw = wl.run(inputs, out)
                res = wl.collect(raw, out, inputs, None)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if res.failed:
                bad = [c for c, ok in res.checks if not ok]
                print(f"{name} seed {seed}: checks failed: {bad}", file=sys.stderr)
                return 1
            entry = {"hashes": res.hashes}
            if isinstance(raw, workloads.ReadOutput):
                entry["currents"] = raw.currents
            reference.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
