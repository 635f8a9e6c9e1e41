"""Run every workload untraced and traced at one seed and record the baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seed 1 --seconds 50

Each run is a separate ``run.py`` process, so peak memory is per workload.
Prints every metric with its unit and sample count, and writes the records
to ``perfbench/BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = parser.parse_args(argv)
    run.prepare()
    import spans
    import workloads

    records = []
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
            sys.stdout.write(proc.stdout.rsplit("\n", 3)[0] + "\n")
            records.append(json.loads(proc.stdout.splitlines()[-2]))
    baseline = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": records[0]["machine"],
        "why": workloads.WHY,
        "layer_map": spans.LAYER_MAP,
        "workloads": {
            name: {
                "end_to_end": untraced["metrics"],
                "per_layer": traced["per_layer"],
                "attempted": untraced["attempted"],
                "failed": untraced["failed"],
                "passes": untraced["passes"],
            }
            for name, untraced, traced in zip(run.WORKLOAD_NAMES, records[::2], records[1::2])
        },
    }
    args.out.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
