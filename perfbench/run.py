"""Layered benchmark for moikit: one seeded workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload derivative --seed 1 --seconds 50 --trace 0

Each workload is a single-process closed loop: one caller sends the next
request after the previous one returns, through moikit's public API.  A run
sets up the workload (import, input generation, references) five times,
then repeats the workload's fixed request set until ``--seconds`` would be
exceeded by another pass.  ``--trace 1`` instead alternates two untraced
and two traced passes and reports the per-layer metrics of ``spans.py``
from the last traced pass.

Output: a metric table, then the full record (machine, every metric with its
unit and sample count) as one JSON line, then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("derivative", "spectral", "verify")
# one caller, small matrices: BLAS threads would only add scheduling noise
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# verify alternates two seeds and compares each report body with the first
# run's at the same seed, so it needs a third pass
MIN_PASSES = {"verify": 3}
TRACED_ROUNDS = 2
# request groups summed per pass, and latency percentiles, per workload
GROUPS = {"derivative": ("k1", "k2", "k3")}
PERCENTILES = {"derivative": (50,), "spectral": (50, 90)}
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import moikit; "
                "print(time.perf_counter() - t)")


def prepare() -> None:
    """Cap BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.
    """
    cap = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = cap
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def machine() -> dict:
    import mpmath
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


@dataclass
class Pass:
    wall: float
    requests: list
    latencies: list = field(default_factory=list)   # (group, seconds) per request
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def run_pass(requests, recorder=None) -> Pass:
    """Send every request in order, then check each output against its reference."""
    outputs = []
    t0 = perf_counter()
    for i, request in enumerate(requests):
        if recorder is not None:
            recorder.request = i
        start = perf_counter()
        try:
            out = request.call()
        except Exception as exc:  # a raising request counts as failed
            out = exc
        outputs.append((perf_counter() - start, out))
    result = Pass(perf_counter() - t0, requests)
    for request, (seconds, out) in zip(requests, outputs):
        result.latencies.append((request.group, seconds))
        if isinstance(out, Exception):
            attempted, failed = 1, 1
            result.errors.append(f"{request.name}: {type(out).__name__}: {out}")
        else:
            attempted, failed = request.check(out)
        result.attempted += attempted
        result.failed += failed
    return result


def import_seconds() -> float:
    """Time ``import moikit`` in a fresh interpreter (numpy and mpmath included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def rotations(requests) -> list:
    """The request set split by ``Request.rotation``; pass j runs part j mod count."""
    count = max(r.rotation for r in requests) + 1
    return [[r for r in requests if r.rotation == i] for i in range(count)]


def percentile(samples, q):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(math.ceil(q / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Set up and measure one workload; return the full record."""
    import workloads

    setup = workloads.WORKLOADS[name]
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        requests = setup(seed, toy)
        builds.append(perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    parts = rotations(requests)
    passes = []
    layers = {}
    if trace:
        import spans

        # untraced and traced passes alternate, twice, so that the overhead
        # is a difference of medians rather than of two single passes
        for i in range(TRACED_ROUNDS):
            part = parts[i % len(parts)]
            passes.append(run_pass(part))
            recorder = spans.SpanRecorder()
            with spans.traced(recorder):
                passes.append(run_pass(part, recorder))
        workloads.OUT_DIR.mkdir(exist_ok=True)
        recorder.write(workloads.OUT_DIR / f"spans-{name}.jsonl")
        from moikit.verify import SUITES

        for key, (value, unit) in spans.layer_metrics(recorder.spans, SUITES).items():
            layers[key] = {"value": value, "unit": unit}
        overhead = (statistics.median(p.wall for p in passes[1::2])
                    - statistics.median(p.wall for p in passes[0::2]))
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        deadline = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            passes.append(run_pass(parts[len(passes) % len(parts)]))
            took = perf_counter() - t0
            if len(passes) >= MIN_PASSES.get(name, 1) and perf_counter() + took > deadline:
                break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timed = passes[0::2] if trace else passes
    samples = {}
    for p in timed:
        for request, (_, seconds) in zip(p.requests, p.latencies):
            samples.setdefault(request.name, []).append(seconds)
    # each request's median over the passes that ran it; each part of a
    # rotation is one draw of the inputs, so wall_s is the mean over parts
    typical = {key: statistics.median(v) for key, v in samples.items()}
    drawn = len({id(p.requests) for p in timed})
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS},
        "wall_s": {"value": sum(typical.values()) / drawn, "unit": "s", "samples": len(timed)},
        "failed_ratio": {"value": failed / attempted, "unit": "ratio",
                         "samples": attempted},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB", "samples": 1},
    }
    for group in GROUPS.get(name, ()):
        e2e[f"{group}_s"] = {"value": sum(typical[r.name] for r in requests if r.group == group)
                             / drawn, "unit": "s", "samples": len(timed)}
    latencies = [s for p in timed for _, s in p.latencies]
    for q in PERCENTILES.get(name, ()):
        value, beyond = percentile(latencies, q)
        if beyond >= 10:
            e2e[f"p{q}_ms"] = {"value": value * 1e3, "unit": "ms",
                               "samples": len(latencies)}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "toy": toy, "passes": len(passes), "pass_s": [p.wall for p in passes],
        "request_s": samples,
        "machine": machine(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "errors": [e for p in passes for e in p.errors][:20],
        "metrics": e2e,
        "per_layer": layers,
    }


def result_line(record: dict) -> dict:
    """The contract line: end-to-end metrics untraced, per-layer metrics traced."""
    if record["trace"]:
        metrics = record["per_layer"]
    else:
        metrics = {k: record["metrics"][k] for k in END_TO_END}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "moikit" / "__init__.py").is_file():
        print(f"error: no moikit sources under {SRC}", file=sys.stderr)
        return 2
    prepare()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in {**record["metrics"], **record["per_layer"]}.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{record['workload']:>10}  {key:<40} {m['value']:>14.6g} {m['unit']}{samples}")
    for error in record["errors"]:
        print(f"failed request: {error}")
    print(json.dumps(record))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
