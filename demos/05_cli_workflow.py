#!/usr/bin/env python3
"""The command-line workflow: JSON in, JSON out, deterministic reports.

Writes a function spec and matrices to a temporary directory, evaluates and
differentiates through the ``moikit`` CLI, runs a filtered slice of the
seeded verification suite twice to show the reports are byte-identical, and
shows a mistyped config key rejected with exit 3.  Every call runs with
warnings as errors, and the demo exits nonzero on an unexpected exit code.
It lists the files it wrote and removes the directory on exit.
"""

import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from moikit.spectral import matrix_to_dict


def run(*args, expect=0):
    """Run the CLI with warnings as errors; stop the demo on an unexpected exit code."""
    cmd = [sys.executable, "-W", "error", "-m", "moikit.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(f"$ moikit {' '.join(args)}  -> exit {proc.returncode}")
    if proc.returncode != expect:
        sys.exit(f"expected exit {expect}, got {proc.returncode}:\n{proc.stderr}")
    return proc


with tempfile.TemporaryDirectory(prefix="moikit-demo-") as tmp:
    work = pathlib.Path(tmp)

    # function spec: cos as a two-atom oscillatory sum
    (work / "cos.json").write_text(json.dumps(
        {"kind": "wiener", "atoms": [[1.0, 0.5, 0.0], [-1.0, 0.5, 0.0]]}))

    # matrices
    A = np.diag([0.0, np.pi / 2, np.pi])
    B = np.full((3, 3), 0.5)
    (work / "a.json").write_text(json.dumps(matrix_to_dict(A)))
    (work / "b.json").write_text(json.dumps(matrix_to_dict(B)))

    # evaluate cos(A)
    run("eval", "--function", str(work / "cos.json"), "--matrix", str(work / "a.json"),
        "--out", str(work / "cosA.json"))
    print("  cos(diag(0, pi/2, pi)) diagonal:",
          [round(row[i], 6) for i, row in enumerate(json.loads(
              (work / "cosA.json").read_text())["re"])])

    # first derivative with the built-in cross-check: cos has a matrix form, so
    # --check runs the block-triangular oracle
    run("derivative", "--function", str(work / "cos.json"),
        "--matrix", str(work / "a.json"), "--matrix", str(work / "b.json"),
        "--order", "1", "--check", "--out", str(work / "dcos.json"))
    report = json.loads((work / "dcos.json.report.json").read_text())
    print(f"  oracle residual: {report['checks'][0]['residual']:.2e}")

    # a filtered slice of the verification suite, twice, same seed
    for _ in range(2):
        run("verify", "--seed", "42", "--filter", "truncation",
            "--out", str(work / "verify.json"))
        body = (work / "verify.json.body").read_bytes()
        print(f"  report body: {len(body)} bytes, sha256 = {hashlib.sha256(body).hexdigest()[:12]}")

    # a config file is checked like the flags: a mistyped key exits 3
    (work / "typo.json").write_text(json.dumps({"sed": 42, "filter": "truncation"}))
    proc = run("verify", "--config", str(work / "typo.json"), expect=3)
    print(f"  {proc.stderr.strip()}")

    # the directory and everything in it go when the block ends
    print("\nartifacts, removed on exit:")
    for path in sorted(work.iterdir()):
        print(f"  {path.name}  ({path.stat().st_size} bytes)")
