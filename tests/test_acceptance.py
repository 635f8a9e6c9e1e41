"""Acceptance suite: one test per acceptance criterion.

Each test runs the corresponding seeded verification suite at its stated
tolerances, prints a single PASS/FAIL line, and enforces the runtime
budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete.
"""

import json
import time

from moikit.cli import main
from moikit.verify import (
    verify_derivatives,
    verify_divided_differences,
    verify_norm_bound,
    verify_perturbation,
    verify_quadrature,
    verify_remainders,
    verify_schatten,
    verify_truncation,
)

SEED = 42


def _finish(number, label, report, elapsed, budget):
    status = "PASS" if report.passed else "FAIL"
    print(f"criterion {number} [{status}] {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert report.passed, report.summary()
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"


def test_criterion_1_divided_differences():
    t0 = time.perf_counter()
    report = verify_divided_differences(SEED)
    _finish(1, "divided-difference suite (500 cases)", report,
            time.perf_counter() - t0, 5.0)


def test_criterion_2_quadrature_consistency():
    t0 = time.perf_counter()
    report = verify_quadrature(SEED)
    _finish(2, "simplex quadrature consistency", report,
            time.perf_counter() - t0, 5.0)


def test_criterion_3_perturbation_formula():
    t0 = time.perf_counter()
    report = verify_perturbation(SEED)
    _finish(3, "perturbation formula (100 pairs)", report,
            time.perf_counter() - t0, 10.0)


def test_criterion_4_derivative_formula():
    t0 = time.perf_counter()
    report = verify_derivatives(SEED)
    _finish(4, "derivative formula vs oracles", report,
            time.perf_counter() - t0, 60.0)


def test_criterion_5_remainder_identities():
    t0 = time.perf_counter()
    report = verify_remainders(SEED)
    _finish(5, "Taylor remainder identities", report,
            time.perf_counter() - t0, 30.0)


def test_criterion_6_schatten_bounds():
    t0 = time.perf_counter()
    report = verify_schatten(SEED)
    _finish(6, "Schatten bounds (200 cases)", report,
            time.perf_counter() - t0, 20.0)


def test_criterion_7_norm_bound():
    t0 = time.perf_counter()
    report = verify_norm_bound(SEED)
    _finish(7, "operator-norm bound (100 cases)", report,
            time.perf_counter() - t0, 20.0)


def test_criterion_8_taylor_truncation():
    t0 = time.perf_counter()
    report = verify_truncation(SEED)
    _finish(8, "certified Taylor truncation tails", report,
            time.perf_counter() - t0, 2.0)


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "report.json"
    bodies = []
    for _ in range(2):
        code = main(["verify", "--seed", str(SEED), "--out", str(out)])
        assert code == 0
        bodies.append((tmp_path / "report.json.body").read_bytes())
    assert bodies[0] == bodies[1], "report bodies differ between identical runs"

    # exit-code contract
    bad = tmp_path / "corrupt.json"
    code = main(["verify", "--seed", str(SEED), "--filter", "quadrature",
                 "--tolerance", "quadrature_agreement=1e-30",
                 "--out", str(bad)])
    assert code == 1
    assert json.loads(bad.read_text())["overall_pass"] is False

    elapsed = time.perf_counter() - t0

    class _Report:
        passed = True

        @staticmethod
        def summary():
            return ""

    _finish(9, "CLI determinism and exit codes", _Report, elapsed, 120.0)
