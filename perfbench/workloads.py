"""Seeded request sets for the three workloads, with references and checks.

Each workload's request builder draws its inputs from the seed, computes
an independent reference for every request, and returns the requests.  A
request calls moikit's public API through module attributes resolved at
call time, so the traced run sees the same calls.  Its ``check`` returns
``(attempted, failed)`` for the output.  Every tolerance comes from
``moikit.verify.DEFAULT_TOLERANCES``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import moikit
from moikit import cli
from moikit.verify import DEFAULT_TOLERANCES


@dataclass
class Request:
    name: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], tuple[int, int]]
    # passes rotate over the request set: pass j runs the requests whose
    # rotation is j modulo the number of rotations
    rotation: int = 0


# derivative order k -> sizes n; the ladder stops below n = 64 for k >= 2
# (see README: single requests there are estimated at 8-30 s)
DERIVATIVE_LADDER = {1: (8, 16, 32, 64), 2: (8, 16, 32), 3: (4, 8)}
TOY_DERIVATIVE_LADDER = {1: (3,), 2: (3,), 3: (2,)}
# spectral: size n -> number of matrices, each evaluated and Schatten-normed
SPECTRAL_SIZES = {16: 4, 32: 2, 64: 1}
TOY_SPECTRAL_SIZES = {4: 2}
SPECTRAL_FD = ((1, 8), (1, 16), (2, 8), (2, 16))   # (order k, size n)
TOY_SPECTRAL_FD = ((1, 3), (2, 3))
SCHATTEN_P = (1.0, 2.0, np.inf)
POLY_DEGREE = 6
# verify runs the suites at this many seeds drawn from the benchmark seed,
# one per pass in rotation: the suites draw their matrix sizes from the seed,
# so one seed's cost is far from the mean cost
VERIFY_SEEDS = 2
# reports and span files; inside the benchmark's own directory, ignored by git
OUT_DIR = Path(__file__).resolve().parent / "out"


def random_hermitian(rng, n, norm):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    h = 0.5 * (g + g.conj().T)
    return h * (norm / np.linalg.norm(h, 2))


def block_reference(fm, a, directions):
    """``D^k f(a)[b_1..b_k]`` from the block upper-triangular identity.

    ``f`` of the block bidiagonal matrix with ``a`` on the diagonal and
    ``b_s(1)..b_s(k)`` above it holds the ordered operator integral of
    ``f^[k]`` in its top-right block; summing over permutations ``s``
    symmetrizes it (Mathias 1996; Higham and Relton 2014).  ``fm`` is a
    matrix function from scipy, which shares no code with moikit.
    """
    k, n = len(directions), a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for perm in itertools.permutations(range(k)):
        x = np.kron(np.eye(k + 1), a).astype(complex)
        for j, i in enumerate(perm):
            x[j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = directions[i]
        out += fm(x)[:n, k * n:]
    return out


def scaled_error(value, reference):
    """Residual relative to ``1 + ||reference||``, as the verify suites scale it."""
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.linalg.norm(value - reference) / (1.0 + np.linalg.norm(reference)))


def reference_check(reference, tolerance):
    def check(value):
        return 1, int(not scaled_error(value, reference) <= tolerance)
    return check


def derivative_requests(seed: int, toy: bool = False) -> list[Request]:
    """``matrix_function_derivative(..., "moi")`` over the size ladder.

    Each cell runs cos as an atomic sum (recursion or Wiener quadrature),
    builtin exp (simplex quadrature) and a degree-6 polynomial (closed form).
    """
    rng = np.random.default_rng(seed)
    tol = DEFAULT_TOLERANCES["derivative_power"]
    requests = []
    for k, sizes in (TOY_DERIVATIVE_LADDER if toy else DERIVATIVE_LADDER).items():
        for n in sizes:
            a = random_hermitian(rng, n, rng.uniform(0.5, 1.5))
            dirs = tuple(random_hermitian(rng, n, 1.0) for _ in range(k))
            omega = rng.uniform(0.5, 2.0)
            coeffs = rng.uniform(-1, 1, POLY_DEGREE + 1)
            cases = (
                ("cos", moikit.WienerAtomic([(omega, 0.5), (-omega, 0.5)]),
                 block_reference(lambda x, w=omega: scipy.linalg.cosm(w * x), a, dirs)),
                ("exp", moikit.builtin_function("exp"),
                 block_reference(scipy.linalg.expm, a, dirs)),
                ("poly", moikit.Polynomial(coeffs),
                 sum(c * moikit.power_map_derivative(m, a, dirs)
                     for m, c in enumerate(coeffs) if m >= k)),
            )
            for label, f, reference in cases:
                requests.append(Request(
                    f"k{k}-n{n}-{label}", f"k{k}",
                    lambda f=f, a=a, dirs=dirs, k=k: moikit.matrix_function_derivative(
                        moikit.DerivativeRequest(f, a, dirs, k, "moi")),
                    reference_check(reference, tol)))
    return requests


def _eigh_function(fn, a):
    lam, v = np.linalg.eigh(a)
    return (v * fn(lam)) @ v.conj().T


def _svd_schatten(m, p):
    sigma = np.linalg.svd(m, compute_uv=False)
    return float(sigma.max() if np.isinf(p) else np.sum(sigma ** p) ** (1.0 / p))


def spectral_requests(seed: int, toy: bool = False) -> list[Request]:
    """Eigendecomposition plus functional calculus, Schatten norms, and the
    double-precision finite-difference oracle; no operator integral runs."""
    rng = np.random.default_rng(seed)
    tol = DEFAULT_TOLERANCES["reconstruction"]
    f = moikit.builtin_function("exp")
    requests = []
    for n, count in (TOY_SPECTRAL_SIZES if toy else SPECTRAL_SIZES).items():
        for i in range(count):
            a = random_hermitian(rng, n, rng.uniform(0.5, 1.5))
            requests.append(Request(
                f"eval-n{n}-{i}", "eval",
                lambda a=a: moikit.functional_calculus(f, moikit.hermitian_eigendecompose(a)),
                reference_check(_eigh_function(np.exp, a), tol)))
            m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
            for p in SCHATTEN_P:
                requests.append(Request(
                    f"schatten-n{n}-{i}-p{p:g}", "schatten",
                    lambda m=m, p=p: moikit.schatten_norm(m, p),
                    reference_check(_svd_schatten(m, p), tol)))
    for k, n in (TOY_SPECTRAL_FD if toy else SPECTRAL_FD):
        a = random_hermitian(rng, n, rng.uniform(0.5, 1.5))
        dirs = [random_hermitian(rng, n, 1.0) for _ in range(k)]
        requests.append(Request(
            f"fd-k{k}-n{n}", "fd",
            lambda a=a, dirs=dirs: moikit.finite_difference_derivative(f, a, dirs),
            reference_check(block_reference(scipy.linalg.expm, a, dirs),
                         DEFAULT_TOLERANCES["derivative_fd"])))
    return requests


def verify_requests(seed: int, toy: bool = False) -> list[Request]:
    """The full seeded suites through ``moikit verify``, one suite per request.

    Each request is an in-process ``cli.main(["verify", "--seed", s,
    "--filter", suite, "--out", file])``, so a pass runs every suite once
    and per-suite latencies can be taken over passes.  Passes alternate
    between the ``VERIFY_SEEDS`` seeds ``s`` drawn from ``seed``.  The check
    counts failed checks in the written report, a non-zero exit code that
    no failed check explains, and a report body that differs from the
    first pass's for that suite and seed.
    """
    from moikit.verify import SUITES

    OUT_DIR.mkdir(exist_ok=True)
    names = [name for name in SUITES if not toy or name == "truncation"]
    # --filter matches by substring, so each name must pick out one suite
    assert all(sum(name in other for other in SUITES) == 1 for name in names)
    seeds = [seed * VERIFY_SEEDS + i for i in range(VERIFY_SEEDS)]
    return [_verify_request(s, name, i) for i, s in enumerate(seeds) for name in names]


def _verify_request(seed: int, suite: str, rotation: int) -> Request:
    out = OUT_DIR / f"verify-seed{seed}-{suite}.json"
    argv = ["verify", "--seed", str(seed), "--filter", suite, "--out", str(out)]
    first_body = []

    def check(code):
        body = Path(f"{out}.body").read_bytes()
        checks = json.loads(out.read_text())["checks"]
        failed = sum(not c["passed"] for c in checks)
        if code != 0 and failed == 0:
            failed = 1
        attempted = len(checks)
        if first_body:
            attempted += 1
            failed += body != first_body[0]
        else:
            first_body.append(body)
        return attempted, failed

    return Request(f"verify-{suite}-seed{seed}", "verify", lambda: cli.main(argv), check,
                   rotation)


WORKLOADS = {
    "derivative": derivative_requests,
    "spectral": spectral_requests,
    "verify": verify_requests,
}
# why each workload was chosen; BENCHMARK.json repeats these for the gated ones
WHY = {
    "derivative": "matrix_function_derivative over n<=64, k<=3 with cos, exp and a polynomial: "
                  "MOI, divided differences and symmetrization do the work; the eigensolve "
                  "matters only at n=64",
    "spectral": "eigendecomposition, functional calculus, Schatten norms and the double-precision "
                "FD oracle: Jacobi does the work and MOI/DD none, so MOI or DD changes should "
                "not move it",
    "verify": "the full seeded identity suites through cli.main, one suite per request, at two "
              "seeds in alternate passes: thousands of tiny calls touch every layer, so per-call "
              "overhead dominates",
}
