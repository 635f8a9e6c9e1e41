"""Seeded property suites exercising every identity the package computes.

Each suite draws reproducible random inputs from a counter-based generator
(Philox, keyed by the seed and jumped per suite), evaluates an identity or
bound by two independent routes, and aggregates the worst residual into a
single check row.
"""

from __future__ import annotations

import math

import numpy as np

from .frechet import (
    DerivativeRequest,
    block_triangular_derivative,
    finite_difference_derivative,
    matrix_function_derivative,
    moi_schatten_check,
    power_map_derivative,
    remainder_schatten_check,
    schatten_norm,
    taylor_remainder_direct,
    taylor_remainder_integral,
    taylor_remainder_moi,
)
from .moi import MoiOperands, MoiSymbol, moi_opnorm_bound_check, moi_perturbation
from .report import VerificationReport, equality_check, inequality_check
from .scalar_functions import (
    Polynomial,
    WienerAtomic,
    builtin_function,
    confluent_span,
    divided_difference_batch,
    divided_difference_mp,
    divided_difference_quadrature,
    divided_difference_recursive,
    divided_difference_sup_bound,
    poly_divided_difference,
    simplex_rule,
    wiener_taylor_truncate,
)
from .spectral import hermitian_eigendecompose, jacobi_eigh, validate_decomposition

__all__ = ["DEFAULT_TOLERANCES", "SUITES", "suite_rng",
           "random_hermitian", "random_hermitian_pair"]

DEFAULT_TOLERANCES = {
    "dd_agreement": 1e-9,
    "dd_symmetry": 1e-9,
    "dd_diagonal": 1e-9,
    "dd_bound_slack": 1e-9,
    "rule_mass": 1e-12,
    "quadrature_agreement": 1e-7,
    "reconstruction": 1e-10,
    "perturbation": 1e-8,
    "derivative_fd": 1e-4,
    "derivative_block": 1e-11,
    "derivative_power": 1e-10,
    "direction_symmetry": 1e-12,
    "direction_linearity": 1e-10,
    "remainder_moi": 1e-8,
    "remainder_integral": 1e-6,
    "schatten_identity": 1e-12,
    "bound_slack": 1e-9,
    "truncation_grid": 3e-8,
}

# the number of random inputs each suite draws; a check row names its count
DD_CASES = 500
QUADRATURE_CASES_PER_FUNCTION = 20
SPECTRAL_CASES = 200
PERTURBATION_PAIRS = 100
DERIVATIVE_CASES_PER_ORDER = 2
REMAINDER_CASES_PER_ORDER = 1
SCHATTEN_CASES = 200
NORM_BOUND_CASES = 100
NORM_BOUND_PROBES = 8


def _tols(overrides):
    tols = dict(DEFAULT_TOLERANCES)
    if overrides:
        tols.update(overrides)
    return tols


def suite_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent Philox stream for one suite of a seeded run."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


def random_hermitian(rng, n: int, norm: float | None = None) -> np.ndarray:
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    H = 0.5 * (G + G.conj().T)
    if norm is not None:
        current = np.linalg.norm(H, 2)
        if current > 0:
            H *= norm / current
    return H


def random_hermitian_pair(rng, n: int, norm: float | None = None):
    return random_hermitian(rng, n, norm), random_hermitian(rng, n, norm)


def _random_polynomial(rng, max_degree: int) -> Polynomial:
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    # push the leading coefficient away from zero to keep the degree honest
    coeffs[-1] += 0.1 if coeffs[-1].real >= 0 else -0.1
    return Polynomial(coeffs)


def _random_nodes(rng, count: int, low=-2.0, high=2.0, min_gap=0.1):
    while True:
        nodes = np.sort(rng.uniform(low, high, count))
        if count == 1 or np.min(np.diff(nodes)) >= min_gap:
            return rng.permutation(nodes)


def _confluent_rows(rng, k: int):
    """Rows straddling 0 at 1/2, 1 and 2 confluent spans of order k: spread
    evenly over the span, or a pair that far apart among nodes in [-1, 1];
    then a row with an exact repeat."""
    rows = []
    for width in np.array([0.5, 1.0, 2.0]) * confluent_span(k):
        rows.append(width * (np.linspace(0.0, 1.0, k + 1) - rng.uniform()))
        others = rng.uniform(-1.0, 1.0, k)
        rows.append(np.append(others, others[0] + width * (1.0 + np.abs(others).max())))
    repeat = rng.uniform(-1.0, 1.0, k + 1)
    repeat[:int(rng.integers(2, k + 2))] = repeat[0]
    return np.array(rows + [repeat])


def _cos_atoms() -> WienerAtomic:
    return WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])


def _sin_atoms() -> WienerAtomic:
    return WienerAtomic([(1.0, -0.5j), (-1.0, 0.5j)])


def _two_atoms(rng) -> WienerAtomic:
    xi = rng.uniform(0.3, 2.0, 2) * np.array([1.0, -1.0])
    w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    return WienerAtomic(zip(xi, w))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def verify_divided_differences(seed: int, tolerances=None):
    """Recursion vs closed form, symmetry, diagonal identity, derivative bound,
    and the batched table against the extended-precision recursion."""
    tols = _tols(tolerances)
    rng = suite_rng(seed, 1)
    report = VerificationReport("divided-differences")

    worst_agree = worst_symm = worst_diag = worst_bound = 0.0
    for _ in range(DD_CASES):
        p = _random_polynomial(rng, 8)
        k = int(rng.integers(1, 5))
        nodes = _random_nodes(rng, k + 1)

        closed = poly_divided_difference(p, nodes)
        rec = divided_difference_recursive(p, nodes)
        worst_agree = max(worst_agree, abs(rec - closed) / (1.0 + abs(closed)))

        perm = rng.permutation(nodes)
        rec_perm = divided_difference_recursive(p, perm)
        worst_symm = max(worst_symm, abs(rec - rec_perm) / (1.0 + abs(rec)))
        closed_perm = poly_divided_difference(p, perm)
        worst_symm = max(worst_symm, abs(closed - closed_perm) / (1.0 + abs(closed)))
        quad = divided_difference_quadrature(p, nodes)
        quad_perm = divided_difference_quadrature(p, perm)
        worst_symm = max(worst_symm, abs(quad - quad_perm) / (1.0 + abs(quad)))

        x0 = float(rng.uniform(-2, 2))
        diag = poly_divided_difference(p, [x0] * (k + 1))
        target = complex(p.derivative(k)(x0)) / math.factorial(k)
        worst_diag = max(worst_diag, abs(diag - target) / (1.0 + abs(target)))

        radius = max(abs(x) for x in nodes)
        bound = divided_difference_sup_bound(p, k, radius)
        worst_bound = max(worst_bound, abs(closed) - bound)

    # diagonal identity for atomic Fourier sums, through the confluent recursion
    for f in (_cos_atoms(), _sin_atoms(), _two_atoms(rng)):
        for k in (1, 2, 3):
            x0 = float(rng.uniform(-2, 2))
            diag = divided_difference_recursive(f, [x0] * (k + 1))
            target = complex(f.derivative(k)(x0)) / math.factorial(k)
            worst_diag = max(worst_diag, abs(diag - target) / (1.0 + abs(target)))

    # the batched table against the 50-digit recursion, drawn after the
    # cases above so that they keep their inputs
    worst_mp, mp_cases = 0.0, 0
    functions = [_random_polynomial(rng, 8), _two_atoms(rng)]
    functions += [builtin_function(name) for name in ("exp", "sin", "cos")]
    table_cases = [(f, k) for f in functions for k in (1, 2, 3, 4)]
    table_cases += [(builtin_function("abs_pow", {"exponent": s}), k)
                    for s in (1.5, 2.5, 3.5) for k in range(1, int(s) + 1)]
    for f, k in table_cases:
        rows = _confluent_rows(rng, k)
        for row, value in zip(rows, divided_difference_batch(f, rows)):
            reference = divided_difference_mp(f, row)
            worst_mp = max(worst_mp, abs(value - reference) / (1.0 + abs(reference)))
        mp_cases += len(rows)

    report.add(equality_check(
        f"recursion vs closed form ({DD_CASES} cases)",
        "difference-quotient recursion equals the homogeneous-sum closed form",
        residual=worst_agree, tolerance=tols["dd_agreement"]))
    report.add(equality_check(
        f"symmetry under node permutations ({DD_CASES} cases)",
        "divided differences are symmetric in the nodes",
        residual=worst_symm, tolerance=tols["dd_symmetry"]))
    report.add(equality_check(
        "diagonal identity",
        "divided difference at equal nodes equals f^(k)(x)/k!",
        residual=worst_diag, tolerance=tols["dd_diagonal"]))
    report.add(inequality_check(
        f"sup-derivative bound ({DD_CASES} cases)",
        "|f^[k]| <= sup |f^(k)| / k! on the node range",
        lhs=worst_bound, rhs=0.0, slack=tols["dd_bound_slack"]))
    report.add(equality_check(
        f"batched table vs 50-digit mpmath ({mp_cases} cases)",
        "the difference-quotient table with its series patch matches the "
        "extended-precision recursion, around the confluent span and at repeats",
        residual=worst_mp, tolerance=tols["dd_agreement"]))
    return report


def verify_quadrature(seed: int, tolerances=None):
    """Simplex rule mass and quadrature-vs-recursion agreement."""
    tols = _tols(tolerances)
    rng = suite_rng(seed, 2)
    report = VerificationReport("simplex-quadrature")

    masses = [(simplex_rule(k)[1].sum(), 1.0 / math.factorial(k)) for k in range(5)]
    worst_mass = max(abs(total - expected) / expected for total, expected in masses)
    report.add(equality_check(
        "total weight (orders 0..4)",
        "simplex rule mass equals 1/k!",
        residual=worst_mass, tolerance=tols["rule_mass"]))

    worst = 0.0
    for name in ("exp", "sin", "cos"):
        f = builtin_function(name)
        for _ in range(QUADRATURE_CASES_PER_FUNCTION):
            k = int(rng.integers(1, 4))
            nodes = _random_nodes(rng, k + 1, low=-1.0, high=1.0, min_gap=0.05)
            quad = divided_difference_quadrature(f, nodes)
            rec = divided_difference_recursive(f, nodes)
            worst = max(worst, abs(quad - rec))
    report.add(equality_check(
        "quadrature vs recursion (exp/sin/cos)",
        "simplex quadrature of f^(k) equals the difference-quotient recursion",
        residual=worst, tolerance=tols["quadrature_agreement"]))

    worst_poly = 0.0
    for _ in range(QUADRATURE_CASES_PER_FUNCTION):
        p = _random_polynomial(rng, 8)
        k = int(rng.integers(1, 5))
        nodes = _random_nodes(rng, k + 1)
        quad = divided_difference_quadrature(p, nodes)
        closed = poly_divided_difference(p, nodes)
        worst_poly = max(worst_poly, abs(quad - closed) / (1.0 + abs(closed)))
    report.add(equality_check(
        "quadrature vs closed form (polynomials, degree <= 8)",
        "simplex quadrature is exact on polynomial integrands of moderate degree",
        residual=worst_poly, tolerance=tols["dd_agreement"]))
    return report


def verify_spectral(seed: int, tolerances=None):
    """Eigendecomposition invariants on random Hermitian matrices, and the
    LAPACK eigenvalues against the Jacobi oracle."""
    tols = _tols(tolerances)
    rng = suite_rng(seed, 3)
    report = VerificationReport("spectral-decomposition")
    worst_recon = 0.0
    all_valid = True
    # each case's matrix, LAPACK eigenvalues and scale, by size: Jacobi takes
    # one stack per size
    by_size = {}
    for _ in range(SPECTRAL_CASES):
        n = int(rng.integers(1, 13))
        A = random_hermitian(rng, n)
        decomp = hermitian_eigendecompose(A)
        recon = (decomp.vectors * decomp.eigenvalues) @ decomp.vectors.conj().T
        denom = np.linalg.norm(A)
        if denom > 0:
            worst_recon = max(worst_recon, float(np.linalg.norm(A - recon)) / denom)
        by_size.setdefault(n, []).append(
            (decomp.source, decomp.eigenvalues, 1.0 + denom))
        all_valid = all_valid and validate_decomposition(decomp).passed
    worst_jacobi = 0.0
    for cases in by_size.values():
        sources, lapack, scales = map(np.array, zip(*cases))
        jacobi = jacobi_eigh(sources, vectors=False)[0]
        gaps = np.max(np.abs(lapack - jacobi), axis=1) / scales
        worst_jacobi = max(worst_jacobi, float(gaps.max()))
    report.add(equality_check(
        f"reconstruction ({SPECTRAL_CASES} cases, n <= 12)",
        "eigenvalue-weighted projections reconstruct the matrix",
        residual=worst_recon, tolerance=tols["reconstruction"]))
    report.add(equality_check(
        f"eigenvalues vs Jacobi ({SPECTRAL_CASES} cases, n <= 12)",
        "LAPACK eigenvalues agree with the cyclic Jacobi oracle, relative to 1 + ||A||_F",
        residual=worst_jacobi, tolerance=tols["reconstruction"]))
    report.add(equality_check(
        "structural invariants",
        "projections resolve the identity and are orthogonal idempotents",
        residual=0.0 if all_valid else 1.0, tolerance=0.5))
    return report


def verify_perturbation(seed: int, tolerances=None):
    """First-order perturbation identity across function classes."""
    tols = _tols(tolerances)
    rng = suite_rng(seed, 4)
    report = VerificationReport("perturbation-formula")
    worst = 0.0
    for _ in range(PERTURBATION_PAIRS):
        n = int(rng.integers(2, 7))
        A, B = random_hermitian_pair(rng, n)
        functions = [_random_polynomial(rng, 6), _cos_atoms(), _sin_atoms(),
                     _two_atoms(rng)]
        for f in functions:
            check = moi_perturbation(f, A, B, tolerance_factor=tols["perturbation"]).checks[0]
            worst = max(worst, check.residual / check.tolerance)
    report.add(equality_check(
        f"f(A) - f(B) vs first-order integral ({PERTURBATION_PAIRS} pairs x 4 functions)",
        "difference of matrix functions equals the integral of f^[1] against A - B",
        residual=worst, tolerance=1.0))
    return report


def _fd_reference_cases(rng):
    cases = [
        _random_polynomial(rng, 6),
        builtin_function("cos"),
        builtin_function("sin"),
        WienerAtomic([(float(rng.uniform(0.4, 1.6)), 1.0)]),
    ]
    return cases


def _scaled_gap(value, reference) -> float:
    # relative for O(1) derivatives, absolute when the exact derivative
    # vanishes (k above the degree)
    return float(np.linalg.norm(value - reference) / (1.0 + np.linalg.norm(value)))


def verify_derivatives(seed: int, tolerances=None):
    """Spectral-sum derivative vs the block-triangular and stencil oracles and
    the power-map closed form."""
    tols = _tols(tolerances)
    rng = suite_rng(seed, 5)
    report = VerificationReport("derivative-formula")

    worst_fd = worst_block = 0.0
    for k in (1, 2, 3):
        for f in _fd_reference_cases(rng):
            for _ in range(DERIVATIVE_CASES_PER_ORDER):
                n = int(rng.integers(3, 7))
                A = random_hermitian(rng, n, norm=rng.uniform(0.3, 1.0))
                dirs = tuple(random_hermitian(rng, n, norm=1.0) for _ in range(k))
                via_moi = matrix_function_derivative(
                    DerivativeRequest(f, A, dirs, k, "moi"))
                worst_block = max(worst_block, _scaled_gap(
                    via_moi, block_triangular_derivative(f, A, dirs)))
                # at k = 3 the stencil needs its 30-digit path; the block
                # row covers those cases
                if k <= 2:
                    worst_fd = max(worst_fd, _scaled_gap(
                        via_moi, finite_difference_derivative(f, A, dirs)))
    report.add(equality_check(
        "spectral sum vs stencil oracle (k <= 2)",
        "symmetrized integral of f^[k] matches tensor central differences",
        residual=worst_fd, tolerance=tols["derivative_fd"]))
    report.add(equality_check(
        "spectral sum vs block-triangular oracle (k <= 3)",
        "symmetrized integral of f^[k] matches the top-right blocks of f on "
        "block-bidiagonal matrices",
        residual=worst_block, tolerance=tols["derivative_block"]))

    worst_pow = 0.0
    for m in (2, 3, 5, 8):
        for k in (1, 2, 3):
            n = int(rng.integers(2, 7))
            A = random_hermitian(rng, n)
            dirs = tuple(random_hermitian(rng, n) for _ in range(k))
            p = Polynomial([0] * m + [1])
            via_moi = matrix_function_derivative(DerivativeRequest(p, A, dirs, k, "moi"))
            via_pow = power_map_derivative(m, A, dirs)
            rel = np.linalg.norm(via_moi - via_pow) / (1.0 + np.linalg.norm(via_pow))
            worst_pow = max(worst_pow, float(rel))
    report.add(equality_check(
        "spectral sum vs power-map closed form (m <= 8, k <= 3)",
        "integral of the monomial divided difference equals the permuted power expansion",
        residual=worst_pow, tolerance=tols["derivative_power"]))

    worst_sym = 0.0
    worst_lin = 0.0
    for k in (2, 3):
        n = 4
        f = _cos_atoms()
        A = random_hermitian(rng, n, norm=0.8)
        dirs = tuple(random_hermitian(rng, n, norm=1.0) for _ in range(k))
        base_val = matrix_function_derivative(DerivativeRequest(f, A, dirs, k, "moi"))
        shuffled = tuple(dirs[i] for i in rng.permutation(k))
        perm_val = matrix_function_derivative(DerivativeRequest(f, A, shuffled, k, "moi"))
        worst_sym = max(worst_sym, float(
            np.linalg.norm(base_val - perm_val) / (1.0 + np.linalg.norm(base_val))))

        alpha = complex(rng.uniform(0.5, 2.0))
        extra = random_hermitian(rng, n, norm=1.0)
        combo = (alpha * dirs[0] + extra,) + dirs[1:]
        lhs = matrix_function_derivative(DerivativeRequest(
            f, A, tuple(combo), k, "moi"))
        rhs = alpha * base_val + matrix_function_derivative(
            DerivativeRequest(f, A, (extra,) + dirs[1:], k, "moi"))
        worst_lin = max(worst_lin, float(
            np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs))))
    report.add(equality_check(
        "direction symmetry",
        "the symmetrized derivative is invariant under permuting directions",
        residual=worst_sym, tolerance=tols["direction_symmetry"]))
    report.add(equality_check(
        "slot linearity",
        "the derivative is linear in each direction slot",
        residual=worst_lin, tolerance=tols["direction_linearity"]))
    return report


def verify_remainders(seed: int, tolerances=None):
    """Agreement of the three Taylor-remainder forms."""
    tols = _tols(tolerances)
    rng = suite_rng(seed, 6)
    report = VerificationReport("taylor-remainders")
    worst_moi = 0.0
    worst_int = 0.0
    for k in (1, 2, 3):
        functions = [_random_polynomial(rng, 6), _cos_atoms(), _two_atoms(rng)]
        for f in functions:
            for _ in range(REMAINDER_CASES_PER_ORDER):
                n = int(rng.integers(3, 5))
                a = random_hermitian(rng, n, norm=rng.uniform(0.4, 1.0))
                b = random_hermitian(rng, n, norm=rng.uniform(0.1, 0.5))
                direct = taylor_remainder_direct(f, k, a, b)
                scale = 1.0 + float(np.linalg.norm(direct))
                via_moi = taylor_remainder_moi(f, k, a, b)
                worst_moi = max(worst_moi, float(
                    np.linalg.norm(direct - via_moi)) / scale)
                via_int = taylor_remainder_integral(f, k, a, b)
                worst_int = max(worst_int, float(
                    np.linalg.norm(direct - via_int)) / scale)
    report.add(equality_check(
        "direct vs mixed-base integral",
        "the remainder equals the integral with first slot at the shifted point",
        residual=worst_moi, tolerance=tols["remainder_moi"]))
    report.add(equality_check(
        "direct vs line-integral form (32 nodes)",
        "the remainder equals k int_0^1 (1-t)^(k-1) (I[f^[k]] at a+tb)[b..b] dt",
        residual=worst_int, tolerance=tols["remainder_integral"]))
    return report


_HOLDER_COMBOS = {
    1: [(1.0,), (2.0,), (math.inf,)],
    2: [(2.0, 2.0), (1.0, math.inf), (2.0, math.inf), (math.inf, math.inf)],
    3: [(2.0, 2.0, math.inf), (1.0, math.inf, math.inf),
        (math.inf, math.inf, math.inf), (2.0, math.inf, 2.0)],
}


def verify_schatten(seed: int, tolerances=None):
    """Schatten-norm identities and the two inequality families."""
    tols = _tols(tolerances)
    rng = suite_rng(seed, 7)
    report = VerificationReport("schatten-bounds")

    worst_id = 0.0
    for n in range(1, 9):
        for p in (1.0, 2.0, 3.5, math.inf):
            value = schatten_norm(np.eye(n), p)
            expected = 1.0 if math.isinf(p) else n ** (1.0 / p)
            worst_id = max(worst_id, abs(value - expected) / expected)
    report.add(equality_check(
        "identity-matrix norms",
        "Schatten norm of the identity is n^(1/p)",
        residual=worst_id, tolerance=tols["schatten_identity"]))

    worst_mono = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norms = [schatten_norm(M, p) for p in (1.0, 2.0, 4.0, math.inf)]
        for hi, lo in zip(norms, norms[1:]):
            worst_mono = max(worst_mono, lo - hi)
    report.add(inequality_check(
        "monotonicity in p",
        "Schatten norms decrease as the exponent grows",
        lhs=worst_mono, rhs=0.0, slack=1e-12))

    n_rem = SCHATTEN_CASES // 2
    worst_rem = -math.inf
    for i in range(n_rem):
        k = 1 + i % 2
        f = (_cos_atoms(), _sin_atoms(), _two_atoms(rng))[i % 3]
        p = (1.0, 2.0)[i % 2]
        n = int(rng.integers(3, 6))
        a = random_hermitian(rng, n, norm=rng.uniform(0.4, 1.2))
        b = random_hermitian(rng, n, norm=rng.uniform(0.2, 0.8))
        check = remainder_schatten_check(f, k, a, b, p).checks[0]
        worst_rem = max(worst_rem, check.lhs - check.rhs)
    report.add(inequality_check(
        f"remainder bounds ({n_rem} cases)",
        "||R_k(b)||_p <= (moment_k/k!) ||b||_{kp}^k",
        lhs=worst_rem, rhs=0.0, slack=tols["bound_slack"]))

    n_moi = SCHATTEN_CASES - n_rem
    worst_moi = -math.inf
    for i in range(n_moi):
        k = 1 + i % 3
        n = int(rng.integers(2, 6))
        bases = [random_hermitian(rng, n) for _ in range(k + 1)]
        middles = [random_hermitian(rng, n, norm=rng.uniform(0.2, 1.5))
                   for _ in range(k)]
        operands = MoiOperands.from_matrices(bases, middles)
        if i % 2 == 0:
            f = (_cos_atoms(), _two_atoms(rng))[i % 4 // 2]
            symbol = MoiSymbol.from_function(f, k)
        else:
            radius = max(d.source_norm for d in operands.decomps) + 1e-12
            symbol = MoiSymbol.from_function(_random_polynomial(rng, 5), k,
                                             radius=radius)
        combos = _HOLDER_COMBOS[k]
        exponents = combos[i % len(combos)]
        check = moi_schatten_check(symbol, operands, exponents).checks[0]
        worst_moi = max(worst_moi, check.lhs - check.rhs)
    report.add(inequality_check(
        f"operator-integral bounds ({n_moi} cases)",
        "||integral[b]||_p <= bound(symbol) prod ||b_j||_{p_j}",
        lhs=worst_moi, rhs=0.0, slack=tols["bound_slack"]))
    return report


def verify_norm_bound(seed: int, tolerances=None):
    """Probe estimates of the integral's norm against the dimension-power bound.

    Cases whose symbol vanishes on the grid (a polynomial of degree below k)
    have bound 0; they get their own row, so the margin of the others shows.
    """
    tols = _tols(tolerances)
    rng = suite_rng(seed, 8)
    report = VerificationReport("norm-bound")
    margins, vanishing = [], []
    for i in range(NORM_BOUND_CASES):
        k = 1 + i % 3
        n = int(rng.integers(2, 7))
        bases = [random_hermitian(rng, n) for _ in range(k + 1)]
        middles = [random_hermitian(rng, n) for _ in range(k)]
        operands = MoiOperands.from_matrices(bases, middles)
        kind = i % 3
        if kind == 0:
            symbol = MoiSymbol.from_function(_random_polynomial(rng, 5), k)
        elif kind == 1:
            symbol = MoiSymbol.from_function(_two_atoms(rng), k)
        else:
            symbol = MoiSymbol.constant(complex(rng.uniform(-2, 2)), k + 1)
        check = moi_opnorm_bound_check(symbol, operands, probes=NORM_BOUND_PROBES,
                                       seed=int(rng.integers(0, 2**32))).checks[0]
        if check.rhs > 0:
            margins.append(check.lhs - check.rhs)
        else:
            vanishing.append(check.lhs)
    report.add(inequality_check(
        f"probe estimate vs n^k bound ({len(margins)} cases)",
        "probed operator norm of the integral stays below n^k max |symbol|",
        lhs=max(margins, default=-math.inf), rhs=0.0, slack=tols["bound_slack"]))
    report.add(inequality_check(
        f"vanishing symbol gives a zero integral ({len(vanishing)} cases)",
        "probed operator norm is 0 where the symbol is 0 on the grid",
        lhs=max(vanishing, default=0.0), rhs=0.0, slack=tols["bound_slack"]))
    return report


def verify_truncation(seed: int = 0, tolerances=None):
    """Certified tails of truncated Taylor approximants on a grid."""
    tols = _tols(tolerances)
    report = VerificationReport("taylor-truncation")
    f = _cos_atoms()
    grid = np.linspace(-1.0, 1.0, 1001)
    exact = np.cos(grid)
    errors = {}
    worst_tail = -math.inf
    for degree in range(2, 13):
        trunc = wiener_taylor_truncate(f, degree)
        approx = trunc.polynomial(grid)
        err = float(np.max(np.abs(exact - approx)))
        errors[degree] = err
        worst_tail = max(worst_tail, err - trunc.tail_bound(1.0))
    report.add(inequality_check(
        "grid error vs certified tail (degrees 2..12)",
        "max |f - q_n| on [-1,1] is at most mass * tail of the exponential series",
        lhs=worst_tail, rhs=0.0))
    report.add(inequality_check(
        "degree-10 grid error",
        "max |f - q_10| on [-1,1] is below the stated threshold",
        lhs=errors[10], rhs=tols["truncation_grid"]))
    worst_mono = max(errors[n + 1] - errors[n] for n in range(3, 12))
    report.add(inequality_check(
        "monotone improvement",
        "grid error is nonincreasing in the degree beyond e * r * max-frequency",
        lhs=worst_mono, rhs=0.0, slack=1e-15))
    return report


SUITES = {
    "divided_differences": verify_divided_differences,
    "quadrature": verify_quadrature,
    "spectral": verify_spectral,
    "perturbation": verify_perturbation,
    "derivative": verify_derivatives,
    "remainder": verify_remainders,
    "schatten": verify_schatten,
    "norm_bound": verify_norm_bound,
    "truncation": verify_truncation,
}
