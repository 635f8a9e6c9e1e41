"""Higher derivatives of matrix functions, Taylor remainders, Schatten bounds.

The k-th derivative of the matrix function ``A -> f(A)`` at a Hermitian
base point is the symmetrized order-k operator integral of the k-th divided
difference.  This module evaluates that formula, the closed form for power
maps, and a tensor central-difference oracle, plus the three equivalent
Taylor-remainder forms and the Schatten-norm inequalities that control
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    HolderMismatch,
    InvalidP,
)
from .moi import MoiOperands, MoiSymbol, compositions, moi_evaluate
from .report import VerificationReport, inequality_check
from .scalar_functions import Polynomial, WienerAtomic, evaluate_safely, wiener_iptp_bound
from .spectral import (
    functional_calculus,
    hermitian_eigendecompose,
    jacobi_eigh,
    require_hermitian,
)

__all__ = [
    "DerivativeRequest",
    "SchattenSpec",
    "power_map_derivative",
    "matrix_function_derivative",
    "finite_difference_derivative",
    "taylor_remainder_direct",
    "taylor_remainder_moi",
    "taylor_remainder_integral",
    "schatten_norm",
    "remainder_schatten_check",
    "moi_schatten_check",
]

# working precision (decimal digits) for the extended finite-difference path
EXTENDED_DPS = 30

STRATEGIES = ("moi", "finite_difference", "power_closed_form")


@dataclass(frozen=True)
class DerivativeRequest:
    """Derivative order, base point, directions, and evaluation strategy."""

    f: object
    base: np.ndarray
    directions: tuple
    order: int
    strategy: str = "moi"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.order != len(self.directions) or self.order < 1:
            raise ValueError("order must equal the number of directions (>= 1)")
        base = require_hermitian(self.base)
        dirs = tuple(require_hermitian(b) for b in self.directions)
        for b in dirs:
            if b.shape != base.shape:
                raise DimensionMismatch("directions must match the base dimension")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", dirs)


def power_map_derivative(power: int, base: np.ndarray, directions) -> np.ndarray:
    """k-th derivative of ``a -> a^m``: permuted exponent-splitting products.

    Valid in any matrix algebra (no Hermiticity needed); the zero matrix
    when the order exceeds the power.
    """
    directions = [np.asarray(b, dtype=complex) for b in directions]
    k = len(directions)
    if k < 1:
        raise ValueError("at least one direction required")
    a = np.asarray(base, dtype=complex)
    n = a.shape[0]
    for b in directions:
        if b.shape != a.shape:
            raise DimensionMismatch("directions must match the base dimension")
    out = np.zeros((n, n), dtype=complex)
    if power < k:
        return out
    powers = [np.eye(n, dtype=complex)]
    for _ in range(power - k):
        powers.append(powers[-1] @ a)
    gammas = list(compositions(power - k, k + 1))
    for perm in itertools.permutations(range(k)):
        for gamma in gammas:
            term = powers[gamma[0]]
            for j in range(k):
                term = term @ directions[perm[j]]
                term = term @ powers[gamma[j + 1]]
            out += term
    return out


def matrix_function_derivative(request: DerivativeRequest) -> np.ndarray:
    """Evaluate a k-th Fréchet derivative by the requested strategy.

    ``moi`` tabulates the divided difference ``f^[k]`` once on the base
    point's eigenvalues and contracts it in the eigenbasis for every
    permutation of the directions, summing the k! results (symmetric in the
    directions by construction);
    ``power_closed_form`` expands a polynomial monomial by monomial;
    ``finite_difference`` defers to the stencil oracle.
    """
    f, k = request.f, request.order
    if request.strategy == "moi":
        decomp = hermitian_eigendecompose(request.base)
        symbol = MoiSymbol.from_function(f, k)
        decomps = (decomp,) * (k + 1)
        # every permutation shares the eigenvalue grid: tabulate f^[k] once
        tensor = symbol.tensor([decomp.eigenvalues] * (k + 1))
        out = np.zeros((decomp.dimension, decomp.dimension), dtype=complex)
        for middles in itertools.permutations(request.directions):
            out += moi_evaluate(symbol, MoiOperands(decomps, middles), tensor=tensor)
        return out
    if request.strategy == "power_closed_form":
        if not isinstance(f, Polynomial):
            raise ValueError("power_closed_form requires a polynomial")
        n = request.base.shape[0]
        out = np.zeros((n, n), dtype=complex)
        for m, c in enumerate(f.coeffs):
            if c != 0 and m >= k:
                out += c * power_map_derivative(m, request.base, request.directions)
        return out
    return finite_difference_derivative(f, request.base, request.directions)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _fd_stencil(f, base, directions, h):
    # Jacobi, not LAPACK: the oracle shares no eigensolver with the integrals
    k = len(directions)
    out = np.zeros_like(base, dtype=complex)
    for signs in itertools.product((-1.0, 1.0), repeat=k):
        X = base + h * sum(s * b for s, b in zip(signs, directions))
        lam, V = jacobi_eigh(X)
        values = np.array([evaluate_safely(f, x) for x in lam.tolist()])
        out += math.prod(signs) * ((V * values) @ V.conj().T)
    return out / (2.0 * h) ** k


def _to_mp_matrix(A):
    n = A.shape[0]
    M = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            M[i, j] = mp.mpc(A[i, j].real, A[i, j].imag)
    return M


def _from_mp_matrix(M):
    n = M.rows
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            v = M[i, j]
            out[i, j] = complex(v.real, v.imag)
    return out


def _fd_stencil_mp(f, base, directions, h):
    k = len(directions)
    n = base.shape[0]
    base_mp = _to_mp_matrix(base)
    dirs_mp = [_to_mp_matrix(b) for b in directions]
    acc = mp.matrix(n, n)
    hm = mp.mpf(h)
    for signs in itertools.product((-1, 1), repeat=k):
        X = base_mp.copy()
        for s, B in zip(signs, dirs_mp):
            X = X + (hm * s) * B
        E, Q = mp.eighe(X)
        FE = mp.matrix(n, n)
        for i in range(n):
            FE[i, i] = f._eval_mp(E[i])
        value = Q * FE * Q.transpose_conj()
        acc = acc + math.prod(signs) * value
    return _from_mp_matrix(acc / (2 * hm) ** k)


def finite_difference_derivative(f, base, directions, step: float = 1e-4,
                                 richardson: bool = True,
                                 extended: bool | None = None) -> np.ndarray:
    """Tensor central-difference approximation of a k-th derivative.

    Evaluates ``f`` by functional calculus at the 2^k stencil points
    ``base + h * sum s_i B_i`` with the step scaled by ``1 + ||base||``;
    ``richardson`` combines steps ``h`` and ``h/2`` to cancel the O(h^2)
    term.  For order >= 3 the alternating sum cancels below the double-
    precision noise floor, so the stencil arithmetic switches to extended
    precision (override with ``extended``).
    """
    base = require_hermitian(base)
    directions = [require_hermitian(b) for b in directions]
    k = len(directions)
    if k < 1:
        raise ValueError("at least one direction required")
    if extended is None:
        extended = k >= 3
    h = step * (1.0 + schatten_norm(base, math.inf))

    if extended:
        with mp.workdps(EXTENDED_DPS):
            coarse = _fd_stencil_mp(f, base, directions, h)
            if not richardson:
                return coarse
            fine = _fd_stencil_mp(f, base, directions, h / 2.0)
    else:
        coarse = _fd_stencil(f, base, directions, h)
        if not richardson:
            return coarse
        fine = _fd_stencil(f, base, directions, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# Taylor remainders
# ---------------------------------------------------------------------------

def taylor_remainder_direct(f, order: int, base, perturbation) -> np.ndarray:
    """Remainder by definition: subtract the Taylor polynomial of the map.

    ``f(a + b) - f(a) - sum_{j<order} (1/j!) D^j f(a)[b..b]``.  With all j
    directions equal to ``b``, the j! direction orders of the derivative
    coincide, so each Taylor term is the single operator integral of
    ``f^[j]`` at ``a`` with every middle equal to ``b``.
    """
    a = require_hermitian(base)
    b = require_hermitian(perturbation)
    Da = hermitian_eigendecompose(a)
    Dab = hermitian_eigendecompose(a + b)
    out = functional_calculus(f, Dab) - functional_calculus(f, Da)
    for j in range(1, order):
        out -= moi_evaluate(MoiSymbol.from_function(f, j),
                            MoiOperands((Da,) * (j + 1), (b,) * j))
    return out


def taylor_remainder_moi(f, order: int, base, perturbation) -> np.ndarray:
    """Remainder as a single mixed-base operator integral.

    The first slot is decomposed at ``base + perturbation`` and the
    remaining ``order`` slots at ``base``; all middles equal the
    perturbation.  Equals the direct form up to rounding.
    """
    a = require_hermitian(base)
    b = require_hermitian(perturbation)
    Da = hermitian_eigendecompose(a)
    Dab = hermitian_eigendecompose(a + b)
    symbol = MoiSymbol.from_function(f, order)
    operands = MoiOperands((Dab,) + (Da,) * order, (b,) * order)
    return moi_evaluate(symbol, operands)


def taylor_remainder_integral(f, order: int, base, perturbation,
                              steps: int = 32) -> np.ndarray:
    """Remainder as a weighted line integral of order-k operator integrals.

    Gauss-Legendre approximation of
    ``k * int_0^1 (1-t)^(k-1) (I[f^[k]] at a + t b)[b..b] dt``.
    """
    a = require_hermitian(base)
    b = require_hermitian(perturbation)
    k = order
    x, w = np.polynomial.legendre.leggauss(steps)
    ts = 0.5 * (x + 1.0)
    ws = 0.5 * w
    n = a.shape[0]
    symbol = MoiSymbol.from_function(f, k)
    out = np.zeros((n, n), dtype=complex)
    for t, weight in zip(ts, ws):
        decomp = hermitian_eigendecompose(a + t * b)
        operands = MoiOperands((decomp,) * (k + 1), (b,) * k)
        value = moi_evaluate(symbol, operands)
        out += weight * k * (1.0 - t) ** (k - 1) * value
    return out


# ---------------------------------------------------------------------------
# Schatten norms and bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchattenSpec:
    """Schatten exponent in [1, inf]; inf selects the operator norm."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise InvalidP(f"Schatten exponent must be in [1, inf], got {p}")
        object.__setattr__(self, "p", p)


def schatten_norm(M: np.ndarray, p) -> float:
    """l^p norm of the singular values; p = inf gives the operator norm.

    The singular values come from LAPACK's SVD of ``M`` itself, so each
    is accurate to rounding relative to the largest; going through the
    eigenvalues of ``M* M`` would square the condition number and lose the
    singular values below ``sqrt(eps)`` times the largest.
    """
    p = p.p if isinstance(p, SchattenSpec) else float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidP(f"Schatten exponent must be in [1, inf], got {p}")
    try:
        sigma = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK SVD failed: {exc}") from exc
    if math.isinf(p):
        return float(sigma.max()) if sigma.size else 0.0
    return float(np.sum(sigma ** p) ** (1.0 / p))


def _segment_radius(a: np.ndarray, b: np.ndarray, samples: int = 9) -> float:
    """max ||a + t b|| over [0, 1], sampled at endpoints and interior points."""
    ts = np.linspace(0.0, 1.0, samples)
    return max(schatten_norm(a + t * b, math.inf) for t in ts)


def remainder_schatten_check(f: WienerAtomic, order: int, base, perturbation,
                             p: float) -> VerificationReport:
    """Schatten bound on a Taylor remainder with the certified moment bound.

    Verifies ``||R_k(b)||_p <= (moment_k / k!) * ||b||_{kp}^k``; the
    moment-based factor dominates the (uncomputable) separated cost of the
    k-th divided difference, so the inequality is implied by the exact one.
    """
    p = p.p if isinstance(p, SchattenSpec) else float(p)
    if math.isnan(p) or p < 1.0 or math.isinf(p):
        raise InvalidP("remainder bound requires p in [1, inf)")
    a = require_hermitian(base)
    b = require_hermitian(perturbation)
    remainder = taylor_remainder_direct(f, order, a, b)
    lhs = schatten_norm(remainder, p)
    rhs = wiener_iptp_bound(f, order) * schatten_norm(b, order * p) ** order
    radius = _segment_radius(a, b)
    report = VerificationReport("taylor-remainder-schatten-bound")
    report.add(inequality_check(
        f"remainder bound (order {order}, p={p:g})",
        "||R_k(b)||_p <= (moment_k/k!) * ||b||_{kp}^k "
        f"(spectra within radius {radius:.3g})",
        lhs=lhs, rhs=rhs, slack=1e-9 * (1.0 + rhs)))
    return report


def moi_schatten_check(symbol: MoiSymbol, operands: MoiOperands, exponents,
                       p_total: float | None = None) -> VerificationReport:
    """Hölder-type Schatten bound for an operator integral.

    With slot exponents ``p_j`` and target ``1/p = sum 1/p_j``, verifies
    ``||integral[b]||_p <= bound(symbol) * prod ||b_j||_{p_j}`` where the
    bound is the symbol's certified separated-cost bound.  Raises
    :class:`HolderMismatch` when the exponents are inconsistent.
    """
    ps = [q.p if isinstance(q, SchattenSpec) else float(q) for q in exponents]
    if len(ps) != operands.order:
        raise HolderMismatch(f"{len(ps)} exponents for order {operands.order}")
    for q in ps:
        if math.isnan(q) or q < 1.0:
            raise HolderMismatch(f"slot exponent {q} outside [1, inf]")
    inv = sum(0.0 if math.isinf(q) else 1.0 / q for q in ps)
    if inv > 1.0 + 1e-12:
        raise HolderMismatch("slot exponents sum to a target below p = 1")
    p = math.inf if inv == 0.0 else 1.0 / inv
    if p_total is not None:
        p_total = float(p_total)
        inv_total = 0.0 if math.isinf(p_total) else 1.0 / p_total
        if abs(inv_total - inv) > 1e-12:
            raise HolderMismatch(
                f"declared p = {p_total} inconsistent with slot exponents (p = {p})")
    if symbol.iptp_bound is None:
        raise ValueError("symbol carries no certified separated-cost bound")

    value = moi_evaluate(symbol, operands)
    lhs = schatten_norm(value, p)
    rhs = symbol.iptp_bound
    for q, bmat in zip(ps, operands.middles):
        rhs *= schatten_norm(bmat, q)
    report = VerificationReport("operator-integral-schatten-bound")
    report.add(inequality_check(
        f"Hoelder bound (p={p:g})",
        "||integral[b]||_p <= bound(symbol) * prod_j ||b_j||_{p_j}",
        lhs=lhs, rhs=rhs, slack=1e-9 * (1.0 + rhs)))
    return report
