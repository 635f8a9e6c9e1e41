"""Higher derivatives of matrix functions, Taylor remainders, Schatten bounds.

The k-th derivative of the matrix function ``A -> f(A)`` at a Hermitian
base point is the symmetrized order-k operator integral of the k-th divided
difference.  This module evaluates that formula, the closed form for power
maps, and two oracles that share no code with it: the block upper-triangular
identity, which reads the ordered integrals off ``f`` of block-bidiagonal
matrices with no eigensolver, and a tensor central-difference stencil in
double precision (Jacobi at each point) or in 30 digits (``mp.eighe`` at
each point).  It also holds the three equivalent Taylor-remainder forms
and the one Hölder-Schatten estimate for operator integrals, which bounds
the remainder written as a single mixed-base integral.  The block identity
takes any bases: it is the exact oracle of every operator integral of
``f^[k]`` for an ``f`` with a matrix form.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from mpmath import mp

from .errors import (
    ConvergenceFailure,
    EvaluationDomain,
    HolderMismatch,
    InvalidP,
)
from .moi import (
    MoiOperands,
    MoiSymbol,
    _require_operands,
    _require_shape,
    moi_evaluate,
)
from .report import VerificationReport, inequality_check
from .scalar_functions import (
    Polynomial,
    WienerAtomic,
    _evaluate,
    _matrix_form,
    _mp_form,
    _unit_gauss,
)
from .spectral import _decompose, functional_calculus, jacobi_eigh

__all__ = [
    "DerivativeRequest",
    "power_map_derivative",
    "matrix_function_derivative",
    "finite_difference_derivative",
    "block_triangular_derivative",
    "block_triangular_integral",
    "taylor_remainder_direct",
    "taylor_remainder_moi",
    "taylor_remainder_integral",
    "schatten_norm",
    "remainder_schatten_check",
    "moi_schatten_check",
]

# working precision (decimal digits) of the finite-difference stencil at order >= 3
EXTENDED_DPS = 30
# Gauss-Legendre nodes of the line-integral remainder form
REMAINDER_NODES = 32

STRATEGIES = ("moi", "fd", "power")


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
        if not isinstance(self.order, numbers.Integral) or isinstance(self.order, bool):
            raise ValueError(f"order must be an int, got {self.order!r}")
        if self.order != len(self.directions) or self.order < 1:
            raise ValueError("order must equal the number of directions (>= 1)")
        base, dirs = _require_operands(self.base, self.directions)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", dirs)


@functools.cache
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Nonnegative integer tuples of the given length summing to ``total >= 0``,
    lexicographically ascending and built once per argument pair."""
    if parts == 1:
        return ((total,),)
    return tuple((head,) + rest for head in range(total + 1)
                 for rest in _compositions(total - head, parts - 1))


def power_map_derivative(power: int, base: np.ndarray, directions) -> np.ndarray:
    """k-th derivative of ``a -> a^m``: permuted exponent-splitting products.

    For each of the k! direction orders, adds ``a^g_0 b_1 a^g_1 .. b_k a^g_k``
    over every splitting ``|g| = m - k`` in ascending order, from one list
    of powers.  Valid in any matrix algebra (no Hermiticity needed); the
    zero matrix when the order exceeds the power, and ``ValueError`` unless
    the power is a nonnegative integer.
    """
    directions = [np.asarray(b, dtype=complex) for b in directions]
    k = len(directions)
    if k < 1:
        raise ValueError("at least one direction required")
    if not isinstance(power, numbers.Integral) or power < 0:
        raise ValueError(f"power must be a nonnegative integer, got {power!r}")
    a = np.asarray(base, dtype=complex)
    _require_shape(a, directions)
    out = np.zeros(a.shape, dtype=complex)
    if power >= k:
        # [I, a, .., a^(m-k)], each by one product with the last
        powers = list(itertools.accumulate([a] * (power - k), np.matmul,
                                           initial=np.eye(a.shape[0], dtype=complex)))
        for middles in itertools.permutations(directions):
            for gamma in _compositions(power - k, k + 1):
                term = powers[gamma[0]]
                for b, g in zip(middles, gamma[1:]):
                    term = term @ b @ powers[g]
                out += term
    return out


def matrix_function_derivative(request: DerivativeRequest) -> np.ndarray:
    """Evaluate a k-th Fréchet derivative by the requested strategy.

    ``moi`` tabulates the divided difference ``f^[k]`` once on the base
    point's eigenvalues and contracts it in the eigenbasis for every
    permutation of the directions, summing the k! results (symmetric in the
    directions by construction).  For a function marked real (its
    ``is_real`` is true) at k >= 2 the table is real and symmetric and the
    directions are Hermitian, so the integral of a direction order reversed
    is the adjoint of the integral of the order: only the k!/2 orders that
    precede their reversal (as tuples of direction indices) are contracted,
    and their sum ``X`` gives ``X + X*``, exactly Hermitian;
    ``power`` expands a polynomial monomial by monomial;
    ``fd`` defers to the stencil oracle.
    """
    f, k = request.f, request.order
    if request.strategy == "moi":
        decomp = _decompose(request.base)
        symbol = MoiSymbol.from_function(f, k)
        decomps = (decomp,) * (k + 1)
        # every permutation shares the eigenvalue grid: tabulate f^[k] once
        tensor = symbol.tensor([decomp.eigenvalues] * (k + 1))
        orders = itertools.permutations(range(k))
        reversal_pairs = k >= 2 and getattr(f, "is_real", False)
        if reversal_pairs:
            orders = (order for order in orders if order < order[::-1])
        out = np.zeros((decomp.dimension, decomp.dimension), dtype=complex)
        for order in orders:
            middles = tuple(request.directions[i] for i in order)
            out += moi_evaluate(symbol, MoiOperands(decomps, middles), tensor=tensor)
        return out + out.conj().T if reversal_pairs else out
    if request.strategy == "power":
        if not isinstance(f, Polynomial):
            raise ValueError("the power strategy requires a polynomial")
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

def _eighe_point(form, X):
    """``f`` at one 30-digit stencil point ``X``: ``form``, the function in
    mpmath arithmetic, at the eigenvalues of ``mp.eighe``."""
    E, Q = mp.eighe(X)
    values = [form(e) for e in E]
    if not all(map(mp.isfinite, values)):
        raise EvaluationDomain("the function is not finite at a stencil point's eigenvalue")
    return Q * mp.diag(values) * Q.transpose_conj()


def _stencil_points(base, directions, h):
    """The 2^k points ``base + h * sum s_i B_i``, one per sign vector
    ``s = 2 j - 1`` over ``j`` in ``np.ndindex((2,) * k)``, in the arithmetic
    of the operands (numpy arrays, or the mpmath matrices of the 30-digit path)."""
    # the step on the right: an mpf on the left of an mpmath matrix first
    # formats the matrix into a TypeError before Python tries __rmul__
    return [base + sum((2 * j - 1) * B for j, B in zip(index, directions)) * h
            for index in np.ndindex((2,) * len(directions))]


def _stencil_sum(values, h, k):
    """The alternating sum of ``f`` at the 2^k stencil points of step ``h``,
    over ``(2h)^k``."""
    out = 0
    for index, value in zip(np.ndindex((2,) * k), values):
        out = out + (-1) ** (k - sum(index)) * value
    return out / (2 * h) ** k


def finite_difference_derivative(f, base, directions) -> np.ndarray:
    """Tensor central-difference approximation of a k-th derivative.

    Evaluates ``f`` by functional calculus at the 2^k stencil points
    ``base + h * sum s_i B_i`` and combines the steps ``h`` and ``h/2``
    (Richardson) to cancel the O(h^2) term.  The step is fixed at
    ``h = 1e-4 (1 + ||base||)`` for every order: a larger one, such as a
    step that grows with the order, carries the stencil across points where
    ``f`` is only Hölder (``|x|^s`` at 0), and there the O(h^2) term that
    Richardson cancels does not exist.  In double precision the points of
    both steps are diagonalized by one stacked :func:`jacobi_eigh` call.
    For order >= 3 the alternating sum cancels below the double-precision
    noise floor, so there, and only there, the stencil runs in
    ``EXTENDED_DPS``-digit mpmath arithmetic instead: each point is an
    mpmath matrix, diagonalized by ``mp.eighe``, and ``f`` is evaluated by
    its mpmath form.  Raises :class:`EvaluationDomain` when ``f`` has no
    mpmath form or is not finite at a point's eigenvalue.
    """
    base, directions = _require_operands(base, directions)
    k = len(directions)
    h = 1e-4 * (1.0 + schatten_norm(base, math.inf))
    steps = (h, h / 2.0)
    if k >= 3:
        form = _mp_form(f)
        with mp.workdps(EXTENDED_DPS):
            base = mp.matrix(base.tolist())
            directions = [mp.matrix(B.tolist()) for B in directions]
            coarse, fine = (
                np.array(_stencil_sum([_eighe_point(form, X)
                                       for X in _stencil_points(base, directions, step)],
                                      step, k).tolist(), dtype=complex)
                for step in map(mp.mpf, steps))
    else:
        # Jacobi, not LAPACK: the oracle shares no eigensolver with the integrals
        lam, V = jacobi_eigh(np.array([_stencil_points(base, directions, step)
                                       for step in steps]))
        values = (V * _evaluate(f, lam)[..., None, :]) @ V.conj().swapaxes(-1, -2)
        coarse, fine = (_stencil_sum(point_values, step, k)
                        for point_values, step in zip(values, steps))
    return (4.0 * fine - coarse) / 3.0


def _block_integral(form, bases, middles) -> np.ndarray:
    """The ordered operator integral of ``f^[k]`` over the spectra of the
    bases ``A_0 .. A_k`` against the middles ``b_1 .. b_k``, with no
    eigensolver: the top-right ``n x n`` block of ``form`` (``f`` of a
    matrix) at the ``(k+1) n`` block upper-bidiagonal matrix with the bases
    on the diagonal and the middles above it (Mathias, SIMAX 1996; Higham
    and Relton, SIMAX 2014)."""
    k, n = len(middles), bases[0].shape[0]
    X = np.zeros(((k + 1) * n,) * 2, dtype=complex)
    for j, a in enumerate(bases):
        X[j * n:(j + 1) * n, j * n:(j + 1) * n] = a
    for j, b in enumerate(middles):
        X[j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = b
    return form(X)[:n, k * n:]


def block_triangular_integral(f, operands: MoiOperands) -> np.ndarray:
    """The operator integral of ``f^[k]`` on ``operands`` by the block
    upper-triangular identity.

    It reads the decomposed matrices and the middles, never an eigenvalue
    or eigenvector, so it checks :func:`moi_evaluate` on any bases, the
    eigensolver included.  ``f`` is applied by its matrix form: Horner for
    a polynomial, matrix exponentials for an atomic Fourier sum, and
    scipy's ``expm``, ``cosm`` or ``sinm`` for the builtin exp, cos and
    sin; :class:`EvaluationDomain` for any other function.
    """
    return _block_integral(_matrix_form(f), [d.source for d in operands.decomps],
                           operands.middles)


def block_triangular_derivative(f, base, directions) -> np.ndarray:
    """k-th derivative from the block upper-triangular identity: the integral
    of :func:`block_triangular_integral` with ``base`` in every slot, summed
    over the k! orders of the directions.  All k! orders are evaluated, for
    a real ``f`` too, so the oracle checks the halving of
    :func:`matrix_function_derivative`."""
    base, directions = _require_operands(base, directions)
    form = _matrix_form(f)
    bases = (base,) * (len(directions) + 1)
    return sum(_block_integral(form, bases, middles)
               for middles in itertools.permutations(directions))


# ---------------------------------------------------------------------------
# Taylor remainders
# ---------------------------------------------------------------------------

def _remainder_operands(order: int, base, perturbation):
    """The validated ``(a, b)`` of a Taylor remainder of order >= 1."""
    if order < 1:
        raise ValueError(f"remainder order must be >= 1, got {order}")
    a, (b,) = _require_operands(base, [perturbation])
    return a, b


def taylor_remainder_direct(f, order: int, base, perturbation) -> np.ndarray:
    """Remainder by definition: subtract the Taylor polynomial of the map.

    ``f(a + b) - f(a) - sum_{j<order} (1/j!) D^j f(a)[b..b]``.  With all j
    directions equal to ``b``, the j! direction orders of the derivative
    coincide, so each Taylor term is the single operator integral of
    ``f^[j]`` at ``a`` with every middle equal to ``b``.
    """
    a, b = _remainder_operands(order, base, perturbation)
    Da = _decompose(a)
    Dab = _decompose(a + b)
    out = functional_calculus(f, Dab) - functional_calculus(f, Da)
    for j in range(1, order):
        out -= moi_evaluate(MoiSymbol.from_function(f, j),
                            MoiOperands((Da,) * (j + 1), (b,) * j))
    return out


def _remainder_integral(f, order: int, base, perturbation):
    """The symbol and operands of the remainder as one mixed-base operator
    integral: ``f^[order]``, with the first slot decomposed at
    ``base + perturbation``, the remaining ``order`` slots at ``base``, and
    every middle equal to the perturbation."""
    a, b = _remainder_operands(order, base, perturbation)
    return (MoiSymbol.from_function(f, order),
            MoiOperands((_decompose(a + b),) + (_decompose(a),) * order, (b,) * order))


def taylor_remainder_moi(f, order: int, base, perturbation) -> np.ndarray:
    """Remainder as a single mixed-base operator integral.

    The first slot is decomposed at ``base + perturbation`` and the
    remaining ``order`` slots at ``base``; all middles equal the
    perturbation.  Equals the direct form up to rounding.
    """
    return moi_evaluate(*_remainder_integral(f, order, base, perturbation))


def taylor_remainder_integral(f, order: int, base, perturbation) -> np.ndarray:
    """Remainder as a weighted line integral of order-k operator integrals.

    ``REMAINDER_NODES``-point Gauss-Legendre approximation of
    ``k * int_0^1 (1-t)^(k-1) (I[f^[k]] at a + t b)[b..b] dt``.
    """
    a, b = _remainder_operands(order, base, perturbation)
    k = order
    symbol = MoiSymbol.from_function(f, k)
    out = np.zeros(a.shape, dtype=complex)
    for t, weight in zip(*_unit_gauss(REMAINDER_NODES)):
        decomp = _decompose(a + t * b)
        operands = MoiOperands((decomp,) * (k + 1), (b,) * k)
        out += weight * k * (1.0 - t) ** (k - 1) * moi_evaluate(symbol, operands)
    return out


# ---------------------------------------------------------------------------
# Schatten norms and bounds
# ---------------------------------------------------------------------------

def schatten_norm(M: np.ndarray, p: float) -> float:
    """l^p norm of the singular values; p = inf gives the operator norm.

    The singular values come from LAPACK's SVD of ``M`` itself, so each
    is accurate to rounding relative to the largest; going through the
    eigenvalues of ``M* M`` would square the condition number and lose the
    singular values below ``sqrt(eps)`` times the largest.  ``M`` must be
    2-D: a stack of matrices is a ``ValueError``, not one norm over all.
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidP(f"Schatten exponent must be in [1, inf], got {p}")
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    try:
        sigma = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK SVD failed: {exc}") from exc
    if math.isinf(p):
        return float(sigma.max()) if sigma.size else 0.0
    return float(np.sum(sigma ** p) ** (1.0 / p))


def remainder_schatten_check(f: WienerAtomic, order: int, base, perturbation,
                             p: float) -> VerificationReport:
    """Schatten bound on a Taylor remainder with the certified moment bound.

    Verifies ``||R_k(b)||_p <= (moment_k / k!) * ||b||_{kp}^k``: the
    remainder is the mixed-base integral of :func:`taylor_remainder_moi`,
    and this is :func:`moi_schatten_check` on it with every slot exponent
    ``k p``.  ``ValueError`` when ``f`` has no certified bound (it is not an
    atomic Fourier sum).
    """
    p = float(p)
    if math.isnan(p) or p < 1.0 or math.isinf(p):
        raise InvalidP("remainder bound requires p in [1, inf)")
    (check,) = moi_schatten_check(*_remainder_integral(f, order, base, perturbation),
                                  [order * p] * order).checks
    return VerificationReport("taylor-remainder-schatten-bound", [replace(
        check, name=f"remainder bound (order {order}, p={p:g})",
        identity="||R_k(b)||_p <= (moment_k/k!) * ||b||_{kp}^k")])


def moi_schatten_check(symbol: MoiSymbol, operands: MoiOperands,
                       exponents) -> VerificationReport:
    """Hölder-type Schatten bound for an operator integral.

    With slot exponents ``p_j`` and target ``1/p = sum 1/p_j``, verifies
    ``||integral[b]||_p <= bound(symbol) * prod ||b_j||_{p_j}`` where the
    bound is the symbol's certified separated-cost bound.  Raises
    :class:`HolderMismatch` when the exponents are inconsistent.
    """
    ps = [float(q) for q in exponents]
    if len(ps) != operands.order:
        raise HolderMismatch(f"{len(ps)} exponents for order {operands.order}")
    for q in ps:
        if math.isnan(q) or q < 1.0:
            raise HolderMismatch(f"slot exponent {q} outside [1, inf]")
    inv = sum(0.0 if math.isinf(q) else 1.0 / q for q in ps)
    if inv > 1.0 + 1e-12:
        raise HolderMismatch("slot exponents sum to a target below p = 1")
    # a sum of reciprocals such as nine of 1/9 rounds above 1: the target is p = 1
    p = math.inf if inv == 0.0 else 1.0 / min(inv, 1.0)
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
