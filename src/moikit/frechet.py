"""Higher derivatives of matrix functions, Taylor remainders, Schatten bounds.

The k-th derivative of the matrix function ``A -> f(A)`` at a Hermitian
base point is the symmetrized order-k operator integral of the k-th divided
difference.  This module evaluates that formula, the closed form for power
maps, and two oracles that share no code with it: the block upper-triangular
identity, which reads the ordered integrals off ``f`` of block-bidiagonal
matrices with no eigensolver, and a tensor central-difference stencil in
double or 30-digit precision.  It also holds the three equivalent
Taylor-remainder forms and the Schatten-norm inequalities that control them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EvaluationDomain,
    HolderMismatch,
    InvalidP,
)
from .moi import MoiOperands, MoiSymbol, _matrix_powers, _power_chain, moi_evaluate
from .report import VerificationReport, inequality_check
from .scalar_functions import (
    Polynomial,
    WienerAtomic,
    _evaluate,
    _matrix_form,
    _mp_form,
    wiener_iptp_bound,
)
from .spectral import _decompose, functional_calculus, jacobi_eigh, require_hermitian

__all__ = [
    "DerivativeRequest",
    "power_map_derivative",
    "matrix_function_derivative",
    "finite_difference_derivative",
    "block_triangular_derivative",
    "taylor_remainder_direct",
    "taylor_remainder_moi",
    "taylor_remainder_integral",
    "schatten_norm",
    "remainder_schatten_check",
    "moi_schatten_check",
]

# working precision (decimal digits) for the extended finite-difference path
EXTENDED_DPS = 30
# fraction bits of the extended path's fixed-point eigenvectors: EXTENDED_DPS
# digits and 16 guard bits
REFINE_BITS = math.ceil(EXTENDED_DPS * math.log2(10)) + 16
# Ogita-Aishima steps a stencil point may take before it falls back to mp.eighe
REFINE_STEPS = 5
# Gauss-Legendre nodes of the line-integral remainder form
REMAINDER_NODES = 32

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
    for b in directions:
        if b.shape != a.shape:
            raise DimensionMismatch("directions must match the base dimension")
    out = np.zeros(a.shape, dtype=complex)
    if power >= k:
        # every slot is the base: one power list serves all k! orders
        powers = [_matrix_powers(a, power - k)] * (k + 1)
        for middles in itertools.permutations(directions):
            _power_chain(out, powers, middles)
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
        decomp = _decompose(request.base)
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

def _eighe_point(form, X):
    # ``form`` evaluates the function in mpmath arithmetic
    E, Q = mp.eighe(X)
    return Q * mp.diag([form(e) for e in E]) * Q.transpose_conj()


def _fixed(M, scale, factor=1.0):
    """``factor * M`` rounded to integers in units of ``2^-scale``: an object
    array of its real and imaginary planes."""
    fnum, fden = factor.as_integer_ratio()

    def fixed(x):
        num, den = x.as_integer_ratio()
        q, r = divmod(fnum * num << scale, fden * den)
        return q + (2 * r > fden * den or 2 * r == fden * den and q & 1)

    return np.array([[[fixed(x) for x in row] for row in part.tolist()]
                     for part in (M.real, M.imag)], dtype=object)


def _from_fixed(xr, xi, scale):
    """The mpmath matrix ``(xr + i xi) 2^-scale``, rounded to working precision."""
    return mp.matrix([[mp.mpc(mp.mpf((a, -scale)), mp.mpf((b, -scale))) for a, b in zip(ra, ia)]
                      for ra, ia in zip(xr, xi)])


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _jacobi_seeds(points, scale):
    """Jacobi's eigenvectors of a stack of integer-plane points ``(..., 2, n, n)``
    in units of ``2^-scale``, rounded to double, from one stacked call."""
    planes = np.ldexp(np.array(points, dtype=float), -scale)
    return jacobi_eigh(planes[..., 0, :, :] + 1j * planes[..., 1, :, :])[1]


def _refine(xr, xi, scale, seed):
    """Eigenvalues and eigenvectors of ``X = (xr + i xi) 2^-scale``, or None.

    The eigenvectors ``seed`` that Jacobi finds for ``X`` rounded to double
    (:func:`_jacobi_seeds`), as integers in units of ``2^-REFINE_BITS``, are
    refined by Ogita-Aishima steps (Ogita & Aishima, JJIAM 2018): the
    residuals ``I - V*V`` and ``V*XV`` are exact, and only the small
    correction ``E`` of ``V <- V + VE`` is formed in double, from exact
    numerators and eigenvalue gaps.  Convergence is quadratic, so the step
    whose ``E`` is below ``2^-(REFINE_BITS/2 + 8)`` leaves ``V`` and the
    Rayleigh quotients good to about ``REFINE_BITS`` bits.  Returns the
    eigenvalues as exact ratios ``(t_i, g_i 2^scale)`` with the columns of
    ``V`` (real and imaginary parts), or None when a pair of eigenvalues lies
    within a step's separation threshold ``2 (||V*XV - D|| + ||X|| ||I - V*V||)``
    or ``REFINE_STEPS`` steps do not converge.
    """
    n, bits = len(xr), REFINE_BITS
    one = 1 << 2 * bits
    V = seed.T
    vr = [[round(x) for x in col] for col in np.ldexp(V.real, bits).tolist()]
    vi = [[round(x) for x in col] for col in np.ldexp(V.imag, bits).tolist()]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(REFINE_STEPS):
        # XV in units of 2^-(scale+bits); the Gram matrix G = V*V in units of
        # 2^-2bits and T = V*XV in units of 2^-(scale+2bits), so that the
        # eigenvalue estimates are lam_i = t_i / (g_i 2^scale)
        wr = [[_dot(a, r) - _dot(b, i) for a, b in zip(xr, xi)] for r, i in zip(vr, vi)]
        wi = [[_dot(a, i) + _dot(b, r) for a, b in zip(xr, xi)] for r, i in zip(vr, vi)]
        g = [_dot(r, r) + _dot(i, i) for r, i in zip(vr, vi)]
        t = [_dot(r, a) + _dot(i, b) for r, i, a, b in zip(vr, vi, wr, wi)]
        lam = [tp / (gp << scale) for tp, gp in zip(t, g)]
        r2 = sum(((one - gp) / one) ** 2 for gp in g)
        s2 = sum((lp * (gp - one) / one) ** 2 for lp, gp in zip(lam, g))
        er = [[(one - gp) / (2 * one) if p == q else 0.0 for q, gp in enumerate(g)]
              for p in range(n)]
        ei = [[0.0] * n for _ in range(n)]
        off = []
        for p, q in pairs:
            Gr = _dot(vr[p], vr[q]) + _dot(vi[p], vi[q])
            Gi = _dot(vr[p], vi[q]) - _dot(vi[p], vr[q])
            Tr = _dot(vr[p], wr[q]) + _dot(vi[p], wi[q])
            Ti = _dot(vr[p], wi[q]) - _dot(vi[p], wr[q])
            r2 += 2 * (Gr * Gr + Gi * Gi) / one ** 2
            s2 += 2 * (Tr * Tr + Ti * Ti) / (one << scale) ** 2
            # (lam_q - lam_p) g_p g_q 2^scale
            off.append((p, q, Gr, Gi, Tr, Ti, t[q] * g[p] - t[p] * g[q]))
        delta = 2.0 * (math.sqrt(s2) + max(map(abs, lam)) * math.sqrt(r2))
        for p, q, Gr, Gi, Tr, Ti, gap in off:
            if not gap / (g[p] * g[q] << scale) > delta:
                return None
            # E_pq = (s_pq + lam_q r_pq) / (lam_q - lam_p), with r_pq = -G_pq
            den = gap * one
            er[p][q] = (Tr * g[q] - t[q] * Gr) * g[p] / den
            ei[p][q] = (Ti * g[q] - t[q] * Gi) * g[p] / den
            er[q][p] = -(Tr * g[p] - t[p] * Gr) * g[q] / den
            ei[q][p] = (Ti * g[p] - t[p] * Gi) * g[q] / den
        Er = [[round(math.ldexp(x, bits)) for x in col] for col in zip(*er)]
        Ei = [[round(math.ldexp(x, bits)) for x in col] for col in zip(*ei)]
        rows_r, rows_i = list(zip(*vr)), list(zip(*vi))
        half = 1 << bits - 1
        vr = [[v + (_dot(a, cr) - _dot(b, ci) + half >> bits)
               for v, a, b in zip(col, rows_r, rows_i)] for col, cr, ci in zip(vr, Er, Ei)]
        vi = [[v + (_dot(a, ci) + _dot(b, cr) + half >> bits)
               for v, a, b in zip(col, rows_r, rows_i)] for col, cr, ci in zip(vi, Er, Ei)]
        if max(map(math.hypot, itertools.chain(*er), itertools.chain(*ei))) \
                <= 2.0 ** -(bits // 2 + 8):
            return [(tp, gp << scale) for tp, gp in zip(t, g)], vr, vi
    return None


def _refined_point(form, X, scale, seed):
    """``f`` at a stencil point held as integer planes in units of ``2^-scale``:
    ``form`` at the eigenvalues refined from the Jacobi eigenvectors ``seed``,
    through the refined eigenvectors in integer arithmetic, or ``mp.eighe``'s
    decomposition where :func:`_refine` gives up."""
    xr, xi = X[0].tolist(), X[1].tolist()
    refined = _refine(xr, xi, scale, seed)
    if refined is None:
        return _eighe_point(form, _from_fixed(xr, xi, scale))
    ratios, vr, vi = refined
    values = [mp.mpc(form(mp.mpf(num) / den)) for num, den in ratios]
    if not all(map(mp.isfinite, values)):
        raise EvaluationDomain("the function is not finite at a stencil point's eigenvalue")
    # the values as integers in units of 2^-bits, so that f(X) = V diag(values) V*
    # is exact in units of 2^-(bits + 2 REFINE_BITS)
    top = max(max(abs(v.real), abs(v.imag)) for v in values)
    bits = max(REFINE_BITS - int(mp.frexp(top)[1]), 0)
    fr = [int(mp.ldexp(v.real, bits)) for v in values]
    fi = [int(mp.ldexp(v.imag, bits)) for v in values]
    rows_r, rows_i = list(zip(*vr)), list(zip(*vi))
    ar = [[f * a - h * b for f, h, a, b in zip(fr, fi, ra, ia)] for ra, ia in zip(rows_r, rows_i)]
    ai = [[f * b + h * a for f, h, a, b in zip(fr, fi, ra, ia)] for ra, ia in zip(rows_r, rows_i)]
    return _from_fixed([[_dot(a, r) + _dot(b, i) for r, i in zip(rows_r, rows_i)]
                        for a, b in zip(ar, ai)],
                       [[_dot(b, r) - _dot(a, i) for r, i in zip(rows_r, rows_i)]
                        for a, b in zip(ar, ai)],
                       bits + 2 * REFINE_BITS)


def _stencil_points(base, directions, h):
    """The 2^k points ``base + h * sum s_i B_i``, one per sign vector ``s`` in
    ``itertools.product`` order, in the arithmetic of the operands (numpy
    arrays, or the integer planes of the extended path)."""
    return [base + sum(s * B for s, B in zip(signs, directions)) * h
            for signs in itertools.product((-1, 1), repeat=len(directions))]


def _stencil_sum(values, h, k):
    """The alternating sum of ``f`` at the 2^k stencil points of step ``h``,
    over ``(2h)^k``."""
    out = 0
    for signs, value in zip(itertools.product((-1, 1), repeat=k), values):
        out = out + math.prod(signs) * value
    return out / (2 * h) ** k


def finite_difference_derivative(f, base, directions,
                                 extended: bool | None = None) -> np.ndarray:
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
    noise floor, so the stencil runs on exact integer points instead
    (override with ``extended``): each point's Jacobi eigenvectors, from one
    stacked call on the points rounded to double, are refined to
    ``EXTENDED_DPS`` digits by :func:`_refine`, or the point is diagonalized
    by ``mp.eighe`` where the refinement gives up, and ``f`` is evaluated by
    its mpmath form, summed in ``EXTENDED_DPS``-digit arithmetic.  Raises :class:`EvaluationDomain`
    when ``f`` has no mpmath form.
    """
    base = require_hermitian(base)
    directions = [require_hermitian(b) for b in directions]
    k = len(directions)
    if k < 1:
        raise ValueError("at least one direction required")
    if extended is None:
        extended = k >= 3
    h = 1e-4 * (1.0 + schatten_norm(base, math.inf))
    steps = (h, h / 2.0)
    if extended:
        form = _mp_form(f)
        # integer planes in units of 2^-scale, with the entries of every
        # stencil point below 2^REFINE_BITS; each step is carried by its
        # directions, so the stencil runs at unit step
        top = np.abs(base).max() + h * sum(np.abs(B).max() for B in directions)
        scale = max(REFINE_BITS - math.frexp(top)[1], 0)
        fixed = _fixed(base, scale)
        stencils = [_stencil_points(fixed, [_fixed(B, scale, step) for B in directions], 1)
                    for step in steps]
        seeds = _jacobi_seeds(stencils, scale)
        with mp.workdps(EXTENDED_DPS):
            coarse, fine = (
                np.array(_stencil_sum([_refined_point(form, X, scale, seed)
                                       for X, seed in zip(points, point_seeds)], 1, k).tolist(),
                         dtype=complex) / step ** k
                for points, point_seeds, step in zip(stencils, seeds, steps))
    else:
        # Jacobi, not LAPACK: the oracle shares no eigensolver with the integrals
        lam, V = jacobi_eigh(np.array([_stencil_points(base, directions, step)
                                       for step in steps]))
        values = (V * _evaluate(f, lam)[..., None, :]) @ V.conj().swapaxes(-1, -2)
        coarse, fine = (_stencil_sum(point_values, step, k)
                        for point_values, step in zip(values, steps))
    return (4.0 * fine - coarse) / 3.0


def block_triangular_derivative(f, base, directions) -> np.ndarray:
    """k-th derivative from the block upper-triangular identity, with no
    eigensolver.

    ``f`` of the ``(k+1) n`` block upper-bidiagonal matrix with ``base`` on
    the diagonal and the directions ``b_1 .. b_k`` above it holds, in its
    top-right ``n x n`` block, the ordered operator integral of ``f^[k]``
    against ``b_1 .. b_k`` (Mathias, SIMAX 1996; Higham and Relton, SIMAX
    2014); the sum of that block over the k! orders of the directions is the
    derivative.  ``f`` is applied to the block matrix by its matrix form:
    Horner for a polynomial, matrix exponentials for an atomic Fourier sum,
    and scipy's ``expm``, ``cosm`` or ``sinm`` for the builtin exp, cos and
    sin.  Raises :class:`EvaluationDomain` for any other function.
    """
    base = require_hermitian(base)
    directions = [require_hermitian(b) for b in directions]
    k, n = len(directions), base.shape[0]
    if k < 1:
        raise ValueError("at least one direction required")
    for b in directions:
        if b.shape != base.shape:
            raise DimensionMismatch("directions must match the base dimension")
    form = _matrix_form(f)
    X = np.kron(np.eye(k + 1), base)
    out = np.zeros((n, n), dtype=complex)
    for middles in itertools.permutations(directions):
        for j, b in enumerate(middles):
            X[j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = b
        out += form(X)[:n, k * n:]
    return out


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
    Da = _decompose(a)
    Dab = _decompose(a + b)
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
    Da = _decompose(a)
    Dab = _decompose(a + b)
    symbol = MoiSymbol.from_function(f, order)
    operands = MoiOperands((Dab,) + (Da,) * order, (b,) * order)
    return moi_evaluate(symbol, operands)


def taylor_remainder_integral(f, order: int, base, perturbation) -> np.ndarray:
    """Remainder as a weighted line integral of order-k operator integrals.

    ``REMAINDER_NODES``-point Gauss-Legendre approximation of
    ``k * int_0^1 (1-t)^(k-1) (I[f^[k]] at a + t b)[b..b] dt``.
    """
    a = require_hermitian(base)
    b = require_hermitian(perturbation)
    k = order
    x, w = np.polynomial.legendre.leggauss(REMAINDER_NODES)
    ts = 0.5 * (x + 1.0)
    ws = 0.5 * w
    n = a.shape[0]
    symbol = MoiSymbol.from_function(f, k)
    out = np.zeros((n, n), dtype=complex)
    for t, weight in zip(ts, ws):
        decomp = _decompose(a + t * b)
        operands = MoiOperands((decomp,) * (k + 1), (b,) * k)
        value = moi_evaluate(symbol, operands)
        out += weight * k * (1.0 - t) ** (k - 1) * value
    return out


# ---------------------------------------------------------------------------
# Schatten norms and bounds
# ---------------------------------------------------------------------------

def schatten_norm(M: np.ndarray, p: float) -> float:
    """l^p norm of the singular values; p = inf gives the operator norm.

    The singular values come from LAPACK's SVD of ``M`` itself, so each
    is accurate to rounding relative to the largest; going through the
    eigenvalues of ``M* M`` would square the condition number and lose the
    singular values below ``sqrt(eps)`` times the largest.
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidP(f"Schatten exponent must be in [1, inf], got {p}")
    try:
        sigma = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK SVD failed: {exc}") from exc
    if math.isinf(p):
        return float(sigma.max()) if sigma.size else 0.0
    return float(np.sum(sigma ** p) ** (1.0 / p))


def _segment_radius(a: np.ndarray, b: np.ndarray) -> float:
    """max ||a + t b|| over [0, 1]: the norm is convex in t, so the larger of
    its values at the endpoints."""
    return max(schatten_norm(a, math.inf), schatten_norm(a + b, math.inf))


def remainder_schatten_check(f: WienerAtomic, order: int, base, perturbation,
                             p: float) -> VerificationReport:
    """Schatten bound on a Taylor remainder with the certified moment bound.

    Verifies ``||R_k(b)||_p <= (moment_k / k!) * ||b||_{kp}^k``; the
    moment-based factor dominates the (uncomputable) separated cost of the
    k-th divided difference, so the inequality is implied by the exact one.
    """
    p = float(p)
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
    p = math.inf if inv == 0.0 else 1.0 / inv
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
