"""Scalar functions and their divided differences.

A divided difference of order ``k`` assigns to ``k + 1`` real nodes the
symmetric quantity obtained by iterating difference quotients; on the
diagonal it reduces to ``f^(k)(x) / k!``.  Every function goes through one
table: :func:`divided_difference_batch` sorts each node tuple and divides
by the span of each sub-tuple, and a sub-tuple too narrow for the quotient
takes the series of ``f`` about the midpoint of its hull: the simplex
(Hermite-Genocchi) integral of the Chebyshev interpolant of ``f^(j)`` on that
hull (Opitz 1964, McCurdy, Ng and Parlett 1984 and Higham, *Functions of
Matrices*, 2008, section 3.2, for confluent tables; Trefethen, *Approximation
Theory and Approximation Practice*, 2013, for the interpolant).
:func:`divided_difference_grid` reads the same quantity on a product grid of
node lists, the symbol tensor of an operator integral: ``f^[k]`` being
symmetric, it builds one table by the same step per level on the
nondecreasing index tuples of one sorted list, either the slots' shared list
or the union of their nodes, and reads every entry at its sorted tuple.
:func:`divided_difference` is the one-tuple case.

The other evaluations stay as independent oracles on one node sequence:

* the exact closed form for polynomials (complete homogeneous symmetric sums),
* the scalar difference-quotient recursion, with a confluent fallback that
  calls derivatives at repeated nodes,
* quadrature of the k-th derivative over the standard simplex by
  :func:`simplex_rule`, which for a finite atomic oscillatory sum is its
  Fourier-side formula, and
* the recursion in mpmath arithmetic at 50 digits plus those its node gaps
  cancel.

Both recursions run one quotient loop, :func:`_recursion`.  A node that is
not finite is a ``ValueError`` everywhere but the grid, whose callers pass
checked eigenvalues.

The module also exposes the computable upper bounds attached to these
representations: the ``sup |f^(k)| / k!`` bound and the moment-based bound
for atomic Fourier sums.

Each function object's ``is_real`` says whether it is known to be real on
the reals, which lets a derivative contract half its direction orders.
Function objects are immutable once constructed and every operation here
is a pure function, so concurrent use needs no synchronization; reductions
run left-to-right over sorted inputs for bit-stable results, and the
simplex-rule sums take ``einsum`` rather than BLAS, whose threads would
split them by thread count.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .errors import CoincidentNodes, EvaluationDomain, InsufficientDerivatives

__all__ = [
    "Polynomial",
    "WienerAtomic",
    "CallableFunction",
    "simplex_rule",
    "poly_divided_difference",
    "divided_difference_recursive",
    "divided_difference_quadrature",
    "wiener_divided_difference",
    "divided_difference",
    "divided_difference_batch",
    "divided_difference_grid",
    "divided_difference_mp",
    "divided_difference_sup_bound",
    "wiener_iptp_bound",
    "wiener_taylor_truncate",
    "TaylorTruncation",
    "builtin_function",
    "function_from_spec",
    "load_function",
]


# ---------------------------------------------------------------------------
# function types
# ---------------------------------------------------------------------------

def _require_order(order) -> None:
    if order < 0:
        raise ValueError(f"derivative order must be nonnegative, got {order}")


class Polynomial:
    """Complex polynomial stored by ascending coefficients.

    Trailing zero coefficients are trimmed on construction so the leading
    coefficient is nonzero unless the polynomial is identically zero; a
    coefficient that is not finite is a ValueError.
    """

    def __init__(self, coeffs):
        coeffs = [complex(c) for c in coeffs]
        for c in coeffs:
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c!r} is not finite")
        if not coeffs:
            coeffs = [0j]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_real(self) -> bool:
        """Whether every coefficient is real, so that ``f`` is real on the reals."""
        return all(c.imag == 0 for c in self.coeffs)

    def __call__(self, x):
        # Horner in place: the steps of numpy's polyval, without a temporary
        # per degree
        out = np.full(np.shape(x), self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            out *= x
            out += c
        return out[()]

    def derivative(self, order: int = 1) -> "Polynomial":
        _require_order(order)
        c = list(self.coeffs)
        for _ in range(order):
            c = [c[m] * m for m in range(1, len(c))] or [0j]
        return Polynomial(c)

    def _eval_mp(self, x):
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + mp.mpc(c.real, c.imag)
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


class WienerAtomic:
    """Finite atomic oscillatory sum ``f(x) = sum_j c_j exp(i x xi_j)``.

    Atoms are ``(frequency, weight)`` pairs.  Atoms with exactly equal
    frequencies are merged on construction (no tolerance: silently merging
    nearby frequencies would change the moments), and exact-zero weights
    are dropped.  A frequency or weight that is not finite is a ValueError.
    """

    def __init__(self, atoms):
        merged: dict[float, complex] = {}
        for xi, c in atoms:
            xi, c = float(xi), complex(c)
            if not (math.isfinite(xi) and cmath.isfinite(c)):
                raise ValueError(f"atom (frequency {xi!r}, weight {c!r}) is not finite")
            merged[xi] = merged.get(xi, 0j) + c
        self.atoms = tuple(sorted((xi, c) for xi, c in merged.items() if c != 0))

    @property
    def max_frequency(self) -> float:
        return max((abs(xi) for xi, _ in self.atoms), default=0.0)

    @property
    def is_real(self) -> bool:
        """Whether the atoms pair as ``(xi, c)`` and ``(-xi, conj(c))`` (a
        zero frequency with a real weight), so that ``f`` is real on the reals."""
        weights = dict(self.atoms)
        return all(weights.get(-xi) == c.conjugate() for xi, c in self.atoms)

    def __call__(self, x):
        x = np.asarray(x)
        if not self.atoms:
            return np.zeros(x.shape, dtype=complex) if x.ndim else 0j
        # np.multiply, not *: the operator reuses a temporary of 256 KiB or
        # more in place with the operands swapped, and numpy's complex
        # product then rounds differently, so a value would depend on the
        # size of the array it is computed in
        out = sum(np.multiply(c, np.exp(1j * xi * x)) for xi, c in self.atoms)
        return out if x.ndim else complex(out)

    def derivative(self, order: int = 1) -> "WienerAtomic":
        _require_order(order)
        return WienerAtomic((xi, c * (1j * xi) ** order) for xi, c in self.atoms)

    def moment(self, order: int) -> float:
        return float(sum(abs(c) * abs(xi) ** order for xi, c in self.atoms))

    def _eval_mp(self, x):
        acc = mp.mpc(0)
        for xi, c in self.atoms:
            acc += mp.mpc(c.real, c.imag) * mp.exp(1j * mp.mpf(xi) * x)
        return acc

    def __repr__(self):
        return f"WienerAtomic({list(self.atoms)!r})"


class CallableFunction:
    """Black-box scalar function with derivative evaluators up to a declared order.

    ``derivative_evaluators[j]`` evaluates the (j+1)-th derivative; the
    evaluator itself must be total on every interval it is queried on.
    ``mp_evaluator``, when supplied, evaluates the function in mpmath
    arithmetic so it can participate in extended-precision stencils.
    ``is_real`` is false: the evaluator may return complex values on the
    reals.  Only the builtins of :func:`builtin_function` are marked real.
    """

    is_real = False

    def __init__(self, evaluator, derivative_evaluators=(),
                 mp_evaluator=None, name=None):
        self.evaluator = evaluator
        self.derivative_evaluators = tuple(derivative_evaluators)
        self.mp_evaluator = mp_evaluator
        self.name = name

    @property
    def max_order(self) -> int:
        return len(self.derivative_evaluators)

    def __call__(self, x):
        return self.evaluator(x)

    def derivative(self, order: int = 1) -> "CallableFunction":
        _require_order(order)
        if order > self.max_order:
            raise InsufficientDerivatives(
                f"function supplies {self.max_order} derivatives, {order} requested")
        if order == 0:
            return self
        return CallableFunction(
            self.derivative_evaluators[order - 1],
            self.derivative_evaluators[order:],
            name=None if self.name is None else f"{self.name}^({order})",
        )

    def _eval_mp(self, x):
        if self.mp_evaluator is None:
            raise EvaluationDomain(f"{self!r} has no mpmath form")
        return self.mp_evaluator(x)

    def __repr__(self):
        tag = self.name or "<callable>"
        return f"CallableFunction({tag}, max_order={self.max_order})"


class _RealBuiltin(CallableFunction):
    """A builtin of :func:`builtin_function`, real on the reals."""

    is_real = True


def _derivative_or_none(f, order):
    """``f.derivative(order)``, or None for a plain callable or too few derivatives;
    :class:`EvaluationDomain` where a coefficient or weight of it overflows."""
    derivative = getattr(f, "derivative", None)
    if derivative is None:
        return None
    try:
        return derivative(order)
    except InsufficientDerivatives:
        return None
    except ValueError as exc:  # not the input's fault, which the constructor checked
        raise EvaluationDomain(f"{f!r} has no finite derivative of order {order}: {exc}") from None


def _mp_form(f):
    """``f`` in mpmath arithmetic; :class:`EvaluationDomain` if it has no such form."""
    form = getattr(f, "_eval_mp", None)
    if form is None:
        raise EvaluationDomain(f"{f!r} has no mpmath form")
    return form


def _matrix_form(f):
    """``f`` as a function of a square matrix: Horner for a polynomial,
    ``sum_j c_j expm(i xi_j X)`` for an atomic Fourier sum and scipy's
    ``expm``, ``cosm`` or ``sinm`` for the builtin exp, cos and sin;
    :class:`EvaluationDomain` for any other function."""
    # imported here, so that importing moikit does not load scipy
    import scipy.linalg

    if isinstance(f, Polynomial):
        def horner(X):
            out = np.full(X.shape, 0j)
            diagonal = np.diag_indices(len(X))
            out[diagonal] = f.coeffs[-1]
            for c in reversed(f.coeffs[:-1]):
                out = out @ X
                out[diagonal] += c
            return out
        return horner
    if isinstance(f, WienerAtomic):
        return lambda X: sum((c * scipy.linalg.expm(1j * xi * X) for xi, c in f.atoms),
                             np.zeros(X.shape, dtype=complex))
    named = {cycle[0]: getattr(scipy.linalg, form) for cycle, form in _ANALYTIC.values()}
    form = named.get(f.evaluator) if isinstance(f, CallableFunction) else None
    if form is None:
        raise EvaluationDomain(f"{f!r} has no matrix form")
    return form


def _evaluate(f, points) -> np.ndarray:
    """``f`` at an array of points, as complex values: on the whole array, and
    point by point if that fails.  Raises :class:`EvaluationDomain` where ``f``
    fails or is not finite; floating-point warnings are silenced only here."""
    points = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        try:
            values = np.asarray(f(points), dtype=complex)
        except (ArithmeticError, ValueError, TypeError):
            values = None
        if values is None or values.shape != points.shape:
            values = np.empty(points.shape, dtype=complex)
            for i, x in np.ndenumerate(points):
                try:
                    values[i] = complex(f(float(x)))
                except (ArithmeticError, ValueError, TypeError) as exc:
                    raise EvaluationDomain(
                        f"function not evaluable at {float(x)!r}: {exc}") from exc
    if not np.isfinite(values).all():
        raise EvaluationDomain(
            f"function not finite at {float(points[~np.isfinite(values)].flat[0])!r}")
    return values


def _require_finite(nodes) -> None:
    """ValueError naming the first node of ``nodes`` that is not finite."""
    bad = ~np.isfinite(nodes)
    if bad.any():
        raise ValueError(f"node {float(np.asarray(nodes)[bad][0])!r} is not finite")


def _as_nodes(nodes) -> tuple:
    """``nodes`` as a tuple of floats; ValueError if there is none or one is not finite."""
    nodes = tuple(float(x) for x in nodes)
    if not nodes:
        raise ValueError("at least one node required")
    _require_finite(nodes)
    return nodes


# points per axis of the simplex rule for an integrand of unknown degree
GAUSS_POINTS = 16


@functools.cache
def _unit_gauss(points):
    """The ``points``-point Gauss-Legendre abscissae ``u`` and weights moved
    to [0, 1], exact to degree ``2 points - 1``: the points per axis of the
    simplex rule and the nodes of the line-integral remainder.  Read-only."""
    x, w = np.polynomial.legendre.leggauss(points)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


def simplex_rule(k, points=GAUSS_POINTS):
    """The tensor Gauss-Legendre rule of ``points`` points per axis, cube to
    simplex, as read-only ``(nodes, weights)``: ``points^k`` rows of nodes
    ``t_j >= 0``, ``sum t_j = 1``, and weights of total mass ``1/k!``, the
    simplex measure's.  Built once per order and point count.

    The cube coordinates ``u`` map to simplex coordinates by peeling off the
    remaining mass one axis at a time, ``s_j = u_j * prod_{i<j}(1-u_i)``;
    the Jacobian ``prod_j (1-u_j)^(k-j)`` folds into the weights, so the
    rule integrates exactly against the simplex measure.
    """
    if k < 0:
        raise ValueError(f"simplex order must be nonnegative, got {k!r}")
    return _simplex_rule(k, points)


@functools.cache
def _simplex_rule(k, points):
    """:func:`simplex_rule`, cached on ``(k, points)`` with the default filled in."""
    if k == 0:
        nodes, weights = np.ones((1, 1)), np.ones(1)
    else:
        u, w = _unit_gauss(points)
        grids = np.meshgrid(*([u] * k), indexing="ij")
        wgrids = np.meshgrid(*([w] * k), indexing="ij")
        weight = remaining = np.ones_like(grids[0])
        s = []
        for j in range(k):
            weight = weight * wgrids[j] * (1.0 - grids[j]) ** (k - 1 - j)
            s.append(remaining * grids[j])
            remaining = remaining * (1.0 - grids[j])
        nodes = np.stack([c.ravel() for c in s] + [remaining.ravel()]).T
        weights = weight.ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

# nodes within COINCIDENCE_TOL_FACTOR * (1 + max|x|) are confluent for the recursion
COINCIDENCE_TOL_FACTOR = 1e-8


def _homogeneous_sums(nodes, max_degree):
    """Complete homogeneous symmetric sums h_0..h_max over the given nodes.

    Built by the two-term recurrence ``h_m(x_0..x_j) = h_m(x_0..x_{j-1}) +
    x_j h_{m-1}(x_0..x_j)``, one running sum over the nodes per degree;
    enumeration of the multi-indices would be binomially large.  ``nodes``
    is one tuple, or an ``(k+1, N)`` array whose columns are N tuples, in
    which case each ``h[m]`` has length N.  One tuple is cheaper through
    :func:`_tuple_homogeneous_sums`.
    """
    nodes = np.asarray(nodes, dtype=float)
    prefix = np.ones_like(nodes)   # row j: h_m of the first j + 1 nodes
    h = np.empty((max_degree + 1,) + nodes.shape[1:])
    h[0] = 1.0
    for m in range(1, max_degree + 1):
        np.multiply(nodes, prefix, out=prefix)
        np.add.accumulate(prefix, axis=0, out=prefix)
        h[m] = prefix[-1]
    return h


def _tuple_homogeneous_sums(nodes: tuple, max_degree) -> list[float]:
    """:func:`_homogeneous_sums` of one tuple of floats, as a list of floats:
    the same running sums in the same order, so the same values bit for bit,
    with no array call per degree."""
    prefix = [1.0] * len(nodes)
    h = [1.0]
    for _ in range(max_degree):
        total = nodes[0] * prefix[0]
        prefix[0] = total
        for j in range(1, len(nodes)):
            total = total + nodes[j] * prefix[j]
            prefix[j] = total
        h.append(total)
    return h


def poly_divided_difference(p: Polynomial, nodes) -> complex:
    """Exact closed-form divided difference of a polynomial.

    Works at coincident nodes; returns 0 whenever the order exceeds the
    degree (empty sum).
    """
    nodes = _as_nodes(nodes)
    k = len(nodes) - 1
    if k > p.degree:
        return 0j
    h = _tuple_homogeneous_sums(nodes, p.degree - k)
    return complex(sum(p.coeffs[n] * h[n - k] for n in range(k, p.degree + 1)))


def _recursion(z, table, coefficient):
    """``f^[k]`` at the sorted nodes ``z`` from the values ``table`` of ``f``
    there, in their arithmetic: an entry whose ``j + 1`` nodes all equal ``x``
    takes ``coefficient(x, j)``, the Taylor coefficient ``f^(j)(x)/j!``, and
    every other the quotient of two entries of the level below."""
    for j in range(1, len(z)):
        table = [coefficient(z[i], j) if z[i + j] == z[i]
                 else (table[i + 1] - table[i]) / (z[i + j] - z[i])
                 for i in range(len(z) - j)]
    return table[0]


def divided_difference_recursive(f, nodes) -> complex:
    """Difference-quotient recursion with confluent fallback.

    Nodes are sorted, and a node within ``COINCIDENCE_TOL_FACTOR * (1 +
    max|x|)`` of its predecessor joins its group; each group is snapped to
    its mean and the diagonal entries of the table of :func:`_recursion` use
    ``f^(j)(x)/j!``, which requires ``f`` to supply derivatives up to one
    less than the largest multiplicity.  Raises :class:`CoincidentNodes`
    when those derivatives are unavailable.
    """
    nodes = _as_nodes(nodes)
    tol = COINCIDENCE_TOL_FACTOR * (1.0 + max(abs(x) for x in nodes))

    z = sorted(nodes)
    groups: list[list[float]] = [[z[0]]]
    for x in z[1:]:
        if x - groups[-1][-1] <= tol:
            groups[-1].append(x)
        else:
            groups.append([x])
    snapped: list[float] = []
    max_mult = 1
    for g in groups:
        rep = sum(g) / len(g)
        snapped.extend([rep] * len(g))
        max_mult = max(max_mult, len(g))

    derivs = [f]
    for j in range(1, max_mult):
        d = _derivative_or_none(derivs[-1], 1)
        if d is None:
            raise CoincidentNodes(
                f"nodes coincide within {tol:g} and the function does not supply "
                f"{max_mult - 1} derivatives")
        derivs.append(d)

    return _recursion(snapped, _evaluate(f, snapped).tolist(),
                      lambda x, j: complex(_evaluate(derivs[j], x)) / math.factorial(j))


def divided_difference_mp(f, nodes) -> complex:
    """Extended-precision reference: the recursion in mpmath arithmetic.

    Each level of the recursion divides by a node gap, so the row works at
    ``50 + k log10((1 + max|x|) / g)`` digits, with ``g`` its smallest
    nonzero gap: about 50 digits survive the ``k`` divisions.  Evaluates
    ``f`` by its mpmath form (``f._eval_mp``, or raises
    :class:`EvaluationDomain`) at the given double nodes; at an exact repeat
    the table takes the Taylor coefficient ``f^(j)(x)/j!`` from mpmath's
    numerical differentiation, so ``f`` must be smooth there.
    """
    form = _mp_form(f)
    nodes = sorted(_as_nodes(nodes))
    gaps = [b - a for a, b in zip(nodes, nodes[1:]) if b > a]
    dps = 50
    if gaps:
        spread = (1.0 + max(map(abs, nodes))) / min(gaps)
        dps += math.ceil((len(nodes) - 1) * math.log10(spread))
    with mp.workdps(dps):
        z = [mp.mpf(x) for x in nodes]
        taylor = {x: mp.taylor(form, x, z.count(x) - 1)
                  for x in set(z) if z.count(x) > 1}
        return complex(_recursion(z, [form(x) for x in z], lambda x, j: taylor[x][j]))


def divided_difference_quadrature(f, nodes) -> complex:
    """Simplex-quadrature evaluation ``sum_q w_q f^(k)(t_q . nodes)``.

    The rule is :func:`simplex_rule`, with 16 points per axis, except where
    ``f^(k)`` is a :class:`Polynomial` of degree ``d``: the cube-to-simplex
    map is affine in each cube coordinate and the Jacobian has degree at
    most ``k - 1`` in each, so ``m = ceil((d + k) / 2)`` points per axis,
    exact to degree ``2m - 1``, integrate it exactly.  Past ``d + k = 32``,
    ``m`` stays at 16.
    The points ``t_q . x`` of the rule come from the nested form of its
    cube-to-simplex map, over the abscissae ``u`` of one axis:
    ``p_k = x_k`` and ``p_j = u (x) x_j + (1 - u) (x) p_{j+1}`` (outer
    products, ``u`` outermost), so that ``p_0`` holds the points in the
    order of the rule's nodes, at 2 operations per point rather than 2 per
    point and node.  Requires ``k`` derivatives of ``f``; raises
    :class:`InsufficientDerivatives` otherwise.  Stable at (near-)coincident
    nodes, with accuracy set by the rule's degree of exactness.
    """
    nodes = _as_nodes(nodes)
    k = len(nodes) - 1
    dk = _derivative_or_none(f, k) if k else f
    if dk is None:
        raise InsufficientDerivatives(f"the function does not supply {k} derivatives")
    m = GAUSS_POINTS
    if isinstance(dk, Polynomial):
        m = min(GAUSS_POINTS, max(1, (dk.degree + k + 1) // 2))
    weights = simplex_rule(k, m)[1]
    u = _unit_gauss(m)[0][:, None]
    v = 1.0 - u
    points = np.array([nodes[-1]])
    for x in reversed(nodes[:-1]):
        points = v * points
        points += u * x
        points = points.ravel()
    vals = _evaluate(dk, points)
    return complex(np.einsum("q,q->", weights, vals.real),
                   np.einsum("q,q->", weights, vals.imag))


def wiener_divided_difference(f: WienerAtomic, nodes) -> complex:
    """Fourier-side divided difference of a finite atomic oscillatory sum: the
    simplex integral of ``sum_j c_j (i xi_j)^k exp(i xi_j t . nodes)``, which is
    the atomic sum ``f^(k)``, so :func:`divided_difference_quadrature` itself."""
    return divided_difference_quadrature(f, nodes)


# An order-k table of difference quotients loses about eps 2^k max|f| /
# span^k to rounding, relative to the scale (1 + max|x|)^k and compounded over
# its levels.  Every level of it keeps the quotient only on spans of at least
# confluent_span(k) (1 + max|x|), where that loss is QUOTIENT_ERROR: 100x under
# the 1e-9 agreement gate, as the model is tight at k = 1.  A narrower
# sub-tuple x_0 <= .. <= x_j takes the series of f^[j] about the midpoint c of
# its hull, when f supplies f^(j) and the series has converged.  f^[j] is the
# simplex integral of f^(j)(t . x), and with u = (x - c) / r, r the half-span,
# that integral of (t . u)^m is m!/(j+m)! h_m(u).  The series integrates the
# interpolant of f^(j) at SERIES_DEGREE + 1 Chebyshev points of the hull, sum_q
# a_q T_q(u), so it needs no derivative beyond f^(j).  It has converged when
# the coefficients that it drops, extrapolated from its last ones, are under
# QUOTIENT_ERROR of f^(j) on the hull, or under the rounding of its points.
# The test is relative: an absolute one passes series that are accurate only
# to QUOTIENT_ERROR where f^(j) is tiny (|x|^s near 0), which the quotients of
# the higher levels then divide by spans far below confluent_span.
QUOTIENT_ERROR = 1e-11
SERIES_DEGREE = 8
_ANGLES = np.pi * (np.arange(SERIES_DEGREE + 1) + 0.5) / (SERIES_DEGREE + 1)
_CHEBYSHEV = np.cos(_ANGLES)
# values at the Chebyshev points -> coefficients a_q (a discrete cosine transform)
_CHEBYSHEV_FIT = np.cos(np.outer(np.arange(SERIES_DEGREE + 1), _ANGLES)) * (
    2.0 / (SERIES_DEGREE + 1))
_CHEBYSHEV_FIT[0] /= 2.0
# row q: the monomial coefficients of T_q, padded with zeros
_CHEBYSHEV_MONOMIALS = np.array([
    np.pad(np.polynomial.chebyshev.cheb2poly(row), (0, SERIES_DEGREE - q))
    for q, row in enumerate(np.eye(SERIES_DEGREE + 1))])


@functools.cache
def confluent_span(order):
    """Relative span below which an order-``order`` table takes the series patch."""
    return 2.0 * (np.finfo(float).eps / QUOTIENT_ERROR) ** (1.0 / order)


def _ascending_product(matrix, stacked):
    """``matrix @ stacked`` for a ``(M, Q)`` matrix and ``(Q, P)`` stacked rows,
    summed term by term in ascending ``q``: elementwise sums, not a matrix
    product, so that a column's value does not depend on the other columns."""
    return np.cumsum(matrix.T[:, :, None] * stacked[:, None, :], axis=0)[-1]


@functools.cache
def _moment_factors(j):
    """``m! / (j + m)!`` for ``m = 0..SERIES_DEGREE``, as a read-only column."""
    factors = np.array([[math.factorial(m) / math.factorial(j + m)]
                        for m in range(SERIES_DEGREE + 1)])
    factors.flags.writeable = False
    return factors


def _series_rows(dj, nodes):
    """``f^[j]`` on the rows of a sorted ``(P, j+1)`` node array of positive
    spans from the interpolant of ``dj = f^(j)``, and whether it has converged."""
    j = nodes.shape[1] - 1
    c = 0.5 * (nodes[:, 0] + nodes[:, -1])
    r = 0.5 * (nodes[:, -1] - nodes[:, 0])
    values = _evaluate(dj, c + r * _CHEBYSHEV[:, None])
    coeffs = _ascending_product(_CHEBYSHEV_FIT, values)
    # the endpoints map to -1 and 1 exactly: scaled about the rounded c, a
    # pair one ulp apart would map to {0, 2}, outside the series' interval
    lo, hi = nodes[:, :1], nodes[:, -1:]
    h = _homogeneous_sums((2.0 * (nodes - lo) / (hi - lo) - 1.0).T, SERIES_DEGREE)
    moments = h * _moment_factors(j)
    # the simplex integral of T_q(t . u), through the monomials of T_q
    integrals = _ascending_product(_CHEBYSHEV_MONOMIALS, moments)
    series = sum((coeffs * integrals)[::-1])
    # the values also carry the rounding of the points c + r u, about
    # eps (|c| + r) |f^(j+1)|, which |a_1| / r estimates: a series that has
    # converged to that floor is as accurate as its data
    floor = (QUOTIENT_ERROR * np.abs(values).max(axis=0)
             + 10.0 * np.finfo(float).eps * (np.abs(c) + r) / r * np.abs(coeffs[1]))
    # the truncation error is about the next two coefficients, extrapolated
    # from the decay of the last two pairs (pairs, so that a series of one
    # parity about c does not pass on a vanishing last coefficient)
    tail = np.maximum(np.abs(coeffs[-1]), np.abs(coeffs[-2]))
    before = np.maximum(np.abs(coeffs[-3]), np.abs(coeffs[-4]))
    decay = np.minimum(1.0, tail / np.maximum(before, np.finfo(float).tiny))
    return series, tail * decay <= floor


def _level(dj, nodes, lower, upper, order) -> np.ndarray:
    """Level ``j`` of an order-``order`` table on sorted ``(.., j+1)`` node rows,
    from ``lower`` and ``upper``, ``f^[j-1]`` on the first and the last ``j``
    nodes of each row.

    A row narrower than the confluent span at its own scale ``1 + max|x|``
    takes the series of ``f^[j]`` from ``dj = f^(j)`` where it has converged
    or the row is together (spans at most ``COINCIDENCE_TOL_FACTOR`` times the
    scale), ``f^(j)/j!`` at an exact repeat, and every other row keeps its
    quotient.  Where ``f`` does not supply ``f^(j)`` (``dj`` None) every row
    keeps its quotient and a together row is marked NaN, which every later
    level carries on; :func:`_unmarked` raises where a caller reads a mark.
    """
    j = nodes.shape[-1] - 1
    lo, hi = nodes[..., 0], nodes[..., -1]
    scale = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
    together = hi - lo <= COINCIDENCE_TOL_FACTOR * scale
    out = (upper - lower) / np.where(together, 1.0, hi - lo)
    if dj is None:
        out[together] = np.nan
        return out
    narrow = (hi - lo < confluent_span(order) * scale) & (hi > lo)
    if narrow.any():
        series, converged = _series_rows(dj, nodes[narrow])
        out[narrow] = np.where(converged | together[narrow], series, out[narrow])
    # at an exact repeat the series is its leading term
    repeat = hi == lo
    if repeat.any():
        out[repeat] = _evaluate(dj, lo[repeat]) / math.factorial(j)
    return out


def _unmarked(values, f, order) -> np.ndarray:
    """``values`` of an order-``order`` table of ``f``; :class:`CoincidentNodes`,
    as the recursion would raise, if ``f`` does not supply ``f^(order)`` and a
    value carries the mark that :func:`_level` leaves on a together row."""
    if _derivative_or_none(f, order) is None and np.isnan(values).any():
        raise CoincidentNodes(
            f"nodes coincide within {COINCIDENCE_TOL_FACTOR:g} (1 + max|x|) where the "
            f"function supplies too few derivatives for an order-{order} table")
    return values


def divided_difference_batch(f, nodes) -> np.ndarray:
    """``f^[k]`` on every row of an ``(N, k+1)`` node array.

    Every function takes one route: each row is sorted and divided by the
    span of each sub-tuple, by :func:`_level` over its sliding windows; a
    sub-tuple too narrow for the quotient takes the series of ``f`` about
    the midpoint of its hull, exact at repeats.  A value depends only on the
    sorted row, so permuted rows agree bit for bit.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] < 1:
        raise ValueError(f"expected an (N, k+1) node array, got shape {nodes.shape}")
    _require_finite(nodes)
    k = nodes.shape[1] - 1
    rows = np.sort(nodes, axis=1)
    table = _evaluate(f, rows)
    for j in range(1, k + 1):
        windows = np.lib.stride_tricks.sliding_window_view(rows, j + 1, axis=1)
        table = _level(_derivative_or_none(f, j), windows, table[:, :-1], table[:, 1:], k)
    return _unmarked(table[:, 0], f, k)


# a table over n nodes to order k keeps its plan (levels and rank map) where
# its grid, n^(k+1) entries, has at most this many
PLAN_CACHE_ENTRIES = 2 ** 15


def divided_difference_grid(f, node_lists) -> np.ndarray:
    """``f^[k]`` on the product grid, ``T[i_0..i_k] = f^[k](x_0[i_0], .., x_k[i_k])``.

    ``f^[k]`` is symmetric, so every entry is read from one table of it on
    the nondecreasing index tuples of one node list, at the colex rank of
    the entry's sorted index tuple: each level of that table is built by the
    step of :func:`divided_difference_batch`, so the grid equals the batch at
    the sorted rows bit for bit.  Where every slot holds the same
    nondecreasing list, ties included (the eigenvalues of one
    decomposition), the table is over that list (:func:`_shared_grid`);
    otherwise it is over the sorted union of the slots' nodes
    (:func:`_union_grid`).  Only the grid is checked for marks, by
    :func:`_unmarked`: every tuple of a shared table is some entry's, but a
    union table also holds tuples that no entry reads, such as two nodes of
    one slot only, and a mark there does not raise.
    """
    lists = [np.asarray(x, dtype=float) for x in node_lists]
    k = len(lists) - 1
    x = lists[0]
    shared = k and np.all(x[1:] >= x[:-1]) and all(np.array_equal(y, x) for y in lists[1:])
    return _unmarked(_shared_grid(f, x, k) if shared else _union_grid(f, lists), f, k)


def _shared_grid(f, x, k):
    """``f^[k]`` on the grid of ``k + 1`` slots of the nondecreasing list
    ``x``: :func:`_multiset_table` over ``x``, whose levels take ``f^(j)/j!``
    at a tie, gathered at each entry's sorted index tuple by the cached rank
    map of :func:`_small_plan`, or one slab ``T[i]`` at a time on a grid
    above ``PLAN_CACHE_ENTRIES`` entries.  Marks are left to the caller."""
    n = x.size
    values = _multiset_table(f, x, k)
    if n ** (k + 1) <= PLAN_CACHE_ENTRIES:
        return values[_small_plan(n, k)[1]]
    # slab i holds f^[k] at i and every k-tuple: gathered at the sorted
    # k-tuples, then spread over the slab by the rank map of k indices, so
    # that the scattered reads are the sorted tuples' and not the slab's
    levels, tail = _plan(n, k - 1)
    columns = list(levels[-1][0].T) if levels else [np.arange(n)]
    binomials = _colex_binomials(n, k)
    out = np.empty((n,) * (k + 1), dtype=complex)
    for i in range(n):
        slab = values[_colex_rank(_insert(i, columns), binomials)]
        np.take(slab, tail, out=out[i], mode="clip")
    return out


def _union_grid(f, lists):
    """``f^[k]`` on the product grid of the ``k + 1`` node lists:
    :func:`_multiset_table` over the sorted union of their nodes, read at the
    rank of each entry's sorted tuple of union indices.  Equal nodes share
    one union index, so an unsorted list or a repeated node needs no other
    step.  Marks are left to the caller."""
    k = len(lists) - 1
    nodes = np.unique(np.concatenate(lists))
    n = nodes.size
    values = _multiset_table(f, nodes, k)
    axes = [np.searchsorted(nodes, x).astype(np.min_scalar_type(n)) for x in lists]
    return values[_sorted_ranks(axes, n)]


def _multiset_table(f, x, k):
    """``f^[k]`` on the nondecreasing index tuples of the sorted list ``x``, in
    colex order, level by level over :func:`_multiset_levels`, which are
    cached with the plan of a grid of at most ``PLAN_CACHE_ENTRIES`` entries."""
    n = x.size
    levels = (_small_plan(n, k)[0] if n ** (k + 1) <= PLAN_CACHE_ENTRIES
              else _multiset_levels(n, k))
    values = _evaluate(f, x)
    for j, (rows, lower, upper) in enumerate(levels, 1):
        values = _level(_derivative_or_none(f, j), x[rows], values[lower], values[upper], k)
    return values


@functools.lru_cache(maxsize=64)
def _colex_binomials(n, k):
    """``C(v + m, m + 1)`` for ``v < n``, one read-only array per ``m = 0..k``."""
    binomials = tuple(np.array([math.comb(v + m, m + 1) for v in range(n)])
                      for m in range(k + 1))
    for b in binomials:
        b.flags.writeable = False
    return binomials


def _colex_rank(ascending, binomials):
    """The colex rank ``sum_m C(s_m + m, m + 1)`` of the nondecreasing index
    tuples ``s``, given as the arrays ``ascending`` of their entries."""
    return sum(b[s] for b, s in zip(binomials, ascending))


def _multiset_levels(n, k):
    """Yield, for each level ``j = 1..k`` of a grid over ``n`` shared indices, its
    nondecreasing index tuples in colex order, as rows, and the ranks of their
    first and of their last ``j`` indices among the tuples of level ``j - 1``."""
    binomials = _colex_binomials(n, k)
    rows = np.arange(n)[:, None]
    for j in range(1, k + 1):
        # the tuples of level j - 1 whose last index is at most t are its
        # first C(t + j, j), and precede those with a larger last index
        counts = [math.comb(t + j, j) for t in range(n)]
        lower = np.concatenate([np.arange(c) for c in counts])
        rows = np.column_stack((rows[lower], np.repeat(np.arange(n), counts)))
        yield rows, lower, _colex_rank(rows[:, 1:].T, binomials)


def _insert(head, ascending):
    """Sort ``head`` into the elementwise ascending arrays ``ascending`` by one
    pass of min/max comparators; the arrays broadcast together."""
    out = []
    for a in ascending:
        out.append(np.minimum(head, a))
        head = np.maximum(head, a)
    return out + [head]


def _sorted_ranks(axes, n):
    """The colex rank of each entry's sorted index tuple on the product grid
    of the index arrays ``axes``, over ``n`` indices: the axes are sorted by
    inserting one into the others sorted, with no index array of the grid."""
    k = len(axes) - 1
    ascending = []
    for m in reversed(range(k + 1)):
        ascending = _insert(axes[m].reshape((1,) * m + (-1,) + (1,) * (k - m)), ascending)
    return _colex_rank(ascending, _colex_binomials(n, k))


def _plan(n, k):
    """:func:`_multiset_levels` and the rank map of the order-``k`` grid over
    ``n`` indices, by :func:`_sorted_ranks`."""
    axis = np.arange(n, dtype=np.min_scalar_type(n))
    return tuple(_multiset_levels(n, k)), _sorted_ranks([axis] * (k + 1), n)


@functools.lru_cache(maxsize=32)
def _small_plan(n, k):
    """:func:`_plan`, kept read-only for grids of at most ``PLAN_CACHE_ENTRIES``
    entries."""
    levels, ranks = _plan(n, k)
    for a in (ranks, *(a for level in levels for a in level)):
        a.flags.writeable = False
    return levels, ranks


def divided_difference(f, nodes) -> complex:
    """``f^[k]`` at one node tuple, by the table of :func:`divided_difference_batch`."""
    return complex(divided_difference_batch(f, [list(nodes)])[0])


# ---------------------------------------------------------------------------
# computable upper bounds
# ---------------------------------------------------------------------------

def divided_difference_sup_bound(f, order: int, radius: float) -> float:
    """Estimate of ``sup |f^(k)| / k!`` on ``[-radius, radius]``, over 4001 grid points.

    Dominates ``|f^[k]|`` on the cube ``[-radius, radius]^(k+1)`` up to the
    grid resolution error.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    dk = _derivative_or_none(f, order) if order else f
    if dk is None:
        raise InsufficientDerivatives(f"the function does not supply {order} derivatives")
    grid = np.linspace(-radius, radius, 4001)
    vals = np.abs(_evaluate(dk, grid))
    return float(vals.max() / math.factorial(order))


def wiener_iptp_bound(f: WienerAtomic, order: int) -> float:
    """Certified bound ``moment(order) / order!``.

    Upper-bounds the separated-decomposition cost of ``f^[order]`` on any
    cube, hence also its sup norm.  This is a bound, not the (uncomputable)
    infimum over all decompositions.
    """
    return f.moment(order) / math.factorial(order)


# ---------------------------------------------------------------------------
# truncated Taylor approximants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorTruncation:
    """Truncated Taylor approximant of an atomic Fourier sum with a certified tail.

    ``tail_bound(r)`` dominates ``sup_{|x|<=r} |f - polynomial|``.
    """

    polynomial: Polynomial
    degree: int
    total_mass: float
    max_frequency: float

    def tail_bound(self, radius: float) -> float:
        """``total_mass * sum_{m > n} x^m / m! = total_mass e^x P(n + 1, x)``, ``P``
        the regularized lower incomplete gamma function, at ``x = radius *
        max_frequency`` and the degree ``n``; 30 digits whatever ``mp.dps`` is."""
        x = radius * self.max_frequency
        with mp.workdps(30):
            tail = mp.exp(x) * mp.gammainc(self.degree + 1, 0, x, regularized=True)
        return self.total_mass * float(tail)


def wiener_taylor_truncate(f: WienerAtomic, degree: int) -> TaylorTruncation:
    """Degree-n Taylor approximant ``sum_m (i x)^m / m! * sum_j c_j xi_j^m``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = []
    for m in range(degree + 1):
        moment_m = sum(c * xi ** m for xi, c in f.atoms)
        coeffs.append((1j ** m) * moment_m / math.factorial(m))
    return TaylorTruncation(
        polynomial=Polynomial(coeffs),
        degree=degree,
        total_mass=f.moment(0),
        max_frequency=f.max_frequency,
    )


# ---------------------------------------------------------------------------
# builtins and the JSON function-spec format
# ---------------------------------------------------------------------------

# each analytic builtin's derivatives f, f', f'', ..., a cycle, and the name
# of its scipy.linalg matrix form
_ANALYTIC = {
    "exp": ((np.exp,), "expm"),
    "sin": ((np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)), "sinm"),
    "cos": ((np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin), "cosm"),
}


def builtin_function(name: str, params: dict | None = None) -> CallableFunction:
    """Named analytic function with derivative evaluators attached.

    Supported names: ``exp``, ``sin``, ``cos``, ``abs_pow`` (``|x|^s``, with
    ``params={"exponent": s}`` and derivatives of order up to ``s``; at 0 those
    below ``s`` are 0, order ``s`` is ``s!`` where even and 0, the midpoint of
    its jump, where odd, and ``f`` is infinite for ``s < 0``).  Each also takes
    ``max_order``, the number of derivatives (a nonnegative int, 12 by
    default); a missing, unknown or malformed parameter, an exponent that is
    not finite among them, is a ValueError.
    """
    params = dict(params or {})
    max_order = params.pop("max_order", 12)
    if type(max_order) is not int or max_order < 0:
        raise ValueError(f"max_order must be a nonnegative int, got {max_order!r}")
    takes = {**dict.fromkeys(_ANALYTIC, set()), "abs_pow": {"exponent"}}
    if name not in takes:
        raise ValueError(f"unknown builtin function {name!r}")
    mismatch = sorted(takes[name] ^ set(params))
    if mismatch:
        verb = "does not take" if mismatch[0] in params else "requires"
        raise ValueError(f"builtin {name!r} {verb} the parameter {mismatch[0]!r}")
    if name in _ANALYTIC:
        cycle = _ANALYTIC[name][0]
        return _RealBuiltin(cycle[0],
                            [cycle[(j + 1) % len(cycle)] for j in range(max_order)],
                            mp_evaluator=getattr(mp, name), name=name)
    s = float(params["exponent"])
    if not math.isfinite(s):
        raise ValueError(f"abs_pow exponent must be finite, got {s!r}")

    def make(order):
        factor = math.prod(s - j for j in range(order))

        def deriv(x, order=order, factor=factor):
            x = np.asarray(x, dtype=float)
            out = factor * (np.abs(x) ** (s - order) * (np.sign(x) if order % 2 else 1.0))
            return out if x.ndim else float(out)

        return deriv

    order_cap = min(max_order, max(int(math.floor(s)), 0))
    return _RealBuiltin(make(0), [make(j) for j in range(1, order_cap + 1)],
                        mp_evaluator=lambda x: abs(x) ** mp.mpf(s),
                        name=f"abs_pow[{s}]")


def function_from_spec(spec: dict):
    """Build a function object from its JSON description.

    ``{"kind": "polynomial", "coeffs": [[re, im], ...]}``,
    ``{"kind": "wiener", "atoms": [[xi, re, im], ...]}``, or
    ``{"kind": "builtin", "name": ..., "params": {...}}``; else ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a function spec is a JSON object, got {spec!r}")
    kind = spec.get("kind")
    try:
        if kind == "polynomial":
            return Polynomial([complex(re, im) for re, im in spec["coeffs"]])
        if kind == "wiener":
            return WienerAtomic([(xi, complex(re, im)) for xi, re, im in spec["atoms"]])
        if kind == "builtin":
            return builtin_function(spec["name"], spec.get("params"))
    except TypeError as exc:
        raise ValueError(f"malformed {kind} spec: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{kind} spec lacks the key {exc}") from exc
    raise ValueError(f"unknown function kind {kind!r}")


def load_function(path):
    with open(path) as fh:
        return function_from_spec(json.load(fh))
