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
:func:`divided_difference_grid` builds the same quantity level by level on
a product grid of node lists, the symbol tensor of an operator integral;
on a level whose slots share one list it reads each narrow entry at its
index tuple sorted by node value, as ``f^[j]`` is symmetric, so only a
sorted tuple narrower than the confluent span takes the series patch.
:func:`divided_difference` is the one-tuple case.

The other evaluations stay as independent oracles:

* the exact closed form for polynomials (complete homogeneous symmetric sums),
* the scalar difference-quotient recursion, with a confluent fallback that
  calls derivatives at repeated nodes,
* quadrature of the k-th derivative over the standard simplex,
* the Fourier-side formula for finite atomic oscillatory sums, and
* the recursion in 50-digit mpmath arithmetic.

The module also exposes the computable upper bounds attached to these
representations: the ``sup |f^(k)| / k!`` bound and the moment-based bound
for atomic Fourier sums.

Function objects are immutable once constructed and every operation here
is a pure function, so concurrent use needs no synchronization; reductions
run left-to-right over sorted inputs for bit-stable results, and the
simplex-rule sums take ``einsum`` rather than BLAS, whose threads would
split them by thread count.
"""

from __future__ import annotations

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
    "NodeTuple",
    "SimplexQuadratureRule",
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

class Polynomial:
    """Complex polynomial stored by ascending coefficients.

    Trailing zero coefficients are trimmed on construction so the leading
    coefficient is nonzero unless the polynomial is identically zero.
    """

    def __init__(self, coeffs):
        coeffs = [complex(c) for c in coeffs]
        if not coeffs:
            coeffs = [0j]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    def derivative(self, order: int = 1) -> "Polynomial":
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
    are dropped.
    """

    def __init__(self, atoms):
        merged: dict[float, complex] = {}
        for xi, c in atoms:
            xi = float(xi)
            merged[xi] = merged.get(xi, 0j) + complex(c)
        self.atoms = tuple(sorted((xi, c) for xi, c in merged.items() if c != 0))

    @property
    def max_frequency(self) -> float:
        return max((abs(xi) for xi, _ in self.atoms), default=0.0)

    def __call__(self, x):
        x = np.asarray(x)
        if not self.atoms:
            return np.zeros(x.shape, dtype=complex) if x.ndim else 0j
        out = sum(c * np.exp(1j * xi * x) for xi, c in self.atoms)
        return out if x.ndim else complex(out)

    def derivative(self, order: int = 1) -> "WienerAtomic":
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
    """

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
        if self.mp_evaluator is not None:
            return self.mp_evaluator(x)
        # lossy fallback: evaluate in double precision
        return mp.mpc(complex(self.evaluator(float(x))))

    def __repr__(self):
        tag = self.name or "<callable>"
        return f"CallableFunction({tag}, max_order={self.max_order})"


def _derivative_or_none(f, order):
    """``f.derivative(order)``, or None for a plain callable or too few derivatives."""
    derivative = getattr(f, "derivative", None)
    if derivative is None:
        return None
    try:
        return derivative(order)
    except InsufficientDerivatives:
        return None


class NodeTuple:
    """Ordered tuple of real evaluation nodes; order ``k = len - 1``."""

    def __init__(self, nodes):
        nodes = tuple(float(x) for x in nodes)
        if not nodes:
            raise ValueError("at least one node required")
        self.nodes = nodes

    @property
    def order(self) -> int:
        return len(self.nodes) - 1

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self):
        return len(self.nodes)

    def __getitem__(self, idx):
        return self.nodes[idx]

    def __repr__(self):
        return f"NodeTuple({list(self.nodes)!r})"


def _as_nodes(nodes) -> NodeTuple:
    return nodes if isinstance(nodes, NodeTuple) else NodeTuple(nodes)


class SimplexQuadratureRule:
    """Positive quadrature rule on the standard k-simplex.

    Nodes live on ``{t in R^(k+1): t_j >= 0, sum t_j = 1}`` and the weights
    integrate against the simplex measure of total mass ``1/k!``.
    """

    def __init__(self, dimension: int, nodes, weights):
        self.dimension = int(dimension)
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        k = self.dimension
        if self.nodes.shape != (self.weights.size, k + 1):
            raise ValueError("nodes must be (Q, k+1) with one weight per node")
        total = self.weights.sum()
        expected = 1.0 / math.factorial(k)
        if abs(total - expected) > 1e-12 * expected:
            raise ValueError(f"weights sum to {total}, expected 1/{k}! = {expected}")
        if np.any(self.nodes < -1e-12):
            raise ValueError("simplex nodes must have nonnegative coordinates")
        if np.max(np.abs(self.nodes.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("simplex node coordinates must sum to 1")

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def gauss_legendre(cls, dimension: int, points_per_axis: int = 16):
        """Tensor Gauss-Legendre rule mapped from the unit cube to the simplex.

        The cube coordinates ``u`` map to simplex coordinates by peeling off
        the remaining mass one axis at a time, ``s_j = u_j * prod_{i<j}(1-u_i)``;
        the Jacobian ``prod_j (1-u_j)^(k-j)`` folds into the weights, so the
        rule integrates exactly against the simplex measure.
        """
        k = int(dimension)
        if k == 0:
            return cls(0, [[1.0]], [1.0])
        x, w = np.polynomial.legendre.leggauss(points_per_axis)
        u = 0.5 * (x + 1.0)       # [0, 1]
        w = 0.5 * w
        grids = np.meshgrid(*([u] * k), indexing="ij")
        wgrids = np.meshgrid(*([w] * k), indexing="ij")
        weight = np.ones_like(grids[0])
        for j in range(k):
            weight = weight * wgrids[j] * (1.0 - grids[j]) ** (k - 1 - j)
        s = []
        remaining = np.ones_like(grids[0])
        for j in range(k):
            s.append(remaining * grids[j])
            remaining = remaining * (1.0 - grids[j])
        coords = [c.ravel() for c in s] + [remaining.ravel()]
        nodes = np.stack(coords, axis=1)
        return cls(k, nodes, weight.ravel())

    def __repr__(self):
        return f"SimplexQuadratureRule(k={self.dimension}, points={self.weights.size})"


_DEFAULT_RULES: dict[int, SimplexQuadratureRule] = {}


def default_rule(dimension: int, points_per_axis: int = 16) -> SimplexQuadratureRule:
    """Cached Gauss-Legendre simplex rule for a given order."""
    key = (dimension, points_per_axis)
    rule = _DEFAULT_RULES.get(key)
    if rule is None:
        rule = SimplexQuadratureRule.gauss_legendre(dimension, points_per_axis)
        _DEFAULT_RULES[key] = rule
    return rule


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

# nodes within COINCIDENCE_TOL_FACTOR * (1 + max|x|) are confluent for the recursion
COINCIDENCE_TOL_FACTOR = 1e-8


def _homogeneous_sums(nodes, max_degree):
    """Complete homogeneous symmetric sums h_0..h_max over the given nodes.

    Built by the two-term recurrence in (number of variables) x (degree);
    enumeration of the multi-indices would be binomially large.  ``nodes``
    is one tuple, or an ``(k+1, N)`` array whose columns are N tuples, in
    which case each ``h[m]`` has length N.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = np.zeros((max_degree + 1,) + nodes.shape[1:])
    h[0] = 1.0
    for x in nodes:
        for m in range(1, max_degree + 1):
            h[m] = h[m] + x * h[m - 1]
    return h


def poly_divided_difference(p: Polynomial, nodes) -> complex:
    """Exact closed-form divided difference of a polynomial.

    Works at coincident nodes; returns 0 whenever the order exceeds the
    degree (empty sum).
    """
    nodes = _as_nodes(nodes)
    k = nodes.order
    if k > p.degree:
        return 0j
    h = _homogeneous_sums(nodes.nodes, p.degree - k)
    return complex(sum(p.coeffs[n] * h[n - k] for n in range(k, p.degree + 1)))


def divided_difference_recursive(f, nodes) -> complex:
    """Difference-quotient recursion with confluent fallback.

    Nodes are sorted, and a node within ``COINCIDENCE_TOL_FACTOR * (1 +
    max|x|)`` of its predecessor joins its group; each group is snapped to
    its mean and the diagonal entries of the recursion table use
    ``f^(j)(x)/j!``, which requires ``f`` to supply derivatives up to one
    less than the largest multiplicity.  Raises :class:`CoincidentNodes`
    when those derivatives are unavailable.
    """
    nodes = _as_nodes(nodes)
    k = nodes.order
    if k == 0:
        return complex(f(nodes[0]))
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

    m = k + 1
    table = [complex(f(x)) for x in snapped]
    for j in range(1, m):
        nxt = []
        for i in range(m - j):
            lo, hi = snapped[i], snapped[i + j]
            if hi == lo:
                nxt.append(complex(derivs[j](lo)) / math.factorial(j))
            else:
                nxt.append((table[i + 1] - table[i]) / (hi - lo))
        table = nxt
    return table[0]


def divided_difference_mp(f, nodes) -> complex:
    """Extended-precision reference: the recursion in 50-digit arithmetic.

    Evaluates ``f`` by its mpmath form (``f._eval_mp``) at the given double
    nodes; at an exact repeat the table takes the Taylor coefficient
    ``f^(j)(x)/j!`` from mpmath's numerical differentiation, so ``f`` must be
    smooth there.
    """
    with mp.workdps(50):
        z = sorted(mp.mpf(x) for x in _as_nodes(nodes))
        taylor = {x: mp.taylor(f._eval_mp, x, z.count(x) - 1)
                  for x in set(z) if z.count(x) > 1}
        table = [f._eval_mp(x) for x in z]
        for j in range(1, len(z)):
            table = [taylor[z[i]][j] if z[i + j] == z[i]
                     else (table[i + 1] - table[i]) / (z[i + j] - z[i])
                     for i in range(len(z) - j)]
        return complex(table[0])


def _vector_eval(func, points):
    try:
        vals = np.asarray(func(points), dtype=complex)
        if vals.shape == points.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([complex(func(float(x))) for x in points.ravel()]).reshape(points.shape)


def divided_difference_quadrature(f, nodes, rule: SimplexQuadratureRule | None = None) -> complex:
    """Simplex-quadrature evaluation ``sum_q w_q f^(k)(t_q . nodes)``.

    Requires ``k`` derivatives of ``f``; raises
    :class:`InsufficientDerivatives` otherwise.  Stable at (near-)coincident
    nodes, with accuracy set by the rule's degree of exactness.
    """
    nodes = _as_nodes(nodes)
    k = nodes.order
    if rule is None:
        rule = default_rule(k)
    if rule.dimension != k:
        raise ValueError(f"rule has dimension {rule.dimension}, nodes have order {k}")
    dk = f.derivative(k) if k else f
    points = np.einsum("qj,j->q", rule.nodes, np.asarray(nodes.nodes))
    vals = _vector_eval(dk, points)
    return complex(np.einsum("q,q->", rule.weights, vals))


def wiener_divided_difference(f: WienerAtomic, nodes,
                              rule: SimplexQuadratureRule | None = None) -> complex:
    """Fourier-side divided difference of a finite atomic oscillatory sum.

    Integrates ``(i xi)^k exp(i xi t . nodes)`` over the simplex for each
    atom; agrees with the recursion on the same function up to quadrature
    accuracy.
    """
    nodes = _as_nodes(nodes)
    k = nodes.order
    if rule is None:
        rule = default_rule(k)
    if rule.dimension != k:
        raise ValueError(f"rule has dimension {rule.dimension}, nodes have order {k}")
    if not f.atoms:
        return 0j
    dots = np.einsum("qj,j->q", rule.nodes, np.asarray(nodes.nodes))
    total = 0j
    for xi, c in f.atoms:
        osc = np.exp(1j * xi * dots)
        total += c * (1j * xi) ** k * np.einsum("q,q->", rule.weights, osc)
    return complex(total)


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
# row q: the monomial coefficients of T_q
_CHEBYSHEV_MONOMIALS = [np.polynomial.chebyshev.cheb2poly(row)
                        for row in np.eye(SERIES_DEGREE + 1)]


def confluent_span(order):
    """Relative span below which an order-``order`` table takes the series patch."""
    return 2.0 * (np.finfo(float).eps / QUOTIENT_ERROR) ** (1.0 / order)


def _series_rows(dj, nodes):
    """``f^[j]`` on the rows of a sorted ``(P, j+1)`` node array of positive
    spans from the interpolant of ``dj = f^(j)``, and whether it has converged."""
    j = nodes.shape[1] - 1
    c = 0.5 * (nodes[:, 0] + nodes[:, -1])
    r = 0.5 * (nodes[:, -1] - nodes[:, 0])
    values = _vector_eval(dj, c + r * _CHEBYSHEV[:, None])
    # elementwise sums, not matrix products, so that a row's value does not
    # depend on the other rows
    coeffs = [sum(w * v for w, v in zip(weights, values)) for weights in _CHEBYSHEV_FIT]
    h = _homogeneous_sums(((nodes - c[:, None]) / r[:, None]).T, SERIES_DEGREE)
    moments = [h[m] * (math.factorial(m) / math.factorial(j + m))
               for m in range(SERIES_DEGREE + 1)]
    # the simplex integral of T_q(t . u), through the monomials of T_q
    integrals = [sum(t * moment for t, moment in zip(monomials, moments) if t)
                 for monomials in _CHEBYSHEV_MONOMIALS]
    series = sum(a * integral for a, integral in reversed(list(zip(coeffs, integrals))))
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


def _confluent_step(dj, nodes, quotient, together) -> np.ndarray:
    """Level ``j`` of the table on sorted ``(P, j+1)`` node rows narrower than
    the confluent span, whose difference quotients are ``quotient``.

    A row takes the series of ``f^[j]`` from ``dj = f^(j)`` where it has
    converged or the row is ``together`` (spans at most ``COINCIDENCE_TOL_FACTOR
    (1 + max|x|)``), ``f^(j)/j!`` at an exact repeat, and keeps its quotient
    otherwise.  Where ``f`` does not supply ``f^(j)`` (``dj`` None) every row
    keeps its quotient, and :class:`CoincidentNodes` is raised if any row is
    together, as the recursion would.
    """
    j = nodes.shape[1] - 1
    if dj is None:
        if together.any():
            raise CoincidentNodes(
                f"{j + 1} nodes coincide within {COINCIDENCE_TOL_FACTOR:g} (1 + max|x|) "
                f"and the function does not supply {j} derivatives")
        return quotient
    out = quotient.copy()
    apart = nodes[:, -1] > nodes[:, 0]
    if apart.any():
        series, converged = _series_rows(dj, nodes[apart])
        out[apart] = np.where(converged | together[apart], series, quotient[apart])
    # at an exact repeat the series is its leading term
    repeat = ~apart
    out[repeat] = _vector_eval(dj, nodes[repeat, 0]) / math.factorial(j)
    return out


def _table_rows(f, rows, order, derivative) -> np.ndarray:
    """``f^[k]`` on the rows of a sorted ``(N, k+1)`` array by an order-``order``
    table, with ``derivative(m)`` memoizing ``f^(m)`` (None where missing).

    Each level's sub-tuples narrower than the confluent span take
    :func:`_confluent_step`.
    """
    k = rows.shape[1] - 1
    table = _vector_eval(f, rows)
    scale = 1.0 + np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, -1]))
    width = confluent_span(max(order, 1)) * scale
    for j in range(1, k + 1):
        span = rows[:, j:] - rows[:, :-j]
        together = span <= COINCIDENCE_TOL_FACTOR * scale[:, None]
        table = (table[:, 1:] - table[:, :-1]) / np.where(together, 1.0, span)
        r, i = np.nonzero(span < width[:, None])
        if r.size:
            table[r, i] = _confluent_step(
                derivative(j), rows[r[:, None], i[:, None] + np.arange(j + 1)],
                table[r, i], together[r, i])
    return table[:, 0]


def divided_difference_batch(f, nodes) -> np.ndarray:
    """``f^[k]`` on every row of an ``(N, k+1)`` node array.

    Every function takes one route: each row is sorted and divided by the
    span of each sub-tuple; a sub-tuple too narrow for the quotient takes the
    series of ``f`` about the midpoint of its hull, exact at repeats.
    A value depends only on the sorted row, so permuted rows agree bit for bit.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] < 1:
        raise ValueError(f"expected an (N, k+1) node array, got shape {nodes.shape}")
    derivative = functools.cache(functools.partial(_derivative_or_none, f))
    return _table_rows(f, np.sort(nodes, axis=1), nodes.shape[1] - 1, derivative)


# the grid patches its narrow entries in blocks of at most this many
GRID_BLOCK = 2 ** 18


def divided_difference_grid(f, node_lists) -> np.ndarray:
    """``f^[k]`` on the product grid, ``T[i_0..i_k] = f^[k](x_0[i_0], .., x_k[i_k])``.

    Built level by level over the slots ``a..b``, ``T[a..b] = (T[a..b-1][..,
    None] - T[a+1..b][None, ..]) / (x_a - x_b)``; slots with one list share
    their tables.  An entry whose first and last node lie within the confluent
    span is recomputed.  On a level whose slots all share one list, ``f^[j]``
    being symmetric, it is read at its index tuple sorted by node value: the
    quotient there divides by the whole span, and only a sorted tuple whose
    whole span is under the confluent span takes the level's series patch,
    so permuted entries agree bit for bit.  On a level over mixed lists it
    takes the table of :func:`divided_difference_batch` instead.
    """
    lists = [np.asarray(x, dtype=float) for x in node_lists]
    k = len(lists) - 1
    derivative = functools.cache(functools.partial(_derivative_or_none, f))
    tables, sorted_lists = {}, {}
    for j in range(k + 1):
        for a in range(k + 1 - j):
            key = tuple(map(id, lists[a:a + j + 1]))
            if key in tables:
                continue
            if j == 0:
                tables[key] = _vector_eval(f, lists[a])
                # the sorted list; the rank of each node, its value's first
                # position there; and for each rank one index holding it
                x = np.sort(lists[a])
                rank = np.searchsorted(x, lists[a])
                representative = np.empty(x.size, dtype=np.intp)
                representative[rank] = np.arange(x.size)
                sorted_lists[key[0]] = x, rank, representative
            else:
                tables[key] = _grid_level(
                    f, lists[a:a + j + 1], tables[key[:-1]], tables[key[1:]], k, derivative,
                    sorted_lists[key[0]] if len(set(key)) == 1 else None)
    return tables[key]


def _grid_level(f, slots, left, right, k, derivative, sorted_list):
    """One level of an order-k :func:`divided_difference_grid` over ``slots``;
    ``sorted_list`` is what divided_difference_grid records of their list
    when they all share one, else None."""
    first, last = slots[0], slots[-1]
    width = confluent_span(k)
    diff = first[:, None] - last[None, :]
    narrow = np.abs(diff) < width * (1.0 + np.maximum(np.abs(first)[:, None],
                                                      np.abs(last)[None, :]))
    edges = (first.size,) + (1,) * (len(slots) - 2) + (last.size,)
    out = left[..., None] - right[None, ...]
    out /= np.where(narrow, 1.0, diff).reshape(edges)
    index = np.nonzero(np.broadcast_to(narrow.reshape(edges), out.shape))
    for start in range(0, index[0].size, GRID_BLOCK):
        block = tuple(i[start:start + GRID_BLOCK] for i in index)
        if sorted_list is None:
            nodes = np.sort(np.stack([x[i] for x, i in zip(slots, block)], axis=1), axis=1)
            out[block] = _table_rows(f, nodes, k, derivative)
        else:
            x, rank, representative = sorted_list
            ranks = np.sort(rank[np.stack(block, axis=1)], axis=1)
            out[block] = _sorted_entries(x[ranks], representative[ranks],
                                         left, right, k, derivative)
    return out


def _sorted_entries(nodes, index, left, right, k, derivative):
    """Level ``j`` of an order-k grid over one list at the sorted ``(P, j+1)``
    node rows ``nodes``, whose index tuples into the list are ``index``,
    from the level below.

    The quotient is gathered from ``left`` and ``right``, never from the
    level being built, which earlier blocks have already overwritten.
    """
    lo, hi = nodes[:, 0], nodes[:, -1]
    scale = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
    together = hi - lo <= COINCIDENCE_TOL_FACTOR * scale
    # divided by lo - hi, as the dense level divides by first - last
    out = ((left[tuple(index[:, :-1].T)] - right[tuple(index[:, 1:].T)])
           / np.where(together, 1.0, lo - hi))
    narrow = hi - lo < confluent_span(k) * scale
    if narrow.any():
        out[narrow] = _confluent_step(derivative(index.shape[1] - 1), nodes[narrow],
                                      out[narrow], together[narrow])
    return out


def divided_difference(f, nodes) -> complex:
    """``f^[k]`` at one node tuple, by the table of :func:`divided_difference_batch`."""
    return complex(divided_difference_batch(f, [list(nodes)])[0])


# ---------------------------------------------------------------------------
# computable upper bounds
# ---------------------------------------------------------------------------

def divided_difference_sup_bound(f, order: int, radius: float,
                                 grid_points: int = 4001) -> float:
    """Grid estimate of ``sup |f^(k)| / k!`` on ``[-radius, radius]``.

    Dominates ``|f^[k]|`` on the cube ``[-radius, radius]^(k+1)`` up to the
    grid resolution error.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    dk = f.derivative(order) if order else f
    grid = np.linspace(-radius, radius, grid_points)
    vals = np.abs(_vector_eval(dk, grid))
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
        x = radius * self.max_frequency
        return self.total_mass * _exp_tail(x, self.degree)


def _exp_tail(x: float, n: int) -> float:
    """sum_{m > n} x^m / m! by forward summation (no cancellation)."""
    if x == 0:
        return 0.0
    term = x ** (n + 1) / math.factorial(n + 1)
    total = 0.0
    m = n + 1
    while term > 1e-40 * (total + term) or m < n + 4:
        total += term
        m += 1
        term *= x / m
        if m > n + 10_000:
            break
    return total


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

def _cyclic_trig(name, max_order):
    cycles = {
        "sin": [np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)],
        "cos": [np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin],
    }
    mp_cycles = {
        "sin": [mp.sin, mp.cos, lambda x: -mp.sin(x), lambda x: -mp.cos(x)],
        "cos": [mp.cos, lambda x: -mp.sin(x), lambda x: -mp.cos(x), mp.sin],
    }
    cyc = cycles[name]
    return CallableFunction(
        cyc[0],
        [cyc[(j + 1) % 4] for j in range(max_order)],
        mp_evaluator=mp_cycles[name][0],
        name=name,
    )


def builtin_function(name: str, params: dict | None = None) -> CallableFunction:
    """Named analytic function with derivative evaluators attached.

    Supported names: ``exp``, ``sin``, ``cos``, ``abs_pow`` (``|x|^s``, with
    ``params={"exponent": s}``; its derivatives are valid away from 0 and
    for orders below the exponent).
    """
    params = dict(params or {})
    max_order = int(params.pop("max_order", 12))
    if name == "exp":
        return CallableFunction(np.exp, [np.exp] * max_order,
                                mp_evaluator=mp.exp, name="exp")
    if name in ("sin", "cos"):
        return _cyclic_trig(name, max_order)
    if name == "abs_pow":
        s = float(params.pop("exponent"))

        def make(order):
            factor = 1.0
            for j in range(order):
                factor *= s - j

            def deriv(x, order=order, factor=factor):
                x = np.asarray(x, dtype=float)
                mag = np.where(x == 0, 0.0,
                               np.abs(x) ** (s - order) * np.sign(x) ** order)
                out = factor * mag
                return out if x.ndim else float(out)

            return deriv

        order_cap = min(max_order, max(int(math.floor(s)), 0))
        return CallableFunction(make(0), [make(j) for j in range(1, order_cap + 1)],
                                mp_evaluator=lambda x: abs(x) ** mp.mpf(s),
                                name=f"abs_pow[{s}]")
    raise ValueError(f"unknown builtin function {name!r}")


def function_from_spec(spec: dict):
    """Build a function object from its JSON description.

    ``{"kind": "polynomial", "coeffs": [[re, im], ...]}``,
    ``{"kind": "wiener", "atoms": [[xi, re, im], ...]}``, or
    ``{"kind": "builtin", "name": ..., "params": {...}}``.
    """
    kind = spec.get("kind")
    if kind == "polynomial":
        return Polynomial([complex(re, im) for re, im in spec["coeffs"]])
    if kind == "wiener":
        return WienerAtomic([(xi, complex(re, im)) for xi, re, im in spec["atoms"]])
    if kind == "builtin":
        return builtin_function(spec["name"], spec.get("params"))
    raise ValueError(f"unknown function kind {kind!r}")


def load_function(path):
    with open(path) as fh:
        return function_from_spec(json.load(fh))


def evaluate_safely(f, x) -> complex:
    """Evaluate a scalar function, mapping failures to EvaluationDomain."""
    try:
        val = complex(f(x))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise EvaluationDomain(f"function not evaluable at {x!r}: {exc}") from exc
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise EvaluationDomain(f"function not finite at {x!r}")
    return val
