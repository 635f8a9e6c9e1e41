"""Scalar functions and their divided differences.

A divided difference of order ``k`` assigns to ``k + 1`` real nodes the
symmetric quantity obtained by iterating difference quotients; on the
diagonal it reduces to ``f^(k)(x) / k!``.  Four evaluation strategies are
provided:

* exact closed form for polynomials (complete homogeneous symmetric sums),
* the difference-quotient recursion, with a confluent fallback that calls
  derivatives at repeated nodes,
* quadrature of the k-th derivative over the standard simplex, and
* the Fourier-side formula for finite atomic oscillatory sums.

:func:`divided_difference_batch` picks one of them per row of a node array
and evaluates each route array-wide; :func:`divided_difference` is its
one-tuple form.  The route functions stay callable on their own, as
independent references for one another.

The module also exposes the computable upper bounds attached to these
representations: the ``sup |f^(k)| / k!`` bound, moment-based bounds for
atomic Fourier sums, and the coefficient bound for multivariate
polynomials.

Function objects are immutable once constructed and every operation here
is a pure function, so concurrent use needs no synchronization; reductions
run left-to-right over sorted inputs for bit-stable results.
"""

from __future__ import annotations

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
    "divided_difference_product",
    "divided_difference_sup_bound",
    "wiener_moment",
    "wiener_iptp_bound",
    "poly_iptp_bound",
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
    def frequencies(self) -> np.ndarray:
        return np.array([xi for xi, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([c for _, c in self.atoms])

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
# divided difference strategies
# ---------------------------------------------------------------------------

# route thresholds: nodes within COINCIDENCE_TOL_FACTOR * (1 + max|x|) are
# confluent for the recursion, and atomic sums leave the recursion for
# quadrature once a gap falls below WIENER_QUADRATURE_GAP * (1 + max|x|)
COINCIDENCE_TOL_FACTOR = 1e-8
WIENER_QUADRATURE_GAP = 1e-2


def _homogeneous_sums(nodes, max_degree):
    """Complete homogeneous symmetric sums h_0..h_max over the given nodes.

    Built by the two-term recurrence in (number of variables) x (degree);
    enumeration of the multi-indices would be binomially large.  ``nodes``
    is one tuple, or an ``(k+1, N)`` array whose columns are N tuples, in
    which case each ``h[m]`` has length N.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = np.zeros((max_degree + 1,) + nodes.shape[1:], dtype=complex)
    h[0] = 1.0
    for x in nodes:
        for m in range(1, max_degree + 1):
            h[m] = h[m] + x * h[m - 1]
    return h


def _poly_closed_form(p: Polynomial, nodes, k: int):
    h = _homogeneous_sums(nodes, p.degree - k)
    return sum(p.coeffs[n] * h[n - k] for n in range(k, p.degree + 1))


def poly_divided_difference(p: Polynomial, nodes) -> complex:
    """Exact closed-form divided difference of a polynomial.

    Works at coincident nodes; returns 0 whenever the order exceeds the
    degree (empty sum).
    """
    nodes = _as_nodes(nodes)
    if nodes.order > p.degree:
        return 0j
    return complex(_poly_closed_form(p, nodes.nodes, nodes.order))


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
    points = rule.nodes @ np.asarray(nodes.nodes)
    vals = _vector_eval(dk, points)
    return complex(np.dot(rule.weights, vals))


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
    dots = rule.nodes @ np.asarray(nodes.nodes)   # (Q,)
    total = 0j
    for xi, c in f.atoms:
        osc = np.exp(1j * xi * dots)
        total += c * (1j * xi) ** k * np.dot(rule.weights, osc)
    return complex(total)


# quadrature sizing for atomic sums: points per axis by accumulated phase
# (max frequency times node span); per-axis counts above these lose accuracy
# slower than the rule grows, and high orders cap the count to bound memory
_PHASE_POINTS = ((20.0, 16), (40.0, 24), (64.0, 32), (math.inf, 48))
_MAX_POINTS_BY_ORDER = {4: 24}


def _wiener_points(f: WienerAtomic, order: int, span):
    """Points per axis of the atomic-sum rule for node spans ``span``."""
    limits = [limit for limit, _ in _PHASE_POINTS]
    points = np.array([points for _, points in _PHASE_POINTS])
    chosen = points[np.searchsorted(limits, f.max_frequency * np.asarray(span))]
    return np.minimum(chosen, _MAX_POINTS_BY_ORDER.get(order, 48))


# batched quadrature works in blocks of at most this many (row x point)
# entries, so peak memory stays that of a single large rule
QUADRATURE_BLOCK = 2 ** 15


def _quadrature_rows(dk, rows, rule: SimplexQuadratureRule) -> np.ndarray:
    """``sum_q w_q dk(t_q . row)`` for every row, block by block."""
    out = np.empty(len(rows), dtype=complex)
    step = max(1, QUADRATURE_BLOCK // rule.weights.size)
    for start in range(0, len(rows), step):
        points = rows[start:start + step] @ rule.nodes.T
        out[start:start + step] = _vector_eval(dk, points) @ rule.weights
    return out


def _wiener_quadrature_rows(f: WienerAtomic, rows) -> np.ndarray:
    """Frequency-sized simplex quadrature, one rule size at a time."""
    k = rows.shape[1] - 1
    dk = f.derivative(k)
    out = np.empty(len(rows), dtype=complex)
    points = _wiener_points(f, k, rows[:, -1] - rows[:, 0])
    for size in np.unique(points):
        group = points == size
        out[group] = _quadrature_rows(dk, rows[group], default_rule(k, int(size)))
    return out


def _recursion_rows(f, rows) -> np.ndarray:
    """Difference-quotient table on sorted rows; confluent rows go one by one."""
    tol = COINCIDENCE_TOL_FACTOR * (1.0 + np.abs(rows).max(axis=1))
    confluent = (np.diff(rows, axis=1) <= tol[:, None]).any(axis=1)
    out = np.empty(len(rows), dtype=complex)
    out[confluent] = [divided_difference_recursive(f, row) for row in rows[confluent]]
    distinct = rows[~confluent]
    table = _vector_eval(f, distinct)
    for j in range(1, rows.shape[1]):
        table = (table[:, 1:] - table[:, :-1]) / (distinct[:, j:] - distinct[:, :-j])
    out[~confluent] = table[:, 0]
    return out


def _batch_routes(f, rows) -> np.ndarray:
    k = rows.shape[1] - 1
    if isinstance(f, Polynomial):
        if k > f.degree:
            return np.zeros(len(rows), dtype=complex)
        return np.asarray(_poly_closed_form(f, rows.T, k), dtype=complex)
    if k == 0:
        return _vector_eval(f, rows[:, 0])
    if isinstance(f, WienerAtomic):
        scale = 1.0 + np.abs(rows).max(axis=1)
        near = np.diff(rows, axis=1).min(axis=1) < WIENER_QUADRATURE_GAP * scale
        out = np.empty(len(rows), dtype=complex)
        out[near] = _wiener_quadrature_rows(f, rows[near])
        out[~near] = _recursion_rows(f, rows[~near])
        return out
    if isinstance(f, CallableFunction) and f.max_order >= k:
        return _quadrature_rows(f.derivative(k), rows, default_rule(k))
    return _recursion_rows(f, rows)


def divided_difference_batch(f, nodes) -> np.ndarray:
    """``f^[k]`` on every row of an ``(N, k+1)`` node array.

    The route depends on the function's type and is evaluated array-wide.
    Polynomials use the exact closed form (homogeneous sums, stable at any
    node spacing).  Atomic Fourier sums use the difference-quotient table on
    well-separated rows and switch to frequency-sized simplex quadrature
    when any gap is below ``WIENER_QUADRATURE_GAP * (1 + max|x|)``: the
    table loses a digit per order of gap shrinkage while the quadrature
    error is gap-independent.  Functions with k declared derivatives use
    simplex quadrature of ``f^(k)``; any other function uses the table,
    whose confluent rows take the recursion with its derivative fallback.
    Divided differences are symmetric in their nodes, so each distinct
    sorted row is evaluated once and scattered back.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] < 1:
        raise ValueError(f"expected an (N, k+1) node array, got shape {nodes.shape}")
    # distinct sorted rows: lexicographic order, then a break at every change
    nodes = np.sort(nodes, axis=1)
    order = np.lexsort(nodes.T[::-1])
    ordered = nodes[order]
    starts = np.ones(len(nodes), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(nodes), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return _batch_routes(f, ordered[starts])[inverse]


def divided_difference(f, nodes) -> complex:
    """``f^[k]`` at one node tuple, by the route of :func:`divided_difference_batch`."""
    return complex(divided_difference_batch(f, [list(nodes)])[0])


def divided_difference_product(f, g, nodes) -> complex:
    """Leibniz-type product rule for divided differences.

    Splits the node tuple at every position: the order-k divided difference
    of ``f * g`` equals ``sum_j f^[j](x_1..x_{j+1}) g^[k-j](x_{j+1}..x_{k+1})``.
    """
    nodes = _as_nodes(nodes)
    k = nodes.order
    total = 0j
    for j in range(k + 1):
        left = NodeTuple(nodes.nodes[: j + 1])
        right = NodeTuple(nodes.nodes[j:])
        total += divided_difference(f, left) * divided_difference(g, right)
    return complex(total)


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


def wiener_moment(f: WienerAtomic, order: int) -> float:
    """k-th absolute moment ``sum_j |c_j| |xi_j|^k`` of the atom weights."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return f.moment(order)


def wiener_iptp_bound(f: WienerAtomic, order: int) -> float:
    """Certified bound ``moment(order) / order!``.

    Upper-bounds the separated-decomposition cost of ``f^[order]`` on any
    cube, hence also its sup norm.  This is a bound, not the (uncomputable)
    infimum over all decompositions.
    """
    return wiener_moment(f, order) / math.factorial(order)


def poly_iptp_bound(terms, radius: float) -> float:
    """Coefficient bound ``sum |c_alpha| r^|alpha|`` for a multivariate polynomial.

    ``terms`` is an iterable of ``(multi_index, coefficient)`` pairs where
    the multi-index is a tuple of nonnegative exponents.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    total = 0.0
    for alpha, c in terms:
        weight = sum(int(a) for a in alpha)
        total += abs(complex(c)) * radius ** weight
    return float(total)


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
