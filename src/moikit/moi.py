"""Finite-dimensional multiple operator integrals.

An order-k multiple operator integral weights the spectral-projection
sandwich ``P b_1 P b_2 ... b_k P`` by a symbol evaluated on tuples of
eigenvalues, one from each of k+1 Hermitian matrices.  At matrix scale this
is the finite Daleckii-Krein sum, evaluated here by one engine: the symbol
is tabulated once as a tensor over the cluster eigenvalues, expanded to
the eigenvectors by cluster index where a cluster merged, and contracted
against the directions rotated into the eigenbases (``V_{j-1}* b_j V_j``).
The contraction runs on a fixed path and involves no randomness, so outputs
are bit-stable run to run.  The separated, monomial and oscillatory-sum
evaluations are kept as independent oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DimensionMismatch
from .report import VerificationReport, equality_check, inequality_check
from .scalar_functions import (
    Polynomial,
    SimplexQuadratureRule,
    WienerAtomic,
    default_rule,
    divided_difference,
    divided_difference_grid,
    wiener_iptp_bound,
)
from .spectral import SpectralDecomposition, functional_calculus, hermitian_eigendecompose

__all__ = [
    "MoiSymbol",
    "MoiOperands",
    "moi_evaluate",
    "moi_contract",
    "moi_separated",
    "moi_polynomial",
    "moi_wiener",
    "moi_perturbation",
    "moi_opnorm_bound_check",
    "compositions",
]


def compositions(total: int, parts: int):
    """Nonnegative integer tuples of the given length summing to ``total``.

    Lexicographically ascending; empty when ``total`` is negative.
    """
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


class MoiSymbol:
    """Symbol of a multiple operator integral.

    ``evaluator`` maps a tuple of k+1 eigenvalues to a complex weight.
    ``iptp_bound``, when known, is a certified upper bound on the symbol's
    separated-decomposition cost, used by the Schatten-norm checks.
    ``grid_evaluator``, when present, maps k+1 eigenvalue lists to the
    symbol on their product grid at once and agrees with ``evaluator``
    entry by entry.
    """

    def __init__(self, arity: int, evaluator, iptp_bound: float | None = None,
                 grid_evaluator=None):
        if arity < 2:
            raise ArityMismatch("symbol arity must be at least 2 (order k >= 1)")
        self.arity = int(arity)
        self.evaluator = evaluator
        self.grid_evaluator = grid_evaluator
        self.iptp_bound = None if iptp_bound is None else float(iptp_bound)

    def __call__(self, nodes) -> complex:
        return complex(self.evaluator(tuple(nodes)))

    def tensor(self, eigenvalue_lists) -> np.ndarray:
        """Symbol values on the product grid, ``T[i_0..i_k] = symbol(lam_0[i_0], ..)``.

        Uses the grid evaluator when the symbol has one, else calls the
        evaluator once per eigenvalue tuple.
        """
        lists = [np.asarray(lam, dtype=float) for lam in eigenvalue_lists]
        if len(lists) != self.arity:
            raise ArityMismatch(f"{len(lists)} eigenvalue lists for arity {self.arity}")
        shape = tuple(lam.size for lam in lists)
        if self.grid_evaluator is not None:
            values = self.grid_evaluator(lists)
        else:
            values = [complex(self.evaluator(lam)) for lam in itertools.product(*lists)]
        return np.asarray(values, dtype=complex).reshape(shape)

    @classmethod
    def constant(cls, value, arity: int) -> "MoiSymbol":
        value = complex(value)
        return cls(arity, lambda lam: value, iptp_bound=abs(value),
                   grid_evaluator=lambda lists: np.full([lam.size for lam in lists], value))

    @classmethod
    def from_function(cls, f, order: int, radius: float | None = None) -> "MoiSymbol":
        """Divided-difference symbol of a scalar function.

        Its tensor is built level by level on the eigenvalue grid by
        :func:`divided_difference_grid`.  For atomic Fourier sums the
        certified bound ``moment(k)/k!`` is attached; for polynomials the
        coefficient bound on the cube of the given radius is attached when a
        radius is supplied.
        """
        bound = None
        if isinstance(f, WienerAtomic):
            bound = wiener_iptp_bound(f, order)
        elif isinstance(f, Polynomial) and radius is not None:
            bound = sum(
                abs(c) * math.comb(n, order) * radius ** (n - order)
                for n, c in enumerate(f.coeffs) if n >= order)

        return cls(order + 1, lambda lam: divided_difference(f, lam), iptp_bound=bound,
                   grid_evaluator=lambda lists: divided_difference_grid(f, lists))

    def __repr__(self):
        return f"MoiSymbol(arity={self.arity})"


@dataclass(frozen=True)
class MoiOperands:
    """k+1 spectral decompositions interleaved with k middle matrices."""

    decomps: tuple[SpectralDecomposition, ...]
    middles: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.middles) < 1:
            raise DimensionMismatch("at least one middle matrix required (k >= 1)")
        if len(self.decomps) != len(self.middles) + 1:
            raise DimensionMismatch(
                f"{len(self.decomps)} decompositions for {len(self.middles)} middles")
        n = self.decomps[0].dimension
        for d in self.decomps:
            if d.dimension != n:
                raise DimensionMismatch("decompositions have mixed dimensions")
        for b in self.middles:
            if b.shape != (n, n):
                raise DimensionMismatch("middle matrices must match the common dimension")

    @property
    def order(self) -> int:
        return len(self.middles)

    @property
    def dimension(self) -> int:
        return self.decomps[0].dimension

    @classmethod
    def from_matrices(cls, bases, middles, cluster_tol=None) -> "MoiOperands":
        decomps = tuple(hermitian_eigendecompose(a, cluster_tol) for a in bases)
        mids = tuple(np.asarray(b, dtype=complex) for b in middles)
        return cls(decomps, mids)

    def with_middles(self, middles) -> "MoiOperands":
        return MoiOperands(self.decomps, tuple(np.asarray(b, dtype=complex)
                                               for b in middles))


def moi_contract(tensor: np.ndarray, operands: MoiOperands) -> np.ndarray:
    """Contract a symbol tensor against the operands in their eigenbases.

    ``tensor[i_0..i_k]`` is the symbol at the cluster eigenvalues of the
    k+1 decompositions.  With ``A_j = V_j diag(lam_j) V_j*``, the integral is
    ``V_0 X V_k*`` where ``X[a_0, a_k]`` sums ``T[a_0..a_k] * prod_j
    (V_{j-1}* b_j V_j)[a_{j-1}, a_j]`` over the inner indices, ``T`` being
    the tensor expanded from clusters to eigenvectors; that expansion is the
    identity, and is skipped, when no slot has a merged cluster.  The chain
    is contracted from the left on a fixed path: ``b_1`` and ``b_2`` in one
    pass through their ``n^3`` product, then one direction at a time, so no
    second array of the tensor's size is built.
    """
    k = operands.order
    tensor = np.asarray(tensor, dtype=complex)
    expected = tuple(len(d.eigenvalues) for d in operands.decomps)
    if tensor.shape != expected:
        raise DimensionMismatch(f"tensor shape {tensor.shape} != cluster counts {expected}")
    vectors = [d.vectors for d in operands.decomps]
    if any(m < operands.dimension for m in expected):
        tensor = tensor[np.ix_(*(d.labels for d in operands.decomps))]
    rotated = [vectors[j].conj().T @ b @ vectors[j + 1]
               for j, b in enumerate(operands.middles)]
    if k == 1:
        return vectors[0] @ (tensor * rotated[0]) @ vectors[1].conj().T
    # axes (a_0, a_j, .., a_k): fold in b_1 and b_2 at once, through their
    # n^3 product, then sum a_j out against b_{j+1}
    core = np.einsum("abc...,abc->ac...", tensor, rotated[0][:, :, None] * rotated[1])
    for b in rotated[2:]:
        core = np.einsum("abc...,bc->ac...", core, b)
    return vectors[0] @ core @ vectors[k].conj().T


def moi_evaluate(symbol: MoiSymbol, operands: MoiOperands,
                 tensor: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a multiple operator integral in the eigenbases of its slots.

    Tabulates the symbol once on the cluster eigenvalues
    (:meth:`MoiSymbol.tensor`) and contracts it with :func:`moi_contract`.
    Calls that share the decompositions may pass the same precomputed
    ``tensor`` to skip the tabulation.
    """
    k = operands.order
    if symbol.arity != k + 1:
        raise ArityMismatch(f"symbol arity {symbol.arity} != k+1 = {k + 1}")
    if tensor is None:
        tensor = symbol.tensor([d.eigenvalues for d in operands.decomps])
    return moi_contract(tensor, operands)


def moi_separated(factors, weights, operands: MoiOperands) -> np.ndarray:
    """Separated evaluation: one functional-calculus factor per slot, per term.

    ``factors[t]`` is a sequence of k+1 per-slot scalar functions and
    ``weights[t]`` the term's weight; the result is the weighted sum of
    ``f_0(A_0) b_1 f_1(A_1) ... b_k f_k(A_k)``.
    """
    k = operands.order
    out = np.zeros((operands.dimension, operands.dimension), dtype=complex)
    for term, weight in zip(factors, weights):
        term = tuple(term)
        if len(term) != k + 1:
            raise ArityMismatch(f"separated term has {len(term)} factors, expected {k + 1}")
        acc = functional_calculus(term[0], operands.decomps[0])
        for j in range(k):
            acc = acc @ operands.middles[j]
            acc = acc @ functional_calculus(term[j + 1], operands.decomps[j + 1])
        out += complex(weight) * acc
    return out


def moi_polynomial(power: int, operands: MoiOperands) -> np.ndarray:
    """Monomial-symbol integral in closed form.

    For the power-map symbol of order k this is the sum over exponent
    splittings ``|gamma| = power - k`` of ``a_0^g0 b_1 a_1^g1 ... b_k a_k^gk``;
    the zero matrix when ``power < k``.  Matrix powers are cached per slot.
    """
    k = operands.order
    n = operands.dimension
    out = np.zeros((n, n), dtype=complex)
    if power < k:
        return out
    sources = [d.source for d in operands.decomps]
    powers = []
    for a in sources:
        cache = [np.eye(n, dtype=complex)]
        for _ in range(power - k):
            cache.append(cache[-1] @ a)
        powers.append(cache)
    for gamma in compositions(power - k, k + 1):
        term = powers[0][gamma[0]]
        for j in range(k):
            term = term @ operands.middles[j]
            term = term @ powers[j + 1][gamma[j + 1]]
        out += term
    return out


def moi_wiener(f: WienerAtomic, operands: MoiOperands,
               rule: SimplexQuadratureRule | None = None) -> np.ndarray:
    """Oscillatory-sum symbol evaluated through the Fourier-side formula.

    For each atom and simplex quadrature node, multiplies unitary factors
    ``exp(i t_j xi A_j)`` across the slots with the middles in between; the
    atom weight carries ``(i xi)^k``.  Agrees with the direct spectral sum
    of the divided-difference symbol up to quadrature accuracy.
    """
    k = operands.order
    n = operands.dimension
    if rule is None:
        rule = default_rule(k)
    if rule.dimension != k:
        raise ValueError(f"rule dimension {rule.dimension} != order {k}")
    out = np.zeros((n, n), dtype=complex)
    if not f.atoms:
        return out
    Q = rule.weights.size
    for xi, c in f.atoms:
        # factors[q] = exp(i t_{q,j} xi A_j) = V_j diag(phases[q, labels_j]) V_j*
        prod = None
        for j, decomp in enumerate(operands.decomps):
            V = decomp.vectors
            phases = np.exp(1j * xi * np.outer(rule.nodes[:, j], decomp.eigenvalues))  # (Q, m)
            factors = (V * phases[:, None, decomp.labels]) @ V.conj().T             # (Q, n, n)
            if prod is None:
                prod = factors
            else:
                prod = prod @ factors
            if j < k:
                prod = prod @ operands.middles[j]
        weighted = np.tensordot(rule.weights, prod, axes=(0, 0))
        out += c * (1j * xi) ** k * weighted
    return out


def moi_perturbation(f, A: np.ndarray, B: np.ndarray,
                     tolerance_factor: float = 1e-8) -> VerificationReport:
    """Check the first-order perturbation identity on a Hermitian pair.

    Compares ``f(A) - f(B)`` against the order-1 integral of the first
    divided difference applied to ``A - B``; passes when the Frobenius
    residual is at most ``tolerance_factor * (1 + ||f(A)||_F)``.
    """
    DA = hermitian_eigendecompose(A)
    DB = hermitian_eigendecompose(B)
    fA = functional_calculus(f, DA)
    fB = functional_calculus(f, DB)
    symbol = MoiSymbol.from_function(f, 1)
    rhs = moi_evaluate(symbol, MoiOperands((DA, DB), (DA.source - DB.source,)))
    lhs = fA - fB
    residual = float(np.linalg.norm(lhs - rhs))
    report = VerificationReport("perturbation-formula")
    report.add(equality_check(
        "first-order perturbation",
        "f(A) - f(B) equals the first-divided-difference integral of A - B",
        residual=residual,
        tolerance=tolerance_factor * (1.0 + float(np.linalg.norm(fA))),
        lhs=float(np.linalg.norm(lhs)), rhs=float(np.linalg.norm(rhs))))
    return report


def moi_opnorm_bound_check(symbol: MoiSymbol, operands: MoiOperands,
                           probes: int = 20, seed: int = 0) -> VerificationReport:
    """Probe the integral's operator norm against the dimension-power bound.

    Maximizes the operator norm ``||integral[B]||`` over random direction
    tuples, each direction scaled to unit operator norm (a lower estimate
    of the true multilinear norm), and requires it to stay below
    ``n^k * max |symbol|`` over the spectral grid, which the spectral sum
    can never exceed.  The symbol is tabulated once and every probe is
    contracted against that tensor.
    """
    if probes < 1:
        raise ValueError("at least one probe required")
    k = operands.order
    n = operands.dimension
    tensor = symbol.tensor([d.eigenvalues for d in operands.decomps])
    bound = n ** k * float(np.abs(tensor).max())

    rng = np.random.Generator(np.random.Philox(key=seed))
    estimate = 0.0
    for _ in range(probes):
        dirs = []
        for _ in range(k):
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            dirs.append(G / np.linalg.norm(G, 2))
        val = moi_evaluate(symbol, operands.with_middles(dirs), tensor=tensor)
        estimate = max(estimate, float(np.linalg.norm(val, 2)))

    report = VerificationReport("spectral-sum-norm-bound")
    report.add(inequality_check(
        "probe estimate vs dimension-power bound",
        "max ||integral[B]|| over unit directions <= n^k * max |symbol| on the grid",
        lhs=estimate, rhs=bound, slack=1e-9 * (1.0 + bound)))
    return report
