"""Hermitian eigendecomposition, its eigenvalue index groups, and functional calculus.

Decompositions come from LAPACK's Hermitian eigensolver
(``numpy.linalg.eigh``), whose eigenvectors are orthonormal to working
precision, which is what the downstream eigenbasis contractions need.  The
in-repo cyclic Jacobi iteration, ``jacobi_eigh``, is kept as an independent
oracle: the spectral verify suite checks the LAPACK eigenvalues against it,
and the finite-difference derivative oracle diagonalizes with it, so that
oracle shares no eigensolver with the operator integrals it checks.  It
diagonalizes a whole stack of matrices at once, in round-robin order: each
round rotates disjoint pairs in every matrix by elementwise row and column
updates, with no BLAS or LAPACK call.  Its cost per round is a fixed number
of numpy calls, so every caller passes a stack: the spectral suite one per
matrix size, the stencil every point of both its steps.

A decomposition stores the matrix, its ascending eigenvalues and the
unitary of eigenvectors, one eigenvalue per column, as LAPACK returns them:
every result is computed for the decomposed matrix itself, with no
eigenvalue moved.  Its one derived view, ``clusters``, groups the indices
of eigenvalues within ``CLUSTER_TOL_FACTOR (1 + ||A||_F)`` of their
neighbor; no computation reads it.  Validation never builds the
projections, as it reads the eigenvectors and their Gram matrix.  A scalar
function of the matrix is ``V diag(f(lam)) V*``.

Decompositions are frozen after construction and safe to share across
threads.  Every decomposition passes through one bounded cache of the
``DECOMPOSITION_CACHE_ENTRIES`` most recently used: a derivative, a
remainder form or a perturbation check that meets a base it has just
decomposed, as when one base serves several functions, reads it back
instead of solving again.  A cached decomposition's arrays are read-only.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure, NotHermitian
from .report import VerificationReport, equality_check, inequality_check
from .scalar_functions import _evaluate

__all__ = [
    "SpectralDecomposition",
    "hermitian_eigendecompose",
    "functional_calculus",
    "validate_decomposition",
    "require_hermitian",
    "matrix_from_dict",
    "matrix_to_dict",
    "load_matrix",
    "save_matrix",
]

JACOBI_SWEEP_BUDGET = 30
JACOBI_OFFDIAG_FACTOR = 1e-13
# consecutive eigenvalues at most this times 1 + ||A||_F apart share a group
CLUSTER_TOL_FACTOR = 1e-7
# decompositions kept by _decompose, keyed by the exact matrix, least recent first
DECOMPOSITION_CACHE_ENTRIES = 4
_decompositions: OrderedDict = OrderedDict()
_decompositions_lock = threading.Lock()


def require_hermitian(A: np.ndarray) -> np.ndarray:
    """Validate shape, finiteness, and Hermiticity; return a complex copy."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise NotHermitian(f"expected a square matrix, got shape {A.shape}")
    A = np.asarray(A, dtype=complex)
    magnitude = np.abs(A).max()
    # a non-finite real or imaginary part makes |a| inf or nan
    if not np.isfinite(magnitude):
        raise NotHermitian("matrix has non-finite entries")
    adjoint = A.conj().T
    tol = 1e-10 * (1.0 + magnitude)
    dev = np.max(np.abs(A - adjoint))
    if dev > tol:
        raise NotHermitian(f"max |A - A*| = {dev:.3e} exceeds tolerance {tol:.3e}")
    return 0.5 * (A + adjoint)


@functools.cache
def _round_robin(n: int):
    """The rounds of one Jacobi sweep over ``n`` indices: each a pair of index
    arrays ``(P, Q)``, ``P < Q``, of disjoint pairs.  The circle method on
    ``n`` rounded up to even fixes index 0 and turns the others one place per
    round, so the ``n - 1`` rounds meet every pair once; a pair with the
    padding index (odd ``n``) is dropped."""
    even = n + n % 2
    ring = list(range(1, even))
    rounds = []
    for _ in range(even - 1):
        seats = [0] + ring
        pairs = sorted((min(a, b), max(a, b))
                       for a, b in zip(seats[:even // 2], reversed(seats[even // 2:])))
        pairs = [pair for pair in pairs if pair[1] < n]
        rounds.append((np.array([p for p, _ in pairs], dtype=np.intp),
                       np.array([q for _, q in pairs], dtype=np.intp)))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _rotate(M, P, Q, c, w):
    """``M <- M J`` on a stack: columns ``p, q`` of each matrix become
    ``c M_p + conj(w) M_q`` and ``c M_q - w M_p``, with one ``(c, w)`` per
    matrix and pair."""
    c, w = c[:, None, :], w[:, None, :]
    mp, mq = M[..., P], M[..., Q]
    M[..., P] = c * mp + w.conj() * mq
    M[..., Q] = c * mq - w * mp


def _jacobi_round(H, V, P, Q, skip):
    """Rotate the disjoint pairs ``(P, Q)`` of every matrix of the stack
    ``H`` (and its eigenvector stack ``V``) to ``J* H J``; a pair with
    ``|H_pq| <= skip`` of its matrix is left as it is."""
    apq = H[:, P, Q]
    absb = np.abs(apq)
    turn = absb > skip
    absb = np.where(turn, absb, 1.0)
    tau = (H[:, P, P].real - H[:, Q, Q].real) / (2.0 * absb)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    w = np.where(turn, (t * c) * (apq / absb), 0.0)
    c = np.where(turn, c, 1.0)
    _rotate(H.swapaxes(1, 2), P, Q, c, w.conj())   # rows: J* H
    _rotate(H, P, Q, c, w)                          # columns: (J* H) J
    H.imag[:, P, P] = H.imag[:, Q, Q] = 0.0
    H[:, P, Q] = np.where(turn, 0.0, H[:, P, Q])
    H[:, Q, P] = np.where(turn, 0.0, H[:, Q, P])
    if V is not None:
        _rotate(V, P, Q, c, w)


def jacobi_eigh(A: np.ndarray, vectors: bool = True):
    """Cyclic Jacobi diagonalization of complex Hermitian matrices, one
    ``(n, n)`` or a stack ``(..., n, n)`` at once.

    Returns ascending eigenvalues ``(..., n)`` and the unitaries of
    eigenvectors ``(..., n, n)`` (``A = V diag(lam) V*``), or None in their
    place when ``vectors`` is false: the rotations of ``H`` do not read
    ``V``, so the eigenvalues are the same bit for bit.  Each rotation zeroes
    one off-diagonal pair.  A sweep visits every pair once in round-robin
    order (Brent and Luk, SIAM J. Sci. Stat. Comput. 1985): ``n - 1`` rounds
    (``n`` rounded up to even) of disjoint pairs, and a round rotates all of
    its pairs in every matrix of the stack by elementwise row and column
    updates, with no BLAS or LAPACK call.  Each matrix sweeps until its
    off-diagonal Frobenius mass falls below ``JACOBI_OFFDIAG_FACTOR *
    ||A||_F`` and then takes no further update; within a sweep a pair of at
    most that threshold over ``10 n^2`` is not rotated.  Raises
    :class:`ConvergenceFailure` when a matrix needs more than
    ``JACOBI_SWEEP_BUDGET`` sweeps.  The upper triangle picks the rotations
    (the matrix is read as Hermitian, as ``require_hermitian`` leaves it).
    A round costs a fixed number of numpy calls whatever the stack holds, so
    callers diagonalize a whole stack in one call.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    H = A.reshape(-1, n, n).copy()
    V = np.tile(np.eye(n, dtype=complex), (len(H), 1, 1)) if vectors else None
    thresh = JACOBI_OFFDIAG_FACTOR * np.sqrt(np.sum(np.abs(H) ** 2, axis=(1, 2)))
    skip = thresh / (10.0 * n * n)
    upper = np.triu_indices(n, 1)
    for sweep in range(JACOBI_SWEEP_BUDGET + 1):
        off = np.sqrt(2.0 * np.sum(np.abs(H[:, upper[0], upper[1]]) ** 2, axis=1))
        active = np.flatnonzero(off > thresh)
        if not active.size:
            break
        if sweep == JACOBI_SWEEP_BUDGET:
            raise ConvergenceFailure(
                f"Jacobi iteration did not converge in {JACOBI_SWEEP_BUDGET} sweeps")
        Hs, skips = H[active], skip[active, None]
        Vs = V[active] if vectors else None
        for P, Q in _round_robin(n):
            _jacobi_round(Hs, Vs, P, Q, skips)
        H[active] = Hs
        if vectors:
            V[active] = Vs
    lam = H.diagonal(axis1=1, axis2=2).real
    order = np.argsort(lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1).reshape(A.shape[:-1])
    if vectors:
        V = np.take_along_axis(V, order[:, None, :], axis=2).reshape(A.shape)
    return lam, V


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues of a Hermitian matrix and its eigenvectors.

    ``source`` is the decomposed matrix itself (kept so the decomposition
    can be re-validated and so polynomial routes can reuse matrix powers).
    ``eigenvalues`` holds the ``n`` eigenvalues in ascending order, ties
    included, and ``vectors`` the unitary of eigenvectors, column ``i``
    belonging to ``eigenvalues[i]``.  Each field is held as an array, and
    construction raises ``ValueError`` unless ``source`` and ``vectors`` have
    one shape and there is one eigenvalue per eigenvector.

    ``clusters`` groups the eigenvector indices, derived on first access:
    consecutive eigenvalues at most ``CLUSTER_TOL_FACTOR (1 + ||source||_F)``
    apart share a group, so a chain of small gaps forms one.  No computation
    reads the groups; ``len(clusters)`` counts them.
    """

    source: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        for name in ("source", "eigenvalues", "vectors"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.source.shape != self.vectors.shape:
            raise ValueError(f"source of shape {self.source.shape} for "
                             f"eigenvectors of shape {self.vectors.shape}")
        if self.eigenvalues.shape != self.vectors.shape[1:]:
            raise ValueError(f"eigenvalues of shape {self.eigenvalues.shape} for "
                             f"eigenvectors of shape {self.vectors.shape}")

    @property
    def source_norm(self) -> float:
        """The operator norm (spectral radius) of ``source``."""
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def dimension(self) -> int:
        return self.source.shape[0]

    @cached_property
    def clusters(self) -> tuple[np.ndarray, ...]:
        """The read-only ascending eigenvector indices of each group."""
        tol = CLUSTER_TOL_FACTOR * (1.0 + np.linalg.norm(self.source))
        breaks = np.flatnonzero(np.diff(self.eigenvalues) > tol) + 1
        groups = np.split(np.arange(self.eigenvalues.size), breaks)
        for group in groups:
            group.flags.writeable = False
        return tuple(groups)


def hermitian_eigendecompose(A: np.ndarray) -> SpectralDecomposition:
    """Decompose a Hermitian matrix into its ascending eigenvalues and eigenvectors.

    The eigenvalues are LAPACK's, one per eigenvector, and every result
    built on the decomposition is for ``A`` itself: close or repeated
    eigenvalues are not merged, as the divided-difference table resolves
    them.  A matrix equal bit for bit to one of the last few decomposed gets
    that decomposition back (see :func:`_decompose`); its arrays are
    read-only.  Raises :class:`ConvergenceFailure` when LAPACK's eigensolver
    does not converge.
    """
    return _decompose(require_hermitian(A))


def _decompose(A: np.ndarray) -> SpectralDecomposition:
    """:func:`hermitian_eigendecompose` of a matrix that
    :func:`require_hermitian` has already returned, which it would return
    unchanged.

    The last ``DECOMPOSITION_CACHE_ENTRIES`` decompositions are kept, keyed
    by the matrix's shape, dtype and bytes, so a matrix equal to a cached
    one bit for bit gets that decomposition back and any other, even one
    ulp away, is solved.  A cached decomposition holds its own read-only
    copy of the matrix and read-only eigenvalues and eigenvectors.  A
    failed eigensolve raises and caches nothing.
    """
    key = (A.shape, A.dtype.str, A.tobytes())
    with _decompositions_lock:
        decomp = _decompositions.get(key)
        if decomp is not None:
            _decompositions.move_to_end(key)
            return decomp
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigensolver failed: {exc}") from exc
    lam.flags.writeable = V.flags.writeable = False
    # the key's bytes are immutable, so the copy they read as is read-only
    source = np.frombuffer(key[2], dtype=A.dtype).reshape(A.shape)
    decomp = SpectralDecomposition(source=source, eigenvalues=lam, vectors=V)
    with _decompositions_lock:
        _decompositions[key] = decomp
        while len(_decompositions) > DECOMPOSITION_CACHE_ENTRIES:
            _decompositions.popitem(last=False)
    return decomp


def functional_calculus(f, decomposition: SpectralDecomposition) -> np.ndarray:
    """Apply a scalar function to a decomposed Hermitian matrix.

    Evaluates the function at every eigenvalue and returns
    ``V diag(f(lam)) V*``; raises :class:`EvaluationDomain` when the
    function is undefined (or non-finite) at one of the eigenvalues.
    """
    D = decomposition
    return (D.vectors * _evaluate(f, D.eigenvalues)) @ D.vectors.conj().T


def validate_decomposition(decomposition: SpectralDecomposition) -> VerificationReport:
    """Re-check every structural invariant of a spectral decomposition.

    The rank-one projectors ``P_i = v_i v_i*`` of the stored eigenvectors are
    read through the Gram matrix ``G = V* V - I``, as ``P_i P_j - delta_ij
    P_i = G_ij v_i v_j*`` and ``tr P_i - 1 = G_ii``, so no row forms a
    ``P_i``.  Non-orthonormal vectors, eigenvectors paired with the wrong
    eigenvalues, or eigenvalues out of order fail rows.
    """
    D = decomposition
    n = D.dimension
    V = D.vectors
    report = VerificationReport("spectral-decomposition")
    eye = np.eye(n)

    report.add(equality_check(
        "resolution of identity", "sum of projections equals the identity",
        residual=float(np.linalg.norm(V @ V.conj().T - eye)), tolerance=1e-10 * n))

    gram = np.abs(V.conj().T @ V - eye)
    report.add(equality_check(
        "orthogonal idempotents", "projections are idempotent and mutually orthogonal",
        residual=float(gram.max()), tolerance=1e-10))
    report.add(equality_check(
        "multiplicities", "each eigenvector's projection has trace one",
        residual=float(np.diagonal(gram).max()), tolerance=1e-8))

    recon = (V * D.eigenvalues) @ V.conj().T
    report.add(equality_check(
        "reconstruction", "eigenvalue-weighted projection sum reconstructs the matrix",
        residual=float(np.linalg.norm(D.source - recon)),
        tolerance=1e-10 * n * (1.0 + D.source_norm)))

    gaps = np.diff(D.eigenvalues)
    if gaps.size:
        report.add(inequality_check(
            "ordering", "eigenvalues do not decrease",
            lhs=0.0, rhs=float(gaps.min())))
    return report


# ---------------------------------------------------------------------------
# matrix JSON format
# ---------------------------------------------------------------------------

def matrix_from_dict(data: dict) -> np.ndarray:
    n = int(data["n"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix parts must be {n}x{n}")
    return re + 1j * im


def matrix_to_dict(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=complex)
    return {
        "n": A.shape[0],
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))


def save_matrix(path, A: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_dict(A), fh)
        fh.write("\n")
