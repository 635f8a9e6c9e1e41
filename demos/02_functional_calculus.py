#!/usr/bin/env python3
"""Functional calculus on the eigenvalues of a Hermitian matrix.

A Hermitian matrix decomposes into its ascending eigenvalues, one per
eigenvector, and a scalar function of the matrix is ``V diag(f(lam)) V*``.
The decomposition holds the matrix, its eigenvalues and its eigenvectors.
Its view ``clusters`` groups the indices of eigenvalues within
``1e-7 (1 + ||A||_F)`` of each other; the orthogonal projection onto a
group's eigenvectors is ``V[:, g] V[:, g]*``, and the projection-weighted
sum of the function's values on the distinct eigenvalues is the same
matrix.
"""

import numpy as np

from moikit import (
    Polynomial,
    WienerAtomic,
    functional_calculus,
    hermitian_eigendecompose,
    validate_decomposition,
)
from moikit.verify import random_hermitian, suite_rng

# --- the 2x2 flip ----------------------------------------------------------
flip = np.array([[0.0, 1.0], [1.0, 0.0]])
decomp = hermitian_eigendecompose(flip)
print("flip matrix [[0,1],[1,0]]:")
print(f"  eigenvalues, one per eigenvector: {decomp.eigenvalues.tolist()}")
print(f"  eigenvector indices of each group: {[g.tolist() for g in decomp.clusters]}")
for g in decomp.clusters:
    vectors = decomp.vectors[:, g]
    print(f"  eigenvalue {decomp.eigenvalues[g].mean():+.1f}, "
          "projection from its eigenvectors:")
    print(np.array_str((vectors @ vectors.conj().T).real, precision=3, suppress_small=True))

square = functional_calculus(Polynomial([0, 0, 1]), decomp)
print("flip squared (an involution, so the identity):")
print(np.array_str(square.real, precision=3, suppress_small=True))

# --- a degenerate spectrum: three eigenvalues, one group --------------------
decomp_eye = hermitian_eigendecompose(np.eye(3) * 2.0)
print(f"\n2*I_3 has eigenvalues {decomp_eye.eigenvalues.tolist()}, "
      f"grouped into {len(decomp_eye.clusters)} group "
      f"of eigenvector indices {decomp_eye.clusters[0].tolist()}")

# --- structural invariants, re-checked numerically --------------------------
rng = suite_rng(2024, 0)
A = random_hermitian(rng, 6)
decomp = hermitian_eigendecompose(A)
report = validate_decomposition(decomp)
print(f"\nrandom 6x6 Hermitian: {len(decomp.clusters)} groups")
print(report.summary())

# --- cos of a matrix --------------------------------------------------------
cos = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])
C = functional_calculus(cos, decomp)
# cos(A)^2 + sin(A)^2 = I, evaluated independently
sin = WienerAtomic([(1.0, -0.5j), (-1.0, 0.5j)])
S = functional_calculus(sin, decomp)
residual = np.linalg.norm(C @ C + S @ S - np.eye(6))
print(f"\n||cos(A)^2 + sin(A)^2 - I||_F = {residual:.2e}")
