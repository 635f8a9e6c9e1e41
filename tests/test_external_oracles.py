"""Cross-checks against independent implementations.

scipy's matrix functions use Pade/scaling-squaring and Schur-based
algorithms, nothing like the clustered spectral sums in this package, so
agreement here is a strong second opinion on both the eigensolver and the
derivative formula.
"""

import numpy as np
import pytest
import scipy.linalg

from moikit import (
    DerivativeRequest,
    builtin_function,
    functional_calculus,
    hermitian_eigendecompose,
    matrix_function_derivative,
    schatten_norm,
)
from moikit.spectral import jacobi_eigh
from moikit.verify import random_hermitian, suite_rng


class TestAgainstScipy:
    def test_eigenvalues_match_lapack(self):
        rng = suite_rng(61, 0)
        for n in (2, 5, 9, 12):
            A = random_hermitian(rng, n)
            ours = jacobi_eigh(A)[0]
            lapack = np.linalg.eigvalsh(A)
            np.testing.assert_allclose(ours, lapack, atol=1e-12 * max(1, np.linalg.norm(A)))

    def test_exp_of_matrix(self):
        rng = suite_rng(62, 0)
        for n in (2, 4, 6):
            A = random_hermitian(rng, n)
            ours = functional_calculus(builtin_function("exp"),
                                       hermitian_eigendecompose(A))
            np.testing.assert_allclose(ours, scipy.linalg.expm(A), atol=1e-11)

    def test_cos_of_matrix(self):
        rng = suite_rng(63, 0)
        A = random_hermitian(rng, 5)
        ours = functional_calculus(builtin_function("cos"),
                                   hermitian_eigendecompose(A))
        np.testing.assert_allclose(ours, scipy.linalg.cosm(A), atol=1e-11)

    def test_exponential_derivative_matches_expm_frechet(self):
        rng = suite_rng(64, 0)
        for n in (3, 5):
            A = random_hermitian(rng, n, norm=1.2)
            B = random_hermitian(rng, n, norm=1.0)
            ours = matrix_function_derivative(
                DerivativeRequest(builtin_function("exp"), A, (B,), 1, "moi"))
            _, reference = scipy.linalg.expm_frechet(A, B)
            rel = np.linalg.norm(ours - reference) / np.linalg.norm(reference)
            assert rel < 1e-10

    def test_schatten_norms_match_svd(self):
        rng = suite_rng(65, 0)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        # LAPACK's QR-iteration driver, not the divide-and-conquer gesdd numpy calls
        sigma = scipy.linalg.svd(M, compute_uv=False, lapack_driver="gesvd")
        for p in (1.0, 2.0, 3.0):
            assert schatten_norm(M, p) == pytest.approx(
                float(np.sum(sigma ** p) ** (1 / p)), rel=1e-12)
        assert schatten_norm(M, np.inf) == pytest.approx(float(sigma[0]), rel=1e-12)
