import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from moikit import (
    NotHermitian,
    Polynomial,
    functional_calculus,
    hermitian_eigendecompose,
    matrix_from_dict,
    matrix_to_dict,
    validate_decomposition,
)
from moikit.errors import ConvergenceFailure, EvaluationDomain
from moikit import spectral
from moikit.spectral import CLUSTER_TOL_FACTOR, SpectralDecomposition, jacobi_eigh
from moikit.verify import random_hermitian, suite_rng

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def tolerance(A):
    """The gap at or below which eigenvalues of ``A`` share a group."""
    return CLUSTER_TOL_FACTOR * (1.0 + np.linalg.norm(A))


def projection(decomp, group):
    """The orthogonal projection onto the eigenvectors of one group."""
    vectors = decomp.vectors[:, group]
    return vectors @ vectors.conj().T


def group_means(decomp):
    return [float(decomp.eigenvalues[g].mean()) for g in decomp.clusters]


class TestEigendecompose:
    def test_diagonal_matrix(self):
        decomp = hermitian_eigendecompose(np.diag([1.0, 2.0, 3.0]))
        assert group_means(decomp) == [1.0, 2.0, 3.0]
        for i, g in enumerate(decomp.clusters):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            np.testing.assert_allclose(projection(decomp, g), expected, atol=1e-12)

    def test_identity_single_cluster(self):
        decomp = hermitian_eigendecompose(np.eye(2))
        assert len(decomp.clusters) == 1
        np.testing.assert_array_equal(decomp.clusters[0], [0, 1])
        np.testing.assert_allclose(projection(decomp, decomp.clusters[0]), np.eye(2),
                                   atol=1e-12)

    def test_flip_matrix_projections(self):
        decomp = hermitian_eigendecompose(FLIP)
        assert group_means(decomp) == pytest.approx([-1.0, 1.0])
        p_minus = 0.5 * np.array([[1, -1], [-1, 1]])
        p_plus = 0.5 * np.array([[1, 1], [1, 1]])
        minus, plus = decomp.clusters
        np.testing.assert_allclose(projection(decomp, minus), p_minus, atol=1e-12)
        np.testing.assert_allclose(projection(decomp, plus), p_plus, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitian):
            hermitian_eigendecompose(np.array([[np.nan, 0], [0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_imaginary_part_is_rejected(self, bad):
        A = np.eye(3, dtype=complex)
        A[0, 1] = A[1, 0] = complex(0.5, bad)
        with pytest.raises(NotHermitian, match="non-finite"):
            hermitian_eigendecompose(A)

    def test_lapack_failure_is_a_convergence_failure(self, monkeypatch):
        def no_convergence(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConvergenceFailure):
            hermitian_eigendecompose(np.eye(2))

    def test_near_degenerate_pair_merges(self):
        A = np.diag([1.0, 1.0 + 1e-12, 2.0])
        decomp = hermitian_eigendecompose(A)
        assert [len(g) for g in decomp.clusters] == [2, 1]

    def test_gap_at_the_fixed_tolerance(self):
        # the groups read the source only through its norm, 5 here, so the
        # records below keep one source and set the gaps exactly
        tol = CLUSTER_TOL_FACTOR * 6.0

        def groups(eigenvalues):
            n = len(eigenvalues)
            source = np.diag(np.r_[3.0, 4.0, np.zeros(n - 2)])
            decomp = SpectralDecomposition(source, np.array(eigenvalues), np.eye(n))
            assert tolerance(source) == tol
            return [g.tolist() for g in decomp.clusters]

        assert groups([0.0, tol]) == [[0, 1]]
        assert groups([0.0, np.nextafter(tol, np.inf)]) == [[0], [1]]
        assert groups([0.0, tol, 2.0 * tol]) == [[0, 1, 2]]
        assert groups([-1.0, 0.5, 0.5]) == [[0], [1, 2]]
        single = hermitian_eigendecompose(np.array([[2.0]])).clusters
        assert len(single) == 1 and np.array_equal(single[0], [0])

    def test_close_eigenvalues_group_but_stay_one_per_eigenvector(self):
        tol = tolerance(np.diag([1.0, 1.0, 3.0]))
        lam = [1.0, 1.0 + 0.5 * tol, 3.0]
        decomp = hermitian_eigendecompose(np.diag(lam))
        np.testing.assert_array_equal(decomp.eigenvalues, lam)
        assert [g.tolist() for g in decomp.clusters] == [[0, 1], [2]]
        assert group_means(decomp) == pytest.approx([1.0 + 0.25 * tol, 3.0], rel=0, abs=1e-15)
        # two gaps below the tolerance chain into one group wider than it
        tol = tolerance(np.eye(3))
        lam = [1.0, 1.0 + 0.75 * tol, 1.0 + 1.5 * tol]
        chained = hermitian_eigendecompose(np.diag(lam))
        np.testing.assert_array_equal(chained.eigenvalues, lam)
        assert [g.tolist() for g in chained.clusters] == [[0, 1, 2]]
        np.testing.assert_allclose(projection(chained, chained.clusters[0]), np.eye(3),
                                   atol=1e-12)
        split = hermitian_eigendecompose(np.diag([1.0, 1.0 + 2 * tol, 1.0 + 4 * tol]))
        assert [g.tolist() for g in split.clusters] == [[0], [1], [2]]

    def test_eigenvalues_are_lapacks_one_per_eigenvector(self):
        # close and repeated eigenvalues are not merged, though they group
        A = _conjugated(np.random.default_rng(3), [0.2, 0.2, 0.2 + 1e-12, 0.5, 0.9])
        lam, V = np.linalg.eigh(A)
        decomp = hermitian_eigendecompose(A)
        assert np.array_equal(decomp.eigenvalues, lam)
        assert np.array_equal(decomp.vectors, V)
        assert len(decomp.clusters) == 3

    def test_stores_the_matrix_its_eigenvalues_and_eigenvectors(self):
        # the norm and the groups are derived; the groups are read-only
        # index arrays that cover the eigenvectors in order
        decomp = hermitian_eigendecompose(random_hermitian(suite_rng(4, 0), 5))
        assert [f.name for f in fields(SpectralDecomposition)] == [
            "source", "eigenvalues", "vectors"]
        assert decomp.source_norm == float(np.max(np.abs(decomp.eigenvalues)))
        assert type(decomp.clusters) is tuple and decomp.clusters is decomp.clusters
        np.testing.assert_array_equal(np.concatenate(decomp.clusters), np.arange(5))
        for g in decomp.clusters:
            assert g.dtype.kind == "i" and not g.flags.writeable

    def test_nested_lists_are_held_as_arrays(self):
        decomp = SpectralDecomposition(np.eye(2), [1.0, 1.0], [[1, 0], [0, 1]])
        assert all(isinstance(a, np.ndarray)
                   for a in (decomp.source, decomp.eigenvalues, decomp.vectors))
        np.testing.assert_allclose(functional_calculus(Polynomial([0, 3]), decomp),
                                   3 * np.eye(2), atol=0)
        assert [g.tolist() for g in decomp.clusters] == [[0, 1]]
        with pytest.raises(ValueError, match="eigenvalues of shape"):
            SpectralDecomposition([[1.0]], [1.0, 2.0], [[1.0]])

    def test_validated_matrices_and_their_sums_pass_through_unchanged(self):
        # the derivative and the remainder forms decompose a, a + b and
        # a + t b of validated a and b without validating them again, as
        # require_hermitian returns each of them bit for bit
        rng = np.random.default_rng(15)
        ts = 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a, b = (spectral.require_hermitian(
                        random_hermitian(rng, n, rng.uniform(0.1, 10.0))
                        + 1e-13 * rng.standard_normal((n, n)))
                    for _ in range(2))
            for m in (a, b, a + b, *(a + t * b for t in ts)):
                assert np.array_equal(spectral.require_hermitian(m), m)
            once = spectral._decompose(a + b)
            twice = hermitian_eigendecompose(a + b)
            assert np.array_equal(once.eigenvalues, twice.eigenvalues)
            assert np.array_equal(once.vectors, twice.vectors)


class TestDecompositionCache:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """The matrices passed to numpy's eigh, recorded as it runs."""
        calls, eigh = [], np.linalg.eigh

        def counted(A):
            calls.append(A)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @staticmethod
    def matrix(seed, n=4):
        return spectral.require_hermitian(random_hermitian(np.random.default_rng(seed), n))

    def test_an_equal_matrix_is_decomposed_once(self, eigh_calls):
        A = self.matrix(1)
        first = spectral._decompose(A)
        again = spectral._decompose(A.copy())
        public = hermitian_eigendecompose(A.copy())
        assert len(eigh_calls) == 1
        assert again is first and public is first

    def test_a_matrix_one_ulp_away_misses(self, eigh_calls):
        A = self.matrix(2)
        B = A.copy()
        B[0, 0] = np.nextafter(B[0, 0].real, np.inf)
        first, second = spectral._decompose(A), spectral._decompose(B)
        assert len(eigh_calls) == 2
        assert second is not first
        assert np.array_equal(second.source, B)

    def test_the_cache_keeps_the_most_recent_within_its_bound(self, eigh_calls):
        bound = spectral.DECOMPOSITION_CACHE_ENTRIES
        matrices = [self.matrix(seed) for seed in range(bound + 2)]
        for A in matrices:
            spectral._decompose(A)
            assert len(spectral._decompositions) <= bound
        assert len(spectral._decompositions) == bound
        # the last `bound` hit; the first was evicted and is solved again
        for A in matrices[2:]:
            spectral._decompose(A)
        assert len(eigh_calls) == bound + 2
        spectral._decompose(matrices[0])
        assert len(eigh_calls) == bound + 3
        assert len(spectral._decompositions) == bound

    def test_cached_arrays_are_read_only(self):
        A = self.matrix(3)
        decomp = spectral._decompose(A)
        for array in (decomp.source, decomp.eigenvalues, decomp.vectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # the source is the cache's own copy: the caller's matrix stays writable
        A[0, 0] += 1.0
        assert spectral._decompose(A) is not decomp
        assert not np.array_equal(decomp.source, A)

    def test_a_convergence_failure_is_not_cached(self, monkeypatch):
        eigh = np.linalg.eigh

        def no_convergence(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        A = self.matrix(4)
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConvergenceFailure):
            spectral._decompose(A)
        assert not spectral._decompositions
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        decomp = spectral._decompose(A)
        assert np.array_equal(decomp.eigenvalues, np.linalg.eigh(A)[0])


    def test_threads_share_the_cache(self):
        # more threads than entries and cores, switching often: every
        # decomposition is the right one and the cache stays within its bound
        matrices = [self.matrix(seed) for seed in range(2 * spectral.DECOMPOSITION_CACHE_ENTRIES)]
        expected = [np.linalg.eigh(A)[0] for A in matrices]
        wrong = []

        def work(offset):
            for i in range(200):
                j = (i + offset) % len(matrices)
                if not np.array_equal(spectral._decompose(matrices[j]).eigenvalues, expected[j]):
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(spectral._decompositions) == spectral.DECOMPOSITION_CACHE_ENTRIES


def _conjugated(rng, eigenvalues):
    """A Hermitian matrix with the given spectrum in a random eigenbasis."""
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    A = (Q * np.asarray(eigenvalues)) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


class TestJacobi:
    def test_against_reconstruction(self):
        rng = suite_rng(7, 0)
        for n in (1, 2, 5, 9, 12):
            A = random_hermitian(rng, n)
            lam, V = jacobi_eigh(A)
            np.testing.assert_allclose((V * lam) @ V.conj().T, A, atol=1e-12 * max(n, 1))
            np.testing.assert_allclose(V.conj().T @ V, np.eye(n), atol=1e-13 * n)
            assert np.all(np.diff(lam) >= 0)

    @pytest.mark.parametrize("case", [
        "n=1", "zero", "exact repeat", "gap 1e-9", "norm 1e6"])
    def test_adversarial_spectra(self, case):
        rng = suite_rng(8, 0)
        A = {
            "n=1": lambda: np.array([[2.5]]),
            "zero": lambda: np.zeros((4, 4)),
            # 1 +- 0.5 from the coupled block: 1.5 is a double eigenvalue
            "exact repeat": lambda: np.array([[1.0, 0.5j, 0.0], [-0.5j, 1.0, 0.0],
                                              [0.0, 0.0, 1.5]]),
            "gap 1e-9": lambda: _conjugated(rng, [-0.5, 0.2, 0.2 + 1e-9, 0.7]),
            "norm 1e6": lambda: random_hermitian(rng, 8, norm=1e6),
        }[case]().astype(complex)
        n = A.shape[0]
        scale = 1.0 + np.linalg.norm(A)
        lam, V = jacobi_eigh(A)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(A), rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(n), rtol=0, atol=1e-14 * n)
        np.testing.assert_allclose((V * lam) @ V.conj().T, A, rtol=0, atol=1e-14 * n * scale)
        assert np.all(np.diff(lam) >= 0)

    def test_eigenvalues_alone_are_the_full_call_bit_for_bit(self):
        rng = suite_rng(10, 0)
        for A in [np.array([[2.5]]), np.zeros((3, 3))] + [
                random_hermitian(rng, n) for n in (2, 5, 9, 12)]:
            lam, V = jacobi_eigh(A, vectors=False)
            assert V is None
            assert lam.tobytes() == jacobi_eigh(A)[0].tobytes()

    def test_sweep_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "JACOBI_SWEEP_BUDGET", 1)
        with pytest.raises(ConvergenceFailure):
            jacobi_eigh(random_hermitian(suite_rng(9, 0), 8))

    def test_sweep_budget_exhausted_raises_on_a_stack(self, monkeypatch):
        monkeypatch.setattr(spectral, "JACOBI_SWEEP_BUDGET", 1)
        rng = suite_rng(9, 1)
        with pytest.raises(ConvergenceFailure):
            jacobi_eigh(np.stack([np.eye(8)] + [random_hermitian(rng, 8) for _ in range(3)]))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_round_robin_sweep_meets_every_pair_once(self, n):
        seen = []
        for P, Q in spectral._round_robin(n):
            assert np.all(P < Q)
            assert len(set(P) | set(Q)) == 2 * len(P) == 2 * (n // 2)
            seen += zip(P.tolist(), Q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    def test_stack_agrees_with_one_at_a_time(self):
        rng = suite_rng(12, 0)
        for n in (1, 2, 3, 6, 11):
            stack = np.stack([random_hermitian(rng, n) for _ in range(7)])
            lam, V = jacobi_eigh(stack)
            assert lam.shape == (7, n) and V.shape == (7, n, n)
            for A, lam_i, V_i in zip(stack, lam, V):
                scale = 1.0 + np.linalg.norm(A)
                alone, V_alone = jacobi_eigh(A)
                np.testing.assert_allclose(lam_i, alone, rtol=0, atol=1e-15 * scale)
                np.testing.assert_allclose(V_i, V_alone, rtol=0, atol=1e-15 * scale)
                np.testing.assert_allclose((V_i * lam_i) @ V_i.conj().T, A, rtol=0,
                                           atol=1e-14 * n * scale)

    def test_stack_of_stacks_keeps_its_leading_shape(self):
        rng = suite_rng(12, 1)
        stack = np.stack([[random_hermitian(rng, 4) for _ in range(3)] for _ in range(2)])
        lam, V = jacobi_eigh(stack)
        assert lam.shape == (2, 3, 4) and V.shape == (2, 3, 4, 4)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(stack), rtol=0, atol=1e-14 * 4)

    def test_zero_matrix_in_a_stack_converges(self):
        rng = suite_rng(12, 2)
        stack = np.stack([random_hermitian(rng, 5), np.zeros((5, 5)),
                          random_hermitian(rng, 5, norm=1e6)])
        lam, V = jacobi_eigh(stack)
        assert np.all(lam[1] == 0.0)
        np.testing.assert_array_equal(V[1], np.eye(5))
        for A, lam_i, V_i in zip(stack, lam, V):
            scale = 1.0 + np.linalg.norm(A)
            np.testing.assert_allclose(lam_i, np.linalg.eigvalsh(A), rtol=0, atol=1e-14 * scale)
            np.testing.assert_allclose(V_i.conj().T @ V_i, np.eye(5), rtol=0, atol=1e-14 * 5)

    def test_eigenvalues_alone_on_a_stack_are_the_full_call_bit_for_bit(self):
        rng = suite_rng(10, 1)
        stack = np.stack([np.zeros((6, 6))] + [random_hermitian(rng, 6) for _ in range(5)])
        lam, V = jacobi_eigh(stack, vectors=False)
        assert V is None
        assert lam.tobytes() == jacobi_eigh(stack)[0].tobytes()


class TestFunctionalCalculus:
    def test_identity_function_reconstructs(self):
        rng = suite_rng(3, 0)
        A = random_hermitian(rng, 5)
        decomp = hermitian_eigendecompose(A)
        np.testing.assert_allclose(
            functional_calculus(Polynomial([0, 1]), decomp), A, atol=1e-12)

    def test_constant_gives_identity(self):
        decomp = hermitian_eigendecompose(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(
            functional_calculus(Polynomial([1]), decomp), np.eye(2), atol=1e-14)

    def test_square_of_involution(self):
        decomp = hermitian_eigendecompose(FLIP)
        np.testing.assert_allclose(
            functional_calculus(Polynomial([0, 0, 1]), decomp), np.eye(2), atol=1e-13)

    def test_polynomial_matches_horner(self):
        rng = suite_rng(5, 0)
        A = random_hermitian(rng, 6)
        p = Polynomial([0.5, -1.0, 2.0, 0.25])
        decomp = hermitian_eigendecompose(A)
        direct = p.coeffs[0] * np.eye(6) + p.coeffs[1] * A \
            + p.coeffs[2] * A @ A + p.coeffs[3] * A @ A @ A
        np.testing.assert_allclose(functional_calculus(p, decomp), direct,
                                   atol=1e-8 * np.linalg.norm(A, 2) ** 3)

    def test_spectral_mapping(self):
        rng = suite_rng(11, 0)
        A = random_hermitian(rng, 5)
        p = Polynomial([1.0, 0.5, -2.0])
        decomp = hermitian_eigendecompose(A)
        image = functional_calculus(p, decomp)
        mapped = np.sort(np.real([p(decomp.eigenvalues[g].mean()) for g in decomp.clusters
                                  for _ in g]))
        eigs = np.sort(jacobi_eigh(0.5 * (image + image.conj().T))[0])
        np.testing.assert_allclose(eigs, mapped, atol=1e-8)

    def test_multiplicative(self):
        rng = suite_rng(13, 0)
        A = random_hermitian(rng, 4)
        decomp = hermitian_eigendecompose(A)
        p = Polynomial([1, 2, 1])
        q = Polynomial([0, 1, 0, 3])
        pq = np.polynomial.polynomial.polymul(p.coeffs, q.coeffs)
        lhs = functional_calculus(Polynomial(pq), decomp)
        rhs = functional_calculus(p, decomp) @ functional_calculus(q, decomp)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_evaluation_domain(self):
        decomp = hermitian_eigendecompose(np.diag([0.0, 1.0]))
        with pytest.raises(EvaluationDomain):
            functional_calculus(lambda x: 1.0 / x, decomp)


class TestValidation:
    def test_clean_decomposition_passes(self):
        report = validate_decomposition(hermitian_eigendecompose(np.diag([1.0, 2.0])))
        assert report.passed
        assert all(c.residual < 1e-12 for c in report.checks[:-1])

    def test_seeded_random_passes(self):
        rng = suite_rng(23, 0)
        A = random_hermitian(rng, 8)
        assert validate_decomposition(hermitian_eigendecompose(A)).passed

    def test_deliberate_violation_fails(self):
        # both eigenvectors are e1, so the two derived projections coincide
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        bogus = SpectralDecomposition(
            source=np.diag([1.0, 2.0]).astype(complex),
            eigenvalues=np.array([1.0, 2.0]),
            vectors=np.hstack([e1, e1]),
        )
        report = validate_decomposition(bogus)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "orthogonal idempotents" in failed

    @pytest.mark.parametrize("merged", [False, True])
    def test_rows_read_the_eigenvectors_not_the_clusters(self, monkeypatch, merged):
        def no_view(self):
            raise AssertionError("validation read the grouping view")

        rng = suite_rng(24, 0)
        A = random_hermitian(rng, 40)
        if merged:
            # a triple eigenvalue, one group of three eigenvectors
            lam, V = np.linalg.eigh(A)
            lam[10:13] = lam[11]
            A = (V * lam) @ V.conj().T
        decomp = hermitian_eigendecompose(A)
        assert decomp.eigenvalues.size == 40
        assert (len(decomp.clusters) < 40) == merged
        monkeypatch.setattr(SpectralDecomposition, "clusters", property(no_view))
        report = validate_decomposition(decomp)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "resolution of identity", "orthogonal idempotents", "multiplicities",
            "reconstruction", "ordering"]

    def test_swapped_eigenvectors_fail(self):
        # the eigenvectors of 1 and 3 swap columns: the projections are still
        # orthogonal idempotents, but they no longer reconstruct the matrix
        decomp = hermitian_eigendecompose(np.diag([1.0, 2.0, 3.0]))
        swapped = SpectralDecomposition(
            source=decomp.source,
            eigenvalues=decomp.eigenvalues, vectors=decomp.vectors[:, [2, 1, 0]])
        report = validate_decomposition(swapped)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"reconstruction"}

    def test_descending_eigenvalues_fail_ordering(self):
        # eigenvalues and eigenvectors reversed together still reconstruct
        decomp = hermitian_eigendecompose(np.diag([1.0, 2.0, 3.0]))
        reversed_ = SpectralDecomposition(
            source=decomp.source,
            eigenvalues=decomp.eigenvalues[::-1], vectors=decomp.vectors[:, ::-1])
        report = validate_decomposition(reversed_)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"ordering"}

    @pytest.mark.parametrize("eigenvalues", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_eigenvalue_count_must_match_the_eigenvectors(self, eigenvalues):
        decomp = hermitian_eigendecompose(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            SpectralDecomposition(
                source=decomp.source,
                eigenvalues=np.array(eigenvalues), vectors=decomp.vectors)

    def test_non_orthonormal_vectors_fail(self):
        # a sheared eigenbasis reconstructs nothing and resolves no identity
        rng = suite_rng(25, 0)
        decomp = hermitian_eigendecompose(random_hermitian(rng, 6))
        shear = np.eye(6) + 0.1 * np.triu(np.ones((6, 6)), 1)
        sheared = SpectralDecomposition(
            source=decomp.source,
            eigenvalues=decomp.eigenvalues, vectors=decomp.vectors @ shear)
        failed = {c.name for c in validate_decomposition(sheared).checks if not c.passed}
        assert {"resolution of identity", "orthogonal idempotents", "multiplicities",
                "reconstruction"} <= failed


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        rng = suite_rng(29, 0)
        A = random_hermitian(rng, 4)
        assert np.array_equal(matrix_from_dict(matrix_to_dict(A)), A)
        path = tmp_path / "m.json"
        from moikit import load_matrix, save_matrix
        save_matrix(path, A)
        assert np.array_equal(load_matrix(path), A)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"n": 2, "re": [[1.0]], "im": [[0.0]]})
