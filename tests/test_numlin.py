"""Tests for the small-matrix Hermitian kernel.

The package's eigen-solves run on LAPACK; the cyclic Jacobi solver of
`oracles.jacobi_eigh` serves as their independent oracle.
"""

import warnings

import numpy as np
import pytest

from fdpareto import numlin

from oracles import jacobi_eigh


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return numlin.hermitianize(g)


def random_psd(rng, n, rank=None):
    r = rank or n
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return numlin.hermitianize(g @ g.conj().T)


class TestHermitianEig:
    def test_identity(self):
        dec = numlin.hermitian_eig(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        dec = numlin.hermitian_eig(np.diag([1.0, 4.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 4.0])
        # eigenvectors are the standard basis up to phase
        assert np.isclose(abs(dec.eigenvectors[0, 0]), 1.0)
        assert np.isclose(abs(dec.eigenvectors[1, 1]), 1.0)

    def test_offdiagonal_pair(self):
        # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
        dec = numlin.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_matches_jacobi_and_reconstructs(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for _ in range(20):
                a = random_hermitian(rng, n)
                dec = numlin.hermitian_eig(a)
                ref, ref_vec = jacobi_eigh(a)
                assert np.allclose(dec.eigenvalues, ref, rtol=1e-12, atol=1e-12)
                assert np.allclose(numlin.eigvals_hermitian(a), ref, rtol=1e-12, atol=1e-12)
                scale = max(1.0, np.linalg.norm(a))
                for lam, vec in ((dec.eigenvalues, dec.eigenvectors), (ref, ref_vec)):
                    assert np.linalg.norm((vec * lam) @ vec.conj().T - a) <= 1e-10 * scale
                    gram = vec.conj().T @ vec
                    assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
                # random spectra are simple: each eigenvector is Jacobi's up to phase
                overlap = np.abs(np.sum(dec.eigenvectors.conj() * ref_vec, axis=0))
                assert np.allclose(overlap, 1.0, atol=1e-8)

    def test_eigenvalues_sorted_and_unit_vectors(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 6)
        dec = numlin.hermitian_eig(a)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        norms = np.linalg.norm(dec.eigenvectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_zero_matrix(self):
        dec = numlin.hermitian_eig(np.zeros((3, 3)))
        assert np.allclose(dec.eigenvalues, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numlin.hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            numlin.hermitian_eig(np.zeros((2, 3)))


class TestIsPsd:
    def test_zero_matrix(self):
        assert numlin.is_psd(np.zeros((2, 2)), tol=0.0)

    def test_signed_diagonal(self):
        assert not numlin.is_psd(np.diag([1.0, -1e-3]), tol=1e-9)

    def test_gram_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert numlin.is_psd(np.outer(w, w.conj()), tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            numlin.is_psd(np.eye(2), tol=-1.0)


class TestNumericRank:
    def test_rank_one_gram(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert numlin.numeric_rank(np.outer(w, w.conj()), tol=1e-9) == 1

    def test_diagonal(self):
        assert numlin.numeric_rank(np.diag([1.0, 1.0, 0.0]), tol=1e-9) == 2

    def test_threshold(self):
        assert numlin.numeric_rank(np.diag([1.0, 1e-14]), tol=1e-9) == 1


class TestGramFactor:
    def test_scaled_basis_vector(self):
        v = numlin.gram_factor(np.diag([4.0, 0.0]))
        assert v.shape == (2, 1)
        assert np.isclose(abs(v[0, 0]), 2.0)
        assert np.isclose(abs(v[1, 0]), 0.0)

    def test_identity(self):
        v = numlin.gram_factor(np.eye(2))
        assert v.shape == (2, 2)
        assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-12)

    def test_rank_one_by_inspection(self):
        q = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = numlin.gram_factor(q)
        assert v.shape == (2, 1)
        assert np.allclose(v @ v.conj().T, q, atol=1e-12)

    def test_roundtrip_random_psd(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5, 8):
            for rank in range(1, n + 1):
                q = random_psd(rng, n, rank)
                v = numlin.gram_factor(q)
                assert v.shape == (n, rank)
                scale = max(1.0, np.linalg.norm(q))
                assert np.linalg.norm(v @ v.conj().T - q) <= 1e-9 * scale

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            numlin.gram_factor(np.diag([1.0, -0.5]))


def test_hermitianize_enforces_symmetry():
    a = np.array([[1.0 + 1j, 2.0], [0.0, 3.0 - 2j]])
    h = numlin.hermitianize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(np.diag(h).imag, 0.0)


class TestFrobeniusNorm:
    def test_equals_numpy_in_range(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 5, 8):
            a = random_hermitian(rng, n)
            assert numlin.frobenius_norm(a) == float(np.linalg.norm(a))

    def test_overflowing_squares_stay_finite_without_warning(self):
        a = np.array([[1e300, 1e300j], [-1e300j, 3e299]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = numlin.frobenius_norm(a)
            assert numlin.is_psd(np.diag([1e300, 0.0]), 0.0)
            assert numlin.min_eigenvalue(a) == pytest.approx(np.linalg.eigvalsh(a)[0],
                                                             rel=1e-12)
        assert norm == pytest.approx(1e300 * np.sqrt(3.0 + 0.09), rel=1e-15)

    def test_beyond_the_float_range_is_inf(self):
        assert numlin.frobenius_norm(np.full((2, 2), 1e308)) == np.inf
