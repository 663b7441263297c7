"""Dense complex Hermitian helpers for small matrices (dim <= 8).

Every eigen-solve goes through LAPACK (`np.linalg.eigh`/`eigvalsh`) on the
symmetrized input: the package has one eigensolver and one PSD rule.  All
functions are pure, so they are safe to call from parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# is_psd counts eigenvalues down to -ROUNDOFF * ||A||_F (beyond its tol) as zero.
ROUNDOFF = 64.0 * np.finfo(np.float64).eps


def hermitianize(a) -> np.ndarray:
    """(A + A†)/2 as complex128, with an exactly real diagonal; removes Hermiticity drift."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.conj().T)


def check_finite(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (real, ascending) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frobenius_norm(a) -> float:
    """`np.linalg.norm(a)`, but rescaled by max |a_ij| where the sum of squares
    overflows: a finite norm comes out finite, without an overflow warning."""
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if math.isinf(norm):
            big = float(np.max(np.abs(a)))
            if math.isfinite(big):
                norm = big * float(np.linalg.norm(a / big))
    return norm


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of the Hermitian part of a finite square matrix."""
    lam, vec = np.linalg.eigh(hermitianize(check_finite(a)))
    return EigenDecomposition(eigenvalues=lam, eigenvectors=vec)


def eigvals_hermitian(a) -> np.ndarray:
    """Eigenvalues (ascending) of the Hermitian part of a finite square matrix."""
    return np.linalg.eigvalsh(hermitianize(check_finite(a)))


def min_eigenvalue(a) -> float:
    return float(eigvals_hermitian(a)[0])


def is_psd(a, tol: float) -> bool:
    """True iff lambda_min(A) >= -tol, counting eigenvalues within round-off of 0 as 0."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    a = np.asarray(a, dtype=np.complex128)
    roundoff = ROUNDOFF * frobenius_norm(a)
    return min_eigenvalue(a) >= -(tol + roundoff)


def numeric_rank(a, tol: float = 1e-9) -> int:
    """Count of eigenvalues with |lambda| > tol * max(1, |lambda|_max)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = eigvals_hermitian(a)
    cutoff = tol * max(1.0, float(np.max(np.abs(lam))))
    return int(np.count_nonzero(np.abs(lam) > cutoff))


def gram_factor(q, tol: float = 1e-9) -> np.ndarray:
    """Q = V V†, V the eigenvectors above the rank cutoff, scaled; ValueError if not PSD."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    dec = hermitian_eig(q)
    lam = dec.eigenvalues
    cutoff = tol * max(1.0, float(np.max(np.abs(lam))))
    if lam[0] < -cutoff:
        raise ValueError(f"matrix is not PSD within tolerance (lambda_min={lam[0]:.3e})")
    keep = np.abs(lam) > cutoff
    return dec.eigenvectors[:, keep] * np.sqrt(np.maximum(lam[keep], 0.0))
