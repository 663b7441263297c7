"""Dense complex Hermitian linear algebra for small matrices (dim <= 8).

Everything here is sized for the beamforming problems in this package:
matrices are tiny, so the eigensolver is a cyclic Jacobi sweep over the
complex Hermitian matrix -- deterministic, dependency-free, and accurate to
near machine precision at these sizes.  The rotations run on plain Python
scalars (per-element numpy calls would dominate at this size); numpy is the
array container at the boundaries, and the LAPACK eigensolver is deliberately
not used here so that it stays available as an independent cross-check in the
test suite.

All functions are pure: inputs are never mutated and there is no shared
state, so everything is safe to call from parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Off-diagonal elements below this fraction of ||A||_F are left unrotated.
_JACOBI_TOL = 1e-15
_MAX_SWEEPS = 100
# is_psd counts eigenvalues down to -ROUNDOFF * ||A||_F (beyond its tol) as zero.
ROUNDOFF = 64.0 * np.finfo(np.float64).eps


def hermitianize(a) -> np.ndarray:
    """Return (A + A†)/2 as a complex128 array with an exactly real diagonal.

    Symmetrizing on construction removes the drift that accumulates when
    Hermitian matrices are built from products of computed quantities.
    """
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

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def frobenius_norm(a) -> float:
    """||A||_F, without an overflow warning when the sum of squares overflows.

    Equal to `np.linalg.norm(a)` wherever that is finite; otherwise the
    entries are first divided by the largest modulus, so a finite norm comes
    out finite and only a norm beyond the float range is inf.
    """
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if math.isinf(norm):
            big = float(np.max(np.abs(a)))
            if math.isfinite(big):
                norm = big * float(np.linalg.norm(a / big))
    return norm


def _jacobi(a: np.ndarray, want_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic complex Jacobi on a Hermitian matrix; returns (diag, vectors)."""
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128) if want_vectors else None
    norm = frobenius_norm(a)
    if norm == 0.0 or n == 1:
        return np.real(np.diag(a)).copy(), eye
    w = [list(row) for row in a.tolist()]
    v = [list(row) for row in eye.tolist()] if want_vectors else None
    skip = _JACOBI_TOL * norm
    sqrt = math.sqrt
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            wp = w[p]
            for q in range(p + 1, n):
                apq = wp[q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                rotated = True
                wq = w[q]
                app = wp[p].real
                aqq = wq[q].real
                # Peeling the phase off a_pq reduces the (p,q) plane to a
                # real Jacobi rotation with angle t = tan(theta).
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = sp.conjugate()
                for i in range(n):
                    wi = w[i]
                    xp = wi[p]
                    xq = wi[q]
                    wi[p] = c * xp - spc * xq
                    wi[q] = sp * xp + c * xq
                for j in range(n):
                    xp = wp[j]
                    xq = wq[j]
                    wp[j] = c * xp - sp * xq
                    wq[j] = spc * xp + c * xq
                # The rotation zeroes the pivot exactly; drop the round-off.
                wp[q] = 0.0
                wq[p] = 0.0
                wp[p] = wp[p].real
                wq[q] = wq[q].real
                if v is not None:
                    for i in range(n):
                        vi = v[i]
                        xp = vi[p]
                        xq = vi[q]
                        vi[p] = c * xp - spc * xq
                        vi[q] = sp * xp + c * xq
        if not rotated:
            diag = np.array([complex(w[i][i]).real for i in range(n)])
            vec = np.array(v, dtype=np.complex128) if want_vectors else None
            return diag, vec
    raise NumericalError(
        f"Jacobi eigensolver did not converge within {_MAX_SWEEPS} sweeps (dim={n})"
    )


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    The input is symmetrized first, so mild Hermiticity drift from upstream
    arithmetic is tolerated.  Raises NumericalError if the sweep cap is hit
    (never returns a partial answer silently).
    """
    a = hermitianize(check_finite(a))
    diag, vec = _jacobi(a, want_vectors=True)
    order = np.argsort(diag, kind="stable")
    return EigenDecomposition(eigenvalues=diag[order], eigenvectors=vec[:, order])


def eigvals_hermitian(a) -> np.ndarray:
    """Eigenvalues only (ascending); skips eigenvector accumulation."""
    a = hermitianize(check_finite(a))
    diag, _ = _jacobi(a, want_vectors=False)
    return np.sort(diag)


def min_eigenvalue(a) -> float:
    return float(eigvals_hermitian(a)[0])


def is_psd(a, tol: float) -> bool:
    """True iff lambda_min(A) >= -tol.

    Eigenvalues within round-off of zero count as zero, so exact Gram
    matrices pass even at tol=0.
    """
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
    """Factor a PSD matrix as Q = V V† with V of shape (dim, rank).

    The returned columns are scaled eigenvectors of the eigenvalues above the
    numeric-rank cutoff.  Raises ValueError if Q is not PSD within tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    dec = hermitian_eig(q)
    lam = dec.eigenvalues
    cutoff = tol * max(1.0, float(np.max(np.abs(lam))))
    if lam[0] < -cutoff:
        raise ValueError(
            f"matrix is not PSD within tolerance (lambda_min={lam[0]:.3e})"
        )
    keep = np.abs(lam) > cutoff
    return dec.eigenvectors[:, keep] * np.sqrt(np.maximum(lam[keep], 0.0))
