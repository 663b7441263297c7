"""Closed-form optimal transmit beamforming for one full-duplex node.

The per-node problem: deliver signal power z at the far receiver while
leaking as little front-end noise as possible into the own receiver,

    minimize    w† C w
    subject to  |w† h_cross|^2 = z,   ||w||^2 <= p,

where C = Diag(|h_self|^2) collects the per-antenna self-channel gains (only
the transmit power per antenna feeds the front-end noise, so only C's
diagonal matters).  The minimizer is the diagonally loaded spatial filter

    w = sqrt(z) (C + eps I)^{-1} h_cross / (h_cross† (C + eps I)^{-1} h_cross)

with eps = 0 whenever the unloaded solution already fits the power budget,
and otherwise the unique eps > 0 that makes ||w||^2 = p.  Because C is
diagonal everything reduces to elementwise arithmetic, and ||w(eps)||^2 is
nonincreasing in eps (Cauchy-Schwarz), so a doubling bracket plus bisection
finds the loading reliably.

All functions are pure; sweeps over z may run them in parallel.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import DegenerateGeometryError, InfeasibleError, NumericalError

# Clamp window for z at the feasible-range endpoints (grid arithmetic fuzz).
_Z_CLAMP_ABS = 1e-12
_Z_CLAMP_REL = 1e-12
# Relative bisection tolerance on the diagonal loading.
_EPS_BISECT_REL = 1e-12
_MAX_DOUBLINGS = 200
# Pseudo-inverse regularization when C is singular and eps = 0.
_SINGULAR_DELTA_REL = 1e-12


@dataclass(frozen=True)
class DecoupledProblem:
    """One node's leakage-minimization instance at target delivered power z."""

    h_self: np.ndarray
    h_cross: np.ndarray
    p: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "h_self",
                           numlin.check_finite(self.h_self, "h_self").reshape(-1))
        object.__setattr__(self, "h_cross",
                           numlin.check_finite(self.h_cross, "h_cross").reshape(-1))
        if self.h_self.shape != self.h_cross.shape:
            raise ValueError("h_self and h_cross must share a dimension")
        if self.p <= 0:
            raise ValueError("power budget must be positive")

    @property
    def z_max(self) -> float:
        return self.p * float(np.linalg.norm(self.h_cross)) ** 2


@dataclass(frozen=True)
class BeamformerSolution:
    """Weights, loading, and achieved constraint values for one solve."""

    w: np.ndarray
    epsilon: float
    leakage: float
    achieved_z: float
    achieved_power: float


def leakage_matrix(h_self) -> np.ndarray:
    """Diagonal matrix of per-antenna self-channel power gains |h_self_k|^2."""
    h_self = np.asarray(h_self, dtype=np.complex128).reshape(-1)
    return np.diag(np.abs(h_self) ** 2).astype(np.complex128)


def _clamped_z(prob: DecoupledProblem) -> float:
    z_max = prob.z_max
    z = prob.z
    if z < -_Z_CLAMP_ABS or z > z_max * (1.0 + _Z_CLAMP_REL) + _Z_CLAMP_ABS:
        raise InfeasibleError(
            f"z={z:.12g} outside the feasible range [0, {z_max:.12g}]"
        )
    return min(max(z, 0.0), z_max)


def _loading_for_zero_eps(c: np.ndarray) -> float:
    """Effective loading used to evaluate the eps=0 closed form."""
    if np.min(c) > 0.0:
        return 0.0
    return _SINGULAR_DELTA_REL * max(1.0, float(np.max(c)))


def _filter_sums(c: np.ndarray, habs2: np.ndarray, load: float) -> tuple[float, float]:
    """(h† (C + load I)^{-1} h, h† (C + load I)^{-2} h) for diagonal C = Diag(c)."""
    d = c + load
    return float(np.sum(habs2 / d)), float(np.sum(habs2 / d**2))


def optimal_weights(prob: DecoupledProblem) -> BeamformerSolution:
    """Closed-form minimizer of the per-node leakage problem.

    Returns the eps=0 solution when it satisfies the power budget (the
    low-z condition); otherwise bisects the loading until ||w||^2 = p to
    1e-10 relative.  Raises InfeasibleError for z outside [0, p*||h_cross||^2]
    and NumericalError if the bracket or the final constraint check fails.
    """
    c = np.abs(prob.h_self) ** 2
    h = prob.h_cross
    p = prob.p
    z = _clamped_z(prob)
    m = h.shape[0]

    if z == 0.0:
        w = np.zeros(m, dtype=np.complex128)
        return BeamformerSolution(w=w, epsilon=0.0, leakage=0.0,
                                  achieved_z=0.0, achieved_power=0.0)

    habs2 = np.abs(h) ** 2
    z_max = prob.z_max

    def power_at(load: float) -> float:
        s1, s2 = _filter_sums(c, habs2, load)
        return z * s2 / (s1 * s1)

    def weights_at(load: float) -> np.ndarray:
        s1, _ = _filter_sums(c, habs2, load)
        return np.sqrt(z) * (h / (c + load)) / s1

    # Low-z condition: the unloaded solution already fits the power budget.
    delta = _loading_for_zero_eps(c)
    if power_at(delta) <= p:
        epsilon = 0.0
        w = weights_at(delta)
    elif z == z_max:
        # Cauchy-Schwarz leaves a single feasible point: full-power weights
        # along the cross channel (the eps -> inf limit of the closed form).
        epsilon = math.inf
        w = mrt_weights(h, p)
    else:
        # For z just below z_max the power curve crosses p only at enormous
        # eps and the crossing flattens into round-off noise; the widened
        # accept window keeps the expansion finite there.
        hi = max(1.0, float(np.max(c)))
        accept = p * (1.0 + 8.0 * np.finfo(np.float64).eps)
        for _ in range(_MAX_DOUBLINGS):
            if power_at(hi) <= accept:
                break
            hi *= 2.0
        else:
            raise NumericalError("diagonal-loading bracket expansion failed")
        lo = 0.0
        while hi - lo > _EPS_BISECT_REL * hi:
            mid = 0.5 * (lo + hi)
            if power_at(mid) > p:
                lo = mid
            else:
                hi = mid
        epsilon = hi
        w = weights_at(epsilon)

    achieved_z = float(np.abs(np.vdot(h, w)) ** 2)
    achieved_power = float(np.linalg.norm(w)) ** 2
    leakage = float(np.sum(c * np.abs(w) ** 2))

    if abs(achieved_z - z) > 1e-8 * max(1.0, z):
        raise NumericalError(
            f"delivered-power constraint violated: |w†h|^2={achieved_z:.12g}, z={z:.12g}"
        )
    if achieved_power > p * (1.0 + 1e-8):
        raise NumericalError(
            f"power constraint violated: ||w||^2={achieved_power:.12g}, p={p:.12g}"
        )
    if epsilon > 0.0 and abs(achieved_power - p) > 1e-10 * max(1.0, p):
        raise NumericalError(
            f"loaded solution is off the power boundary: ||w||^2={achieved_power:.12g}"
        )
    return BeamformerSolution(w=w, epsilon=epsilon, leakage=leakage,
                              achieved_z=achieved_z, achieved_power=achieved_power)


def min_leakage(prob: DecoupledProblem) -> float:
    """Minimal self-leakage at delivered power z (optimal objective value)."""
    return optimal_weights(prob).leakage


def low_z_condition_bound(h_self, h_cross, p: float) -> float:
    """Largest z for which the unloaded (eps=0) solution meets the power budget.

    Evaluates p * (h† C^{-1} h)^2 / (h† C^{-2} h) with the same singular-C
    regularization as optimal_weights.
    """
    c = np.abs(np.asarray(h_self, dtype=np.complex128).reshape(-1)) ** 2
    habs2 = np.abs(np.asarray(h_cross, dtype=np.complex128).reshape(-1)) ** 2
    s1, s2 = _filter_sums(c, habs2, _loading_for_zero_eps(c))
    if s2 == 0.0:
        return 0.0
    return p * s1 * s1 / s2


def zf_weights(h_self, h_cross, p: float) -> np.ndarray:
    """Full-power weights confined to the orthogonal complement of h_self.

    Zero-forcing nulls the projection of the transmit signal on the
    self-interference channel; it needs at least two antennas and fails when
    the cross channel is parallel to the self channel.
    """
    h_self = np.asarray(h_self, dtype=np.complex128).reshape(-1)
    h_cross = np.asarray(h_cross, dtype=np.complex128).reshape(-1)
    if h_self.shape[0] < 2:
        raise DegenerateGeometryError("zero-forcing needs at least 2 antennas")
    if p <= 0:
        raise ValueError("power budget must be positive")
    ns = float(np.linalg.norm(h_self))
    if ns == 0.0:
        proj = h_cross.copy()
    else:
        proj = h_cross - h_self * (np.vdot(h_self, h_cross) / ns**2)
    np_ = float(np.linalg.norm(proj))
    if np_ <= 1e-12 * float(np.linalg.norm(h_cross)):
        raise DegenerateGeometryError(
            "cross channel is (numerically) parallel to the self channel"
        )
    w = np.sqrt(p) * proj / np_
    # w†h_cross = sqrt(p)*||proj||, already real nonnegative: phase is fixed.
    return w


def mrt_weights(h_cross, p: float) -> np.ndarray:
    """Full-power weights parallel to the cross channel (maximum delivered z)."""
    h_cross = np.asarray(h_cross, dtype=np.complex128).reshape(-1)
    n = float(np.linalg.norm(h_cross))
    if n == 0.0:
        raise ValueError("cross channel is zero")
    if p <= 0:
        raise ValueError("power budget must be positive")
    return np.sqrt(p) * h_cross / n


def covariance_of(w) -> np.ndarray:
    """Rank-one transmit covariance w w† of a beamforming vector."""
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    return numlin.hermitianize(np.outer(w, w.conj()))
