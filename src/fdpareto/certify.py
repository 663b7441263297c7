"""Optimality certificates and rank-one recovery for the per-node SDP.

The per-node leakage problem in SDP form is

    minimize    tr(C Q)
    subject to  tr(A Q) = z,   tr(Q) <= p,   Q >= 0,

with C diagonal PSD and A = h_cross h_cross† of rank one.  Its Lagrange dual
(in the sign convention that makes weak duality hold for the trace
inequality) is

    maximize    lam1 * z + lam2 * p
    subject to  Z = C - lam1*A - lam2*I >= 0,   lam2 <= 0,

so for fixed lam1 the best lam2 is min(0, lambda_min(C - lam1*A)) and the
dual value g(lam1) = lam1*z + p*min(0, lambda_min(C - lam1*A)) is concave in
lam1.  dual_certificate maximizes g by golden section on an expanding
bracket; the optimum never sits at lam1 < 0 because g(lam1) = lam1*z <= g(0)
there.

At z = p*tr(A) the supremum is approached only as lam1 -> inf, so the
bracket expansion is capped at 2^27 times its initial scale; the cap
balances the O(1/lam1) truncation of the dual value against double-precision
cancellation in lam1*z + p*lambda_min, leaving both near 1e-8 relative.

rank_reduce turns any feasible PSD solution into a rank-one one without
touching tr(A Q), tr(Q), or increasing tr(C Q): factor Q = V V†, pick a
nonzero Hermitian X with tr(V†AV X) = tr(V†V X) = 0 (always possible for
rank >= 2: two real equations in rank^2 real unknowns), flip its sign so the
objective correction is nonpositive, and deflate Q <- V (I - X/sigma1) V†
with sigma1 the largest positive eigenvalue of X.  Such an eigenvalue always
exists: tr(V†V X) = 0 against the positive-definite V†V forces X to be
indefinite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numlin
from .beamform import DecoupledProblem, covariance_of, leakage_matrix, optimal_weights
from .errors import NumericalError, OptimalityError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_CAP_DOUBLINGS = 24
_GOLDEN_MAX_ITERS = 200
_KKT_TOL = 1e-7
# Gap gates: Slater holds strictly inside the z range, so the certificate is
# sharp there; at the range endpoints conditioning degrades and the gate is
# relaxed one order.
GAP_TOL_INTERIOR = 1e-6
GAP_TOL_ENDPOINT = 1e-5


@dataclass(frozen=True)
class SdpInstance:
    """Data of one per-node SDP: diagonal C, rank-one A, target z, budget p."""

    c: np.ndarray
    a: np.ndarray
    z: float
    p: float

    def __post_init__(self):
        c = numlin.hermitianize(numlin.check_finite(self.c, "c"))
        a = numlin.hermitianize(numlin.check_finite(self.a, "a"))
        if c.shape != a.shape:
            raise ValueError("c and a must have the same shape")
        if np.any(np.abs(c - np.diag(np.diag(c))) > 1e-12 * max(1.0, float(np.linalg.norm(c)))):
            raise ValueError("c must be diagonal")
        if np.any(np.real(np.diag(c)) < -1e-12 * max(1.0, float(np.linalg.norm(c)))):
            raise ValueError("c must be PSD")
        c = np.diag(np.maximum(np.real(np.diag(c)), 0.0)).astype(np.complex128)
        lam = numlin.eigvals_hermitian(a)
        scale = max(1.0, float(np.max(np.abs(lam))))
        if lam[0] < -1e-9 * scale or np.count_nonzero(lam > 1e-9 * scale) > 1:
            raise ValueError("a must be PSD with rank <= 1")
        if self.p <= 0:
            raise ValueError("power budget must be positive")
        z_max = self.p * float(np.trace(a).real)
        if self.z < -1e-12 or self.z > z_max * (1.0 + 1e-12) + 1e-12:
            raise ValueError(f"z={self.z} outside [0, {z_max:.12g}]")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "z", float(min(max(self.z, 0.0), z_max)))

    @classmethod
    def from_channels(cls, h_self, h_cross, z: float, p: float) -> "SdpInstance":
        return cls(c=leakage_matrix(h_self), a=covariance_of(h_cross), z=z, p=p)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def channels(self) -> tuple[np.ndarray, np.ndarray]:
        """Recover (h_self, h_cross) vectors realizing (C, A), up to phase."""
        h_self = np.sqrt(np.maximum(np.real(np.diag(self.c)), 0.0)).astype(np.complex128)
        dec = numlin.hermitian_eig(self.a)
        top = dec.eigenvalues[-1]
        if top <= 0.0:
            return h_self, np.zeros(self.dim, dtype=np.complex128)
        return h_self, dec.eigenvectors[:, -1] * math.sqrt(top)


@dataclass(frozen=True)
class Certificate:
    """Dual variables and duality gap for one SDP instance."""

    lambda1: float
    lambda2: float
    dual_value: float
    gap: float
    slack_min_eig: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KktReport:
    """Stationarity-system residuals, each checked at a common tolerance."""

    primal_target_residual: float
    power_excess: float
    q_min_eigenvalue: float
    slack_min_eigenvalue: float
    complementarity_residual: float
    tol: float = _KKT_TOL

    def checks(self) -> dict[str, bool]:
        return {
            "primal_target": self.primal_target_residual <= self.tol,
            "power": self.power_excess <= self.tol,
            "q_psd": self.q_min_eigenvalue >= -self.tol,
            "slack_psd": self.slack_min_eigenvalue >= -self.tol,
            "complementarity": self.complementarity_residual <= self.tol,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks().values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class RankReductionTrace:
    """Deflation history: (rank_before, sigma1, objective_after) per step."""

    iterations: list[tuple[int, float, float]] = field(default_factory=list)
    final_q: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "iterations": [
                {"rank_before": r, "sigma1": s, "objective_after": o}
                for r, s, o in self.iterations
            ],
            "final_rank": int(numlin.numeric_rank(self.final_q, 1e-9))
            if self.final_q is not None and np.any(self.final_q) else 0,
        }


def dual_value_at(inst: SdpInstance, lam1: float) -> float:
    """g(lam1) = lam1*z + p*min(0, lambda_min(C - lam1*A))."""
    lam_min = numlin.min_eigenvalue(inst.c - lam1 * inst.a)
    val = lam1 * inst.z + inst.p * min(0.0, lam_min)
    if not math.isfinite(val):
        raise NumericalError(f"dual objective non-finite at lambda1={lam1!r}")
    return val


def dual_certificate(inst: SdpInstance, primal_value: float) -> Certificate:
    """Maximize the dual by golden section on an expanding lambda1 bracket.

    Reports the gap primal_value - dual_value; by weak duality the gap of a
    feasible primal point is nonnegative up to round-off, and strong duality
    makes it vanish at the optimum.
    """
    if primal_value < 0:
        raise ValueError("primal_value must be nonnegative")
    tr_a = float(np.trace(inst.a).real)
    best_x, best_val = 0.0, dual_value_at(inst, 0.0)

    if tr_a > 0.0:
        scale = max(1.0, float(np.max(np.real(np.diag(inst.c))))) / tr_a
        cap = scale * 2.0**_BRACKET_CAP_DOUBLINGS
        # Expand until g turns downward (or the endpoint cap is reached).
        xs = [0.0, scale]
        vals = [best_val, dual_value_at(inst, scale)]
        while vals[-1] > vals[-2] and xs[-1] < cap:
            xs.append(min(2.0 * xs[-1], cap))
            vals.append(dual_value_at(inst, xs[-1]))
        if vals[-1] > best_val:
            best_x, best_val = xs[-1], vals[-1]
        lo = xs[-3] if len(xs) >= 3 else 0.0
        hi = xs[-1]

        a, b = lo, hi
        c_pt = b - _GOLDEN * (b - a)
        d_pt = a + _GOLDEN * (b - a)
        fc = dual_value_at(inst, c_pt)
        fd = dual_value_at(inst, d_pt)
        for _ in range(_GOLDEN_MAX_ITERS):
            if fc > best_val:
                best_x, best_val = c_pt, fc
            if fd > best_val:
                best_x, best_val = d_pt, fd
            if (b - a) <= 1e-12 * max(abs(b), 1e-15):
                break
            if fc < fd:
                a, c_pt, fc = c_pt, d_pt, fd
                d_pt = a + _GOLDEN * (b - a)
                fd = dual_value_at(inst, d_pt)
            else:
                b, d_pt, fd = d_pt, c_pt, fc
                c_pt = b - _GOLDEN * (b - a)
                fc = dual_value_at(inst, c_pt)

    lam1 = best_x
    lam_min_b = numlin.min_eigenvalue(inst.c - lam1 * inst.a)
    lam2 = min(0.0, lam_min_b)
    dual_value = lam1 * inst.z + inst.p * lam2
    return Certificate(
        lambda1=lam1,
        lambda2=lam2,
        dual_value=dual_value,
        gap=primal_value - dual_value,
        slack_min_eig=max(0.0, lam_min_b),
    )


def kkt_check(inst: SdpInstance, q, cert: Certificate) -> KktReport:
    """Report-only residuals of the stationarity system for (q, cert)."""
    q = numlin.hermitianize(numlin.check_finite(q, "q"))
    if q.shape != inst.c.shape:
        raise ValueError("q dimension does not match the instance")
    slack = inst.c - cert.lambda1 * inst.a - cert.lambda2 * np.eye(inst.dim)
    return KktReport(
        primal_target_residual=abs(float(np.trace(inst.a @ q).real) - inst.z),
        power_excess=max(0.0, float(np.trace(q).real) - inst.p),
        q_min_eigenvalue=numlin.min_eigenvalue(q),
        slack_min_eigenvalue=numlin.min_eigenvalue(slack),
        complementarity_residual=abs(float(np.trace(q @ slack).real)),
    )


def _herm_to_vec(m: np.ndarray) -> np.ndarray:
    r = m.shape[0]
    iu = np.triu_indices(r, 1)
    root2 = math.sqrt(2.0)
    return np.concatenate([
        np.real(np.diag(m)),
        root2 * np.real(m[iu]),
        root2 * np.imag(m[iu]),
    ])


def _vec_to_herm(x: np.ndarray, r: int) -> np.ndarray:
    iu = np.triu_indices(r, 1)
    n_off = r * (r - 1) // 2
    m = np.diag(x[:r]).astype(np.complex128)
    m[iu] = (x[r:r + n_off] + 1j * x[r + n_off:]) / math.sqrt(2.0)
    return m + np.triu(m, 1).conj().T


def _null_direction(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to a1 and a2, chosen deterministically.

    Orthonormalizes the constraint functionals, then projects the standard
    basis vector with the largest residual (first index on ties).
    """
    basis = []
    for v in (a1, a2):
        w = v.astype(np.float64).copy()
        for q in basis:
            w -= q * float(q @ w)
        n = float(np.linalg.norm(w))
        if n > 1e-12 * max(1.0, float(np.linalg.norm(v))):
            basis.append(w / n)
    if not basis:
        x = np.zeros(a1.size)
        x[0] = 1.0
        return x
    qmat = np.stack(basis)
    residual2 = 1.0 - np.sum(qmat**2, axis=0)
    i = int(np.argmax(residual2))
    x = -qmat.T @ qmat[:, i]
    x[i] += 1.0
    n = float(np.linalg.norm(x))
    if n <= 1e-8:
        raise NumericalError("no usable direction orthogonal to the constraints")
    return x / n


def rank_reduce(inst: SdpInstance, q, rank_tol: float = 1e-9) -> RankReductionTrace:
    """Deflate a feasible PSD solution to rank one.

    Each step preserves tr(A q) and tr(q), keeps q PSD, strictly reduces the
    numeric rank, and never increases tr(C q); from rank r it finishes in at
    most r-1 steps.  A rank <= 1 input is returned unchanged.
    """
    q = numlin.hermitianize(numlin.check_finite(q, "q"))
    if q.shape != inst.c.shape:
        raise ValueError("q dimension does not match the instance")
    iterations: list[tuple[int, float, float]] = []
    for _ in range(inst.dim + 1):
        rank = numlin.numeric_rank(q, rank_tol) if np.any(q) else 0
        if rank <= 1:
            return RankReductionTrace(iterations=iterations, final_q=q)
        v = numlin.gram_factor(q, rank_tol)
        m_a = numlin.hermitianize(v.conj().T @ inst.a @ v)
        m_t = numlin.hermitianize(v.conj().T @ v)
        x_vec = _null_direction(_herm_to_vec(m_a), _herm_to_vec(m_t))
        x = _vec_to_herm(x_vec, rank)
        m_c = numlin.hermitianize(v.conj().T @ inst.c @ v)
        if float(np.trace(m_c @ x).real) < 0.0:
            x = -x
        sigma1 = float(numlin.eigvals_hermitian(x)[-1])
        if sigma1 <= 1e-12:
            raise NumericalError(
                "deflation direction has no positive eigenvalue; the trace "
                "constraint should force indefiniteness"
            )
        q = numlin.hermitianize(v @ (np.eye(rank) - x / sigma1) @ v.conj().T)
        iterations.append((rank, sigma1, float(np.trace(inst.c @ q).real)))
    raise NumericalError("rank reduction failed to reach rank one")


def certify_instance(inst: SdpInstance):
    """Solve one instance in closed form and certify it.

    Returns (q, solution, certificate, kkt_report) without gating on the gap;
    solve_sdp_via_reduction adds the gap assertion.
    """
    h_self, h_cross = inst.channels()
    sol = optimal_weights(DecoupledProblem(h_self=h_self, h_cross=h_cross,
                                           p=inst.p, z=inst.z))
    q = covariance_of(sol.w)
    cert = dual_certificate(inst, sol.leakage)
    report = kkt_check(inst, q, cert)
    return q, sol, cert, report


def gap_tolerance(inst: SdpInstance) -> float:
    """Relative gap gate for an instance: interior vs endpoint z."""
    z_max = inst.p * float(np.trace(inst.a).real)
    at_endpoint = inst.z <= 1e-9 * max(1.0, z_max) or inst.z >= z_max * (1.0 - 1e-9)
    return GAP_TOL_ENDPOINT if at_endpoint else GAP_TOL_INTERIOR


def solve_sdp_via_reduction(inst: SdpInstance) -> np.ndarray:
    """Rank-one optimal covariance, validated by the dual certificate.

    Raises OptimalityError when |gap| exceeds the gate (1e-6 * max(1, primal)
    at interior z, 1e-5 at the range endpoints) -- the tripwire that surfaces
    bugs in either the closed form or the certificate.
    """
    q, sol, cert, _ = certify_instance(inst)
    if abs(cert.gap) > gap_tolerance(inst) * max(1.0, sol.leakage):
        raise OptimalityError(
            f"duality gap {cert.gap:.3e} exceeds tolerance at z={inst.z:.12g} "
            f"(primal {sol.leakage:.12g}, dual {cert.dual_value:.12g})"
        )
    return q
