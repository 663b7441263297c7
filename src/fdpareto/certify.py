"""Optimality certificates and rank-one recovery for the per-node SDP.

The per-node leakage problem in SDP form is

    minimize    tr(C Q)
    subject to  tr(A Q) = z,   tr(Q) <= p,   Q >= 0,

with C = Diag(c), c = |h_self|^2, and A = h h† of rank one, h = h_cross.
An instance is the `DecoupledProblem` (h_self, h_cross, p, z): the two
channel vectors fix C and A, and only the routines that need dense
matrices (`dual_value_at`, `kkt_check`, `rank_reduce`) build them, with
`leakage_matrix` and `covariance_of`.  Its Lagrange dual (in the
sign convention that makes weak duality hold for the trace inequality) is

    maximize    lam1 * z + lam2 * p
    subject to  Z = C - lam1*A - lam2*I >= 0,   lam2 <= 0.

Like the primal optimum (the filter of `beamform` loaded by eps), the dual
optimum is closed form: with s1 = h† (C + eps I)^{-1} h, lam1 = 1/s1 and
lam2 = -eps.  Z = (C + eps I) - h h†/s1 is PSD by Cauchy-Schwarz and
annihilates (C + eps I)^{-1} h, the direction of w, so the dual value
z/s1 - eps*p equals the leakage.  Unloaded filters take s1 at its eps -> 0
limit, infinite (lam1 = 0, zero leakage) when h reaches an antenna with
c = 0; z = 0 takes the dual (0, 0).  At z = z_max the optimum is the MRT
beam (eps -> inf) and the dual supremum is not attained: the certificate
takes eps = 2^27 max(1, max c), with a gap of at most about 2^-27 of the
primal, and evaluates lam1*z + lam2*p as p * sum(c_k |h_k|^2/(c_k + eps)) / s1
to avoid its cancellation.  That Z has entries of size eps, so its smallest
computed eigenvalue carries round-off of size eps * 1e-16 (report-only).

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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numlin
from .beamform import (
    DecoupledProblem,
    _solve_curves,
    covariance_of,
    leakage_matrix,
    optimal_weights,
)
from .errors import NumericalError

# The finite loading, in units of max(1, max c), that certifies the MRT point.
_MRT_LOADING = 2.0**27
KKT_TOL = 1e-7
# Gap gates: Slater holds strictly inside the z range, so the certificate is
# sharp there; at the range endpoints conditioning degrades and the gate is
# relaxed one order.
GAP_TOL_INTERIOR = 1e-6
GAP_TOL_ENDPOINT = 1e-5


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
    tol: float = KKT_TOL

    def checks(self) -> dict[str, bool]:
        return kkt_checks(self.primal_target_residual, self.power_excess,
                          self.q_min_eigenvalue, self.slack_min_eigenvalue,
                          self.complementarity_residual, self.tol)

    @property
    def passed(self) -> bool:
        return all(self.checks().values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def kkt_checks(primal_target_residual, power_excess, q_min_eigenvalue,
               slack_min_eigenvalue, complementarity_residual, tol=KKT_TOL) -> dict:
    """The KktReport checks of residuals at tol: bools for floats, boolean arrays for arrays."""
    return {
        "primal_target": primal_target_residual <= tol,
        "power": power_excess <= tol,
        "q_psd": q_min_eigenvalue >= -tol,
        "slack_psd": slack_min_eigenvalue >= -tol,
        "complementarity": complementarity_residual <= tol,
    }


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


@dataclass(frozen=True)
class CertificateCurve:
    """One node's solutions, certificates and KKT residuals, as arrays over z.

    w holds the optimal weights, one row of shape (m,) per z.
    """

    epsilon: np.ndarray
    primal: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    dual_value: np.ndarray
    gap: np.ndarray
    slack_min_eig: np.ndarray
    primal_target_residual: np.ndarray
    power_excess: np.ndarray
    q_min_eigenvalue: np.ndarray
    complementarity_residual: np.ndarray
    w: np.ndarray

    def certificates(self) -> list[Certificate]:
        return [Certificate(*row) for row in zip(
            self.lambda1.tolist(), self.lambda2.tolist(), self.dual_value.tolist(),
            self.gap.tolist(), self.slack_min_eig.tolist())]

    def kkt_passed(self) -> np.ndarray:
        """KktReport.passed at every z, from the same checks."""
        checks = kkt_checks(self.primal_target_residual, self.power_excess,
                            self.q_min_eigenvalue, self.slack_min_eig,
                            self.complementarity_residual)
        return np.logical_and.reduce(list(checks.values()))

    def kkt_reports(self) -> list[KktReport]:
        return [KktReport(*row) for row in zip(
            self.primal_target_residual.tolist(), self.power_excess.tolist(),
            self.q_min_eigenvalue.tolist(), self.slack_min_eig.tolist(),
            self.complementarity_residual.tolist())]


def dual_value_at(prob: DecoupledProblem, lam1: float) -> float:
    """The dual function g(lam1) = lam1*z + p*min(0, lambda_min(C - lam1*A))."""
    c, a = leakage_matrix(prob.h_self), covariance_of(prob.h_cross)
    lam_min = numlin.min_eigenvalue(c - lam1 * a)
    val = lam1 * prob.z + prob.p * min(0.0, lam_min)
    if not math.isfinite(val):
        raise NumericalError(f"dual objective non-finite at lambda1={lam1!r}")
    return val


def _kkt_residuals(a, z, p, q, slack):
    """The five KKT residuals of KktReport for Hermitian stacks q, slack (n, m, m)."""
    with np.errstate(all="ignore"):
        return (
            np.abs(np.einsum("ij,nji->n", a, q).real - z),
            np.maximum(0.0, np.einsum("nii->n", q).real - p),
            np.linalg.eigvalsh(q)[:, 0],
            np.linalg.eigvalsh(slack)[:, 0],
            np.abs(np.einsum("nij,nji->n", q, slack).real),
        )


def _certify(c, h, p: float, z, eps, w) -> CertificateCurve:
    """Certificates of weights w (n, m) solved at loadings eps; NumericalError if not finite."""
    a_abs2 = np.abs(h) ** 2
    at_max = np.isinf(eps)
    load = np.where(at_max, max(1.0, float(np.max(c))) * _MRT_LOADING, eps)
    with np.errstate(all="ignore"):
        # inf where load = c_k = 0 < |h_k|^2 (the eps -> 0 limit), 0 where h_k = 0
        terms = np.where(a_abs2 == 0.0, 0.0, a_abs2 / (c + load[:, None]))
        s1 = terms.sum(axis=1)
        lam1 = np.where(z == 0.0, 0.0, 1.0 / s1)
        lam2 = np.where(load > 0.0, -load, 0.0)
        dual = lam1 * z + lam2 * p
        dual[at_max] = p * (c * terms[at_max]).sum(axis=1) / s1[at_max]
        primal = np.sum(c * np.abs(w) ** 2, axis=1)
        a = np.outer(h, h.conj())
        slack = np.diag(c) - lam1[:, None, None] * a - lam2[:, None, None] * np.eye(c.size)
    kkt = _kkt_residuals(a, z, p, w[:, :, None] * w.conj()[:, None, :], slack)
    bad = ~np.isfinite([lam1, lam2, dual, primal, *kkt]).all(axis=0)
    if bad.any():
        raise NumericalError(f"certificate not finite at z={z[np.argmax(bad)]:.12g}")
    return CertificateCurve(epsilon=eps, primal=primal, lambda1=lam1, lambda2=lam2,
                            dual_value=dual, gap=primal - dual,
                            slack_min_eig=kkt[3], primal_target_residual=kkt[0],
                            power_excess=kkt[1], q_min_eigenvalue=kkt[2],
                            complementarity_residual=kkt[4], w=w)


def certify_curves(probs, z_arrays) -> list[CertificateCurve]:
    """Solve every z of each node as `leakage_curves` does, in one solve, and certify each.

    probs[i] is a `DecoupledProblem` (its z is not used) and z_arrays[i] its
    delivered powers; the nodes must share one antenna count.  Each node
    gets exactly the curve `certify_curve` gives it alone.  The solve's
    errors come first, as `_solve_curves` raises them; then each node's
    certificates are checked in turn.
    """
    return [_certify(np.abs(prob.h_self) ** 2, prob.h_cross, prob.p, z, eps, w)
            for prob, (z, eps, w, _) in zip(probs, _solve_curves(probs, z_arrays))]


def certify_curve(h_self, h_cross, p: float, zs) -> CertificateCurve:
    """Solve every z of one node as `leakage_curve` does, and certify each one.

    `certify_curves` of the one node.
    """
    prob = DecoupledProblem(h_self=h_self, h_cross=h_cross, p=p, z=0.0)
    return certify_curves([prob], [zs])[0]


def dual_certificate(prob: DecoupledProblem, primal_value: float) -> Certificate:
    """The optimal dual of an instance and its gap to primal_value.

    The gap of a feasible primal point is nonnegative up to round-off (weak
    duality) and vanishes at the optimum (strong duality).
    """
    if primal_value < 0:
        raise ValueError("primal_value must be nonnegative")
    cert = certify_instance(prob)[2]
    return replace(cert, gap=primal_value - cert.dual_value)


def kkt_check(prob: DecoupledProblem, q, cert: Certificate) -> KktReport:
    """Report-only residuals of the stationarity system for (q, cert)."""
    c, a = leakage_matrix(prob.h_self), covariance_of(prob.h_cross)
    q = numlin.hermitianize(numlin.check_finite(q, "q"))
    if q.shape != c.shape:
        raise ValueError("q dimension does not match the instance")
    slack = c - cert.lambda1 * a - cert.lambda2 * np.eye(c.shape[0])
    residuals = _kkt_residuals(a, prob.z, prob.p, q[None], slack[None])
    return KktReport(*(float(r[0]) for r in residuals))


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


def rank_reduce(prob: DecoupledProblem, q, rank_tol: float = 1e-9) -> RankReductionTrace:
    """Deflate a feasible PSD solution to rank one.

    Each step preserves tr(A q) and tr(q), keeps q PSD, strictly reduces the
    numeric rank, and never increases tr(C q); from rank r it finishes in at
    most r-1 steps.  A rank <= 1 input is returned unchanged.
    """
    c, a = leakage_matrix(prob.h_self), covariance_of(prob.h_cross)
    q = numlin.hermitianize(numlin.check_finite(q, "q"))
    if q.shape != c.shape:
        raise ValueError("q dimension does not match the instance")
    iterations: list[tuple[int, float, float]] = []
    for _ in range(c.shape[0] + 1):
        rank = numlin.numeric_rank(q, rank_tol) if np.any(q) else 0
        if rank <= 1:
            return RankReductionTrace(iterations=iterations, final_q=q)
        v = numlin.gram_factor(q, rank_tol)
        m_a = numlin.hermitianize(v.conj().T @ a @ v)
        m_t = numlin.hermitianize(v.conj().T @ v)
        x_vec = _null_direction(_herm_to_vec(m_a), _herm_to_vec(m_t))
        x = _vec_to_herm(x_vec, rank)
        m_c = numlin.hermitianize(v.conj().T @ c @ v)
        if float(np.trace(m_c @ x).real) < 0.0:
            x = -x
        sigma1 = float(numlin.eigvals_hermitian(x)[-1])
        if sigma1 <= 1e-12:
            raise NumericalError(
                "deflation direction has no positive eigenvalue; the trace "
                "constraint should force indefiniteness"
            )
        q = numlin.hermitianize(v @ (np.eye(rank) - x / sigma1) @ v.conj().T)
        iterations.append((rank, sigma1, float(np.trace(c @ q).real)))
    raise NumericalError("rank reduction failed to reach rank one")


def certify_instance(prob: DecoupledProblem):
    """Solve one instance in closed form and certify it: `certify_curve` at one z.

    Returns (q, solution, certificate, kkt_report) without gating on the gap;
    `gap_tolerance` gives the gate.
    """
    sol = optimal_weights(prob)
    curve = _certify(np.abs(prob.h_self) ** 2, prob.h_cross, prob.p, np.array([prob.z]),
                     np.array([sol.epsilon]), sol.w[None, :])
    return covariance_of(sol.w), sol, curve.certificates()[0], curve.kkt_reports()[0]


def gap_tolerance(prob: DecoupledProblem) -> float:
    """Relative gap gate for an instance: interior vs endpoint z."""
    z_max = prob.z_max
    at_endpoint = prob.z <= 1e-9 * max(1.0, z_max) or prob.z >= z_max * (1.0 - 1e-9)
    return GAP_TOL_ENDPOINT if at_endpoint else GAP_TOL_INTERIOR
