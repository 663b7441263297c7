"""Optimality certificates and rank-one recovery for the per-node SDP.

The per-node leakage problem in SDP form is

    minimize    tr(C Q)
    subject to  tr(A Q) = z,   tr(Q) <= p,   Q >= 0,

with C = Diag(c), c = |h_self|^2, and A = h h†, h = h_cross, for the
`DecoupledProblem` (h_self, h_cross, p, z).  Its Lagrange dual (in the sign
convention that makes weak duality hold for the trace inequality) is

    maximize    lam1 * z + lam2 * p
    subject to  Z = C - lam1*A - lam2*I >= 0,   lam2 <= 0.

Like the primal optimum (the filter of `beamform` loaded by eps), the dual
optimum is two scalars: with s1 = h† (C + eps I)^{-1} h, lam1 = 1/s1 and
lam2 = -eps.  Z is diagonal plus rank one, so it is PSD exactly when the
Schur margin 1 - lam1 * sum_k |h_k|^2 / (c_k + eps) is >= 0 (0 at
lam1 = 1/s1), and it annihilates (C + eps I)^{-1} h, the direction of w,
so the dual value z/s1 - eps*p equals the leakage.  Unloaded filters take
s1 at its eps -> 0 limit, infinite (lam1 = 0) when h reaches an antenna
with c = 0; z = 0 takes the dual (0, 0).  At z = z_max the optimum is the
MRT beam (eps -> inf), the dual supremum is not attained, and the
certificate takes eps = 2^25 * std, std the |h_k|^2-weighted standard
deviation of c: its gap is at most about 5e-8 * p * std.  The reported lam1
is exactly feasible for the float c and the exact h h† of the float h.
No m x m matrix is formed and no eigenvalue computed: the KKT residuals of
Q = w w† need only |w|^2, |h†w|^2 and ||w||^2 (`_kkt_residuals`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, replace

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

# The finite loading that certifies the MRT point, in units of the spread of c.
_MRT_LOADING = 2.0**25
_UNIT_ROUNDOFF = 2.0**-53
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
    slack_margin: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KktReport:
    """Stationarity-system residuals of (Q, lam1, lam2), as `_kkt_residuals` defines them.

    q_min_eigenvalue is the identity 0 (m >= 2) or ||w||^2 (m = 1) for Q = w w†.
    """

    primal_target_residual: float
    power_excess: float
    q_min_eigenvalue: float
    slack_margin: float
    complementarity_residual: float
    tol: float = KKT_TOL

    @property
    def passed(self) -> bool:
        return bool(kkt_passed(*astuple(self)))

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def kkt_passed(primal_target_residual, power_excess, q_min_eigenvalue, slack_margin,
               complementarity_residual, tol=KKT_TOL):
    """KktReport.passed, elementwise: the scale-free margin against round-off, the rest at tol."""
    return ((primal_target_residual <= tol) & (power_excess <= tol)
            & (q_min_eigenvalue >= -tol) & (slack_margin >= -numlin.ROUNDOFF)
            & (complementarity_residual <= tol))


@dataclass(frozen=True)
class RankReductionTrace:
    """Deflation history: (rank_before, sigma1, objective_after) per step."""

    iterations: list[tuple[int, float, float]] = field(default_factory=list)
    final_q: np.ndarray | None = None


@dataclass(frozen=True)
class CertificateCurve:
    """One node's weights w (one row per z), certificates and KKT residuals, as arrays over z."""

    epsilon: np.ndarray
    primal: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    dual_value: np.ndarray
    gap: np.ndarray
    slack_margin: np.ndarray
    primal_target_residual: np.ndarray
    power_excess: np.ndarray
    q_min_eigenvalue: np.ndarray
    complementarity_residual: np.ndarray
    w: np.ndarray

    def certificates(self) -> list[Certificate]:
        return [Certificate(*row) for row in zip(*(a.tolist() for a in (
            self.lambda1, self.lambda2, self.dual_value, self.gap, self.slack_margin)))]

    def kkt_passed(self) -> np.ndarray:
        """KktReport.passed at every z."""
        return kkt_passed(self.primal_target_residual, self.power_excess, self.q_min_eigenvalue,
                          self.slack_margin, self.complementarity_residual)

    def kkt_reports(self) -> list[KktReport]:
        return [KktReport(*row) for row in zip(*(a.tolist() for a in (
            self.primal_target_residual, self.power_excess, self.q_min_eigenvalue,
            self.slack_margin, self.complementarity_residual)))]


def dual_value_at(prob: DecoupledProblem, lam1: float) -> float:
    """The dual function g(lam1) = lam1*z + p*min(0, lambda_min(C - lam1*A))."""
    c, a = leakage_matrix(prob.h_self), covariance_of(prob.h_cross)
    lam_min = numlin.min_eigenvalue(c - lam1 * a)
    val = lam1 * prob.z + prob.p * min(0.0, lam_min)
    if not math.isfinite(val):
        raise NumericalError(f"dual objective non-finite at lambda1={lam1!r}")
    return val


def _kkt_residuals(c, habs2, z, p, q_diag, hqh, tr_q, lam1, lam2):
    """(target, power excess, slack margin, complementarity) of each row's Q.

    Row k gives diag(Q) (q_diag[k], of the node's m), h†Q h and tr Q, at the
    dual (lam1[k], lam2[k]).  With d = c - lam2: the target residual
    |h†Q h - z| and the power excess max(0, tr Q - p) are absolute; the
    margin 1 - lam1 * sum_k habs2_k / d_k is >= 0 exactly when Z >= 0 (for
    lam1 >= 0): -inf where some d_k < 0 or d_k = 0 < habs2_k with lam1 > 0,
    and 1 at lam1 = 0; tr(Q Z) = sum_k d_k Q_kk - lam1 h†Q h is taken
    relative to tr Q * max_k d_k.
    """
    d = c - lam2[:, None]
    with np.errstate(all="ignore"):
        terms = np.where(habs2 == 0.0, 0.0, habs2 / d)  # inf where d_k = 0 < habs2_k
        margin = np.where((d < 0.0).any(axis=1), -np.inf,
                          np.where(lam1 == 0.0, 1.0, 1.0 - lam1 * terms.sum(axis=1)))
        comp = np.abs(np.sum(d * q_diag, axis=1) - lam1 * hqh)
        comp = np.where(comp == 0.0, 0.0, comp / (tr_q * d.max(axis=1)))
    return np.abs(hqh - z), np.maximum(0.0, tr_q - p), margin, comp


def _certify(c, h, p: float, z, eps, w) -> CertificateCurve:
    """Certificates of weights w (n, m) solved at loadings eps; NumericalError if not finite.

    lam1 is fl(1/s1) shrunk by 2(m + 4) units of round-off, which covers the
    rounding of s1, so the exact margin is >= 0.  At z_max the loading L
    balances the unattained supremum, at most p*var/L (var the
    |h_k|^2-weighted variance of c), against the rounding of lam1 and z,
    about u*p*L, and lam1 is the largest float with margin >= 0 in rational
    arithmetic.  Where lam1*z is over 64 times max(1, primal), the float sum
    would lose more than 2^-46 of it, so the dual value is lam1*z + lam2*p
    in rational arithmetic, rounded once.
    """
    from fractions import Fraction

    m = c.size
    habs2 = np.abs(h) ** 2
    at_max = np.isinf(eps)
    load = eps
    if at_max.any():  # the |h_k|^2-weighted spread of c, in exactly rounded sums
        t, scale = habs2.tolist(), float(np.max(c)) or 1.0
        cs = [b / scale for b in c.tolist()]
        mean = math.fsum(a * b for a, b in zip(t, cs)) / math.fsum(t)
        var = math.fsum(a * (b - mean) ** 2 for a, b in zip(t, cs)) / math.fsum(t)
        load = np.where(at_max, _MRT_LOADING * scale * math.sqrt(var), eps)
    with np.errstate(all="ignore"):
        # inf where load = c_k = 0 < |h_k|^2 (the eps -> 0 limit), 0 where h_k = 0
        s1 = np.where(habs2 == 0.0, 0.0, habs2 / (c + load[:, None])).sum(axis=1)
        lam1 = np.where(z == 0.0, 0.0, (1.0 / s1) * (1.0 - 2 * (m + 4) * _UNIT_ROUNDOFF))
        lam2 = np.where(load > 0.0, -load, 0.0)
        for k in np.flatnonzero(at_max & (lam1 > 0.0) & np.isfinite(lam1)):
            d = Fraction(load[k])
            s1_k = sum((Fraction(a.real) ** 2 + Fraction(a.imag) ** 2) / (Fraction(b) + d)
                       for a, b in zip(h.tolist(), c.tolist()) if a)
            lam1[k] = float(1 / s1_k)  # the nearest float: the one below is below 1/s1_k
            if Fraction(lam1[k]) * s1_k > 1:
                lam1[k] = np.nextafter(lam1[k], 0.0)
        w_abs2 = np.abs(w) ** 2
        primal = np.sum(c * w_abs2, axis=1)
        dual = lam1 * z + lam2 * p
        for k in np.flatnonzero(np.isfinite(dual) & (lam1 * z > 64.0 * np.maximum(1.0, primal))):
            dual[k] = float(Fraction(lam1[k]) * Fraction(z[k]) + Fraction(lam2[k]) * Fraction(p))
        tr_q = w_abs2.sum(axis=1)
        # h†w by rows in real arithmetic, neither a BLAS product nor a complex
        # multiply, whose loops may fuse: one z and a whole grid round alike
        re = np.sum(w.real * h.real + w.imag * h.imag, axis=1)
        im = np.sum(w.imag * h.real - w.real * h.imag, axis=1)
        kkt = _kkt_residuals(c, habs2, z, p, w_abs2, re * re + im * im, tr_q, lam1, lam2)
    bad = ~np.isfinite([lam1, lam2, dual, primal, *kkt]).all(axis=0)
    if bad.any():
        raise NumericalError(f"certificate not finite at z={z[np.argmax(bad)]:.12g}")
    q_min = tr_q if m == 1 else np.zeros_like(tr_q)  # the eigenvalues of w w†
    return CertificateCurve(epsilon=eps, primal=primal, lambda1=lam1, lambda2=lam2,
                            dual_value=dual, gap=primal - dual, slack_margin=kkt[2],
                            primal_target_residual=kkt[0], power_excess=kkt[1],
                            q_min_eigenvalue=q_min, complementarity_residual=kkt[3], w=w)


def certify_curves(probs, z_arrays) -> list[CertificateCurve]:
    """Solve every z of each node as `leakage_curves` does, in one solve, and certify each.

    probs[i] is a `DecoupledProblem` (its z is not used) and z_arrays[i] its
    delivered powers; the nodes must share one antenna count.  Each node
    gets exactly the curve `certify_curve` gives it alone.  The solve's
    errors come first, as `_solve_curves` raises them; then each distinct
    node's certificates are checked in turn.  A node that `_solve_curves`
    finds bitwise equal to an earlier one is certified once: it gets the
    earlier node's `CertificateCurve`, the same object.
    """
    solved = _solve_curves(probs, z_arrays)
    curves: dict[int, CertificateCurve] = {}  # by id of a solved tuple, all alive in `solved`
    for prob, node in zip(probs, solved):
        if id(node) not in curves:
            z, eps, w, _ = node
            curves[id(node)] = _certify(np.abs(prob.h_self) ** 2, prob.h_cross, prob.p,
                                        z, eps, w)
    return [curves[id(node)] for node in solved]


def certify_curve(h_self, h_cross, p: float, zs) -> CertificateCurve:
    """`certify_curves` of one node: solve every z as `leakage_curve` does, certify each."""
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
    h = prob.h_cross
    q = numlin.hermitianize(numlin.check_finite(q, "q"))
    if q.shape != (h.size, h.size):
        raise ValueError("q dimension does not match the instance")
    q_diag = np.diagonal(q).real
    target, power, margin, comp = _kkt_residuals(
        np.abs(prob.h_self) ** 2, np.abs(h) ** 2, prob.z, prob.p, q_diag[None],
        np.array([(h.conj() @ q @ h).real]), np.array([q_diag.sum()]),
        np.array([cert.lambda1]), np.array([cert.lambda2]))
    return KktReport(float(target[0]), float(power[0]), numlin.min_eigenvalue(q),
                     float(margin[0]), float(comp[0]))


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

    Each step factors q = V V†, picks a nonzero Hermitian X with
    tr(V†AV X) = tr(V†V X) = 0 (two real equations in rank^2 unknowns),
    flips its sign so that tr(V†CV X) >= 0, and deflates
    q <- V (I - X/sigma1) V†, sigma1 the largest eigenvalue of X, which is
    positive: tr(V†V X) = 0 against the positive-definite V†V makes X
    indefinite.  So each step keeps tr(A q), tr(q) and q PSD, strictly
    reduces the numeric rank and never increases tr(C q); from rank r it
    finishes in at most r-1 steps.  A rank <= 1 input is returned unchanged.
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
