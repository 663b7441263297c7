"""Brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the package's own solvers: feasible competitors are
drawn by direct sampling, and the dual value is maximized on a dense 1-D
grid with numpy's LAPACK eigensolver.  The scalar references for array
kernels (`optimal_weights_reference`, `sweep_rate_point`,
`pareto_filter_reference`, `rate_pair_reference`,
`covariance_faults_reference`, `sampled_rates_reference`,
`domination_oracle_reference`, `escape_distances_reference`,
`curve_to_csv_reference`, `equal_rate_point_reference`,
`certificate_records_reference`) evaluate one point at a time,
`float_tokens_reference` and `percent_records_reference` format every
certificate number with float.__repr__ and every record with one `%` where
the package builds their bytes in arrays (`json_floats`),
`written_maxima_reference` formats and reads back every rate where the
package formats only neighbours that can tie, `joined_csv_reference` joins
every field's text where the package formats whole rows at once,
`percent_csv_reference` renders a curve's rows in one `%` call where the
package builds their bytes in arrays (`pareto._g12`),
`maximal_cells_reference` rates and sorts the whole grid where the package
prunes it by blocks, `dual_certificate_reference` maximizes the dual
numerically where the package uses its closed form, and
`escape_distances_bisection` bisects the whole curve where the package
bisects only a bracket.  `jacobi_eigh`, a cyclic Jacobi eigensolver on
plain Python scalars, is the independent check of the package's LAPACK
eigen-solves; `low_z_condition_bound`, `self_leakage` and
`residual_noise_variance` are closed forms that only the tests evaluate.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from fdpareto import numlin
from fdpareto.beamform import (
    _EPS_BISECT_REL,
    _MAX_DOUBLINGS,
    _SINGULAR_DELTA_REL,
    _Z_CLAMP_ABS,
    _Z_CLAMP_REL,
    BeamformerSolution,
    covariance_of,
    leakage_matrix,
    mrt_weights,
)
from fdpareto.certify import KKT_TOL, Certificate, dual_value_at
from fdpareto.errors import InfeasibleError, NumericalError
from fdpareto.pareto import CSV_HEADER, ORACLE_TOL, OracleReport, grid_slack, pareto_indices
from fdpareto.rates import PSD_TOL, RatePoint, _check_rates, _power_limit, _rate, _trace_message

# Off-diagonal elements below this fraction of ||A||_F are left unrotated.
_JACOBI_TOL = 1e-15
_JACOBI_MAX_SWEEPS = 100


def _jacobi(a, want_vectors):
    """Cyclic complex Jacobi on a Hermitian matrix; returns (diag, vectors).

    The rotations run on plain Python scalars (per-element numpy calls would
    dominate at dim <= 8).
    """
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128) if want_vectors else None
    norm = numlin.frobenius_norm(a)
    if norm == 0.0 or n == 1:
        return np.real(np.diag(a)).copy(), eye
    w = [list(row) for row in a.tolist()]
    v = [list(row) for row in eye.tolist()] if want_vectors else None
    skip = _JACOBI_TOL * norm
    sqrt = math.sqrt
    for _ in range(_JACOBI_MAX_SWEEPS):
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
        f"Jacobi eigensolver did not converge within {_JACOBI_MAX_SWEEPS} sweeps (dim={n})"
    )


def jacobi_eigh(a, want_vectors=True):
    """(eigenvalues ascending, eigenvectors or None) of the Hermitian part of a.

    The independent reference for `numlin.hermitian_eig` and
    `eigvals_hermitian`: cyclic Jacobi rotations, accurate to near machine
    precision at dim <= 8.  Raises NumericalError if the sweep cap is hit.
    """
    diag, vec = _jacobi(numlin.hermitianize(numlin.check_finite(a)), want_vectors)
    order = np.argsort(diag, kind="stable")
    return diag[order], None if vec is None else vec[:, order]


def jacobi_min_eigenvalue(a):
    return float(jacobi_eigh(a, want_vectors=False)[0][0])


def jacobi_is_psd(a, tol):
    """`numlin.is_psd`'s rule, lambda_min >= -(tol + ROUNDOFF * ||A||_F), by Jacobi."""
    return jacobi_min_eigenvalue(a) >= -(tol + numlin.ROUNDOFF * numlin.frobenius_norm(a))


def low_z_condition_bound(h_self, h_cross, p):
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


def self_leakage(h_self, q):
    """Front-end leakage h_self† diag(Q) h_self of covariance Q into its own receiver.

    Only the diagonal of Q enters (per-antenna transmit powers); the result
    is >= 0 for any PSD Q.
    """
    h_self = np.asarray(h_self, dtype=np.complex128).reshape(-1)
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != (h_self.shape[0], h_self.shape[0]):
        raise ValueError(
            f"covariance shape {q.shape} does not match channel dim {h_self.shape[0]}"
        )
    return float(np.sum(np.abs(h_self) ** 2 * np.real(np.diag(q))))


def residual_noise_variance(h_self, q, frontend):
    """Aggregate noise power at a receiver: sigma2 + beta * h_self† diag(Q) h_self."""
    return frontend.sigma2 + frontend.beta * self_leakage(h_self, q)


def sample_feasible_weights(rng, h_cross, p, z, n):
    """Random weight vectors with |w† h_cross|^2 = z and ||w||^2 <= p.

    Draws isotropic complex vectors, rescales each so the delivered power is
    exactly z, and discards draws that bust the power budget.  Returns an
    (n_kept, m) array.
    """
    m = h_cross.shape[0]
    u = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    ips = u.conj() @ h_cross
    good = np.abs(ips) > 1e-12
    u, ips = u[good], ips[good]
    w = u * (np.sqrt(z) / np.abs(ips))[:, None]
    power = np.sum(np.abs(w) ** 2, axis=1)
    return w[power <= p * (1.0 + 1e-12)]


def sample_feasible_weights_stratified(rng, h_cross, p, z, n):
    """Feasible competitors spanning the whole power-feasible cone.

    Samples the squared cosine t between the weight direction and the cross
    channel uniformly over its feasible range [z/(p*||h||^2), 1] and builds
    w = sqrt(z)/(sqrt(t)*||h||) * (sqrt(t)*h_hat + sqrt(1-t)*v_hat) with a
    random unit v_hat orthogonal to h_hat, so |w† h|^2 = z exactly and
    ||w||^2 <= p always -- no draws are discarded even for z near its max.
    """
    m = h_cross.shape[0]
    nh = float(np.linalg.norm(h_cross))
    hhat = h_cross / nh
    f = z / (p * nh**2)
    t = rng.uniform(min(f, 1.0), 1.0, size=n)
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    along = g @ hhat.conj()
    perp = g - along[:, None] * hhat[None, :]
    norms = np.linalg.norm(perp, axis=1)
    norms[norms == 0] = 1.0
    vhat = perp / norms[:, None]
    w_hat = np.sqrt(t)[:, None] * hhat[None, :] + np.sqrt(1.0 - t)[:, None] * vhat
    return w_hat * (np.sqrt(z) / (np.sqrt(t) * nh))[:, None]


def leakage_of(h_self, w_rows):
    """Self-leakage w† C w for each row, C = Diag(|h_self|^2)."""
    c = np.abs(h_self) ** 2
    return np.abs(w_rows) ** 2 @ c


def dual_value_on_grid(c_mat, a_mat, z, p, lam_grid):
    """max over the grid of lam*z + p*min(0, lambda_min(C - lam*A))."""
    best = -np.inf
    for lam in lam_grid:
        lam_min = np.linalg.eigvalsh(c_mat - lam * a_mat)[0]
        best = max(best, lam * z + p * min(0.0, lam_min))
    return best


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_CAP_DOUBLINGS = 24
_GOLDEN_MAX_ITERS = 200


def dual_certificate_reference(prob, primal_value):
    """Maximize the dual by golden section on an expanding lambda1 bracket.

    The reference for the closed-form certificate.  g(lam1) = lam1*z +
    p*min(0, lambda_min(C - lam1*A)) is concave, and its optimum never sits
    at lam1 < 0 because g(lam1) = lam1*z <= g(0) there.  At z = p*tr(A) the
    supremum is approached only as lam1 -> inf, so the bracket expansion is
    capped at 2^24 times its initial scale.
    """
    if primal_value < 0:
        raise ValueError("primal_value must be nonnegative")
    c_mat, a_mat = leakage_matrix(prob.h_self), covariance_of(prob.h_cross)
    tr_a = float(np.trace(a_mat).real)
    best_x, best_val = 0.0, dual_value_at(prob, 0.0)

    if tr_a > 0.0:
        scale = max(1.0, float(np.max(np.real(np.diag(c_mat))))) / tr_a
        cap = scale * 2.0**_BRACKET_CAP_DOUBLINGS
        # Expand until g turns downward (or the endpoint cap is reached).
        xs = [0.0, scale]
        vals = [best_val, dual_value_at(prob, scale)]
        while vals[-1] > vals[-2] and xs[-1] < cap:
            xs.append(min(2.0 * xs[-1], cap))
            vals.append(dual_value_at(prob, xs[-1]))
        if vals[-1] > best_val:
            best_x, best_val = xs[-1], vals[-1]
        lo = xs[-3] if len(xs) >= 3 else 0.0
        hi = xs[-1]

        a, b = lo, hi
        c_pt = b - _GOLDEN * (b - a)
        d_pt = a + _GOLDEN * (b - a)
        fc = dual_value_at(prob, c_pt)
        fd = dual_value_at(prob, d_pt)
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
                fd = dual_value_at(prob, d_pt)
            else:
                b, d_pt, fd = d_pt, c_pt, fc
                c_pt = b - _GOLDEN * (b - a)
                fc = dual_value_at(prob, c_pt)

    lam1 = best_x
    lam2 = min(0.0, jacobi_min_eigenvalue(c_mat - lam1 * a_mat))
    dual_value = lam1 * prob.z + prob.p * lam2
    return Certificate(
        lambda1=lam1,
        lambda2=lam2,
        dual_value=dual_value,
        gap=primal_value - dual_value,
        slack_margin=float(exact_slack_margin(prob.h_self, prob.h_cross, lam1, lam2)),
    )


def exact_slack_margin(h_self, h_cross, lam1, lam2):
    """The Schur margin of Z = C - lam1 A - lam2 I in exact rational arithmetic.

    The verifier of the certificate's feasibility.  C = Diag(c) is the
    package's leakage matrix, c = |h_self|^2 in float64, and A = h h† is
    taken exactly from the float64 h = h_cross: |h_k|^2 = Re(h_k)^2 +
    Im(h_k)^2 as a Fraction.  With d_k = c_k - lam2, the margin is
    1 - lam1 * sum_k |h_k|^2 / d_k (a Fraction), -inf where some d_k < 0 or
    d_k = 0 < |h_k|^2 with lam1 > 0, and 1 at lam1 = 0.  For lam1 >= 0 it
    is >= 0 exactly when Z >= 0.
    """
    terms = []
    for c_k, h_k in zip((np.abs(h_self) ** 2).tolist(), np.asarray(h_cross).tolist()):
        h_k = complex(h_k)
        a_k = Fraction(h_k.real) ** 2 + Fraction(h_k.imag) ** 2
        d_k = Fraction(c_k) - Fraction(lam2)
        if d_k < 0:
            return -math.inf
        if a_k:
            terms.append((a_k, d_k))
    if lam1 == 0:
        return Fraction(1)
    if any(d_k == 0 for _, d_k in terms):
        return -math.inf if lam1 > 0 else math.inf
    return 1 - Fraction(lam1) * sum(a_k / d_k for a_k, d_k in terms)


def exact_dual_objective(lam1, z, lam2, p):
    """lam1*z + lam2*p of float64 inputs, as an exact Fraction."""
    return Fraction(lam1) * Fraction(z) + Fraction(lam2) * Fraction(p)


def certificate_records_reference(curve, zs, endpoint, rel, tol, ok):
    """One node's certificates list of certificates.json, one dict per record.

    The reference for the CLI's column-wise renderer: json.dumps(indent=2,
    sort_keys=True) of the records, indented to their depth in the document
    (nodes.nodeN.certificates).
    """
    records = [{
        "z": z, "endpoint": end,
        # the MRT beam at z_max is the eps -> inf limit: no finite loading
        "primal": primal, "epsilon": None if math.isinf(eps) else eps,
        "certificate": cert.to_dict(), "gap_rel": r,
        "gap_tol": t, "gap_ok": good, "kkt": kkt.to_dict(),
    } for z, end, primal, eps, cert, r, t, good, kkt in zip(
        zs.tolist(), endpoint.tolist(), curve.primal.tolist(), curve.epsilon.tolist(),
        curve.certificates(), rel.tolist(), tol.tolist(), ok.tolist(),
        curve.kkt_reports())]
    return json.dumps(records, indent=2, sort_keys=True).replace("\n", "\n" + " " * 6)


# One record of nodes.nodeN.certificates, one %s per JSON token, as the CLI
# rendered it row by row before its records were built as word arrays.
_CERTIFICATE_RECORD = """\
        {
          "certificate": {
            "dual_value": %s,
            "gap": %s,
            "lambda1": %s,
            "lambda2": %s,
            "slack_margin": %s
          },
          "endpoint": %s,
          "epsilon": %s,
          "gap_ok": %s,
          "gap_rel": %s,
          "gap_tol": %s,
          "kkt": {
            "complementarity_residual": %s,
            "passed": %s,
            "power_excess": %s,
            "primal_target_residual": %s,
            "q_min_eigenvalue": %s,
            "slack_margin": %s,
            "tol": %s
          },
          "primal": %s,
          "z": %s
        }"""
# json's tokens for the nonnegative floats whose repr is not valid JSON
_NONFINITE_TOKENS = {"nan": "NaN", "inf": "Infinity"}


def float_tokens_reference(values):
    """The JSON token json.dumps writes for each element of a float64 array.

    Each distinct magnitude (by bit pattern) goes through float.__repr__
    once.  A negative value other than NaN takes its magnitude's token
    behind a "-": repr(-x) is "-" + repr(x), and json writes -inf as
    "-Infinity".
    """
    magnitude = np.abs(values)
    distinct, at = np.unique(magnitude.view(np.int64), return_inverse=True)
    texts = [_NONFINITE_TOKENS.get(t, t)
             for t in map(float.__repr__, distinct.view(np.float64).tolist())]
    texts += ["-" + t for t in texts]
    at[np.signbit(values) & (magnitude == magnitude)] += distinct.size
    return [texts[k] for k in at.tolist()]


def bool_tokens_reference(values):
    return np.where(values, "true", "false").tolist()


def percent_records_reference(curve, zs, endpoint, rel, tol, ok):
    """One node's certificates list, one `%` format per record of the columns' tokens.

    The reference for the CLI's word-array renderer (`cli._certificate_records`).
    """
    n = len(zs)
    tokens = float_tokens_reference(np.concatenate((
        curve.dual_value, curve.gap, curve.lambda1, curve.lambda2, curve.slack_margin,
        curve.epsilon, rel, tol, curve.complementarity_residual, curve.power_excess,
        curve.primal_target_residual, curve.q_min_eigenvalue, curve.primal, zs)))
    (dual, gap, lam1, lam2, slack, eps, gap_rel, gap_tol, comp, power, target, q_min,
     primal, z) = (tokens[k:k + n] for k in range(0, 14 * n, n))
    for i in np.flatnonzero(np.isinf(curve.epsilon)).tolist():
        eps[i] = "null"
    columns = (
        dual, gap, lam1, lam2, slack, bool_tokens_reference(endpoint), eps,
        bool_tokens_reference(ok), gap_rel, gap_tol, comp,
        bool_tokens_reference(curve.kkt_passed()), power, target, q_min, slack,
        [float.__repr__(KKT_TOL)] * n, primal, z,
    )
    return "[\n%s\n      ]" % ",\n".join(_CERTIFICATE_RECORD % row for row in zip(*columns))


def assert_same_lines(got, want):
    """got == want, reporting the first lines that differ (a diff of long texts is slow)."""
    got, want = got.split("\n"), want.split("\n")
    differ = [(k, a, b) for k, (a, b) in enumerate(zip(got, want)) if a != b]
    assert (differ[:3], len(got)) == ([], len(want))


def maximal_cells_reference(z1s, z2s, leak1, leak2, sigma2, beta):
    """The whole-grid filter that `pareto._maximal_cells` prunes by blocks.

    Rates every cell of the (n1, n2) grid, r1[i, j] = `_rate`(z2s[j],
    leak1[i]) and r2[i, j] = `_rate`(z1s[i], leak2[j]), raises
    `_check_rates`' message for its first invalid cell in row-major order,
    and sorts the whole grid with `pareto_indices`.  Returns the kept
    row-major indices and their rates.
    """
    r1 = _rate(z2s[None, :], leak1[:, None], sigma2, beta)
    r2 = _rate(z1s[:, None], leak2[None, :], sigma2, beta)
    _check_rates(r1, r2)
    keep = pareto_indices(r1.ravel(), r2.ravel())
    return keep, r1.ravel()[keep], r2.ravel()[keep]


def pareto_filter_reference(points):
    """List-based Pareto filter, kept as the reference for the array kernel.

    Sort by r1 descending (r2 descending on ties), keep points whose r2
    strictly exceeds the running maximum, reverse.
    """
    ordered = sorted(points, key=lambda p: (-p.r1, -p.r2))
    kept = []
    best_r2 = -np.inf
    for p in ordered:
        if p.r2 > best_r2:
            kept.append(p)
            best_r2 = p.r2
    kept.reverse()
    return kept


def _fmt(x):
    return "" if x is None else format(x, ".12g")


def written_maxima_reference(r1, r2):
    """The written filter `pareto._written_maxima` replaces.

    Formats every rate with "%.12g", reads each text back, and keeps the
    indices that `pareto_indices` keeps of the values read back.
    """
    written = [np.array([float("%.12g" % v) for v in x.tolist()]) for x in (r1, r2)]
    return pareto_indices(*written)


def joined_csv_reference(curve):
    """The field-by-field renderer `pareto.curve_to_csv` replaces.

    Formats every value of the curve's arrays with "%.12g", or "" for NaN,
    and joins each row's fields and then the rows.
    """
    texts = [["" if v != v else "%.12g" % v for v in x.tolist()]
             for x in (curve.r1, curve.r2, curve.z1, curve.z2)]
    rows = map(",".join, zip(*texts, curve.labels))
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def percent_csv_reference(curve):
    """The one-`%`-call renderer that `pareto.curve_to_csv` replaces.

    The whole body is one `%` call over a flat tuple.  Each rate is
    formatted there with "%.12g".  Each distinct z value (by bit pattern,
    so -0.0 keeps its sign) is formatted once, "" for NaN; those texts and
    the labels are `%s` arguments, so a label may hold a "%".
    """
    def texts(x):
        distinct, at = np.unique(x.view(np.int64), return_inverse=True)
        text = ["" if v != v else "%.12g" % v for v in distinct.view(np.float64).tolist()]
        return [text[k] for k in at.tolist()]

    fields = zip(curve.r1.tolist(), curve.r2.tolist(), texts(curve.z1), texts(curve.z2),
                 curve.labels)
    return (CSV_HEADER + "\n"
            + "%.12g,%.12g,%s,%s,%s\n" * len(curve)
            % tuple(itertools.chain.from_iterable(fields)))


def curve_to_csv_reference(points):
    """RatePoint-list CSV renderer, kept as the reference for `curve_to_csv`.

    Every field is formatted per point, in order.
    """
    lines = [CSV_HEADER]
    for p in points:
        lines.append(",".join([_fmt(p.r1), _fmt(p.r2), _fmt(p.z1), _fmt(p.z2),
                               p.label]))
    return "\n".join(lines) + "\n"


def equal_rate_point_reference(points):
    """RatePoint-list equal-rate point, the reference for `equal_rate_point`.

    Linear interpolation between the first bracketing pair of points; when
    the curve does not cross the diagonal, the point maximizing min(r1, r2).
    """
    if not points:
        raise ValueError("empty curve")
    diffs = [p.r1 - p.r2 for p in points]
    for k in range(len(points) - 1):
        d0, d1 = diffs[k], diffs[k + 1]
        if d0 == 0.0:
            return points[k]
        if d0 < 0.0 <= d1:
            t = d0 / (d0 - d1)
            a, b = points[k], points[k + 1]
            z1 = a.z1 + t * (b.z1 - a.z1) if a.z1 is not None and b.z1 is not None else None
            z2 = a.z2 + t * (b.z2 - a.z2) if a.z2 is not None and b.z2 is not None else None
            return RatePoint(r1=a.r1 + t * (b.r1 - a.r1),
                             r2=a.r2 + t * (b.r2 - a.r2),
                             z1=z1, z2=z2, label=points[k].label)
    if diffs[-1] == 0.0:
        return points[-1]
    return max(points, key=lambda p: min(p.r1, p.r2))


def sweep_rate_point(ch, z1, z2):
    """Rate pair on the sweep surface at (z1, z2), one scalar cell.

    The scalar reference for the boundary's rate grid: the rate formula is
    written out here on scalars, apart from the array kernel, and each
    minimal leakage G_i(z_i) comes from its own scalar solver call.
    """
    sigma2 = ch.frontend.sigma2
    beta = ch.frontend.beta
    leakage1 = min_leakage_reference(ch.h11, ch.h12, ch.p1, z1)
    leakage2 = min_leakage_reference(ch.h22, ch.h21, ch.p2, z2)
    r1 = float(np.log2(1.0 + z2 / (sigma2 + beta * leakage1)))
    r2 = float(np.log2(1.0 + z1 / (sigma2 + beta * leakage2)))
    return RatePoint(r1=r1, r2=r2, z1=float(z1), z2=float(z2), label="optimal")


def _clamped_z(z, z_max):
    if z < -_Z_CLAMP_ABS or z > z_max * (1.0 + _Z_CLAMP_REL) + _Z_CLAMP_ABS:
        raise InfeasibleError(
            f"z={z:.12g} outside the feasible range [0, {z_max:.12g}]"
        )
    return min(max(z, 0.0), z_max)


def _loading_for_zero_eps(c):
    """Loading that evaluates the eps=0 closed form: 0, or a tiny one for singular C."""
    if np.min(c) > 0.0:
        return 0.0
    return _SINGULAR_DELTA_REL * max(1.0, float(np.max(c)))


def _filter_sums(c, habs2, load):
    """(h† (C + load I)^{-1} h, h† (C + load I)^{-2} h) for diagonal C = Diag(c)."""
    d = c + load
    return float(np.sum(habs2 / d)), float(np.sum(habs2 / d**2))


def optimal_weights_reference(h_self, h_cross, p, z):
    """Scalar loading search, one z at a time: the reference for the array kernel.

    Takes the raw instance, so it clamps z into its own copy of the
    feasible window.  Returns the eps=0 solution when it satisfies the
    power budget (the low-z condition); otherwise bisects the loading until
    ||w||^2 = p to 1e-10 relative.  Raises InfeasibleError for z outside
    [0, p*||h_cross||^2] (past the clamp fuzz) and NumericalError if the
    bracket or the final constraint check fails.
    """
    c = np.abs(np.asarray(h_self, dtype=np.complex128).reshape(-1)) ** 2
    h = np.asarray(h_cross, dtype=np.complex128).reshape(-1)
    z_max = p * float(np.linalg.norm(h)) ** 2
    z = _clamped_z(float(z), z_max)
    m = h.shape[0]

    if z == 0.0:
        w = np.zeros(m, dtype=np.complex128)
        return BeamformerSolution(w=w, epsilon=0.0, leakage=0.0,
                                  achieved_z=0.0, achieved_power=0.0)

    habs2 = np.abs(h) ** 2

    def power_at(load: float) -> float:
        s1, s2 = _filter_sums(c, habs2, load)
        return z * s2 / (s1 * s1)

    def weights_at(load: float) -> np.ndarray:
        s1, _ = _filter_sums(c, habs2, load)
        return np.sqrt(z) * (h / (c + load)) / s1

    # Low-z condition: the unloaded solution already fits the power budget.
    # With C = 0 the power z/||h||^2 does not depend on the loading: every
    # z below z_max fits unloaded, even where it rounds one ulp above p.
    delta = _loading_for_zero_eps(c)
    if power_at(delta) <= p or (not c.any() and z < z_max):
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


def min_leakage_reference(h_self, h_cross, p, z):
    """Minimal self-leakage at delivered power z, from the scalar reference."""
    return optimal_weights_reference(h_self, h_cross, p, z).leakage


def validate_covariance(q, m, p, name):
    """One covariance checked by the Jacobi solver (`jacobi_is_psd`).

    Shape, then trace within `_power_limit(p)`, then finiteness and PSD up to
    PSD_TOL * max(1, ||Q||_F) plus round-off; raises `rate_pair`'s ValueError.
    """
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != (m, m):
        raise ValueError(f"{name} has shape {q.shape}, expected ({m}, {m})")
    tr = float(np.trace(q).real)
    if tr > _power_limit(p):
        raise ValueError(_trace_message(name, tr, p))
    scale = max(1.0, numlin.frobenius_norm(q))
    if not jacobi_is_psd(q, PSD_TOL * scale):
        raise ValueError(f"{name} is not positive semidefinite")
    return q


def rate_pair_reference(ch, q1, q2, label="optimal"):
    """Rate pair of one covariance pair, each product on its own 1-D operands.

    The scalar reference for `rates.rate_pairs`; the covariances are checked
    by the Jacobi-based `validate_covariance`.
    """
    q1 = validate_covariance(q1, ch.m, ch.p1, "Q1")
    q2 = validate_covariance(q2, ch.m, ch.p2, "Q2")
    fe = ch.frontend
    num1 = max(0.0, float(np.real(ch.h21.conj() @ q2 @ ch.h21)))
    num2 = max(0.0, float(np.real(ch.h12.conj() @ q1 @ ch.h12)))
    return RatePoint(r1=float(_rate(num1, self_leakage(ch.h11, q1), fe.sigma2, fe.beta)),
                     r2=float(_rate(num2, self_leakage(ch.h22, q2), fe.sigma2, fe.beta)),
                     label=label)


def covariance_faults_reference(qs, p, shift=0.0):
    """(trace, over budget, non-finite, not PSD) of each matrix of a stack.

    The reference for `rates._covariance_faults`: the same eigenvalue rule,
    with each smallest eigenvalue from the Jacobi solver
    (`jacobi_min_eigenvalue`), one matrix at a time, in place of one LAPACK
    `eigvalsh` call over the stack.  A finite Q is judged by its Hermitian
    part H = (Q + Q†) / 2: it is PSD when, in units of Q's largest modulus b
    (1 for a zero matrix),
    lambda_min(H / b) >= -(PSD_TOL * max(1 / b, ||H / b||_F)
    + (1 + shift) * ROUNDOFF * ||H / b||_F).
    A shift of -1 or +1 moves the bound by the round-off that two
    eigensolvers may differ by (`psd_edge`).
    """
    qs = np.asarray(qs, dtype=np.complex128)
    tr = np.trace(qs, axis1=1, axis2=2).real
    finite = np.isfinite(qs).all(axis=(1, 2))
    not_psd = np.zeros(len(qs), dtype=bool)
    for k in np.flatnonzero(finite):
        big = float(np.max(np.abs(qs[k])))
        unit = big if big > 0.0 else 1.0
        herm = numlin.hermitianize(qs[k] / unit)
        norm = numlin.frobenius_norm(herm)
        with np.errstate(over="ignore"):
            tol = PSD_TOL * max(1.0 / unit, norm) + (1.0 + shift) * numlin.ROUNDOFF * norm
        not_psd[k] = not jacobi_min_eigenvalue(herm) >= -tol
    return tr, tr > _power_limit(p), ~finite, not_psd


def psd_edge(qs):
    """Matrices whose smallest eigenvalue lies within round-off of the PSD
    rule's bound, where LAPACK and Jacobi may rightly give either verdict."""
    return (covariance_faults_reference(qs, np.inf, -1.0)[3]
            != covariance_faults_reference(qs, np.inf, 1.0)[3])


def sampled_covariances(rng, ch, u):
    """The oracle's random covariance pairs as full matrices, one per row of u.

    The same draws as `pareto._sampled_rates`: one normal array of shape
    (n, 2, 2, m, m) gives, per pair and node, the real and imaginary parts
    of g, and the covariance is the Gram matrix g g† scaled to trace u * P.
    Returns one (n, m, m) stack per node.
    """
    m = ch.m
    g = rng.standard_normal((len(u), 2, 2, m, m))
    g = g[:, :, 0] + 1j * g[:, :, 1]
    q = g @ np.conj(np.swapaxes(g, -1, -2))
    q *= (u * np.array([ch.p1, ch.p2]) / np.trace(q, axis1=-2, axis2=-1).real)[..., None, None]
    return q[:, 0], q[:, 1]


def _left_sum(values):
    """values[0] + values[1] + ..., added left to right."""
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def sampled_rates_reference(ch, samples, seed):
    """The oracle's sampled rate pairs, one sample and one float at a time.

    The draws follow the oracle's order: every uniform fraction first, then
    per sample and node one (2, m, m) normal draw (real part, then imaginary
    part) of the factor g of Q = s g g†, s = frac * P / ||g||_F^2.  Each
    covariance is rated from g by the factored arithmetic, in scalar floats:
    the power it delivers, s ||g† h||^2, and its leakage,
    sum_k c_k (s ||g_k||^2), every sum left to right.
    """
    rng = np.random.default_rng(seed)
    m = ch.m
    fe = ch.frontend
    fracs = rng.uniform(0.0, 1.0, size=(samples, 2))
    nodes = (("Q1", ch.p1, ch.h12, ch.h11), ("Q2", ch.p2, ch.h21, ch.h22))
    rates = np.empty((samples, 2))
    for k in range(samples):
        delivered, leakage = [], []
        for frac, (name, p_budget, h, h_self) in zip(fracs[k].tolist(), nodes):
            re, im = rng.standard_normal((2, m, m)).tolist()
            hr, hi = h.real.tolist(), h.imag.tolist()
            c = (np.abs(h_self) ** 2).tolist()
            rows = [_left_sum([re[i][j] * re[i][j] + im[i][j] * im[i][j] for j in range(m)])
                    for i in range(m)]
            s = frac * p_budget / _left_sum(rows)
            tr = s * _left_sum(rows)
            if tr > _power_limit(p_budget):
                raise ValueError(_trace_message(name, tr, p_budget))
            a = [_left_sum([re[i][j] * hr[i] + im[i][j] * hi[i] for i in range(m)])
                 for j in range(m)]
            b = [_left_sum([re[i][j] * hi[i] - im[i][j] * hr[i] for i in range(m)])
                 for j in range(m)]
            delivered.append(s * _left_sum([a[j] * a[j] + b[j] * b[j] for j in range(m)]))
            leakage.append(_left_sum([c[i] * (s * rows[i]) for i in range(m)]))
        pt = RatePoint(r1=float(_rate(delivered[1], leakage[0], fe.sigma2, fe.beta)),
                       r2=float(_rate(delivered[0], leakage[1], fe.sigma2, fe.beta)),
                       label="sampled")
        rates[k] = (pt.r1, pt.r2)
    return rates


def escape_distances_reference(r1, r2, c1, c2):
    """min over every curve point of max(r1 - c1, r2 - c2), by brute force."""
    return np.maximum(r1[:, None] - c1[None, :], r2[:, None] - c2[None, :]).min(axis=1)


def escape_distances_bisection(r1, r2, c1, c2):
    """`pareto.escape_distances` as a bisection over the whole curve for every pair.

    Finds, per pair, the first k with r2 - c2[k] >= r1 - c1[k] by bisecting
    all of range(len(c1)), where the package first brackets that k by
    comparing c1 - c2 with r1 - r2, and evaluates the same two candidates.
    """
    n = c1.size
    if n == 0:
        raise ValueError("empty curve")
    lo = np.zeros(r1.shape, dtype=np.intp)
    hi = np.full(r1.shape, n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        at = np.minimum(mid, n - 1)
        reached = (mid < hi) & (r2 - c2[at] >= r1 - c1[at])
        hi = np.where(reached, mid, hi)
        lo = np.where(reached | (mid >= hi), lo, mid + 1)

    def distance(k):
        k = np.clip(k, 0, n - 1)
        return np.maximum(r1 - c1[k], r2 - c2[k])

    return np.minimum(np.where(lo < n, distance(lo), np.inf),
                      np.where(lo > 0, distance(lo - 1), np.inf))


def domination_oracle_reference(ch, curve, samples, seed, tolerance=ORACLE_TOL):
    """Per-sample domination oracle: the reference for the array pass."""
    if samples < 1:
        raise ValueError("need at least one sample")
    slack1, slack2 = grid_slack(curve)
    c1 = curve.r1 + slack1
    c2 = curve.r2 + slack2
    rates = sampled_rates_reference(ch, samples, seed)

    # escape distance per sample: min over curve points of max(d1, d2),
    # vectorized in blocks of about 2^20 cells to bound the broadcast size
    max_violation = -np.inf
    violations = 0
    rows = max(1, (1 << 20) // max(1, c1.size))
    for start in range(0, samples, rows):
        block = rates[start:start + rows]
        d1 = block[:, None, 0] - c1[None, :]
        d2 = block[:, None, 1] - c2[None, :]
        viol = np.maximum(d1, d2, out=d1).min(axis=1)
        max_violation = max(max_violation, float(viol.max()))
        violations += int(np.count_nonzero(viol > tolerance))

    return OracleReport(samples=samples, max_violation=max_violation,
                        tolerance=tolerance, slack1=slack1, slack2=slack2,
                        violations=violations)
