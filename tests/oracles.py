"""Brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the package's own solvers: feasible competitors are
drawn by direct sampling, and the dual value is maximized on a dense 1-D
grid with numpy's LAPACK eigensolver.  The scalar references for array
kernels (`sweep_rate_point`, `pareto_filter_reference`) evaluate one point
at a time.
"""

import numpy as np

from fdpareto.pareto import min_leakage, node_problem
from fdpareto.rates import RatePoint


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


def sweep_rate_point(ch, z1, z2):
    """Rate pair on the sweep surface at (z1, z2), one scalar cell.

    The scalar reference for the boundary's rate grid: the rate formula is
    written out here on scalars, apart from the array kernel, and each
    minimal leakage G_i(z_i) comes from its own solver call.
    """
    sigma2 = ch.frontend.sigma2
    beta = ch.frontend.beta
    leakage1 = min_leakage(node_problem(ch, 1, z1))
    leakage2 = min_leakage(node_problem(ch, 2, z2))
    r1 = float(np.log2(1.0 + z2 / (sigma2 + beta * leakage1)))
    r2 = float(np.log2(1.0 + z1 / (sigma2 + beta * leakage2)))
    return RatePoint(r1=r1, r2=r2, z1=float(z1), z2=float(z2), label="optimal")
