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

All functions are pure.  A sweep over z is one array solve: `_solve` runs
every z's bracket and bisection together on (n, m) arrays, one row per z,
each row carrying its own node's |h_self|^2, h_cross and budget and
stopping at its own step.  `leakage_curves` and `certify.certify_curves`
solve several nodes' z arrays in that one call (a boundary, or a
certificate sweep, solves both nodes' grids at once); `leakage_curve`,
`optimal_weights` and `certify.certify_curve` are their one-node cases.
Each distinct node is solved once: on a reciprocal link with equal budgets
the two nodes' problems and grids are bitwise equal, and the second node
takes the first one's results.
"""

from __future__ import annotations

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
    """One node's leakage-minimization instance at target delivered power z.

    z is clamped into [0, z_max] by `_clamped_z`, which raises
    InfeasibleError beyond its fuzz window, so every routine taking the
    instance sees a feasible z.
    """

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
        z = _clamped_z(np.array([self.z], dtype=np.float64), self.z_max)
        object.__setattr__(self, "z", float(z[0]))

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


def _clamped_z(zs: np.ndarray, z_max: float) -> np.ndarray:
    """z clamped into [0, z_max]; InfeasibleError for the first z beyond the fuzz window."""
    outside = (zs < -_Z_CLAMP_ABS) | (zs > z_max * (1.0 + _Z_CLAMP_REL) + _Z_CLAMP_ABS)
    if outside.any():
        z = zs[np.argmax(outside)]
        raise InfeasibleError(
            f"z={z:.12g} outside the feasible range [0, {z_max:.12g}]"
        )
    return np.minimum(np.maximum(zs, 0.0), z_max)


def _loading_for_zero_eps(c: np.ndarray) -> np.ndarray:
    """Effective loading used to evaluate the eps=0 closed form, per row of c."""
    return np.where(c.min(axis=1) > 0.0, 0.0,
                    _SINGULAR_DELTA_REL * np.maximum(1.0, c.max(axis=1)))


def _filter_sums(c: np.ndarray, habs2: np.ndarray,
                 load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h† (C + l I)^{-1} h, h† (C + l I)^{-2} h) for each row, C = Diag(c).

    Row k takes its own node's c[k] and |h|^2 habs2[k] at its loading
    load[k].  c and habs2 must be C-contiguous (n, m) arrays: the sums then
    run along contiguous rows, so each row gets the same pairwise summation
    as a 1-D sum over its m entries.  Fortran-ordered rows are summed in
    another order, which moves loadings at m = 8 in their last bits.
    """
    d = c + load[:, None]
    return (habs2 / d).sum(axis=1), (habs2 / d**2).sum(axis=1)


def _power_at(c, habs2, z, load) -> np.ndarray:
    """||w||^2 of the loaded filter delivering z, for each row's (z, load) pair."""
    s1, s2 = _filter_sums(c, habs2, load)
    power = z * s2 / (s1 * s1)
    if not np.isfinite(power).all():
        raise NumericalError("transmit power of the loaded filter is not finite")
    return power


def _bisect_loading(c, habs2, p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The loading eps > 0 with ||w(eps)||^2 = p, for each row above its low-z bound.

    Row k solves the node of c[k], habs2[k] and budget p[k] at z[k].  Each
    row doubles its own bracket and then bisects it until
    hi - lo <= 1e-12 hi; np.where freezes the rows that have stopped, so
    every row takes exactly the steps a one-z search would take.
    """
    # For z just below z_max the power curve crosses p only at enormous
    # eps and the crossing flattens into round-off noise; the widened
    # accept window keeps the expansion finite there.
    hi = np.maximum(1.0, c.max(axis=1))
    accept = p * (1.0 + 8.0 * np.finfo(np.float64).eps)
    for _ in range(_MAX_DOUBLINGS):
        short = _power_at(c, habs2, z, hi) > accept
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
    else:
        raise NumericalError("diagonal-loading bracket expansion failed")
    lo = np.zeros_like(hi)
    active = hi - lo > _EPS_BISECT_REL * hi
    while active.any():
        mid = 0.5 * (lo + hi)
        up = active & (_power_at(c, habs2, z, mid) > p)
        lo = np.where(up, mid, lo)
        hi = np.where(active ^ up, mid, hi)
        active = hi - lo > _EPS_BISECT_REL * hi
    return hi


def _solve(c: np.ndarray, h: np.ndarray, p: np.ndarray, z_max: np.ndarray,
           zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Loading and weights for each clamped z: (eps of shape (n,), w of shape (n, m)).

    Row k solves the node whose |h_self|^2, h_cross, budget and z_max are
    c[k], h[k], p[k] and z_max[k], at zs[k]; c and h are C-contiguous
    (n, m) arrays (see `_filter_sums`).  eps is 0 where the unloaded
    solution fits the power budget (the low-z condition; z = 0 gives exact
    zero weights), inf at z = z_max above that bound (the MRT beam), and
    the bisected loading otherwise.  Raises NumericalError on a non-finite
    power or a failed bracket.
    """
    eps = np.zeros(zs.shape)
    w = np.zeros(h.shape, dtype=np.complex128)
    live = np.flatnonzero(zs != 0.0)
    z, c, h, p, z_max = zs[live], c[live], h[live], p[live], z_max[live]
    habs2 = np.abs(h) ** 2
    with np.errstate(all="ignore"):
        # Low-z condition: the unloaded solution already fits the power budget.
        load = _loading_for_zero_eps(c)
        loaded = _power_at(c, habs2, z, load) > p
        # C = 0: the filter's power z/||h||^2 does not depend on the loading,
        # so every z below z_max fits unloaded (leakage 0), even where that
        # power rounds one ulp above p.
        loaded &= c.any(axis=1) | (z == z_max)
        # Cauchy-Schwarz leaves a single feasible point at z_max: full-power
        # weights along the cross channel (the eps -> inf limit of the closed form).
        at_max = loaded & (z == z_max)
        loaded &= ~at_max
        if loaded.any():
            load[loaded] = _bisect_loading(c[loaded], habs2[loaded], p[loaded], z[loaded])
        eps[live] = np.where(at_max, np.inf, np.where(loaded, load, 0.0))
        rows = ~at_max  # the loaded-filter closed form, at eps or the eps=0 load
        c, habs2, load = c[rows], habs2[rows], load[rows]
        s1, _ = _filter_sums(c, habs2, load)
        w[live[rows]] = (np.sqrt(z[rows])[:, None] * (h[rows] / (c + load[:, None]))
                         / s1[:, None])
    for k in np.flatnonzero(at_max):
        w[live[k]] = mrt_weights(h[k], p[k])
    return eps, w


def optimal_weights(prob: DecoupledProblem) -> BeamformerSolution:
    """Closed-form minimizer of the per-node leakage problem.

    Returns the eps=0 solution when it satisfies the power budget (the
    low-z condition); otherwise bisects the loading until ||w||^2 = p to
    1e-10 relative: `_solve_curves` at the one z of prob, with its checks.
    Raises NumericalError if the bracket or a constraint check fails.
    """
    _, eps, ws, leakage = _solve_curves([prob], [[prob.z]])[0]
    w = ws[0]
    return BeamformerSolution(w=w, epsilon=float(eps[0]), leakage=float(leakage[0]),
                              achieved_z=float(np.abs(np.vdot(prob.h_cross, w)) ** 2),
                              achieved_power=float(np.linalg.norm(w)) ** 2)


def min_leakage(prob: DecoupledProblem) -> float:
    """Minimal self-leakage at delivered power z (optimal objective value)."""
    return optimal_weights(prob).leakage


def _solve_curves(probs, z_arrays) -> list[tuple[np.ndarray, ...]]:
    """Clamped z, loading, weights and leakage for each z of each node, checked.

    probs[i] is solved at every z of z_arrays[i]; the nodes must share one
    antenna count.  Every node's z array is clamped first, in node order
    (InfeasibleError for the first z outside its window).  A node whose
    h_self, h_cross, clamped z and p have the bytes of an earlier node's
    (a reciprocal link with equal budgets) is repeated: it gets the earlier
    node's tuple, the same objects, which hold the bits its own solve would
    give, since every row takes its own steps.  One `_solve` covers the
    distinct nodes, node after node along its rows, and then each distinct
    node's rows are checked in turn.  So a failed search of a later node is
    raised before an earlier node's failed check, and a repeated node's
    error is the earlier node's.  These are the package's only constraint
    checks, written so that a NaN fails them.  An extreme budget may
    overflow the leakage or the achieved powers to inf: that happens
    silently here, every finite value keeps its bits, and an inf achieved
    power fails its check like a NaN.  Returns one (z, eps, w, leakage)
    tuple per node.
    """
    zs = [_clamped_z(np.asarray(z, dtype=np.float64).reshape(-1), prob.z_max)
          for prob, z in zip(probs, z_arrays)]
    # first[i]: the first node whose bytes equal node i's (i itself if none)
    seen: dict[tuple[bytes, ...], int] = {}
    first = [seen.setdefault((prob.h_self.tobytes(), prob.h_cross.tobytes(), z.tobytes(),
                              np.float64(prob.p).tobytes()), i)
             for i, (prob, z) in enumerate(zip(probs, zs))]
    distinct = list(seen.values())
    probs = [probs[i] for i in distinct]
    zs = [zs[i] for i in distinct]
    counts = [z.size for z in zs]
    cs = [np.abs(prob.h_self) ** 2 for prob in probs]

    def rows(values) -> np.ndarray:
        # np.repeat returns C-contiguous rows, as `_filter_sums` needs.
        return np.repeat(np.array(values), counts, axis=0)

    eps, w = _solve(rows(cs), rows([prob.h_cross for prob in probs]),
                    rows([prob.p for prob in probs]), rows([prob.z_max for prob in probs]),
                    np.concatenate(zs))
    starts = np.cumsum(counts)[:-1]
    solved = dict(zip(distinct, map(_checked, probs, cs, zs, np.split(eps, starts),
                                    np.split(w, starts))))
    return [solved[i] for i in first]


def _checked(prob: DecoupledProblem, c: np.ndarray, z: np.ndarray, eps: np.ndarray,
             w: np.ndarray) -> tuple[np.ndarray, ...]:
    """(z, eps, w, leakage) of one node's solves, after its constraint checks."""
    h = prob.h_cross
    p = prob.p
    with np.errstate(over="ignore", invalid="ignore"):
        achieved_z = np.abs(w @ h.conj()) ** 2
        achieved_power = np.linalg.norm(w, axis=1) ** 2
        leakage = np.sum(c * np.abs(w) ** 2, axis=1)
        bad_z = ~(np.abs(achieved_z - z) <= 1e-8 * np.maximum(1.0, z))
        bad_power = ~(achieved_power <= p * (1.0 + 1e-8))
        off_boundary = (eps > 0.0) & ~(np.abs(achieved_power - p) <= 1e-10 * max(1.0, p))
    if bad_z.any():
        k = np.argmax(bad_z)
        raise NumericalError(
            f"delivered-power constraint violated: |w†h|^2={achieved_z[k]:.12g}, z={z[k]:.12g}"
        )
    if bad_power.any():
        raise NumericalError(
            f"power constraint violated: ||w||^2={achieved_power[np.argmax(bad_power)]:.12g}, "
            f"p={p:.12g}"
        )
    if off_boundary.any():
        raise NumericalError(
            "loaded solution is off the power boundary: "
            f"||w||^2={achieved_power[np.argmax(off_boundary)]:.12g}"
        )
    return z, eps, w, leakage


def leakage_curves(probs, z_arrays) -> list[np.ndarray]:
    """Minimal self-leakage G(z) of each node over its own z array, in one solve.

    probs[i] is a `DecoupledProblem` (its z is not used) and z_arrays[i] its
    delivered powers; the nodes must share one antenna count.  Each node
    gets exactly the values `leakage_curve` gives it alone; errors are
    those of `_solve_curves`.  A node bitwise equal to an earlier one (in
    h_self, h_cross, p and clamped z) is solved once and gets the earlier
    node's array, the same object; nothing in the package writes into it.
    """
    return [leakage for *_, leakage in _solve_curves(probs, z_arrays)]


def leakage_curve(h_self, h_cross, p: float, zs) -> np.ndarray:
    """Minimal self-leakage G(z) for every delivered power z of an array.

    One masked array solve covers the whole array: the same loading, weights
    and leakage as `optimal_weights` at each z, to the last bit.  Raises
    InfeasibleError for the first z outside [0, p*||h_cross||^2], and
    NumericalError if a loading search fails or any solution fails
    `_solve_curves`' checks of its delivered power, power budget and power
    boundary.  A leakage beyond the float range is inf.
    """
    prob = DecoupledProblem(h_self=h_self, h_cross=h_cross, p=p, z=0.0)
    return _solve_curves([prob], [zs])[0][3]


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
