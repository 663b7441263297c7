"""Rate-region boundary sweep, Pareto filter, and baselines.

The achievable-region boundary is traced by sweeping the per-node delivered
powers (z1, z2) over their feasible boxes and evaluating

    r1 = log2(1 + z2 / (sigma2 + beta * G1(z1)))
    r2 = log2(1 + z1 / (sigma2 + beta * G2(z2)))

where G_i is each node's minimal self-leakage at delivered power z_i (the
one rate formula, `rates._rate`, applied to whole grids).  Every
point of that sweep is achievable, and every Pareto-optimal rate pair appears
in it, so filtering the swept grid to its non-dominated subset approximates
the Pareto boundary to grid resolution.  G_i is evaluated once per grid value
(n1 + n2 solver calls, not n1 * n2); grid evaluations are independent and
could run in parallel, with the output order fixed by grid index.

The rate grid stays in arrays from the formula to the filter: it is
validated as a whole, the non-dominated cells are selected by an
O(N log N) array sort (`pareto_indices`), and `RatePoint`s are built for
the survivors only.

The module also provides the half-duplex TDMA segment, the equal-rate point,
and a random-covariance domination oracle that checks no sampled achievable
pair escapes a computed curve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .beamform import DecoupledProblem, min_leakage
from .channel import ChannelSet
from .rates import RatePoint, _rate, rate_pair, single_link_max

CSV_HEADER = "r1,r2,z1,z2,label"
_FMT = ".12g"


@dataclass(frozen=True)
class SweepGrid:
    """Grid over the feasible (z1, z2) box."""

    n1: int
    n2: int
    z1_max: float
    z2_max: float

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("grid sizes must be >= 2")
        if self.z1_max < 0 or self.z2_max < 0:
            raise ValueError("z ranges must be nonnegative")

    @classmethod
    def for_channel(cls, ch: ChannelSet, n1: int, n2: int | None = None) -> "SweepGrid":
        return cls(n1=n1, n2=n2 if n2 is not None else n1,
                   z1_max=node_problem(ch, 1, 0.0).z_max,
                   z2_max=node_problem(ch, 2, 0.0).z_max)

    def z1_values(self) -> np.ndarray:
        return np.linspace(0.0, self.z1_max, self.n1)

    def z2_values(self) -> np.ndarray:
        return np.linspace(0.0, self.z2_max, self.n2)


@dataclass(frozen=True)
class BoundaryCurve:
    """Pareto-filtered rate points sorted by r1 ascending."""

    points: list[RatePoint]

    def r1_array(self) -> np.ndarray:
        return np.array([p.r1 for p in self.points])

    def r2_array(self) -> np.ndarray:
        return np.array([p.r2 for p in self.points])


def node_problem(ch: ChannelSet, node: int, z: float) -> DecoupledProblem:
    """The decoupled leakage problem of one node at delivered power z."""
    if node == 1:
        return DecoupledProblem(h_self=ch.h11, h_cross=ch.h12, p=ch.p1, z=z)
    if node == 2:
        return DecoupledProblem(h_self=ch.h22, h_cross=ch.h21, p=ch.p2, z=z)
    raise ValueError("node must be 1 or 2")


def pareto_indices(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Indices of the maximal pairs under componentwise domination, r1 ascending.

    A stable sort by r1 descending (r2 descending on ties) keeps each pair
    whose r2 strictly exceeds the maximum r2 of all pairs before it; the
    kept indices are returned reversed.  Exact duplicates collapse to their
    first occurrence, and the result has r2 strictly decreasing.
    """
    order = np.lexsort((-r2, -r1))
    s2 = r2[order]
    best_before = np.empty_like(s2)
    if s2.size:
        best_before[0] = -np.inf
        np.maximum.accumulate(s2[:-1], out=best_before[1:])
    return order[s2 > best_before][::-1]


def pareto_filter(points: list[RatePoint]) -> list[RatePoint]:
    """Maximal subset under componentwise domination, r1 ascending.

    The rates are compared as float64 arrays by `pareto_indices`, an
    O(N log N) sort and running maximum.  Duplicates collapse to their
    first occurrence; the result is an antichain with r2 strictly
    decreasing.
    """
    r1 = np.array([p.r1 for p in points], dtype=np.float64)
    r2 = np.array([p.r2 for p in points], dtype=np.float64)
    return [points[k] for k in pareto_indices(r1, r2)]


def _check_rates(r1: np.ndarray, r2: np.ndarray) -> None:
    """Raise RatePoint's ValueError for the first invalid cell, row-major."""
    finite = np.isfinite(r1) & np.isfinite(r2)
    bad = ~finite | (r1 < 0) | (r2 < 0)
    if bad.any():
        first = int(np.argmax(bad))
        if not finite.flat[first]:
            raise ValueError("rates must be finite")
        raise ValueError("rates must be nonnegative")


def boundary(ch: ChannelSet, grid: SweepGrid) -> BoundaryCurve:
    """Pareto boundary of the achievable region, to grid resolution."""
    z1s = grid.z1_values()
    z2s = grid.z2_values()
    leak1 = np.array([min_leakage(node_problem(ch, 1, z)) for z in z1s])
    leak2 = np.array([min_leakage(node_problem(ch, 2, z)) for z in z2s])
    sigma2 = ch.frontend.sigma2
    beta = ch.frontend.beta
    r1 = _rate(z2s[None, :], leak1[:, None], sigma2, beta)
    r2 = _rate(z1s[:, None], leak2[None, :], sigma2, beta)
    _check_rates(r1, r2)
    keep = pareto_indices(r1.ravel(), r2.ravel())
    rows, cols = np.divmod(keep, grid.n2)
    points = [
        RatePoint(r1=a, r2=b, z1=z1, z2=z2, label="optimal")
        for a, b, z1, z2 in zip(r1.ravel()[keep].tolist(), r2.ravel()[keep].tolist(),
                                z1s[rows].tolist(), z2s[cols].tolist())
    ]
    return BoundaryCurve(points=points)


def tdma_boundary(ch: ChannelSet, n: int) -> BoundaryCurve:
    """Half-duplex time-sharing segment between the two one-way maxima.

    Each slot carries one direction at its own full power (no boosting
    across slots), so the segment joins the same axis intercepts as the
    full-duplex curves.
    """
    if n < 2:
        raise ValueError("need at least the two endpoints")
    r1_max = single_link_max(ch, 1)
    r2_max = single_link_max(ch, 2)
    ts = np.linspace(0.0, 1.0, n)
    points = [RatePoint(r1=float(t * r1_max), r2=float((1.0 - t) * r2_max),
                        label="tdma") for t in ts]
    return BoundaryCurve(points=points)


def equal_rate_point(curve: BoundaryCurve) -> RatePoint:
    """Crossing of the curve with the r1 = r2 diagonal.

    Linear interpolation between the bracketing points; when the curve does
    not cross the diagonal, the point maximizing min(r1, r2).
    """
    pts = curve.points
    if not pts:
        raise ValueError("empty curve")
    diffs = [p.r1 - p.r2 for p in pts]
    for k in range(len(pts) - 1):
        d0, d1 = diffs[k], diffs[k + 1]
        if d0 == 0.0:
            return pts[k]
        if d0 < 0.0 <= d1:
            t = d0 / (d0 - d1)
            a, b = pts[k], pts[k + 1]
            z1 = a.z1 + t * (b.z1 - a.z1) if a.z1 is not None and b.z1 is not None else None
            z2 = a.z2 + t * (b.z2 - a.z2) if a.z2 is not None and b.z2 is not None else None
            return RatePoint(r1=a.r1 + t * (b.r1 - a.r1),
                             r2=a.r2 + t * (b.r2 - a.r2),
                             z1=z1, z2=z2, label=pts[k].label)
    if diffs[-1] == 0.0:
        return pts[-1]
    return max(pts, key=lambda p: min(p.r1, p.r2))


def interpolated_r2(curve: BoundaryCurve, r1: np.ndarray | float) -> np.ndarray | float:
    """Piecewise-linear r2 of the curve at given r1 (clamped at the ends)."""
    return np.interp(r1, curve.r1_array(), curve.r2_array())


def interpolated_r1(curve: BoundaryCurve, r2: np.ndarray | float) -> np.ndarray | float:
    """Piecewise-linear r1 of the curve at given r2 (clamped at the ends)."""
    # r2 decreases along the curve; np.interp needs ascending abscissae
    return np.interp(r2, curve.r2_array()[::-1], curve.r1_array()[::-1])


def grid_slack(curve: BoundaryCurve) -> tuple[float, float]:
    """Half the largest adjacent gap in each rate coordinate.

    A finite sweep can miss the true boundary by up to the local spacing;
    containment and domination checks widen their tolerance by this much.
    """
    r1 = curve.r1_array()
    r2 = curve.r2_array()
    if r1.size < 2:
        return 0.0, 0.0
    return (float(np.max(np.abs(np.diff(r1)))) / 2.0,
            float(np.max(np.abs(np.diff(r2)))) / 2.0)


def curve_dominates(upper: BoundaryCurve, lower: BoundaryCurve,
                    slack: float = 0.0) -> bool:
    """True if `upper` componentwise dominates every point of `lower`.

    Compares each lower point against the upper curve interpolated at its
    r1, allowing `slack` plus the interpolation resolution of both curves.
    """
    s1_u, s2_u = grid_slack(upper)
    s1_l, s2_l = grid_slack(lower)
    tol = slack + s2_u + s2_l
    r1_l = lower.r1_array()
    r2_l = lower.r2_array()
    # beyond upper's r1 reach, only the r1 slack can excuse the overhang
    r1_reach = upper.r1_array()[-1] + s1_u + s1_l + slack
    if np.any(r1_l > r1_reach):
        return False
    return bool(np.all(interpolated_r2(upper, r1_l) >= r2_l - tol))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the random-covariance domination check."""

    samples: int
    max_violation: float
    tolerance: float
    slack1: float
    slack2: float
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def domination_oracle(ch: ChannelSet, curve: BoundaryCurve, samples: int,
                      seed: int, tolerance: float = 1e-6) -> OracleReport:
    """Check random achievable rate pairs against a computed curve.

    Draws random PSD covariance pairs (Gram matrices scaled to a uniform
    fraction of the power budgets), computes their rate pair, and measures
    how far each escapes the curve after allowing per-axis grid slack.  The
    violation of a sample is min over curve points of
    max(r1 - c1 - slack1, r2 - c2 - slack2); a positive value beyond
    `tolerance` counts as a violation.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    m = ch.m
    slack1, slack2 = grid_slack(curve)
    c1 = curve.r1_array() + slack1
    c2 = curve.r2_array() + slack2

    rates = np.empty((samples, 2))
    for k in range(samples):
        qs = []
        for p_budget in (ch.p1, ch.p2):
            g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            q = g @ g.conj().T
            q *= float(rng.uniform(0.0, 1.0)) * p_budget / float(np.trace(q).real)
            qs.append(q)
        pt = rate_pair(ch, qs[0], qs[1], label="sampled")
        rates[k] = (pt.r1, pt.r2)

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


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, _FMT)


def curve_to_csv(curve: BoundaryCurve) -> str:
    """Render a curve as CSV with 12-significant-digit fields."""
    lines = [CSV_HEADER]
    for p in curve.points:
        lines.append(",".join([_fmt(p.r1), _fmt(p.r2), _fmt(p.z1), _fmt(p.z2),
                               p.label]))
    return "\n".join(lines) + "\n"


def curve_from_csv(text: str) -> BoundaryCurve:
    """Parse a curve written by curve_to_csv."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    points = []
    for ln in lines[1:]:
        r1, r2, z1, z2, label = ln.split(",")
        points.append(RatePoint(r1=float(r1), r2=float(r2),
                                z1=float(z1) if z1 else None,
                                z2=float(z2) if z2 else None,
                                label=label))
    return BoundaryCurve(points=points)

