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
(n1 + n2 solves, not n1 * n2), as one array solve over both nodes' whole z
grids (`beamform.leakage_curves`).

The rate grid is doubly monotone: G_i is nondecreasing, so along a row
(z2 rising) r1 rises and r2 falls, and down a column (z1 rising) r1 falls
and r2 rises.  The filter uses this to rate and sort only a few cells (the
maxima problem of Kung, Luccio & Preparata, JACM 1975, with the sieve of
Bentley, Clarkson & Levine, Algorithmica 1993).  The maxima of a strided
sub-grid form a staircase.  Every cell of a block between neighbouring
sub-grid rows and columns lies below the block's outer corner, so a block
whose corner the staircase strictly dominates is never rated.  The cells of
the blocks left are rated, those the staircase strictly dominates are
dropped, and the rest go through the O(N log N) array sort
(`pareto_indices`), so the result is exactly that of sorting the whole
grid, ties and duplicates included.  When many blocks are left, or the
grid is not provably valid, the whole grid is rated, checked and sieved by
the same staircase (`_maximal_cells`).
Survivors whose rates, at the 12 significant digits of the CSV, are
dominated by another survivor's are dropped too, so the written curve is
strictly monotone (`_written_maxima`).  Rounding is monotone and the
survivors are strictly monotone, so only neighbours closer than the
rounding can tie; only those are formatted for the filter.

A `BoundaryCurve` holds its points as arrays.  `RatePoint`s are built only
at the API edges (`BoundaryCurve(points=...)`, `.points` and
`equal_rate_point`).  `curve_to_csv` builds a block of rows at a time as
arrays, with every number's "%.12g" text made by a numpy kernel
(`_g12`): it scales each value by an exact power of ten to a 12-digit
integer, takes the digits from a table of four-digit groups, and places
them by a table of layouts.  Values the kernel cannot settle exactly (zeros,
negatives, non-finite values, the ends of its range, and scaled values
near a digit-count change or a rounding tie) are formatted by `%` instead,
so no byte depends on how log10 rounds.

The module also provides the half-duplex TDMA segment, the equal-rate point,
and a random-covariance domination oracle that checks no sampled achievable
pair escapes a computed curve.  The oracle has two steps.  The first,
`oracle_samples`, draws every uniform fraction in one call, then one normal
array per block of samples.  Its covariances are Gram matrices Q = s g g†,
PSD by construction, and each block is rated from the factors g in one
array pass (`_sampled_rates`), forming no m x m matrix.  It needs only the
channel, the seed and the sample count, so the CLI runs it on a second
thread while the boundary is solved.  The second, the report of
`domination_oracle`, finds each pair's escape distance from the curve
(`escape_distances`): one `searchsorted` of r1 - r2 into the curve's
c1 - c2, widened by a rounding bound, brackets the staircase point, and a
bisection inside the bracket settles it exactly, without comparing the pair
with every curve point.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

# min_leakage stays importable here for callers of the scalar solve.
from .beamform import DecoupledProblem, leakage_curves, min_leakage  # noqa: F401
from .channel import ChannelSet
from .rates import (RatePoint, _check_rates, _power_limit, _rate, _trace_message,
                    single_link_max)

CSV_HEADER = "r1,r2,z1,z2,label"
# printf-style: the same text as format(v, ".12g"), at two thirds of its cost.
_FMT = "%.12g"
# Neighbouring values further apart than this fraction of the larger
# modulus never share their 12-significant-digit text: each rounds by at
# most half a unit in its 12th digit, 5e-12 of its modulus, so two move
# together by half this at most.
_WRITTEN_GAP_REL = 2e-11
# A sample escapes the curve by more than this (past the grid slack) to
# count as an oracle violation.
ORACLE_TOL = 1e-6
# Every _SIEVE_STRIDE-th row and column of the rate grid (and the last ones)
# form the sub-grid whose maxima sieve it, and bound its blocks; a whole grid
# is sieved _SIEVE_ROWS rows per array pass, which bounds the scratch arrays
# to a few MB.
_SIEVE_STRIDE = 8
_SIEVE_ROWS = 64
# curve_to_csv renders _CSV_ROWS rows per array pass, which bounds its
# scratch arrays to about 1 MB.
_CSV_ROWS = 2048
# The escape search brackets each pair's staircase index by comparing
# d = c1 - c2 with r1 - r2, widened by this fraction of the largest modulus
# of the pairs and the curve, which bounds the rounding of that comparison
# (`escape_distances`); it takes this many pairs per array pass.
_ESCAPE_WIDEN = 2.0 ** -49
_ESCAPE_BLOCK = 1 << 14


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


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=np.float64)
    a.flags.writeable = False
    return a


class BoundaryCurve:
    """Rate points held as arrays; Pareto curves run r1 ascending.

    `r1`, `r2`, `z1` and `z2` are read-only float64 arrays of one length,
    with NaN in `z1` or `z2` marking a point that has no sweep coordinate
    (a TDMA point); `labels` holds each point's label.
    `BoundaryCurve(points=...)` builds a curve from RatePoints, and
    `.point(k)` and `.points` give them back.  A curve made by `boundary`
    is strictly monotone at the 12 significant digits that `curve_to_csv`
    writes.
    """

    __slots__ = ("r1", "r2", "z1", "z2", "labels")

    def __init__(self, points: Iterable[RatePoint] = ()):
        points = list(points)
        nan = float("nan")
        self._set([p.r1 for p in points], [p.r2 for p in points],
                  [nan if p.z1 is None else p.z1 for p in points],
                  [nan if p.z2 is None else p.z2 for p in points],
                  tuple(p.label for p in points))

    @classmethod
    def _of(cls, r1, r2, z1, z2, labels: tuple[str, ...]) -> "BoundaryCurve":
        curve = cls.__new__(cls)
        curve._set(r1, r2, z1, z2, labels)
        return curve

    def _set(self, r1, r2, z1, z2, labels) -> None:
        self.r1, self.r2, self.z1, self.z2 = (_frozen(v) for v in (r1, r2, z1, z2))
        self.labels = labels

    def __len__(self) -> int:
        return self.r1.size

    def point(self, k: int) -> RatePoint:
        """Point k as a RatePoint, with None where z is NaN."""
        z1, z2 = float(self.z1[k]), float(self.z2[k])
        return RatePoint(r1=float(self.r1[k]), r2=float(self.r2[k]),
                         z1=None if z1 != z1 else z1, z2=None if z2 != z2 else z2,
                         label=self.labels[k])

    @property
    def points(self) -> list[RatePoint]:
        return [self.point(k) for k in range(len(self))]


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


def _sieve_lines(n: int) -> np.ndarray:
    """Every `_SIEVE_STRIDE`-th index of range(n), and the last."""
    return np.append(np.arange(0, n - 1, _SIEVE_STRIDE), n - 1)


def _staircase(sub1: np.ndarray, sub2: np.ndarray):
    """The test of strict domination by the maxima of the pairs (sub1, sub2).

    The maxima form a staircase, r1 strictly ascending and r2 strictly
    descending.  For a pair (a, b), the first staircase point (s1, s2) with
    s1 >= a has the largest s2 of all those that could dominate it, so the
    pair is strictly dominated exactly when s2 >= b and (s2 > b or s1 > a).
    The returned function takes arrays a and b of one shape and returns that
    mask; an exact duplicate of a staircase point is not dominated.
    """
    sub1, sub2 = sub1.ravel(), sub2.ravel()
    stair = pareto_indices(sub1, sub2)
    s1 = sub1[stair]
    # One point past the staircase's end, which dominates nothing.
    s1_at = np.append(s1, -np.inf)
    s2_at = np.append(sub2[stair], -np.inf)

    def dominated(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = np.searchsorted(s1, a)
        top = s2_at[k]
        return (top >= b) & ((top > b) | (s1_at[k] > a))

    return dominated


def _sieved(r1: np.ndarray, r2: np.ndarray, dominated) -> np.ndarray:
    """`pareto_indices` of the (n1, n2) grids r1, r2, flattened, after the sieve.

    The cells that `dominated` marks are dropped, `_SIEVE_ROWS` rows at a
    time; the rest are sorted in index order.  A strictly dominated cell is
    never maximal, and its dominator sorts before it, so dropping it changes
    no other cell's verdict: the stable sort of what is left returns the
    indices that sorting the whole grid returns.
    """
    n2 = r1.shape[1]
    candidates = []
    for start in range(0, r1.shape[0], _SIEVE_ROWS):
        a = r1[start:start + _SIEVE_ROWS].ravel()
        b = r2[start:start + _SIEVE_ROWS].ravel()
        candidates.append(np.flatnonzero(~dominated(a, b)) + start * n2)
    kept = np.concatenate(candidates)
    return kept[pareto_indices(r1.ravel()[kept], r2.ravel()[kept])]


def _is_valid_curve(x: np.ndarray) -> bool:
    """True when every value is finite and >= 0, in nondecreasing order."""
    return bool(np.isfinite(x).all() and (x[0] >= 0.0) and (x[1:] >= x[:-1]).all())


def _block_cells(rows: np.ndarray, cols: np.ndarray, live: np.ndarray,
                 shape: tuple[int, int]) -> np.ndarray:
    """Row-major indices of the cells of the live blocks, each once, block by block.

    Block (i, j) spans the rows rows[i] to rows[i + 1] and the columns
    cols[j] to cols[j + 1], so neighbouring blocks share their edge rows and
    columns.  Each cell is taken from one block: the one whose rows
    [rows[i], rows[i + 1]) and columns [cols[j], cols[j + 1]) hold it, the
    last block row and column also holding the grid's last row and column.
    A cell whose block is dropped is left out, since that block holds it.
    """
    n1, n2 = shape
    row_end = np.append(rows[1:-1], n1)
    col_end = np.append(cols[1:-1], n2)
    bi, bj = np.nonzero(live)
    span = np.arange(_SIEVE_STRIDE + 1)
    r = (rows[bi, None] + span)[:, :, None]
    c = (cols[bj, None] + span)[:, None, :]
    inside = (r < row_end[bi, None, None]) & (c < col_end[bj, None, None])
    return (r * n2 + c)[inside]


def _maximal_cells(z1s: np.ndarray, z2s: np.ndarray, leak1: np.ndarray,
                   leak2: np.ndarray, sigma2: float,
                   beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal cells of the rate grid, in `pareto_indices` order, and their rates.

    Cell (i, j) rates r1 = `_rate`(z2s[j], leak1[i]) and
    r2 = `_rate`(z1s[i], leak2[j]).  Returns the row-major indices that
    `pareto_indices` keeps of the whole grid, and r1 and r2 at them.

    The stride-`_SIEVE_STRIDE` sub-grid (`_sieve_lines`) is rated first, and
    its maxima form a staircase (`_staircase`).  When the grid is provably
    valid and doubly monotone (below), every cell of the block
    [rows[i], rows[i + 1]] x [cols[j], cols[j + 1]] lies below its outer
    corner (r1[rows[i], cols[j + 1]], r2[rows[i + 1], cols[j]]), a sub-grid
    cell.  A block whose corner the staircase strictly dominates holds only
    strictly dominated cells, which are never maximal, so it is dropped.  The
    cells of the blocks that are left are rated once each, sieved by the
    same staircase, and sorted; as in `_sieved`, the result is that of
    sorting the whole grid.  `_block_cells` lists the cells block by block,
    which differs from index order only for cells of one block row in two
    blocks, and the sort's input order matters only through which copy of
    an equal maximal pair it keeps (the first).  If that pair sits at A
    and at B above and right of A, the cell at B's row and A's column lies
    between them in both rates, so it is another copy; it sits in A's
    block and comes first in both orders.
    When more than a quarter of the blocks are left, or the grid is not
    provably valid, the whole grid is rated, checked by `_check_rates`
    (which raises for its first invalid cell in row-major order) and sieved
    by the staircase.

    The grid is valid (every rate finite and >= 0) and doubly monotone
    when sigma2 > 0, beta >= 0, both z arrays and both leakage curves are
    finite, >= 0 and nondecreasing, and the extreme cells r1[0, n2 - 1] and
    r2[n1 - 1, 0] are finite.  Then each denominator sigma2 + beta * G is
    nondecreasing along its curve and, once those two cells are finite,
    positive and never NaN.  This rests on `_rate` being elementwise
    monotone: IEEE `+`, `*` and `/` round monotonically, and `np.log2` must
    be nondecreasing (a tier-1 test checks that it is).
    """
    n1, n2 = z1s.size, z2s.size
    rows, cols = _sieve_lines(n1), _sieve_lines(n2)
    sub1 = _rate(z2s[cols], leak1[rows, None], sigma2, beta)
    sub2 = _rate(z1s[rows, None], leak2[cols], sigma2, beta)
    dominated = _staircase(sub1, sub2)
    if (sigma2 > 0.0 and beta >= 0.0
            and all(map(_is_valid_curve, (z1s, z2s, leak1, leak2)))
            and np.isfinite(sub1[0, -1]) and np.isfinite(sub2[-1, 0])):
        live = ~dominated(sub1[:-1, 1:], sub2[1:, :-1])
        if 4 * np.count_nonzero(live) <= live.size:
            cells = _block_cells(rows, cols, live, (n1, n2))
            i, j = np.divmod(cells, n2)
            r1 = _rate(z2s[j], leak1[i], sigma2, beta)
            r2 = _rate(z1s[i], leak2[j], sigma2, beta)
            kept = np.flatnonzero(~dominated(r1, r2))
            kept = kept[pareto_indices(r1[kept], r2[kept])]
            return cells[kept], r1[kept], r2[kept]
    r1 = _rate(z2s[None, :], leak1[:, None], sigma2, beta)
    r2 = _rate(z1s[:, None], leak2[None, :], sigma2, beta)
    _check_rates(r1, r2)
    keep = _sieved(r1, r2, dominated)
    return keep, r1.ravel()[keep], r2.ravel()[keep]


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


def _near(x: np.ndarray) -> np.ndarray:
    """For each neighbouring pair of x, whether the two may share their CSV text."""
    return np.abs(x[1:] - x[:-1]) <= _WRITTEN_GAP_REL * np.maximum(np.abs(x[1:]),
                                                                    np.abs(x[:-1]))


def _written_maxima(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """`pareto_indices` of the rates as written: each formatted `.12g` and read back.

    r1 must be strictly ascending and r2 strictly descending, as the
    maximal cells are.  Rounding to 12 significant digits is monotone, so
    the written rates are monotone too, and whether `pareto_indices` keeps
    a point depends only on which neighbours' written rates are equal.
    Neighbours further apart than `_WRITTEN_GAP_REL` in a rate never share
    its text, and the rounding keeps their order in it strict.  So only the
    points with a near neighbour (`_near`, in either rate) are formatted
    and read back; the rest keep their rates, which sort as their written
    rates do.
    """
    near = _near(r1) | _near(r2)
    if not near.any():
        return np.arange(r1.size)
    at = np.flatnonzero(np.append(near, False) | np.insert(near, 0, False))
    written = (r1.copy(), r2.copy())
    for x in written:
        x[at] = [float(_FMT % v) for v in x[at].tolist()]
    return pareto_indices(*written)


def boundary(ch: ChannelSet, grid: SweepGrid) -> BoundaryCurve:
    """Pareto boundary of the achievable region, to grid resolution.

    The maximal cells of the (n1, n2) rate grid are those that sorting the
    whole grid keeps (`pareto_indices`), but only the blocks of the grid
    that can hold one are rated (`_maximal_cells`).  An invalid rate raises
    `RatePoint`'s ValueError for the grid's first invalid cell in
    row-major order.
    """
    z1s = grid.z1_values()
    z2s = grid.z2_values()
    leak1, leak2 = leakage_curves((node_problem(ch, 1, 0.0), node_problem(ch, 2, 0.0)),
                                  (z1s, z2s))
    keep, r1, r2 = _maximal_cells(z1s, z2s, leak1, leak2, ch.frontend.sigma2,
                                  ch.frontend.beta)
    # Along a flat stretch of the boundary, neighbouring maximal points can
    # differ only below the digits the CSV keeps; filter once more on the
    # rates as written, so the file stays strictly monotone.
    final = _written_maxima(r1, r2)
    rows, cols = np.divmod(keep[final], grid.n2)
    return BoundaryCurve._of(r1[final], r2[final], z1s[rows], z2s[cols],
                             ("optimal",) * final.size)


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
    no_z = np.full(n, np.nan)
    return BoundaryCurve._of(ts * r1_max, (1.0 - ts) * r2_max, no_z, no_z,
                             ("tdma",) * n)


def equal_rate_point(curve: BoundaryCurve) -> RatePoint:
    """Crossing of the curve with the r1 = r2 diagonal.

    Linear interpolation between the bracketing points; when the curve does
    not cross the diagonal, the point maximizing min(r1, r2).
    """
    n = len(curve)
    if n == 0:
        raise ValueError("empty curve")
    diffs = curve.r1 - curve.r2
    # the first k that lies on the diagonal or starts a crossing
    d0, d1 = diffs[:-1], diffs[1:]
    hits = np.flatnonzero((d0 == 0.0) | ((d0 < 0.0) & (0.0 <= d1)))
    if hits.size:
        k = int(hits[0])
        if diffs[k] == 0.0:
            return curve.point(k)
        d0, d1 = float(diffs[k]), float(diffs[k + 1])
        t = d0 / (d0 - d1)
        a, b = curve.point(k), curve.point(k + 1)
        z1 = a.z1 + t * (b.z1 - a.z1) if a.z1 is not None and b.z1 is not None else None
        z2 = a.z2 + t * (b.z2 - a.z2) if a.z2 is not None and b.z2 is not None else None
        return RatePoint(r1=a.r1 + t * (b.r1 - a.r1), r2=a.r2 + t * (b.r2 - a.r2),
                         z1=z1, z2=z2, label=a.label)
    if diffs[-1] == 0.0:
        return curve.point(n - 1)
    return curve.point(int(np.argmax(np.minimum(curve.r1, curve.r2))))


def interpolated_r2(curve: BoundaryCurve, r1: np.ndarray | float) -> np.ndarray | float:
    """Piecewise-linear r2 of the curve at given r1 (clamped at the ends)."""
    return np.interp(r1, curve.r1, curve.r2)


def interpolated_r1(curve: BoundaryCurve, r2: np.ndarray | float) -> np.ndarray | float:
    """Piecewise-linear r1 of the curve at given r2 (clamped at the ends)."""
    # r2 decreases along the curve; np.interp needs ascending abscissae
    return np.interp(r2, curve.r2[::-1], curve.r1[::-1])


def grid_slack(curve: BoundaryCurve) -> tuple[float, float]:
    """Half the largest adjacent gap in each rate coordinate.

    A finite sweep can miss the true boundary by up to the local spacing;
    containment and domination checks widen their tolerance by this much.
    """
    if len(curve) < 2:
        return 0.0, 0.0
    return (float(np.max(np.abs(np.diff(curve.r1)))) / 2.0,
            float(np.max(np.abs(np.diff(curve.r2)))) / 2.0)


def curve_dominates(upper: BoundaryCurve, lower: BoundaryCurve,
                    slack: float = 0.0) -> bool:
    """True if `upper` componentwise dominates every point of `lower`.

    Compares each lower point against the upper curve interpolated at its
    r1, allowing `slack` plus the interpolation resolution of both curves.
    """
    s1_u, s2_u = grid_slack(upper)
    s1_l, s2_l = grid_slack(lower)
    tol = slack + s2_u + s2_l
    # beyond upper's r1 reach, only the r1 slack can excuse the overhang
    r1_reach = upper.r1[-1] + s1_u + s1_l + slack
    if np.any(lower.r1 > r1_reach):
        return False
    return bool(np.all(interpolated_r2(upper, lower.r1) >= lower.r2 - tol))


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


def _running_sum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... left to right: one order for a stack and a sample."""
    total = x[0]
    for part in x[1:]:
        total = total + part
    return total


def _check_traces(tr: np.ndarray, ch: ChannelSet) -> None:
    """Raise `rate_pair`'s ValueError for the first (n, 2) trace over budget, Q1 first."""
    budgets = (ch.p1, ch.p2)
    over = tr > [_power_limit(p) for p in budgets]
    if over.any():
        k, node = divmod(int(np.argmax(over)), 2)
        raise ValueError(_trace_message(f"Q{node + 1}", float(tr[k, node]), budgets[node]))


def _oracle_block(m: int) -> int:
    """Oracle samples drawn and rated per array pass at m antennas: 2^13 / m^2, rounded down.

    A sample draws 4 m^2 normals, so each block's draws take 256 KB at most,
    little enough that a block's passes run in cache.
    """
    return max(1, (1 << 13) // (m * m))


def _sampled_rates(rng: np.random.Generator, ch: ChannelSet,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rate pairs of random covariance pairs, one per row of u, from their factors.

    u holds uniform fractions, one per pair and node.  One normal draw of
    shape (n, 2, 2, m, m) gives, per pair and node, the real and imaginary
    parts of g, and Q = s g g† with s = u * P / ||g||_F^2 (trace u * P).
    Node i's Q delivers s ||g† h||^2 over its cross channel h and leaks
    sum_k c_k (s ||g_k||^2), c = |h_self|^2 and g_k row k of g.  Traces are
    checked, then rates; every sum is a `_running_sum`.
    """
    m = ch.m
    draws = rng.standard_normal((len(u), 2, 2, m, m))
    # Axes (part, k, j, node, sample): each operation runs over whole rows of
    # samples, where the drawn layout would give it rows of m numbers.
    re, im = np.ascontiguousarray(draws.transpose(2, 3, 4, 1, 0))
    cross = np.array([ch.h12, ch.h21]).T[:, None, :, None]  # (k, 1, node, 1)
    hr, hi = cross.real, cross.imag
    c = (np.abs(np.array([ch.h11, ch.h22])) ** 2).T[:, :, None]  # (k, node, 1)
    sigma2, beta = ch.frontend.sigma2, ch.frontend.beta
    with np.errstate(all="ignore"):
        rows = _running_sum(np.swapaxes(re * re + im * im, 0, 1))  # (k, node, n)
        fro = _running_sum(rows)
        s = u.T * np.array([[ch.p1], [ch.p2]]) / fro
        _check_traces((s * fro).T, ch)
        # (g† h)_j = a_j + i b_j, each (j, node, n)
        a = _running_sum(re * hr + im * hi)
        b = _running_sum(re * hi - im * hr)
        delivered = s * _running_sum(a * a + b * b)
        leakage = _running_sum(c * (s * rows))
        r1 = _rate(delivered[1], leakage[0], sigma2, beta)
        r2 = _rate(delivered[0], leakage[1], sigma2, beta)
    _check_rates(r1, r2)
    return r1, r2


def escape_distances(r1: np.ndarray, r2: np.ndarray, c1: np.ndarray,
                     c2: np.ndarray) -> np.ndarray:
    """min over k of max(r1 - c1[k], r2 - c2[k]) for each pair (r1, r2).

    c1 must be nondecreasing and c2 nonincreasing, as a curve's shifted
    rates are, and every value finite.  Then r1 - c1[k] falls and
    r2 - c2[k] rises with k (rounding is monotone), so the maximum is
    smallest at the first k where the second term reaches the first, or at
    the k before it.  That test, r2 - c2[k] >= r1 - c1[k], is
    d[k] >= r1 - r2 with d = c1 - c2 (nondecreasing too), up to rounding.
    Let R be the largest |r1| or |r2|, C the largest |c1| or |c2|, and
    u = 2^-53.  The test's two subtractions each err by at most u (R + C),
    d[k] by 2 u C, r1 - r2 by 2 u R, and each bound r1 - r2 -+ w by
    u (2 R + w): 6 u (R + C) + u w in all, less than
    w = `_ESCAPE_WIDEN` (R + C), which is 16 u (R + C).  So every k whose
    d[k] lies below the lower bound fails the test, and every k whose d[k]
    reaches the upper bound passes it.  One `searchsorted` of both bounds
    into d, with the pairs in order of r1 - r2 so that the keys ascend,
    brackets the first k that passes, and a vectorised bisection of the
    exact test inside the bracket (almost always empty) finds it.  The two
    candidates are evaluated with the same subtractions as the full
    (pairs x curve) minimum, so the result is equal to it exactly.
    """
    n = c1.size
    if n == 0:
        raise ValueError("empty curve")
    r = r1 - r2
    w = _ESCAPE_WIDEN * (max(np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0))
                         + max(np.abs(c1).max(), np.abs(c2).max()))
    order = np.argsort(r)
    bracket = np.empty((2, r.size), dtype=np.intp)
    bracket[:, order] = np.searchsorted(c1 - c2, r[order] + [[-w], [w]])
    lo, hi = bracket
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
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


def oracle_samples(ch: ChannelSet, samples: int, seed: int) -> np.ndarray:
    """The domination oracle's sampled rate pairs, as (r1, r2) rows of one array.

    The draws come from one generator in a fixed order: first every uniform
    fraction, as one (samples, 2) array, then the normals, one
    (n, 2, 2, m, m) array per block of `_oracle_block(m)` samples.  A
    generator fills an array element by element from one stream, so the
    rates do not depend on the block size.  `_sampled_rates` rates and
    checks each block's pairs from their Gram factors, and its rates
    overwrite the block's fractions, so no second (samples, 2) array is
    made.  The result depends only on the channel, the sample count and the
    seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    rates = rng.random((samples, 2))
    block = _oracle_block(ch.m)
    for start in range(0, samples, block):
        part = rates[start:start + block]
        part[:, 0], part[:, 1] = _sampled_rates(rng, ch, part)
    return rates


def domination_oracle(ch: ChannelSet, curve: BoundaryCurve, samples: int,
                      seed: int, tolerance: float = ORACLE_TOL,
                      rates: np.ndarray | None = None) -> OracleReport:
    """Check random achievable rate pairs against a computed curve.

    Draws random PSD covariance pairs (Gram matrices scaled to a uniform
    fraction of the power budgets) and computes their rate pairs
    (`oracle_samples`), then measures how far each escapes the curve after
    allowing per-axis grid slack.  The violation of a sample is min over
    curve points of max(r1 - c1 - slack1, r2 - c2 - slack2); a positive
    value beyond `tolerance` counts as a violation.  `escape_distances`
    finds each one from a bracket along the curve's staircase,
    `_ESCAPE_BLOCK` samples per array pass.

    `rates`, when given, must be `oracle_samples(ch, samples, seed)`, drawn
    beforehand (the CLI draws it on a second thread while the boundary is
    solved); the report is the same as without it.
    """
    if rates is None:
        rates = oracle_samples(ch, samples, seed)
    elif rates.shape != (samples, 2):
        raise ValueError(f"rates must have shape ({samples}, 2), got {rates.shape}")
    slack1, slack2 = grid_slack(curve)
    c1 = curve.r1 + slack1
    c2 = curve.r2 + slack2

    max_violation = -np.inf
    violations = 0
    for start in range(0, samples, _ESCAPE_BLOCK):
        r1, r2 = rates[start:start + _ESCAPE_BLOCK].T
        viol = escape_distances(r1, r2, c1, c2)
        max_violation = max(max_violation, float(viol.max()))
        violations += int(np.count_nonzero(viol > tolerance))

    return OracleReport(samples=samples, max_violation=max_violation,
                        tolerance=tolerance, slack1=slack1, slack2=slack2,
                        violations=violations)


# The ".12g" kernel.  A text is built in three 64-bit words, its first byte
# in the lowest; the bytes it leaves unused hold _PAD, which UTF-8 never
# produces, and are deleted once a block of rows is joined.  Texts are at
# most 19 bytes, so the last byte of the three words is always _PAD, and
# the CSV turns it into the field's comma (_COMMA).
_PAD = 0xFF
_PAD_BYTE = bytes([_PAD])
_PAD_WORD = np.uint64(2**64 - 1)
_COMMA = np.uint64((_PAD ^ ord(",")) << 56)
# x * _SCALE_UP[i] / _SCALE_DOWN[i] is x * 10**(i - 22), by one exact power
# of ten (10**22 is the largest that a double holds exactly).
_SCALE_UP = np.concatenate((np.ones(22), 10.0 ** np.arange(23)))
_SCALE_DOWN = np.concatenate((10.0 ** np.arange(22, 0, -1), np.ones(23)))
# A scaled value this close to a half is left to _FMT: two roundings (the
# scaling, then a x10 or /10 correction) could otherwise carry it across.
_TIE_MARGIN = 5e-4


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each group g of four digits, its text as a word, and its trailing zeros."""
    digit = np.arange(10, dtype=np.uint64)
    d0, d1, d2, d3 = (digit.reshape([10 if c == k else 1 for c in range(4)])
                      for k in range(4))
    text = (d0 + ord("0")) | (d1 + ord("0")) << 8 | (d2 + ord("0")) << 16 | (d3 + ord("0")) << 24
    z0, z1, z2, z3 = (d == 0 for d in (d0, d1, d2, d3))
    zeros = z3 * (1 + z2 * (1 + z1 * (1 + z0.astype(np.intp))))
    return text.ravel(), zeros.ravel()


_DIGITS4, _TRAILING4 = _digit_tables()


def _layout_words() -> np.ndarray:
    """The masks, fixed bytes and shift that `_g12` builds each kind of text from.

    A kind of text is a decimal exponent e = 33 - i and a count tz of
    trailing zeros among the twelve digits, as column 12 * i + tz.  Rows
    0-1 mask the digits, as low and high words of 96 bits, that are written
    where they stand (up to the point); rows 2-3 those that move on by row
    7's shift, one byte (after the point) or five (after the "0." and
    zeros that -4 <= e < 0 starts with, padded to five bytes).  Rows 4-6
    hold the text's other bytes: the point, that prefix, the exponent, 0
    where a digit goes and _PAD past the end.  Python's %g writes
    -4 <= e < 12 without an exponent, strips trailing zeros and drops a
    point that nothing follows.
    """
    i, tz = np.divmod(np.arange(46 * 12), 12)
    e, nsig = 33 - i, 12 - tz
    small = (-4 <= e) & (e < 0)
    fixed = (0 <= e) & (e < 12)
    q = np.where(fixed, e, 0)  # the last digit before the point
    keep = np.where(fixed, np.maximum(nsig, e + 1), nsig)
    point = ~small & (keep > q + 1)
    first = np.tri(13, 12, -1, dtype=bool)  # row n: the first n of 12 digits
    in_place = first[np.where(small, 0, np.minimum(q + 1, keep))]
    moved = first[keep] & ~first[np.where(small, 0, q + 1)]
    shift = np.where(small, 5, 1)
    text = np.full((e.size, 24), _PAD, dtype=np.uint8)
    text[:, :12][in_place] = 0
    text[:, 1:13][moved & ~small[:, None]] = 0
    text[:, 5:17][moved & small[:, None]] = 0
    at = np.flatnonzero(point)
    text[at, q[at] + 1] = ord(".")
    at = np.flatnonzero(small)
    prefixes = b"".join(("0." + "0" * k).encode().ljust(5, _PAD_BYTE) for k in range(4))
    text[at, :5] = np.frombuffer(prefixes, dtype=np.uint8).reshape(4, 5)[-1 - e[at]]
    at = np.flatnonzero(~(small | fixed))
    exponent = abs(e[at])
    text[at[:, None], (keep + point)[at, None] + np.arange(4)] = np.stack(
        (np.full_like(exponent, ord("e")), np.where(e[at] < 0, ord("-"), ord("+")),
         ord("0") + exponent // 10, ord("0") + exponent % 10), axis=1)
    masks = np.zeros((2, e.size, 16), dtype=np.uint8)
    masks[0, :, :12][in_place] = _PAD
    masks[1, :, :12][moved] = _PAD
    return np.ascontiguousarray(np.concatenate(
        (*masks.view("<u8"), text.view("<u8"), 8 * shift[:, None].astype(np.uint64)), axis=1).T,
        dtype=np.uint64)


_LAYOUT = _layout_words()


def _g12(x: np.ndarray) -> np.ndarray:
    """The "%.12g" text of each value of x, as (3, x.size) words padded with _PAD.

    A value in [1e-11, 1e33) is scaled to y = x * 10**(11 - e) by one
    exact power of ten, with e from log10 and at most one x10 or /10
    correction; it then lies within 2.2e-4 of the exact scaled value, whose
    nearest integer D holds the twelve digits.  `_DIGITS4` gives their text
    four at a time, `_TRAILING4` the trailing zeros, and `_LAYOUT` where
    each digit goes.  A value is formatted by `_FMT` instead when it is
    outside that range (zeros, -0.0, negatives, NaN and infinities
    included), when y lies within 1 of 1e11 or 1e12, or within
    `_TIE_MARGIN` of a half.  Outside those, y's exponent and nearest
    integer are those of the exact value whatever log10 returned, so no
    byte depends on how it rounds.
    """
    ok = (x >= 1e-11) & (x < 1e33)
    x_ok = np.where(ok, x, 1.0)
    e = np.log10(x_ok)
    np.floor(e, out=e)
    np.subtract(33.0, e, out=e)
    np.maximum(e, 1.0, out=e)
    np.minimum(e, 44.0, out=e)
    i = e.astype(np.intp)
    y = x_ok * _SCALE_UP.take(i)
    y /= _SCALE_DOWN.take(i)
    up, down = y >= 1e12, y < 1e11
    np.divide(y, 10.0, out=y, where=up)
    np.multiply(y, 10.0, out=y, where=down)
    i += down
    i -= up
    d = np.rint(y)
    ok &= np.abs(y - d) < 0.5 - _TIE_MARGIN
    ok &= np.abs(y - 5.5e11) < 4.5e11 - 1
    # D's three groups of four digits, first group first
    low = d.astype(np.int64)
    high = low // 100_000_000
    low -= high * 100_000_000
    mid = low // 10_000
    low -= mid * 10_000
    tz = _TRAILING4.take(low, mode="clip")
    ends = (tz == 4).nonzero()[0]  # a low group of zeros: count on into the next
    tz[ends] += _TRAILING4.take(mid[ends], mode="clip")
    ends = ends[tz[ends] == 8]
    tz[ends] += _TRAILING4.take(high[ends], mode="clip")
    a = _DIGITS4.take(mid, mode="clip") << 32 | _DIGITS4.take(high, mode="clip")
    b = _DIGITS4.take(low, mode="clip")
    i *= 12
    i += tz
    words = np.empty((3, x.size), dtype=np.uint64)
    for row, word in zip(_LAYOUT[4:7], words):
        row.take(i, out=word, mode="clip")
    # the digits written where they stand (la, lb) and those moved on (ma, mb)
    la, lb, ma, mb, shift = (row.take(i, mode="clip") for row in _LAYOUT[(0, 1, 2, 3, 7), ])
    la &= a
    lb &= b
    ma &= a
    mb &= b
    spill = 64 - shift
    words[0] |= la
    words[0] |= ma << shift
    words[1] |= lb
    words[1] |= ma >> spill
    words[1] |= mb << shift
    words[2] |= mb >> spill
    slow = (~ok).nonzero()[0]
    texts = b"".join((_FMT % v).encode().ljust(24, _PAD_BYTE) for v in x[slow].tolist())
    words[:, slow] = np.frombuffer(texts, dtype="<u8").reshape(-1, 3).T
    return words


def _label_words(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct label and its newline as padded words, and each row's index.

    Labels come in runs (a curve usually has one), so they are indexed
    run by run.
    """
    runs = [(label, len(list(run))) for label, run in itertools.groupby(labels)]
    index: dict[str, int] = {}
    for label, _ in runs:
        index.setdefault(label, len(index))
    at = np.repeat(np.array([index[label] for label, _ in runs], dtype=np.intp),
                   [count for _, count in runs])
    texts = [(label + "\n").encode("utf-8", "surrogatepass") for label in index]
    width = -(-max(map(len, texts), default=1) // 8)
    words = np.frombuffer(b"".join(t.ljust(8 * width, _PAD_BYTE) for t in texts), dtype="<u8")
    return words.reshape(len(texts), width).T.astype(np.uint64), at


def curve_to_csv(curve: BoundaryCurve) -> str:
    """Render a curve as CSV with 12-significant-digit fields.

    The rows are built as arrays of `_g12` words, `_CSV_ROWS` at a time:
    a block's four number columns in one `_g12` call (a NaN z is written
    as ""), then the labels, gathered from their distinct texts
    (`_label_words`).  The padding is deleted from each block's bytes, so
    the text is exactly that of formatting every number with "%.12g" and
    joining the fields with commas; a label is written as it is.
    """
    labels, at = _label_words(curve.labels)
    blocks = [(CSV_HEADER + "\n").encode()]
    for start in range(0, len(curve), _CSV_ROWS):
        rows = slice(start, start + _CSV_ROWS)
        values = np.concatenate((curve.r1[rows], curve.r2[rows], curve.z1[rows], curve.z2[rows]))
        n = values.size // 4
        no_z = np.isnan(values[2 * n:])
        values[2 * n:][no_z] = 2.0  # any value that `_g12` does not format by `_FMT`
        fields = _g12(values)
        fields[:, 2 * n:][:, no_z] = _PAD_WORD
        words = np.concatenate((fields.reshape(3, 4, n).swapaxes(0, 1).reshape(12, n),
                                labels.take(at[rows], axis=1)))
        words[2:12:3] ^= _COMMA
        blocks.append(words.T.astype("<u8", copy=False).tobytes().translate(None, _PAD_BYTE))
    return b"".join(blocks).decode("utf-8", "surrogatepass")


def curve_from_csv(text: str) -> BoundaryCurve:
    """Parse a curve written by curve_to_csv; an empty z field reads as NaN."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    fields = [ln.split(",") for ln in lines[1:]]
    for row in fields:
        if len(row) != 5:
            raise ValueError(f"expected 5 fields, got {len(row)}: {','.join(row)!r}")
    r1, r2, z1, z2, labels = zip(*fields) if fields else ((),) * 5
    r1 = np.array([float(v) for v in r1], dtype=np.float64)
    r2 = np.array([float(v) for v in r2], dtype=np.float64)
    _check_rates(r1, r2)
    nan = float("nan")
    return BoundaryCurve._of(r1, r2, [float(v) if v else nan for v in z1],
                             [float(v) if v else nan for v in z2], labels)
