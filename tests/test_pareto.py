import itertools
import json
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fdpareto import pareto
from fdpareto.beamform import leakage_curve
from fdpareto.channel import (ChannelSet, FrontEndModel, ScenarioSpec, generate_scenario,
                              ideal_frontend)
from fdpareto.cli import preset_config
from fdpareto.json_floats import json_floats
from fdpareto.rates import RatePoint, rate_pairs, single_link_max
from fdpareto.pareto import (
    BoundaryCurve,
    SweepGrid,
    boundary,
    curve_dominates,
    curve_from_csv,
    curve_to_csv,
    domination_oracle,
    equal_rate_point,
    escape_distances,
    grid_slack,
    node_problem,
    pareto_filter,
    pareto_indices,
    tdma_boundary,
)

import oracles
from oracles import (
    assert_same_lines,
    curve_to_csv_reference,
    domination_oracle_reference,
    equal_rate_point_reference,
    escape_distances_bisection,
    escape_distances_reference,
    joined_csv_reference,
    maximal_cells_reference,
    pareto_filter_reference,
    percent_csv_reference,
    sampled_covariances,
    sampled_rates_reference,
    sweep_rate_point,
    written_maxima_reference,
)
from strategies import north_star_channels


def scenario(gamma_db=40.0, beta_db=-40.0, m=3, seed=7, **kw):
    return generate_scenario(ScenarioSpec(m=m, gamma_db=gamma_db,
                                          beta_db=beta_db, seed=seed, **kw))


def pts(pairs, label="optimal"):
    return [RatePoint(r1=a, r2=b, label=label) for a, b in pairs]


class TestSweepRatePoint:
    def test_origin(self):
        ch = scenario()
        pt = sweep_rate_point(ch, 0.0, 0.0)
        assert pt.r1 == 0.0 and pt.r2 == 0.0

    def test_ideal_decoupling(self):
        ch = ideal_frontend(scenario())
        z2 = 0.4
        vals = {round(sweep_rate_point(ch, z1, z2).r1, 15)
                for z1 in (0.0, 0.3, 0.9)}
        assert len(vals) == 1
        assert vals.pop() == round(float(np.log2(1 + z2 / ch.frontend.sigma2)), 15)

    def test_scalar_channel_substitution(self):
        from fdpareto.channel import ChannelSet, FrontEndModel
        ch = ChannelSet(h11=np.array([10.0]), h12=np.array([1.0]),
                        h21=np.array([1.0]), h22=np.array([10.0]),
                        p1=2.0, p2=2.0,
                        frontend=FrontEndModel(beta=1e-4, sigma2=1.0))
        # minimal leakage at z is 100 z for the scalar link
        pt = sweep_rate_point(ch, 1.0, 1.0)
        expect = float(np.log2(1.0 + 1.0 / 1.01))
        assert pt.r1 == pytest.approx(expect, abs=1e-12)
        assert pt.r2 == pytest.approx(expect, abs=1e-12)


class TestParetoFilter:
    def test_drops_dominated(self):
        out = pareto_filter(pts([(1, 1), (2, 0), (0, 2), (0.5, 0.5)]))
        assert [(p.r1, p.r2) for p in out] == [(0, 2), (1, 1), (2, 0)]

    def test_singleton(self):
        out = pareto_filter(pts([(1.5, 0.5)]))
        assert [(p.r1, p.r2) for p in out] == [(1.5, 0.5)]

    def test_duplicates_collapse(self):
        out = pareto_filter(pts([(1, 1), (1, 1), (1, 1)]))
        assert len(out) == 1

    def test_antichain_and_sorted(self):
        rng = np.random.default_rng(3)
        points = pts(rng.uniform(0, 4, size=(300, 2)))
        out = pareto_filter(points)
        r1 = [p.r1 for p in out]
        r2 = [p.r2 for p in out]
        assert r1 == sorted(r1)
        assert all(b < a for a, b in zip(r2, r2[1:]))
        # nothing kept is dominated by anything sampled
        for p in out:
            assert not any(q.r1 >= p.r1 and q.r2 >= p.r2 and
                           (q.r1, q.r2) != (p.r1, p.r2) for q in points)

    def test_ties_in_r1_keep_best_r2(self):
        out = pareto_filter(pts([(1, 3), (1, 5), (1, 4)]))
        assert [(p.r1, p.r2) for p in out] == [(1, 5)]


# Rates drawn from a handful of values (heavy ties, signed zeros, exact
# duplicates), small ints, or arbitrary nonnegative floats.
_tied = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
_rate_value = st.one_of(_tied, st.integers(0, 4),
                        st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_rate_value, _rate_value), max_size=40))
@example([])
@example([(0.0, -0.0)])
@example([(0, 3), (2, 2), (3, 0), (1, 1), (2, 2), (3, 0)])
@example([(-0.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -0.0), (0.0, 1.0)])
def test_pareto_filter_matches_reference(pairs):
    # z1 carries the input index, so equal rates stay distinguishable
    points = [RatePoint(r1=a, r2=b, z1=float(k)) for k, (a, b) in enumerate(pairs)]
    out = pareto_filter(points)
    ref = pareto_filter_reference(points)
    assert len(out) == len(ref)
    assert all(a is b for a, b in zip(out, ref))


def _doubly_monotone_grid(rng, n1, n2, levels, signed_zeros):
    """Random (r1, r2) grids ordered like a rate grid, with heavy ties.

    r1 is nondecreasing along rows and nonincreasing down columns, r2 the
    reverse; running maxima of draws from a few levels leave long constant
    stretches, constant rows and columns and exact duplicate cells.
    """
    def ordered(along_rows_up):
        m = rng.integers(0, levels, size=(n1, n2)).astype(float) / 2.0
        if along_rows_up:  # rows rise, columns fall
            m = np.maximum.accumulate(m, axis=1)
            return np.maximum.accumulate(m[::-1], axis=0)[::-1]
        m = np.maximum.accumulate(m[:, ::-1], axis=1)[:, ::-1]
        return np.maximum.accumulate(m, axis=0)

    r1, r2 = ordered(True), ordered(False)
    if signed_zeros:  # -0.0 equals 0.0, so the order is kept
        for r in (r1, r2):
            r[(r == 0.0) & (rng.random(r.shape) < 0.5)] = -0.0
    return np.ascontiguousarray(r1), np.ascontiguousarray(r2)


def sieve(r1, r2):
    """`_sieved` of an (n1, n2) grid by the staircase of its stride sub-grid.

    The whole-grid path of `_maximal_cells`, on any grid of rate pairs.
    """
    rows, cols = pareto._sieve_lines(r1.shape[0]), pareto._sieve_lines(r1.shape[1])
    sub = np.ix_(rows, cols)
    return pareto._sieved(r1, r2, pareto._staircase(r1[sub], r2[sub]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n1=st.one_of(st.integers(2, 20), st.integers(2, 150)),
       n2=st.one_of(st.integers(2, 20), st.integers(2, 150)),
       levels=st.sampled_from((1, 2, 3, 5, 50, 10**6)),
       signed_zeros=st.booleans(), monotone=st.booleans(),
       block_rows=st.sampled_from((1, 3, 64)), seed=st.integers(0, 2**32 - 1))
def test_sieve_matches_full_sort(n1, n2, levels, signed_zeros, monotone, block_rows,
                                 seed):
    # grids smaller than the stride, sizes off its multiples, one or many
    # row blocks; the sieve is exact on any grid, monotone or not
    rng = np.random.default_rng(seed)
    if monotone:
        r1, r2 = _doubly_monotone_grid(rng, n1, n2, levels, signed_zeros)
    else:
        r1, r2 = (rng.integers(0, levels, size=(n1, n2)) / 2.0 for _ in range(2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pareto, "_SIEVE_ROWS", block_rows)
        got = sieve(r1, r2)
    assert np.array_equal(got, pareto_indices(r1.ravel(), r2.ravel()))


@pytest.mark.parametrize("r1, r2", [
    (np.zeros((3, 2)), np.zeros((3, 2))),  # every cell a duplicate of the first
    (np.array([[0.0, -0.0], [-0.0, 0.0]]), np.array([[-0.0, 0.0], [0.0, -0.0]])),
    (np.tile([0.0, 1.0, 1.0, 2.0], (9, 1)), np.tile([[3.0], [3.0], [4.0]], (3, 4))),
], ids=["constant", "signed-zeros", "constant-rows-and-columns"])
def test_sieve_keeps_first_duplicate(r1, r2):
    assert np.array_equal(sieve(r1, r2), pareto_indices(r1.ravel(), r2.ravel()))


@contextmanager
def rate_grid_spy():
    """What `pareto._maximal_cells` did inside the block.

    Yields a dict: "rated", the number of rates `_rate` computed (two per
    cell: r1 and r2), and "checked", the shapes of the grids passed to
    `_check_rates` (the whole grid, on the fallback path only).
    """
    seen = {"rated": 0, "checked": []}
    rate, check = pareto._rate, pareto._check_rates

    def counted_rate(*args):
        out = rate(*args)
        seen["rated"] += out.size
        return out

    def recorded_check(r1, r2):
        seen["checked"].append(r1.shape)
        return check(r1, r2)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pareto, "_rate", counted_rate)
        patch.setattr(pareto, "_check_rates", recorded_check)
        yield seen


def maximal_cells_outcome(kernel, *inputs):
    """The kept indices and rates as lists, or the message of the ValueError raised."""
    try:
        keep, r1, r2 = kernel(*inputs)
    except ValueError as err:
        return str(err)
    return keep.tolist(), r1.tolist(), r2.tolist()


@st.composite
def rate_grid_inputs(draw):
    """(z1s, z2s, leak1, leak2, sigma2, beta) of a rate grid, mostly a valid one.

    Each z array rises from 0 in steps drawn from a few levels: a step of 0
    makes a tie, and all steps 0 make every cell of the grid equal.  Each
    leakage is a power of its z, scaled over many decades and optionally
    rounded to a few levels: a steep leakage leaves the maximal cells on the
    box edges, a mild one folds the boundary through the interior.  One
    grid in four is spoiled: two values of an array swapped, one made
    negative, NaN or inf, the last raised to 1.5e308 (its rate overflows
    unless the noise floor and leakage absorb it), or a negative noise
    floor.
    """
    size = st.one_of(st.integers(2, 9), st.integers(2, 120), st.integers(100, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from((1, 2, 3, 50)))

    def curves(n):
        z = np.concatenate([[0.0], np.cumsum(rng.integers(0, levels, n - 1))])
        z *= 10.0 ** draw(st.integers(-5, 3)) / max(1.0, z[-1])
        shape = (z / z[-1]) ** draw(st.sampled_from((0.5, 1.0, 2.0, 8.0))) if z[-1] else z
        leak = 10.0 ** draw(st.integers(-3, 8)) * shape
        if draw(st.booleans()):  # ties in the leakage too
            leak = np.floor(leak / leak[-1] * 4.0) * leak[-1] / 4.0 if leak[-1] else leak
        return z, leak

    (z1s, leak1), (z2s, leak2) = curves(draw(size)), curves(draw(size))
    x = [z1s, z2s, leak1, leak2][draw(st.integers(0, 3))]
    k = draw(st.integers(0, x.size - 2))
    spoil = draw(st.sampled_from((None,) * 18 + ("swap", "negative", "nan", "inf", "huge",
                                                 "noise floor")))
    if spoil == "swap":
        x[k], x[k + 1] = x[k + 1], x[k]
    elif spoil in ("negative", "nan", "inf"):
        x[k] = {"negative": -1.0 - x[k], "nan": np.nan, "inf": np.inf}[spoil]
    elif spoil == "huge":
        x[-1] = 1.5e308
    sigma2 = -1e-3 if spoil == "noise floor" else draw(st.sampled_from((1e-3, 1.0)))
    beta = draw(st.sampled_from((0.0, 1e-8, 1e-4, 1e-2, 1.0, 1e4)))
    return z1s, z2s, leak1, leak2, sigma2, beta


_Z = np.linspace(0.0, 5e-4, 200)
_STEEP = 1e4 * (_Z / _Z[-1]) ** 2


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rate_grid_inputs())
# a negative noise floor: only the first row and column rate below 0, and
# the extreme cells are finite
@example((_Z, _Z, _STEEP, _STEEP, -1e-3, 1.0))
def test_block_pruning_matches_full_grid(inputs):
    # the pruned kernel keeps exactly the indices, and the rates, of sorting
    # the whole grid, or raises its message; both paths and grids under one
    # block are drawn
    with np.errstate(all="ignore"), rate_grid_spy() as seen:
        got = maximal_cells_outcome(pareto._maximal_cells, *inputs)
    n1, n2 = inputs[0].size, inputs[1].size
    event("whole grid" if seen["checked"] else "pruned")
    event(got if isinstance(got, str) else "kept cells")
    assert seen["checked"] in ([], [(n1, n2)])
    with np.errstate(all="ignore"):
        assert got == maximal_cells_outcome(maximal_cells_reference, *inputs)


def test_duplicate_maximal_pair_across_live_blocks():
    # Five cells of row 100, columns 7 to 11, rate one maximal pair from
    # distinct inputs: each 1 + z2 / (1 + G1) rounds to 1 + 2 ulp, and each
    # 1 + G2 to 1.  Column 7 lies in one live block and columns 8 to 11 in
    # the next; the first of them in index order is kept, as when the whole
    # grid is sorted.
    z = np.linspace(0.0, 1.0, 201)
    leak1 = 1e14 * (z / z[100]) ** 8
    leak1[101:] = 1e20
    leak2 = 1e3 * z**2
    leak2[:12] = 1e-18 * np.arange(12)
    inputs = (z, z, leak1, leak2, 1.0, 1.0)
    r1 = pareto._rate(z, leak1[100], 1.0, 1.0)
    r2 = pareto._rate(z[100], leak2, 1.0, 1.0)
    pairs = list(zip(r1.tolist(), r2.tolist()))
    assert len(set(pairs[7:12])) == 1 and pairs[6] != pairs[7] != pairs[12]
    assert r1[7] > 0.0 and pareto._SIEVE_STRIDE == 8
    block_cells, rated = pareto._block_cells, []

    def recorded(*args):
        rated.append(block_cells(*args))
        return rated[-1]

    with pytest.MonkeyPatch.context() as patch, rate_grid_spy() as seen:
        patch.setattr(pareto, "_block_cells", recorded)
        got = maximal_cells_outcome(pareto._maximal_cells, *inputs)
    assert seen["checked"] == [] and {100 * 201 + 7, 100 * 201 + 8} <= set(rated[0].tolist())
    assert got == maximal_cells_outcome(maximal_cells_reference, *inputs)
    assert 100 * 201 + 7 in got[0]


def test_block_cells_lists_each_live_cell_once_in_index_order():
    # a 41 x 30 grid has 5 x 4 blocks, the last row and column of blocks
    # holding the grid's last row and column; two live blocks share a row
    rows, cols = pareto._sieve_lines(41), pareto._sieve_lines(30)
    live = np.zeros((5, 4), dtype=bool)
    live[[0, 1, 1, 4], [2, 0, 1, 3]] = True
    i, j = np.divmod(np.arange(41 * 30), 30)
    block_i = np.minimum(i // pareto._SIEVE_STRIDE, 4)
    block_j = np.minimum(j // pareto._SIEVE_STRIDE, 3)
    want = np.flatnonzero(live[block_i, block_j])
    # listed block by block, so only the sorted list is fixed: each cell once
    got = pareto._block_cells(rows, cols, live, (41, 30))
    assert np.sort(got).tolist() == want.tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ch=north_star_channels(), n1=st.integers(2, 260), n2=st.integers(2, 260))
def test_boundary_matches_full_grid_over_scenarios(ch, n1, n2):
    grid = SweepGrid.for_channel(ch, n1, n2)
    with rate_grid_spy() as seen:
        curve = boundary(ch, grid)
    event("whole grid" if seen["checked"] else "pruned")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pareto, "_maximal_cells", maximal_cells_reference)
        ref = boundary(ch, grid)
    assert_same_lines(curve_to_csv(curve), curve_to_csv(ref))
    for name in ("r1", "r2", "z1", "z2"):
        assert getattr(curve, name).tolist() == getattr(ref, name).tolist()


def _one_antenna_channel(beta=1.0, sigma2=1.0, p=1.0):
    one = np.array([1.0])
    return ChannelSet(h11=one, h12=one, h21=one, h22=one, p1=p, p2=p,
                      frontend=FrontEndModel(beta=beta, sigma2=sigma2))


class TestValidationFallback:
    """Grids that are not provably valid are rated and checked whole."""

    def outcomes(self, ch, grid):
        """`boundary`'s CSV or message, and the full-grid reference's, with the spy's record."""
        def outcome():
            try:
                return curve_to_csv(boundary(ch, grid))
            except ValueError as err:
                return str(err)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with rate_grid_spy() as seen:
                got = outcome()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pareto, "_maximal_cells", maximal_cells_reference)
                want = outcome()
        return got, want, seen

    def test_nan_leakage(self, monkeypatch):
        # a NaN in the middle of node 2's curve poisons one column of r2
        ch = _one_antenna_channel(beta=1e-3)
        grid = SweepGrid.for_channel(ch, 40)
        curve = leakage_curve(ch.h22, ch.h21, ch.p2, grid.z2_values())
        curve[17] = np.nan
        monkeypatch.setattr(pareto, "leakage_curves",
                            lambda probs, z_arrays: [np.zeros(z_arrays[0].size), curve])
        with np.errstate(invalid="ignore"):
            got, want, seen = self.outcomes(ch, grid)
        assert got == want == "rates must be finite"
        assert seen["checked"] == [(40, 40)]

    def test_overflowing_rate(self):
        # sweep-large's channel with a subnormal noise floor: z / sigma2
        # overflows where a node's own leakage is 0, in the grids' first row
        # and first column; the rest of the grid is edge-only
        ch = scenario(seed=1)
        ch = ChannelSet(h11=ch.h11, h12=ch.h12, h21=ch.h21, h22=ch.h22, p1=ch.p1, p2=ch.p2,
                        frontend=FrontEndModel(beta=ch.frontend.beta, sigma2=1e-310))
        with np.errstate(over="ignore"):
            got, want, seen = self.outcomes(ch, SweepGrid.for_channel(ch, 200))
        assert got == want == "rates must be finite"
        assert seen["checked"] == [(200, 200)]

    def test_budget_of_1e308(self):
        # node 1's leakage is inf beyond z = 0, so no block bound holds; the
        # whole grid is rated, as the reference rates it, without warnings
        ch = scenario(p1=1e308)
        got, want, seen = self.outcomes(ch, SweepGrid.for_channel(ch, 200))
        assert got == want and got.startswith(pareto.CSV_HEADER)
        assert seen["checked"] == [(200, 200)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_large_shape_rates_under_a_tenth_of_the_grid(seed):
    # the benchmark's sweep-large boundary: m = 3, 40 dB, -40 dB, grid 1000
    ch = scenario(gamma_db=40.0, beta_db=-40.0, m=3, seed=seed)
    grid = SweepGrid.for_channel(ch, 1000)
    with rate_grid_spy() as seen:
        curve = boundary(ch, grid)
    assert seen["checked"] == [] and seen["rated"] / 2 < 0.1 * 1000 * 1000
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pareto, "_maximal_cells", maximal_cells_reference)
        assert_same_lines(curve_to_csv(curve), curve_to_csv(boundary(ch, grid)))


def test_log2_is_nondecreasing_over_sorted_inputs():
    # the block bound needs `_rate` monotone, so np.log2 must be; its
    # arguments are 1 + x >= 1
    rng = np.random.default_rng(0)
    ulps = np.arange(-2000.0, 2000.0)
    x = np.concatenate([
        1.0 + np.abs(ulps) * np.finfo(float).eps,  # just above 1
        *(np.nextafter(2.0 ** k, np.inf) + ulps * np.spacing(2.0 ** k)
          for k in range(1, 1023, 7)),  # across powers of two
        rng.uniform(1.0, 2.0, 100_000), np.logspace(0.0, 308.0, 100_000),
    ])
    x = np.sort(x[x >= 1.0])
    assert np.all(np.diff(np.log2(x)) >= 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ch=north_star_channels(), n=st.integers(2, 1000))
def test_leakage_curve_is_nondecreasing(ch, n):
    # `boundary` prunes only grids whose leakage curves, as computed, rise
    grid = SweepGrid.for_channel(ch, n)
    for node, zs in ((1, grid.z1_values()), (2, grid.z2_values())):
        prob = node_problem(ch, node, 0.0)
        leak = leakage_curve(prob.h_self, prob.h_cross, prob.p, zs)
        assert np.all(np.diff(leak) >= 0.0)


class TestBoundary:
    def test_ideal_channel_degenerates_to_corner(self):
        ch = ideal_frontend(scenario())
        curve = boundary(ch, SweepGrid.for_channel(ch, 41))
        assert len(curve.points) == 1
        pt = curve.points[0]
        assert pt.r1 == pytest.approx(single_link_max(ch, 1), abs=1e-12)
        assert pt.r2 == pytest.approx(single_link_max(ch, 2), abs=1e-12)

    def test_symmetric_scenario_symmetric_curve(self):
        ch = scenario(gamma_db=30.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 81))
        # swapping coordinates must land back on the curve within grid slack
        s1, s2 = grid_slack(curve)
        swapped = BoundaryCurve(points=pareto_filter(
            [RatePoint(r1=p.r2, r2=p.r1) for p in curve.points]))
        assert curve_dominates(curve, swapped, slack=1e-9)
        assert curve_dominates(swapped, curve, slack=1e-9)

    def test_monotone_after_filter(self):
        ch = scenario(gamma_db=20.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 61))
        r2 = curve.r2
        assert np.all(np.diff(r2) < 0)

    def test_gamma_nesting(self):
        curves = {}
        for gamma in (20.0, 40.0, 60.0):
            ch = scenario(gamma_db=gamma, beta_db=-40.0, seed=7)
            curves[gamma] = boundary(ch, SweepGrid.for_channel(ch, 101))
        assert curve_dominates(curves[20.0], curves[40.0])
        assert curve_dominates(curves[40.0], curves[60.0])
        assert not curve_dominates(curves[60.0], curves[20.0])

    def test_axis_intercepts_on_grid(self):
        ch = scenario(gamma_db=40.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 51))
        assert curve.points[-1].r1 == pytest.approx(single_link_max(ch, 1), abs=1e-12)
        assert curve.points[-1].r2 == 0.0
        assert curve.points[0].r2 == pytest.approx(single_link_max(ch, 2), abs=1e-12)
        assert curve.points[0].r1 == 0.0


def reference_boundary_points(ch, grid):
    """Every grid cell as a RatePoint, filtered by the list-based reference.

    The rate grid is computed exactly as the sweep computes it, and each
    leakage comes from the scalar reference solver, one z at a time, read
    through the `oracles` module so a patched reference takes effect.
    """
    z1s = grid.z1_values()
    z2s = grid.z2_values()
    leak1 = np.array([oracles.min_leakage_reference(ch.h11, ch.h12, ch.p1, z)
                      for z in z1s])
    leak2 = np.array([oracles.min_leakage_reference(ch.h22, ch.h21, ch.p2, z)
                      for z in z2s])
    sigma2 = ch.frontend.sigma2
    beta = ch.frontend.beta
    r1 = np.log2(1.0 + z2s[None, :] / (sigma2 + beta * leak1[:, None]))
    r2 = np.log2(1.0 + z1s[:, None] / (sigma2 + beta * leak2[None, :]))
    return pareto_filter_reference([
        RatePoint(r1=float(r1[i, j]), r2=float(r2[i, j]),
                  z1=float(z1s[i]), z2=float(z2s[j]), label="optimal")
        for i in range(grid.n1) for j in range(grid.n2)
    ])


def _fig4_channel():
    return generate_scenario(preset_config("fig4").scenario)


class TestBoundaryMatchesReference:
    @pytest.mark.parametrize("make_channel, n1, n2", [
        (lambda: scenario(m=1), 60, 60),
        (lambda: scenario(m=3, p1=1.0, p2=4.0, symmetric=False), 47, 71),
        (lambda: ideal_frontend(scenario()), 41, 41),
        (_fig4_channel, 200, 200),
    ], ids=["m1", "m3-asymmetric", "ideal-frontend", "fig4"])
    def test_points_and_csv_identical(self, make_channel, n1, n2):
        ch = make_channel()
        grid = SweepGrid.for_channel(ch, n1, n2)
        curve = boundary(ch, grid)
        ref = reference_boundary_points(ch, grid)
        assert curve.points == ref
        assert_same_lines(curve_to_csv(curve), curve_to_csv(BoundaryCurve(points=ref)))

    @pytest.mark.parametrize("leakage, message", [
        # den = 1 - 1.5 = -0.5: rate log2(1 - 2z) is negative at z = 0.25
        # (the first bad cell) and -inf or NaN further out
        (lambda calls: -1.5, "nonnegative"),
        # one NaN leakage poisons a whole row of r1
        (lambda calls: np.nan if calls == 3 else 0.0, "finite"),
    ], ids=["negative", "nan"])
    def test_invalid_rates_raise(self, monkeypatch, leakage, message):
        from fdpareto.channel import ChannelSet, FrontEndModel
        ch = ChannelSet(h11=np.array([1.0]), h12=np.array([1.0]),
                        h21=np.array([1.0]), h22=np.array([1.0]),
                        p1=1.0, p2=1.0, frontend=FrontEndModel(beta=1.0, sigma2=1.0))
        grid = SweepGrid.for_channel(ch, 5)
        errors = []
        for build in (boundary, reference_boundary_points):
            # the same leakage sequence reaches the node curves of `boundary`
            # and the per-z reference solves, in z order, node 1 first
            calls = itertools.count()
            monkeypatch.setattr(pareto, "leakage_curves",
                                lambda probs, z_arrays:
                                [np.array([leakage(next(calls)) for _ in zs])
                                 for zs in z_arrays])
            monkeypatch.setattr(oracles, "min_leakage_reference",
                                lambda *instance: leakage(next(calls)))
            with np.errstate(all="ignore"), pytest.raises(ValueError) as exc:
                build(ch, grid)
            errors.append(str(exc.value))
        assert errors == [f"rates must be {message}"] * 2


@pytest.mark.parametrize("make_channel, n1, n2", [
    (lambda: scenario(m=1), 60, 60),
    (lambda: scenario(m=3, p1=1.0, p2=4.0, symmetric=False), 47, 71),
    (_fig4_channel, 200, 200),
], ids=["m1", "m3-asymmetric", "fig4"])
def test_boundary_rates_equal_scalar_reference(make_channel, n1, n2):
    # the array rate kernel and the scalar reference agree to the last bit
    ch = make_channel()
    curve = boundary(ch, SweepGrid.for_channel(ch, n1, n2))
    for pt in curve.points:
        ref = sweep_rate_point(ch, pt.z1, pt.z2)
        assert (pt.r1, pt.r2) == (ref.r1, ref.r2)


def test_written_curve_stays_strictly_monotone():
    # at beta = -62 dB, r1 is flat to about 1e-11 along z2 = z2_max, so
    # maximal grid points can share their r1 at the CSV's 12 digits; only the
    # one with the highest r2 is written
    ch = scenario(m=4, gamma_db=7.149, beta_db=-62.171, p1=0.5933, p2=1.3341,
                  seed=1643434257)
    grid = SweepGrid.for_channel(ch, 200)
    curve = boundary(ch, grid)
    written = curve_from_csv(curve_to_csv(curve))
    assert np.all(np.diff(written.r1) > 0)
    assert np.all(np.diff(written.r2) < 0)
    ref = reference_boundary_points(ch, grid)
    assert set(curve.points) < set(ref)
    assert curve.points[0] == ref[0] and curve.points[-1].r1 == ref[-1].r1


def test_written_filter_drops_49_of_399_at_the_flat_config():
    # test_written_curve_stays_strictly_monotone's config: 49 maximal cells
    # share their r1 text with a neighbour and are dropped
    ch = scenario(m=4, gamma_db=7.149, beta_db=-62.171, p1=0.5933, p2=1.3341,
                  seed=1643434257)
    grid = SweepGrid.for_channel(ch, 200)
    z1s, z2s = grid.z1_values(), grid.z2_values()
    leak1, leak2 = pareto.leakage_curves((node_problem(ch, 1, 0.0), node_problem(ch, 2, 0.0)),
                                         (z1s, z2s))
    _, r1, r2 = pareto._maximal_cells(z1s, z2s, leak1, leak2, ch.frontend.sigma2,
                                      ch.frontend.beta)
    got = pareto._written_maxima(r1, r2)
    assert got.tolist() == written_maxima_reference(r1, r2).tolist()
    assert (r1.size, got.size) == (399, 350)


@pytest.mark.parametrize("r1, r2, kept", [
    # r1 ties at 12 digits: the tied point with the higher r2 is kept
    ([1.0, 1.0 + 1e-13, 2.0], [3.0, 2.0, 1.0], [0, 2]),
    # r2 ties: the tied point with the higher r1 is kept
    ([1.0, 2.0, 3.0], [3.0, 2.0 + 1e-13, 2.0], [0, 2]),
    # both tie: written duplicates collapse to the first
    ([1.0, 1.0 + 1e-13], [2.0 + 1e-13, 2.0], [0]),
    # a run of r1 ties that ends in an r2 tie with the next point
    ([1.0, 1.0 + 1e-13, 1.0 + 2e-13, 5.0], [2.0 + 2e-13, 2.0 + 1e-13, 2.0, 2.0 - 1e-13],
     [3]),
    # across a decade: 9.9999999999996 is written "10", 9.99999999999 is not
    ([9.99999999999, 9.9999999999996, 10.0], [3.0, 2.0, 1.0], [0, 1]),
    ([9.99999999999, 10.0], [2.0, 1.0], [0, 1]),
    # zeros and subnormals are written apart from their neighbours
    ([0.0, 5e-324, 1e-300, 1.0], [1.0, 1e-13, 5e-324, 0.0], [0, 1, 2, 3]),
    # gaps of 1.5e-11 relative: near, yet written apart
    ([1.0, 1.0 + 1.5e-11], [1.0, 1.0 - 1.5e-11], [0, 1]),
    ([], [], []),
    ([0.5], [0.5], [0]),
], ids=["r1-tie", "r2-tie", "both-tie", "tie-run", "decade-tie", "decade-apart", "zeros",
        "near-apart", "empty", "one"])
def test_written_filter_on_built_ties(r1, r2, kept):
    r1, r2 = np.array(r1, dtype=float), np.array(r2, dtype=float)
    assert written_maxima_reference(r1, r2).tolist() == kept
    assert pareto._written_maxima(r1, r2).tolist() == kept


@st.composite
def _antichain(draw):
    """r1 strictly ascending and r2 strictly descending, with steps near 12-digit ties."""
    n = draw(st.integers(1, 40))
    start = st.sampled_from([0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, 9.99999999999,
                             9.9999999999996, 99.99999999995, 1234.56789012345, 1e300])
    step = st.sampled_from([0.0, 3e-13, 1e-12, 4e-12, 9e-12, 1e-11, 1.9e-11, 2.1e-11,
                            5e-11, 1e-9, 0.01, 1.0])

    def ascending():
        x = [draw(start)]
        for _ in range(n - 1):
            x.append(max(np.nextafter(x[-1], np.inf), x[-1] * (1.0 + draw(step))))
        return np.array(x)

    return ascending(), ascending()[::-1].copy()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_antichain())
def test_written_filter_matches_reference(pairs):
    r1, r2 = pairs
    assert pareto._written_maxima(r1, r2).tolist() == \
        written_maxima_reference(r1, r2).tolist()


def _g12_lines(x):
    """`pareto._g12`'s text of each value, one per line."""
    words = pareto._g12(np.asarray(x, dtype=np.float64))
    words[2] ^= np.uint64((pareto._PAD ^ ord("\n")) << 56)  # its last byte is always padding
    return words.T.astype("<u8").tobytes().translate(None, pareto._PAD_BYTE).decode()


def _percent_lines(x):
    return "".join("%.12g\n" % v for v in np.asarray(x, dtype=np.float64).tolist())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.floats(), max_size=64))
@example([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2.2250738585072014e-308])
def test_g12_matches_percent_format(values):
    # 500 examples over every float: NaN, infinities, subnormals and -0.0
    assert_same_lines(_g12_lines(values), _percent_lines(values))


def _ulps_around(x, count):
    x = np.asarray(x, dtype=np.float64)[:, None]
    return (x + np.arange(-count, count + 1) * np.spacing(x)).ravel()


def _exact_ties():
    # integers below 2**53 whose digits from the 13th on are a single 5,
    # with even and odd 12th digits, and dyadic ties below 1
    d = np.random.default_rng(2).integers(10**11, 10**12, 200)
    ints = np.concatenate([d * 10**k + 5 * 10**(k - 1) for k in (1, 2, 3, 4)])
    ints = ints[ints < 2**53]
    dyadic = [1234567890125 / 10, 123456789012.5 / 100, 0.5, 0.25, 0.125, 0.0625,
              1 / 2**20, 3 / 2**40, 2.5e-5]
    return np.concatenate([ints.astype(np.float64), dyadic])


@pytest.mark.parametrize("values", [
    _ulps_around([float(f"1e{k}") for k in range(-30, 41)], 64),
    _ulps_around([float(f"9.999999999995e{k}") for k in range(-30, 41)]
                 + [float(f"9.99999999999949999e{k}") for k in range(-30, 41)], 16),
    _exact_ties(),
    _ulps_around([1e-5, 9.99999999999e-5, 1e-4, 1.5e-5, 1.5e-4, 1.23456789012e-5,
                  1.23456789012e-4, 99999999999.9, 1e11, 123456789012.0, 999999999999.0,
                  1e12, 1.5e11, 1.5e12, 1234567890123.0], 8),
    _ulps_around([1e-11, 1e33, 2.0, 1.0], 8),
], ids=["powers-of-ten", "carry-seam", "exact-ties", "fixed-or-exponent", "range-ends"])
def test_g12_explicit_values(values):
    assert_same_lines(_g12_lines(values), _percent_lines(values))


def _sweep(size, seed=11):
    # bit patterns, log-uniform over the kernel's range and beyond, and [0, 64]
    rng = np.random.default_rng(seed)
    third = size // 3
    return np.concatenate((rng.integers(0, 2**64, third, dtype=np.uint64).view(np.float64),
                           10.0 ** rng.uniform(-14, 36, third),
                           rng.uniform(0.0, 64.0, size - 2 * third)))


def test_g12_seeded_sweep():
    values = _sweep(10**6)
    assert_same_lines(_g12_lines(values), _percent_lines(values))


@pytest.mark.parametrize("offset", [-3.0, -0.7, 0.7, 3.0])
def test_g12_does_not_depend_on_log10(monkeypatch, offset):
    # a log10 off by 0.7 puts about every other exponent one off, so those
    # values take the x10 or /10 correction; off by 3, none fits after it
    values = np.concatenate((_sweep(3 * 10**5, seed=12), _exact_ties()))
    want = _percent_lines(values)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + offset)
    assert_same_lines(_g12_lines(values), want)


# a text's end as one padded word: json_floats fills all 24 bytes of a long token
_NEWLINE_WORD = np.frombuffer(b"\n".ljust(8, pareto._PAD_BYTE), dtype="<u8")[0]


def _json_lines(x):
    """`json_floats`' token of each value, one per line."""
    words = json_floats(np.array(x, dtype=np.float64))
    rows = np.concatenate((words, np.full((1, words.shape[1]), _NEWLINE_WORD))).T
    text = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    return text.translate(None, pareto._PAD_BYTE).decode()


def _dumps_lines(x):
    return "".join(json.dumps(v) + "\n" for v in np.asarray(x, dtype=np.float64).tolist())


_JSON_SPECIALS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324,
                  -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                  1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.floats() | st.sampled_from(_JSON_SPECIALS), max_size=64))
@example(_JSON_SPECIALS)
def test_json_floats_match_json_dumps(values):
    # 500 examples over every float: NaN of both signs, infinities,
    # subnormals and -0.0, repeated values too
    assert_same_lines(_json_lines(values), _dumps_lines(values))


def _json_ties():
    """Decimals at the end of a rounding interval, and 17-digit halves.

    Above 2**54 a double is a multiple of 4, so x +- 2 ends its interval:
    with x +- 2 a multiple of 10 or 100, the interval's closure (x's
    mantissa even or odd) decides the digits.  Below 2**52, x + 1/2 or
    x + 1/4 lies half way between two 17-digit decimals.
    """
    rng = np.random.default_rng(3)
    d = rng.integers(2**54 // 100, 2**55 // 100, 2000)
    ends = np.concatenate([100 * d + 2, 100 * d - 2, 10 * d + 2, 10 * d - 2])
    ends = ends[(ends % 4 == 0) & (ends >= 2**54) & (ends < 2**55)]
    halves = rng.integers(10**15, 2**52, 2000) + np.array([0.25, 0.5, 0.75])[:, None]
    dyadic = np.ldexp(rng.integers(1, 2**20, 2000) * 2 + 1, rng.integers(-80, -20, 2000))
    return np.concatenate([ends.astype(np.float64), halves.ravel(), dyadic])


def _digit_counts():
    # every length of 1 to 17 digits, at decimal exponents across the table and past it
    rng = np.random.default_rng(4)
    texts = [f"{rng.integers(10 ** (n - 1), 10 ** n)}e{k}"
             for n in range(1, 18) for k in rng.integers(-330, 300, 60).tolist()]
    return np.array([float(t) for t in texts])


def _bit_neighbours(x, count):
    """Each value of x and the count doubles on either side of it, by bit pattern."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)[:, None]
    return (bits + np.arange(-count, count + 1)).ravel().view(np.float64)


@pytest.mark.parametrize("values", [
    _bit_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 64),
    _bit_neighbours([float(f"1e{k}") for k in range(-323, 309)], 64),
    _bit_neighbours([float(f"9.999999999999999e{k}") for k in range(-300, 300)]
                    + [float(f"9.99999999999999e{k}") for k in range(-300, 300)], 16),
    _bit_neighbours([5e-324, 2.2250738585072014e-308, 1e-292, 1e300, 1.7976931348623157e308,
                     1e16, 1e17, 9999999999999998.0, 12345678901234567.0, 1e-4, 1e-5,
                     1.2345678901234567e-4, 1.2345678901234567e-5, 0.1, 1.0], 64),
    _digit_counts(),
    _json_ties(),
], ids=["powers-of-two", "powers-of-ten", "carry", "ends-and-layout-switches",
        "digit-counts", "exact-ties"])
def test_json_floats_explicit_values(values):
    values = np.concatenate([values, -values])
    assert_same_lines(_json_lines(values), _dumps_lines(values))


def _json_sweep(size, seed):
    # bit patterns, and log-uniform over the table and past both ends
    rng = np.random.default_rng(seed)
    half = size // 2
    return np.concatenate((rng.integers(0, 2**64, half, dtype=np.uint64).view(np.float64),
                           10.0 ** rng.uniform(-307, 308, size - half)))


def test_json_floats_seeded_sweep():
    values = _json_sweep(10**6, seed=21)
    assert_same_lines(_json_lines(values), _dumps_lines(values))


@pytest.mark.parametrize("offset", [-3.0, -0.7, 0.7, 3.0])
def test_json_floats_do_not_depend_on_log10(monkeypatch, offset):
    # a log10 off by 0.7 puts about every other value's y a decade off, and
    # one off by 3 every value's: each goes to repr
    values = np.concatenate((_json_sweep(3 * 10**5, seed=22), _json_ties()))
    want = _dumps_lines(values)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + offset)
    assert_same_lines(_json_lines(values), want)


_csv_value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 9.9999999999996, 1e308]),
                       st.floats(allow_nan=False))
_csv_z = st.one_of(st.just(np.nan), st.sampled_from([-0.0, np.inf, -np.inf]),
                   st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(_csv_value, _csv_value, _csv_z, _csv_z,
                               st.text(alphabet="%sdg.,_-ab 0\x00é\n", max_size=6)),
                     max_size=30))
def test_csv_equals_joined_renderer(rows):
    # 200 examples; labels may hold "%", NUL, non-ASCII text and newlines,
    # which must reach the text as they are
    r1, r2, z1, z2, labels = zip(*rows) if rows else ((),) * 5
    curve = BoundaryCurve._of(r1, r2, z1, z2, tuple(labels))
    assert_same_lines(curve_to_csv(curve), joined_csv_reference(curve))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.floats(), st.floats(), st.floats(), st.floats(),
                               st.text(max_size=4)), max_size=30))
def test_csv_equals_percent_renderer(rows):
    # 200 examples over every float and label; a NaN rate is written "nan"
    # and a NaN z "", as the one-`%`-call renderer wrote them
    r1, r2, z1, z2, labels = zip(*rows) if rows else ((),) * 5
    curve = BoundaryCurve._of(r1, r2, z1, z2, tuple(labels))
    assert_same_lines(curve_to_csv(curve), percent_csv_reference(curve))


def test_csv_blocks_join_across_label_runs():
    # 2 * _CSV_ROWS + 1 rows: the label changes inside the first block,
    # runs across the boundary into the second, and changes back at the
    # third, which holds one row
    block = pareto._CSV_ROWS
    n = 2 * block + 1
    rng = np.random.default_rng(8)
    zs = np.append(np.linspace(0.0, 3.7, 200), [np.nan, -0.0])
    labels = ("optimal",) * (block - 2) + ("zf \ud800",) * (block + 2) + ("optimal",)
    curve = BoundaryCurve._of(np.sort(rng.uniform(0, 12, n)), np.sort(rng.uniform(0, 12, n))[::-1],
                              rng.choice(zs, n), rng.choice(zs, n), labels)
    text = curve_to_csv(curve)
    assert_same_lines(text, percent_csv_reference(curve))
    lines = text.split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    # lines[k + 1] is row k
    assert lines[block - 2].endswith(",optimal") and lines[block - 1].endswith(",zf \ud800")
    assert lines[2 * block].endswith(",zf \ud800") and lines[n].endswith(",optimal")


def test_csv_keeps_percent_in_labels():
    points = [RatePoint(r1=0.0, r2=2.0, z1=0.5, z2=1.0, label="50%"),
              RatePoint(r1=1.0, r2=1.0, z1=0.25, z2=0.75, label="%s%%d"),
              RatePoint(r1=2.0, r2=0.0, label="%.12g")]
    text = curve_to_csv(BoundaryCurve(points=points))
    assert_same_lines(text, curve_to_csv_reference(points))
    assert text.splitlines()[1:] == ["0,2,0.5,1,50%", "1,1,0.25,0.75,%s%%d", "2,0,,,%.12g"]


@pytest.mark.parametrize("make_channel, n1, n2", [
    (lambda: scenario(m=1), 60, 60),
    (lambda: scenario(m=3, p1=1.0, p2=4.0, symmetric=False), 47, 71),
    (lambda: ideal_frontend(scenario()), 41, 41),
    (_fig4_channel, 200, 200),
], ids=["m1", "m3-asymmetric", "ideal-frontend", "fig4"])
def test_csv_equals_point_list_renderer(make_channel, n1, n2):
    # the array-built rows render as each point formatted anew
    ch = make_channel()
    curve = boundary(ch, SweepGrid.for_channel(ch, n1, n2))
    assert_same_lines(curve_to_csv(curve), curve_to_csv_reference(curve.points))
    seg = tdma_boundary(ch, n1)
    assert_same_lines(curve_to_csv(seg), curve_to_csv_reference(seg.points))
    assert equal_rate_point(curve) == equal_rate_point_reference(curve.points)
    assert equal_rate_point(seg) == equal_rate_point_reference(seg.points)


_coordinate = st.one_of(st.none(), st.floats(0.0, 5.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rates=st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 2.0)) | st.floats(0.0, 3.0),
                                st.sampled_from((0.0, 0.5, 1.0, 2.0)) | st.floats(0.0, 3.0)),
                      min_size=1, max_size=12),
       zs=st.lists(st.tuples(_coordinate, _coordinate), min_size=12, max_size=12),
       staircase=st.booleans())
@example(rates=[(0.0, 2.0), (2.0, 0.0)], zs=[(0.0, 1.0), (1.0, 0.0)] + [(None, None)] * 10,
         staircase=True)  # crosses between two points
@example(rates=[(0.1, 3.0), (0.2, 2.5)], zs=[(None, None)] * 12, staircase=True)  # above
@example(rates=[(1.5, 0.5), (2.0, 0.2)], zs=[(None, None)] * 12, staircase=True)  # below
@example(rates=[(0.0, 2.0), (1.0, 1.0)], zs=[(None, 1.0)] * 12, staircase=True)  # ends on it
def test_equal_rate_point_matches_point_list(rates, zs, staircase):
    # crossing the diagonal, touching it, or staying off it on either side
    if staircase:
        rates = list(zip(sorted(a for a, _ in rates), sorted((b for _, b in rates),
                                                             reverse=True)))
    points = [RatePoint(r1=a, r2=b, z1=z1, z2=z2, label=f"p{k}")
              for k, ((a, b), (z1, z2)) in enumerate(zip(rates, zs))]
    assert equal_rate_point(BoundaryCurve(points=points)) == \
        equal_rate_point_reference(points)


class TestTdmaBoundary:
    def test_endpoints_are_intercepts(self):
        ch = scenario()
        seg = tdma_boundary(ch, 21)
        assert seg.points[0].r1 == 0.0
        assert seg.points[0].r2 == pytest.approx(single_link_max(ch, 2))
        assert seg.points[-1].r1 == pytest.approx(single_link_max(ch, 1))
        assert seg.points[-1].r2 == 0.0

    def test_midpoint(self):
        ch = scenario()
        seg = tdma_boundary(ch, 3)
        mid = seg.points[1]
        assert mid.r1 == pytest.approx(single_link_max(ch, 1) / 2)
        assert mid.r2 == pytest.approx(single_link_max(ch, 2) / 2)

    def test_sum_rate_constant_only_when_symmetric(self):
        ch = scenario()  # symmetric: r1_max == r2_max
        seg = tdma_boundary(ch, 11)
        sums = [p.r1 + p.r2 for p in seg.points]
        assert np.allclose(sums, sums[0])
        ch2 = scenario(p1=1.0, p2=4.0, symmetric=False)
        seg2 = tdma_boundary(ch2, 11)
        sums2 = [p.r1 + p.r2 for p in seg2.points]
        assert not np.allclose(sums2, sums2[0])


class TestEqualRatePoint:
    def test_interpolated_crossing(self):
        curve = BoundaryCurve(points=pts([(0, 2), (2, 0)]))
        pt = equal_rate_point(curve)
        assert pt.r1 == pytest.approx(1.0)
        assert pt.r2 == pytest.approx(1.0)

    def test_single_point_fallback(self):
        curve = BoundaryCurve(points=pts([(1.0, 1.0)]))
        pt = equal_rate_point(curve)
        assert (pt.r1, pt.r2) == (1.0, 1.0)

    def test_off_diagonal_fallback(self):
        curve = BoundaryCurve(points=pts([(0.1, 3.0), (0.2, 2.5), (0.3, 2.0)]))
        pt = equal_rate_point(curve)
        assert (pt.r1, pt.r2) == (0.3, 2.0)

    def test_symmetric_boundary_crossing_is_symmetric(self):
        ch = scenario(gamma_db=30.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 101))
        pt = equal_rate_point(curve)
        assert pt.r1 == pytest.approx(pt.r2, abs=1e-9)


class TestDominationOracle:
    def test_fig_style_scenario_contained(self):
        ch = scenario(gamma_db=40.0, beta_db=-40.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 101))
        report = domination_oracle(ch, curve, samples=500, seed=11)
        assert report.passed, report.to_dict()

    def test_zero_covariances_trivially_dominated(self):
        ch = scenario()
        curve = boundary(ch, SweepGrid.for_channel(ch, 41))
        # the origin is dominated by any curve point
        assert curve.points[0].r1 >= 0.0
        report = domination_oracle(ch, curve, samples=5, seed=0)
        assert report.max_violation <= report.tolerance

    def test_rates_drawn_beforehand_give_the_same_report(self):
        ch = scenario(gamma_db=20.0, beta_db=-40.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 41))
        rates = pareto.oracle_samples(ch, 300, 4)
        assert rates.shape == (300, 2)
        report = domination_oracle(ch, curve, samples=300, seed=4, rates=rates)
        assert report == domination_oracle(ch, curve, samples=300, seed=4)
        with pytest.raises(ValueError, match=r"rates must have shape \(299, 2\)"):
            domination_oracle(ch, curve, samples=299, seed=4, rates=rates)
        with pytest.raises(ValueError, match="need at least one sample"):
            pareto.oracle_samples(ch, 0, 4)

    def test_detects_escapes(self):
        # a deliberately wrong (shrunken) curve must be caught
        ch = scenario(gamma_db=20.0, beta_db=-40.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 101))
        shrunk = BoundaryCurve(points=[
            RatePoint(r1=0.3 * p.r1, r2=0.3 * p.r2, label=p.label)
            for p in curve.points])
        report = domination_oracle(ch, shrunk, samples=300, seed=1)
        assert not report.passed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ch=north_star_channels(), seed=st.integers(0, 2**16),
       n_grid=st.integers(2, 12), samples=st.integers(1, 60),
       shrink=st.sampled_from((1.0, 0.5)))
def test_oracle_equals_per_sample_reference(ch, seed, n_grid, samples, shrink):
    # the stacked draws and rates, and the whole report, equal the per-sample
    # loop's exactly; small blocks make the array pass cross block edges
    rng = np.random.default_rng(seed)
    r1, r2 = pareto._sampled_rates(rng, ch, rng.random((samples, 2)))
    ref = sampled_rates_reference(ch, samples, seed)
    assert r1.tolist() == ref[:, 0].tolist() and r2.tolist() == ref[:, 1].tolist()

    curve = boundary(ch, SweepGrid.for_channel(ch, n_grid))
    curve = BoundaryCurve(points=[  # a shrunken curve has violations to count
        RatePoint(r1=shrink * p.r1, r2=shrink * p.r2) for p in curve.points])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pareto, "_oracle_block", lambda m: 7)
        report = domination_oracle(ch, curve, samples, seed)
    assert report == domination_oracle_reference(ch, curve, samples, seed)


def factored_rate_bound(ch, q1s, q2s, r1, r2):
    """How far the factored rates may lie from `rate_pairs`' of the full matrices.

    Every operation rounds with relative error at most u = 2^-53; gamma_n is
    n u / (1 - n u).  Take one covariance Q = s g g† of an m-antenna node,
    with cross channel h, so the delivered power is z = s ||g† h||^2 and
    Z = tr(Q) ||h||^2 >= s (sum_k |h_k| ||g_k||)^2 bounds every term of its
    sums.  The full path (Gram product, trace and scaling, then h† Q h)
    computes z to within gamma_{5m+15} Z, and the factored path (the row
    norms, ||g||_F^2, s, the 2m-term sums of g† h, their squares) to within
    gamma_{11m+5} Z.  The leakage G is a sum of nonnegative terms c_k Q_kk,
    which each path computes to within gamma_{4m+9} G.  So x = z / D, with
    D = sigma2 + beta G, differs between the paths by at most
    gamma_{16m+24} (Z / D + x), and r = log2(1 + x) by that over
    (1 + x) ln 2, plus one rounding of 1 + x on each side (2u (1 + x)) and
    up to 4 ulps of log2 on each side (16 u r).
    """
    m = ch.m
    u = 2.0 ** -53
    n = 16 * m + 24
    gamma = n * u / (1.0 - n * u)
    fe = ch.frontend

    def bound(r, q_sender, h, q_own, h_own):
        z_scale = np.trace(q_sender, axis1=1, axis2=2).real * np.sum(np.abs(h) ** 2)
        leak = np.sum(np.abs(h_own) ** 2 * np.diagonal(q_own, axis1=1, axis2=2).real, axis=1)
        one_plus_x = np.exp2(r)
        x = one_plus_x - 1.0
        rel = gamma * (z_scale / (fe.sigma2 + fe.beta * leak) + x) / one_plus_x
        return (rel + 4.0 * u) / np.log(2.0) + 16.0 * u * r

    return bound(r1, q2s, ch.h21, q1s, ch.h11), bound(r2, q1s, ch.h12, q2s, ch.h22)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ch=north_star_channels(), seed=st.integers(0, 2**16), samples=st.integers(1, 200))
def test_factored_rates_match_full_covariance_rates(ch, seed, samples):
    # the same draws, rated from the factors and from the full Gram matrices
    # (with their trace and PSD checks), agree to the round-off bound
    rng = np.random.default_rng(seed)
    r1, r2 = pareto._sampled_rates(rng, ch, rng.random((samples, 2)))
    rng = np.random.default_rng(seed)
    q1s, q2s = sampled_covariances(rng, ch, rng.random((samples, 2)))
    f1, f2 = rate_pairs(ch, q1s, q2s)
    b1, b2 = factored_rate_bound(ch, q1s, q2s, f1, f2)
    assert np.all(np.abs(r1 - f1) <= b1) and np.all(np.abs(r2 - f2) <= b2)


@pytest.mark.parametrize("samples, blocks", [
    (1, (1, 7, 4096)), (13, (1, 7, 4096)), (100, (1, 7, 4096)),
    (4099, (7, 4096)),  # past one default block; blocks of 1 take seconds here
])
def test_oracle_report_does_not_depend_on_block_size(samples, blocks, monkeypatch):
    # the uniforms are drawn before any normals, and a generator fills an
    # array from one stream, so any block size draws the same numbers
    ch = scenario(gamma_db=20.0, beta_db=-40.0)
    curve = boundary(ch, SweepGrid.for_channel(ch, 41))
    shrunk = BoundaryCurve(points=[  # a shrunken curve has violations to count
        RatePoint(r1=0.3 * p.r1, r2=0.3 * p.r2) for p in curve.points])
    for c in (curve, shrunk):
        reports = []
        for block in blocks:
            monkeypatch.setattr(pareto, "_oracle_block", lambda m, block=block: block)
            reports.append(domination_oracle(ch, c, samples, seed=5))
        assert all(r == reports[0] for r in reports)
    assert reports[0].violations > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_passes_at_sweep_large_shape(seed):
    # the benchmark's sweep-large job: m = 3, 40 dB, -40 dB, grid 1000 and
    # 10k oracle samples seeded like the scenario
    ch = scenario(gamma_db=40.0, beta_db=-40.0, m=3, seed=seed)
    curve = boundary(ch, SweepGrid.for_channel(ch, 1000))
    report = domination_oracle(ch, curve, samples=10000, seed=seed)
    assert report.passed and report.violations == 0, report.to_dict()


def _staircase(r1, r2):
    """A curve's shifted rates: r1 ascending and r2 descending."""
    return np.sort(np.asarray(r1, dtype=float)), np.sort(np.asarray(r2, dtype=float))[::-1]


@pytest.mark.parametrize("c1, c2", [
    ([0.7], [0.4]),
    ([0.2, 0.9], [1.5, 0.1]),
    # r1 values below the slack's ulp: c1 repeats once the slack is added
    (np.array([1e-20, 2e-20, 3e-20, 0.5]) + 1.0, [3.0, 2.0, 1.0, 0.5]),
    ([0.0, 0.0, 1.0, 1.0, 2.0], [2.0, 2.0, 1.0, 1.0, 0.0]),
], ids=["length-1", "length-2", "repeated-after-slack", "flat-steps"])
def test_escape_bisection_equals_brute_force_on_edges(c1, c2):
    c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    up, down = np.nextafter(c1, np.inf), np.nextafter(c2, -np.inf)
    mids = (c1[:-1] + c1[1:]) / 2.0
    r1 = np.concatenate([c1, up, c1, up, c1 - 0.1, c1 + 5.0, mids, [0.0, 10.0]])
    r2 = np.concatenate([c2, c2, np.nextafter(c2, np.inf), down, c2 - 0.1, c2,
                         c2[1:], [0.0, 10.0]])
    got = escape_distances(r1, r2, c1, c2)
    assert got.tolist() == escape_distances_reference(r1, r2, c1, c2).tolist()
    assert np.all(got[:c1.size] == 0.0)  # points on the curve escape by 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(curve=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
                      min_size=1, max_size=40),
       pairs=st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
                      min_size=1, max_size=40),
       slack=st.sampled_from((0.0, 1e-3, 1.0, 1e6)))
def test_escape_bisection_equals_brute_force(curve, pairs, slack):
    c1, c2 = _staircase(*zip(*curve))
    c1, c2 = c1 + slack, c2 + slack
    r1, r2 = (np.array(v) for v in zip(*pairs))
    # add the curve's own points and their next floats
    r1 = np.concatenate([r1, c1, np.nextafter(c1, np.inf)])
    r2 = np.concatenate([r2, c2, c2])
    assert escape_distances(r1, r2, c1, c2).tolist() == \
        escape_distances_reference(r1, r2, c1, c2).tolist()


_coordinate = st.one_of(st.floats(-5.0, 5.0),
                        st.sampled_from((0.0, 1.0, 1.0 + 2.0 ** -52, 2.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(curve=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40),
       pairs=st.lists(st.tuples(_coordinate, _coordinate), max_size=40),
       slack=st.sampled_from((0.0, 1e-3, 1.0, 1e6)),
       scale=st.sampled_from((1e-300, 1e-12, 1.0, 1e12, 1e290)),
       shift=st.floats(-1e-3, 1e-3))
def test_escape_bracket_equals_whole_curve_bisection(curve, pairs, slack, scale, shift):
    # the bracketed search returns the whole-curve bisection's distances bit
    # for bit: on the curve, at its points' float neighbours, at its corners,
    # shifted along the diagonal (where r1 - r2 meets c1 - c2 up to
    # rounding), between repeated c1 values and at subnormal scales
    c1, c2 = _staircase(*zip(*curve))
    c1, c2 = scale * (c1 + slack), scale * (c2 + slack)
    free1, free2 = (scale * np.array(pairs, dtype=float).reshape(-1, 2)).T
    up1, down1 = np.nextafter(c1, np.inf), np.nextafter(c1, -np.inf)
    up2, down2 = np.nextafter(c2, np.inf), np.nextafter(c2, -np.inf)
    step = scale * shift
    r1 = np.concatenate([free1, c1, up1, down1, c1, c1, up1, down1, c1[1:], c1 + step])
    r2 = np.concatenate([free2, c2, c2, c2, up2, down2, down2, up2, c2[:-1], c2 + step])
    got = escape_distances(r1, r2, c1, c2)
    assert got.tobytes() == escape_distances_bisection(r1, r2, c1, c2).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ch=north_star_channels(), seed=st.integers(0, 2**16),
       n_grid=st.integers(2, 300), shrink=st.sampled_from((1.0, 0.5)))
def test_escape_bracket_on_oracle_blocks(ch, seed, n_grid, shrink):
    # a whole block of the oracle's own samples against its own curve
    curve = boundary(ch, SweepGrid.for_channel(ch, n_grid))
    slack1, slack2 = grid_slack(curve)
    c1, c2 = shrink * curve.r1 + slack1, shrink * curve.r2 + slack2
    r1, r2 = pareto.oracle_samples(ch, pareto._oracle_block(ch.m), seed).T
    got = escape_distances(r1, r2, c1, c2)
    assert got.tobytes() == escape_distances_bisection(r1, r2, c1, c2).tobytes()


def test_escape_distances_need_a_curve():
    with pytest.raises(ValueError, match="empty curve"):
        escape_distances(np.zeros(1), np.zeros(1), np.zeros(0), np.zeros(0))


class TestCsvRoundTrip:
    def test_roundtrip_bytes(self):
        ch = scenario(gamma_db=20.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 31))
        text = curve_to_csv(curve)
        again = curve_to_csv(curve_from_csv(text))
        assert text == again

    def test_tdma_roundtrip_with_empty_z(self):
        seg = tdma_boundary(scenario(), 5)
        text = curve_to_csv(seg)
        parsed = curve_from_csv(text)
        assert parsed.points[0].z1 is None
        assert_same_lines(curve_to_csv(parsed), text)

    def test_empty_z_fields_roundtrip(self):
        # empty z fields read as NaN and write back empty, beside filled ones
        points = [RatePoint(r1=0.0, r2=2.0, z1=None, z2=0.5, label="a"),
                  RatePoint(r1=1.0, r2=1.0, z1=-0.0, z2=None, label="b"),
                  RatePoint(r1=2.0, r2=0.0, label="tdma")]
        text = curve_to_csv(BoundaryCurve(points=points))
        assert_same_lines(text, curve_to_csv_reference(points))
        assert text.splitlines()[1:] == ["0,2,,0.5,a", "1,1,-0,,b", "2,0,,,tdma"]
        parsed = curve_from_csv(text)
        assert np.isnan(parsed.z1[[0, 2]]).all() and np.isnan(parsed.z2[1:]).all()
        assert parsed.points == points
        assert_same_lines(curve_to_csv(parsed), text)

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            curve_from_csv("a,b\n1,2\n")


def test_sweepgrid_validation():
    with pytest.raises(ValueError):
        SweepGrid(n1=1, n2=10, z1_max=1.0, z2_max=1.0)
