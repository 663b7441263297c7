import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdpareto import pareto
from fdpareto.channel import ScenarioSpec, generate_scenario, ideal_frontend
from fdpareto.cli import preset_config
from fdpareto.rates import RatePoint, single_link_max
from fdpareto.pareto import (
    BoundaryCurve,
    SweepGrid,
    boundary,
    curve_dominates,
    curve_from_csv,
    curve_to_csv,
    domination_oracle,
    equal_rate_point,
    grid_slack,
    pareto_filter,
    tdma_boundary,
)

from oracles import pareto_filter_reference, sweep_rate_point


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


@settings(max_examples=300, deadline=None)
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
        r2 = curve.r2_array()
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

    The rate grid is computed exactly as the sweep computes it, and the
    leakages are read through the `pareto` module so a patched solver
    reaches both sides of a comparison.
    """
    z1s = grid.z1_values()
    z2s = grid.z2_values()
    leak1 = np.array([pareto.min_leakage(pareto.node_problem(ch, 1, z)) for z in z1s])
    leak2 = np.array([pareto.min_leakage(pareto.node_problem(ch, 2, z)) for z in z2s])
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
        assert curve_to_csv(curve) == curve_to_csv(BoundaryCurve(points=ref))

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
            calls = itertools.count()
            monkeypatch.setattr(pareto, "min_leakage",
                                lambda prob: leakage(next(calls)))
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

    def test_detects_escapes(self):
        # a deliberately wrong (shrunken) curve must be caught
        ch = scenario(gamma_db=20.0, beta_db=-40.0)
        curve = boundary(ch, SweepGrid.for_channel(ch, 101))
        shrunk = BoundaryCurve(points=[
            RatePoint(r1=0.3 * p.r1, r2=0.3 * p.r2, label=p.label)
            for p in curve.points])
        report = domination_oracle(ch, shrunk, samples=300, seed=1)
        assert not report.passed


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
        assert curve_to_csv(parsed) == text

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            curve_from_csv("a,b\n1,2\n")


def test_sweepgrid_validation():
    with pytest.raises(ValueError):
        SweepGrid(n1=1, n2=10, z1_max=1.0, z2_max=1.0)
