import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpareto import beamform
from fdpareto.beamform import (
    DecoupledProblem,
    covariance_of,
    leakage_curve,
    leakage_matrix,
    min_leakage,
    mrt_weights,
    optimal_weights,
    zf_weights,
)
from fdpareto.channel import ScenarioSpec, generate_scenario
from fdpareto.errors import DegenerateGeometryError, InfeasibleError, NumericalError
from fdpareto.pareto import node_problem

from oracles import (
    leakage_of,
    low_z_condition_bound,
    min_leakage_reference,
    optimal_weights_reference,
    sample_feasible_weights,
)
from strategies import north_star_channels


def random_problem(rng, m, z_frac=None, zero_self_entries=0):
    h_self = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if zero_self_entries:
        h_self[rng.choice(m, size=zero_self_entries, replace=False)] = 0.0
    h_cross = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    p = float(rng.uniform(0.5, 2.0))
    z_max = p * float(np.linalg.norm(h_cross)) ** 2
    frac = rng.uniform(0.0, 1.0) if z_frac is None else z_frac
    return DecoupledProblem(h_self=h_self, h_cross=h_cross, p=p, z=frac * z_max)


class TestLeakageMatrix:
    def test_modulus_squared(self):
        c = leakage_matrix(np.array([1.0, 2.0j]))
        assert np.allclose(c, np.diag([1.0, 4.0]))

    def test_zero_vector(self):
        assert np.allclose(leakage_matrix(np.zeros(3)), np.zeros((3, 3)))

    def test_real_entries(self):
        assert np.allclose(leakage_matrix(np.array([3.0, 4.0])), np.diag([9.0, 16.0]))


class TestDecoupledProblem:
    args = dict(h_self=np.ones(2), h_cross=np.array([1.0, 0.0]), p=1.0)

    def test_rejects_out_of_range_z(self):
        with pytest.raises(InfeasibleError, match=r"z=2 outside the feasible range \[0, 1\]"):
            DecoupledProblem(z=2.0, **self.args)

    def test_clamps_z_into_its_range(self):
        assert DecoupledProblem(z=-1e-13, **self.args).z == 0.0
        assert DecoupledProblem(z=1.0 + 1e-13, **self.args).z == 1.0


class TestOptimalWeights:
    def test_silent_node(self):
        prob = DecoupledProblem(h_self=np.array([1.0, 2.0]),
                                h_cross=np.array([1.0, 1.0]), p=1.0, z=0.0)
        sol = optimal_weights(prob)
        assert np.all(sol.w == 0)
        assert sol.epsilon == 0.0
        assert sol.leakage == 0.0

    def test_hand_instance(self):
        # C=diag(1,4), h=(1,1), P=1, z=1: the low-z bound is 25/17 > 1, so
        # eps=0 and w = (C^-1 h)/(h† C^-1 h) = (0.8, 0.2), leakage 0.8.
        prob = DecoupledProblem(h_self=np.array([1.0, 2.0]),
                                h_cross=np.array([1.0, 1.0]), p=1.0, z=1.0)
        sol = optimal_weights(prob)
        assert sol.epsilon == 0.0
        assert np.allclose(sol.w, [0.8, 0.2], atol=1e-12)
        assert sol.leakage == pytest.approx(0.8, abs=1e-12)
        assert low_z_condition_bound(prob.h_self, prob.h_cross, prob.p) \
            == pytest.approx(25.0 / 17.0, abs=1e-12)

    def test_max_z_forces_mrt(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            prob = random_problem(rng, 3, z_frac=1.0)
            sol = optimal_weights(prob)
            mrt = mrt_weights(prob.h_cross, prob.p)
            # equal up to a global phase; our convention makes w†h real >= 0
            assert np.allclose(sol.w, mrt, atol=1e-6 * np.linalg.norm(mrt))
            assert sol.achieved_power == pytest.approx(prob.p, rel=1e-10)

    def test_constraints_hold_across_z(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            prob = random_problem(rng, int(rng.integers(1, 5)))
            sol = optimal_weights(prob)
            assert abs(sol.achieved_z - prob.z) <= 1e-8 * max(1.0, prob.z)
            assert sol.achieved_power <= prob.p + 1e-8
            assert sol.leakage == pytest.approx(
                float(np.sum(np.abs(prob.h_self) ** 2 * np.abs(sol.w) ** 2)),
                abs=1e-10)

    def test_sampled_oracle_optimality(self):
        rng = np.random.default_rng(5)
        for k in range(20):
            prob = random_problem(rng, int(rng.integers(2, 5)),
                                  zero_self_entries=int(k % 3 == 0))
            if prob.z == 0.0:
                continue
            gamma = min_leakage(prob)
            comp = sample_feasible_weights(rng, prob.h_cross, prob.p, prob.z, 2000)
            if comp.shape[0] == 0:
                continue
            assert leakage_of(prob.h_self, comp).min() >= gamma - 1e-7

    def test_loading_dichotomy(self):
        rng = np.random.default_rng(7)
        seen_zero = seen_loaded = False
        for _ in range(100):
            prob = random_problem(rng, 3)
            if prob.z == 0.0:
                continue
            bound = low_z_condition_bound(prob.h_self, prob.h_cross, prob.p)
            sol = optimal_weights(prob)
            if prob.z <= bound:
                assert sol.epsilon == 0.0
                seen_zero = True
            else:
                assert sol.epsilon > 0.0
                assert abs(sol.achieved_power - prob.p) <= 1e-10 * max(1.0, prob.p)
                seen_loaded = True
        assert seen_zero and seen_loaded

    def test_monotone_leakage_in_z(self):
        rng = np.random.default_rng(11)
        prob0 = random_problem(rng, 3)
        zs = np.linspace(0.0, prob0.z_max, 60)
        vals = [min_leakage(DecoupledProblem(prob0.h_self, prob0.h_cross,
                                             prob0.p, z)) for z in zs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_scalar_matrix_collapses_to_mrt_direction(self):
        rng = np.random.default_rng(13)
        h_cross = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h_self = np.full(3, 1.7)  # C = 1.7^2 I
        for frac in (0.1, 0.5, 0.9, 1.0):
            z = frac * 2.0 * np.linalg.norm(h_cross) ** 2
            sol = optimal_weights(DecoupledProblem(h_self, h_cross, 2.0, z))
            cross = np.abs(np.vdot(sol.w, h_cross))
            assert cross == pytest.approx(
                np.linalg.norm(sol.w) * np.linalg.norm(h_cross), rel=1e-10)

    def test_scalar_link(self):
        # M=1: w is forced, leakage = |h_self|^2 z
        for z in (0.1, 0.5, 0.9):
            prob = DecoupledProblem(h_self=np.array([10.0]),
                                    h_cross=np.array([1.0]), p=1.0, z=z)
            assert min_leakage(prob) == pytest.approx(100.0 * z, rel=1e-12)

    def test_zero_self_channel_gives_zero_leakage(self):
        prob = DecoupledProblem(h_self=np.zeros(2),
                                h_cross=np.array([1.0, 1.0j]), p=1.0, z=1.5)
        sol = optimal_weights(prob)
        assert sol.leakage == pytest.approx(0.0, abs=1e-15)
        assert sol.epsilon == 0.0

    def test_infeasible_z_raises(self):
        # the package's window and the reference's own copy reject the same
        # z; z_max = 1, so the window is [-1e-12, 1 + 2e-12]
        prob_args = dict(h_self=np.array([1.0, 1.0]),
                         h_cross=np.array([1.0, 0.0]), p=1.0)
        for z in (-0.5, 1.1, -2e-12, 1.0 + 3e-12):
            with pytest.raises(InfeasibleError) as got:
                optimal_weights(DecoupledProblem(z=z, **prob_args))
            with pytest.raises(InfeasibleError) as want:
                optimal_weights_reference(z=z, **prob_args)
            assert str(got.value) == str(want.value)

    def test_endpoint_clamp_tolerance(self):
        prob_args = dict(h_self=np.array([1.0, 2.0]),
                         h_cross=np.array([1.0, 1.0]), p=1.0)
        z_max = 2.0
        sols = []
        for z in (-1e-13, z_max * (1 + 1e-13)):
            sol = optimal_weights(DecoupledProblem(z=z, **prob_args))
            ref = optimal_weights_reference(z=z, **prob_args)
            assert _bits(sol.w) == _bits(ref.w)
            assert (sol.epsilon, sol.leakage, sol.achieved_z, sol.achieved_power) == \
                (ref.epsilon, ref.leakage, ref.achieved_z, ref.achieved_power)
            sols.append(sol)
        assert sols[0].achieved_z == 0.0
        assert sols[1].achieved_z == pytest.approx(z_max, rel=1e-10)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ch=north_star_channels(), node=st.sampled_from((1, 2)),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=12))
def test_array_kernel_matches_scalar_reference(ch, node, fracs):
    # every z of one array gets the loading, leakage and weights of the
    # scalar one-z search, to the last bit; zeroed self gains (singular C,
    # or C = 0) take the regularized eps=0 path
    prob = node_problem(ch, node, 0.0)
    h_self = prob.h_self
    z_max = prob.z_max
    bound = low_z_condition_bound(h_self, prob.h_cross, prob.p)
    edges = [0.0, z_max, np.nextafter(z_max, 0.0), bound,
             np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)]
    zs = np.minimum(np.array(edges + [f * z_max for f in fracs]), z_max)

    refs = [optimal_weights_reference(h_self, prob.h_cross, prob.p, z) for z in zs]
    n = zs.size
    eps, w = beamform._solve(np.tile(np.abs(h_self) ** 2, (n, 1)),
                             np.tile(prob.h_cross, (n, 1)), np.full(n, prob.p),
                             np.full(n, z_max), zs)
    assert _bits(eps) == _bits(np.array([r.epsilon for r in refs]))
    assert _bits(w) == _bits(np.array([r.w for r in refs]))
    g = leakage_curve(h_self, prob.h_cross, prob.p, zs)
    assert _bits(g) == _bits(np.array([r.leakage for r in refs]))
    for z, ref in zip(zs, refs):
        sol = optimal_weights(DecoupledProblem(h_self, prob.h_cross, prob.p, float(z)))
        assert _bits(sol.w) == _bits(ref.w)
        assert (sol.epsilon, sol.leakage, sol.achieved_z, sol.achieved_power) == \
            (ref.epsilon, ref.leakage, ref.achieved_z, ref.achieved_power)


def _node_grids(ch, n, fracs=()):
    """Both nodes' problems, and each node's z grid with its edges and fractions."""
    probs = (node_problem(ch, 1, 0.0), node_problem(ch, 2, 0.0))
    grids = []
    for prob in probs:
        z_max = prob.z_max
        bound = low_z_condition_bound(prob.h_self, prob.h_cross, prob.p)
        edges = [bound, np.nextafter(bound, 0.0), np.nextafter(z_max, 0.0)]
        extra = np.minimum(np.array(edges + [f * z_max for f in fracs]), z_max)
        grids.append(np.concatenate([np.linspace(0.0, z_max, n), extra]))
    return probs, grids


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ch=north_star_channels(), n=st.integers(2, 60),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_stacked_solve_matches_one_node_solves(ch, n, fracs):
    # both nodes in one `_solve` give each node's one-node solve to the last
    # bit, and the leakage of the scalar reference at every z
    probs, grids = _node_grids(ch, n, fracs)
    stacked = beamform._solve_curves(probs, grids)
    for prob, zs, got in zip(probs, grids, stacked):
        want = beamform._solve_curves([prob], [zs])[0]
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
        ref = [min_leakage_reference(prob.h_self, prob.h_cross, prob.p, z) for z in zs]
        assert _bits(got[3]) == _bits(np.array(ref))
    assert [_bits(g) for g in beamform.leakage_curves(probs, grids)] == \
        [_bits(g) for *_, g in stacked]


@pytest.mark.parametrize("gamma_db, beta_db, symmetric, seed", [
    (40.0, -40.0, True, 1), (110.0, -80.0, False, 2), (7.5, -3.0, False, 3),
    (75.0, -55.0, True, 4), (0.0, 0.0, False, 5), (101.0, -20.0, True, 6),
])
def test_stacked_leakage_equals_two_curves_at_m8(gamma_db, beta_db, symmetric, seed):
    # m = 8 is where the row sums' order depends on the memory layout
    ch = generate_scenario(ScenarioSpec(m=8, gamma_db=gamma_db, beta_db=beta_db,
                                        p1=0.7, p2=2.3, symmetric=symmetric, seed=seed))
    probs, grids = _node_grids(ch, 200)
    got = beamform.leakage_curves(probs, grids)
    want = [leakage_curve(prob.h_self, prob.h_cross, prob.p, zs)
            for prob, zs in zip(probs, grids)]
    assert [_bits(g) for g in got] == [_bits(g) for g in want]


def test_kernel_rows_are_c_contiguous(monkeypatch):
    # Fortran-ordered rows sum in another order and move m = 8 loadings
    solve, filter_sums = beamform._solve, beamform._filter_sums
    layouts = []

    def solve_spy(c, h, p, z_max, zs):
        layouts.append(("_solve", c.flags.c_contiguous, h.flags.c_contiguous))
        return solve(c, h, p, z_max, zs)

    def filter_sums_spy(c, habs2, load):
        layouts.append(("_filter_sums", c.flags.c_contiguous, habs2.flags.c_contiguous))
        return filter_sums(c, habs2, load)

    monkeypatch.setattr(beamform, "_solve", solve_spy)
    monkeypatch.setattr(beamform, "_filter_sums", filter_sums_spy)
    ch = generate_scenario(ScenarioSpec(m=8, gamma_db=60.0, beta_db=-40.0, seed=3))
    beamform.leakage_curves(*_node_grids(ch, 200))
    assert {name for name, *_ in layouts} == {"_solve", "_filter_sums"}
    assert all(c_order and h_order for _, c_order, h_order in layouts)


# C = diag(1, 4), h = (1, 1), p = 1: z = 1 is unloaded, z = 1.9 loaded;
# v = (1, -1)/sqrt(2) is orthogonal to h, so adding it keeps |w†h|^2
_SPOILED_WEIGHTS = {
    "delivered-power": (1.0, lambda w, v: 1.1 * w, "delivered-power"),
    "nan-weights": (1.0, lambda w, v: np.full_like(w, np.nan), "delivered-power"),
    "power-budget": (1.0, lambda w, v: w + v, "power constraint"),
    "power-boundary": (1.9, lambda w, v: w - 0.5 * np.vdot(v, w) * v,
                       "off the power boundary"),
}
# Both solves run the one constraint checker of `_solve_curves`.
_CHECKED_SOLVES = {
    "": lambda args, z: leakage_curve(zs=[0.5, z], **args),
    "optimal_weights-": lambda args, z: optimal_weights(DecoupledProblem(z=z, **args)),
}


class TestLeakageCurve:
    args = dict(h_self=np.array([1.0, 2.0]), h_cross=np.array([1.0, 1.0]), p=1.0)

    def test_hand_instance(self):
        # z = 0 (silent), z = 1 (unloaded, leakage 0.8) and z_max = 2 (MRT)
        z_max = DecoupledProblem(z=0.0, **self.args).z_max
        g = leakage_curve(zs=[0.0, 1.0, z_max], **self.args)
        assert g[0] == 0.0
        assert g[1] == pytest.approx(0.8, abs=1e-12)
        assert g[2] == pytest.approx(2.5, rel=1e-12)

    def test_first_infeasible_z_named(self):
        with pytest.raises(InfeasibleError, match=r"z=2\.5 outside"):
            leakage_curve(zs=[1.0, 2.5, -1.0], **self.args)

    @pytest.mark.parametrize("solve_at, z, spoil, message", [
        pytest.param(solve_at, *case, id=prefix + name)
        for prefix, solve_at in _CHECKED_SOLVES.items()
        for name, case in _SPOILED_WEIGHTS.items()])
    def test_constraint_checks(self, monkeypatch, solve_at, z, spoil, message):
        solve = beamform._solve
        v = np.array([1.0, -1.0]) / np.sqrt(2.0)

        def spoiled(*args):
            eps, w = solve(*args)
            return eps, np.array([spoil(row, v) for row in w])

        monkeypatch.setattr(beamform, "_solve", spoiled)
        with pytest.raises(NumericalError, match=message):
            solve_at(self.args, z)

    @pytest.mark.parametrize("solve_at", [
        lambda args, z: optimal_weights(DecoupledProblem(z=z, **args)),
        lambda args, z: leakage_curve(zs=[z], **args),
    ], ids=["optimal_weights", "leakage_curve"])
    def test_power_overshoot_of_1e_7_raises(self, monkeypatch, solve_at):
        # the unloaded z = 1 solution moved along v = (1, -1)/sqrt(2), which is
        # orthogonal to h, until ||w||^2 = p (1 + 1e-7): |w†h|^2 stays z, and
        # only the budget check, at 1e-8 relative, can see the overshoot
        solve = beamform._solve
        v = np.array([1.0, -1.0]) / np.sqrt(2.0)
        target = self.args["p"] * (1.0 + 1e-7)

        def spoiled(*args):
            eps, w = solve(*args)
            b = np.array([np.vdot(v, row).real for row in w])
            t = -b + np.sqrt(b * b + target - np.linalg.norm(w, axis=1) ** 2)
            return eps, w + t[:, None] * v

        monkeypatch.setattr(beamform, "_solve", spoiled)
        with pytest.raises(NumericalError, match=r"power constraint violated: "
                                                 r"\|\|w\|\|\^2=1\.0000001,"):
            solve_at(self.args, 1.0)

    def test_zero_self_channel(self):
        # C = 0: every z below z_max is unloaded and z_max is the MRT beam
        h_self, h_cross = np.zeros(2), np.array([1.0, 1.0j])
        z_max = DecoupledProblem(h_self, h_cross, 1.0, 0.0).z_max
        zs = np.linspace(0.0, z_max, 9)
        assert _bits(leakage_curve(h_self, h_cross, 1.0, zs)) == _bits(np.array([
            min_leakage_reference(h_self, h_cross, 1.0, z)
            for z in zs]))
        # the power z/||h||^2 does not depend on the loading, so one ulp below
        # z_max is unloaded too, even where that power rounds above p
        assert leakage_curve(h_self, h_cross, 1.0, [np.nextafter(z_max, 0.0)]).tolist() == [0.0]

    def test_zero_self_channel_one_ulp_below_z_max(self):
        # node 1 of m = 2, gamma 0 dB, seed 1: there too the unloaded power
        # rounds one ulp above p, where no loading can lower it
        h_cross = node_problem(generate_scenario(
            ScenarioSpec(m=2, gamma_db=0.0, beta_db=-40.0, seed=1)), 1, 0.0).h_cross
        z_max = DecoupledProblem(np.zeros(2), h_cross, 1.0, 0.0).z_max
        assert leakage_curve(np.zeros(2), h_cross, 1.0,
                             [np.nextafter(z_max, 0.0)]).tolist() == [0.0]

    def test_zero_self_node_stacked_with_a_loaded_node(self):
        # C = 0 is decided per row: one ulp below z_max, the zero self channel
        # stays unloaded beside a node whose z = 1.9 is loaded
        h_cross = node_problem(generate_scenario(
            ScenarioSpec(m=2, gamma_db=0.0, beta_db=-40.0, seed=1)), 1, 0.0).h_cross
        probs = (DecoupledProblem(np.zeros(2), h_cross, 1.0, 0.0),
                 DecoupledProblem(z=0.0, **self.args))
        grids = ([np.nextafter(probs[0].z_max, 0.0)], [1.0, 1.9])
        stacked = beamform._solve_curves(probs, grids)
        assert stacked[0][1].tolist() == [0.0] and stacked[1][1][1] > 0.0
        for prob, zs, got in zip(probs, grids, stacked):
            want = beamform._solve_curves([prob], [zs])[0]
            assert [_bits(a) for a in got] == [_bits(a) for a in want]

    def test_non_finite_power_raises_without_warning(self):
        # |h_self|^2 = 1e300: s1^2 underflows to 0 and the power is not finite
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="not finite"):
            leakage_curve(np.array([1e150, 1e150]), np.array([1.0, 0.5]), 1.0,
                          [0.0, 0.5, 1.25])


class TestZfWeights:
    def test_hand_projection(self):
        w = zf_weights(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        assert np.allclose(w, [0.0, 1.0], atol=1e-12)

    def test_orthogonal_case_equals_mrt(self):
        h_self = np.array([1.0, 0.0])
        h_cross = np.array([0.0, 2.0])
        assert np.allclose(zf_weights(h_self, h_cross, 4.0),
                           mrt_weights(h_cross, 4.0), atol=1e-12)

    def test_parallel_raises(self):
        h = np.array([1.0, 1.0j])
        with pytest.raises(DegenerateGeometryError):
            zf_weights(h, 2.0 * h, 1.0)

    def test_single_antenna_raises(self):
        with pytest.raises(DegenerateGeometryError):
            zf_weights(np.array([1.0]), np.array([1.0]), 1.0)

    def test_nulls_self_channel_at_full_power(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            h_self = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            h_cross = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = zf_weights(h_self, h_cross, 2.0)
            assert abs(np.vdot(h_self, w)) <= 1e-10
            assert np.linalg.norm(w) ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_invariant_to_self_channel_scaling(self):
        rng = np.random.default_rng(19)
        h_self = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h_cross = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w1 = zf_weights(h_self, h_cross, 1.0)
        w2 = zf_weights(123.4 * h_self, h_cross, 1.0)
        assert abs(np.vdot(w1, h_cross)) == pytest.approx(
            abs(np.vdot(w2, h_cross)), rel=1e-12)


class TestMrtWeights:
    def test_scaling(self):
        assert np.allclose(mrt_weights(np.array([1.0, 0.0]), 4.0), [2.0, 0.0])

    def test_norm(self):
        rng = np.random.default_rng(23)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = mrt_weights(h, 3.0)
        assert np.linalg.norm(w) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_achieves_max_z(self):
        rng = np.random.default_rng(29)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = mrt_weights(h, 2.0)
        assert abs(np.vdot(w, h)) ** 2 == pytest.approx(
            2.0 * np.linalg.norm(h) ** 4 / np.linalg.norm(h) ** 2, rel=1e-12)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            mrt_weights(np.zeros(2), 1.0)


class TestCovarianceOf:
    def test_basis_vector(self):
        assert np.allclose(covariance_of(np.array([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_outer_product(self):
        w = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(covariance_of(w), 0.5 * np.ones((2, 2)))

    def test_zero(self):
        assert np.allclose(covariance_of(np.zeros(3)), np.zeros((3, 3)))

    def test_trace_is_power(self):
        rng = np.random.default_rng(31)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = covariance_of(w)
        assert np.trace(q).real == pytest.approx(np.linalg.norm(w) ** 2, rel=1e-12)
