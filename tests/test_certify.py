from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpareto import beamform, numlin
from fdpareto import certify as certify_mod
from fdpareto.beamform import (
    DecoupledProblem,
    covariance_of,
    leakage_matrix,
    mrt_weights,
    optimal_weights,
)
from fdpareto.certify import (
    GAP_TOL_ENDPOINT,
    GAP_TOL_INTERIOR,
    CertificateCurve,
    certify_curve,
    certify_curves,
    certify_instance,
    dual_certificate,
    gap_tolerance,
    kkt_check,
    rank_reduce,
)
from fdpareto.channel import ScenarioSpec, generate_scenario
from fdpareto.pareto import SweepGrid, node_problem
from oracles import (
    dual_certificate_reference,
    dual_value_on_grid,
    exact_dual_objective,
    exact_slack_margin,
    sample_feasible_weights,
)
from strategies import north_star_channels

HAND = dict(h_self=np.array([1.0, 2.0]), h_cross=np.array([1.0, 1.0]))


def hand_instance(z=1.0, p=1.0):
    return DecoupledProblem(p=p, z=z, **HAND)


def dense(inst):
    """The SDP's (C, A) of an instance."""
    return leakage_matrix(inst.h_self), covariance_of(inst.h_cross)


def random_instance(rng, m, z_frac=None):
    h_self = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h_cross = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    p = float(rng.uniform(0.5, 2.0))
    z_max = p * float(np.linalg.norm(h_cross)) ** 2
    frac = float(rng.uniform(0.05, 0.95)) if z_frac is None else z_frac
    return DecoupledProblem(h_self=h_self, h_cross=h_cross, p=p, z=frac * z_max)


def feasible_covariance(rng, inst, rank):
    """Random PSD q with tr(q) <= p; the instance target is set to tr(A q)."""
    m = inst.h_cross.size
    _, a = dense(inst)
    while True:
        g = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        q = numlin.hermitianize(g @ g.conj().T)
        q *= float(rng.uniform(0.3, 1.0)) * inst.p / float(np.trace(q).real)
        z = float(np.trace(a @ q).real)
        if z > 1e-9:
            return q, DecoupledProblem(inst.h_self, inst.h_cross, inst.p, z)


class TestDualCertificate:
    def test_zero_target(self):
        cert = dual_certificate(hand_instance(z=0.0), primal_value=0.0)
        assert cert.dual_value == 0.0
        assert cert.gap == 0.0
        assert cert.lambda1 == 0.0 and cert.lambda2 == 0.0

    def test_hand_instance_strong_duality(self):
        # lambda1*z + p*min(0, lambda_min) peaks at lambda1 = 0.8 with value
        # 0.8 (det(C - 0.8 A) = 0), matching the hand-computed leakage.
        cert = dual_certificate(hand_instance(), primal_value=0.8)
        assert cert.dual_value == pytest.approx(0.8, abs=1e-6)
        assert abs(cert.gap) <= 1e-6
        grid = dual_value_on_grid(np.diag([1.0, 4.0]),
                                  np.ones((2, 2), dtype=complex), 1.0, 1.0,
                                  np.linspace(0.0, 2.0, 4001))
        assert cert.dual_value >= grid - 1e-6

    def test_scalar_c_at_max_z(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = 1.5
        inst = DecoupledProblem(h_self=np.ones(3), h_cross=h, p=p,
                                z=p * np.linalg.norm(h) ** 2)
        cert = dual_certificate(inst, primal_value=p)
        assert cert.dual_value == pytest.approx(p, rel=1e-6)
        assert abs(cert.gap) <= 1e-6 * p

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            inst = random_instance(rng, int(rng.integers(2, 5)))
            _, sol, cert, _ = certify_instance(inst)
            grid = dual_value_on_grid(*dense(inst), inst.z, inst.p,
                                      np.linspace(0.0, 50.0, 2000))
            assert cert.dual_value >= grid - 1e-7
            assert cert.gap >= -1e-8 * max(1.0, sol.leakage)

    def test_lambda2_nonpositive_and_slack_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_instance(rng, 3)
            cert = dual_certificate(inst, primal_value=1.0)
            assert cert.lambda2 <= 0.0
            c, a = dense(inst)
            slack = c - cert.lambda1 * a - cert.lambda2 * np.eye(3)
            assert numlin.min_eigenvalue(slack) >= -1e-9

    def test_weak_duality_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            inst = random_instance(rng, 3)
            c, a = dense(inst)
            w = sample_feasible_weights(rng, inst.h_cross, inst.p, inst.z, 40)
            if w.shape[0] == 0:
                continue
            # convex mixtures are feasible and can have rank > 1
            t = rng.dirichlet(np.ones(min(3, w.shape[0])))
            q = sum(ti * np.outer(wi, wi.conj()) for ti, wi in zip(t, w))
            primal = float(np.trace(c @ q).real)
            for _ in range(5):
                lam1 = float(rng.uniform(0.0, 20.0))
                lam_min = numlin.min_eigenvalue(c - lam1 * a)
                lam2 = min(0.0, lam_min) - float(rng.uniform(0.0, 2.0))
                assert primal >= lam1 * inst.z + lam2 * inst.p - 1e-9 * max(1.0, primal)

    def test_strong_duality_random_interior(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(2, 5)))
            _, sol, cert, _ = certify_instance(inst)
            assert abs(cert.gap) <= 1e-6 * max(1.0, sol.leakage)

    def test_rejects_negative_primal(self):
        with pytest.raises(ValueError):
            dual_certificate(hand_instance(), primal_value=-1.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ch=north_star_channels(), node=st.sampled_from((1, 2)),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=3))
def test_closed_form_matches_golden_section(ch, node, fracs):
    # zeroed self gains (singular C, or C = 0) take the eps -> 0 limit of s1
    prob = node_problem(ch, node, 0.0)
    h_self = prob.h_self
    m = h_self.size
    z_max = prob.z_max
    edges = [0.0, 1e-300, 1e-9 * z_max, z_max * (1.0 - 1e-9), np.nextafter(z_max, 0.0), z_max]
    zs = np.array(edges + [f * z_max for f in fracs])
    curve = certify_curve(h_self, prob.h_cross, prob.p, zs)
    assert (curve.lambda2 <= 0.0).all()
    for z, primal, gap, lam1, lam2 in zip(zs, curve.primal, curve.gap,
                                          curve.lambda1, curve.lambda2):
        inst = DecoupledProblem(h_self, prob.h_cross, prob.p, float(z))
        ref = dual_certificate_reference(inst, float(primal))
        scale = max(1.0, primal)
        if z < z_max:
            # Beside 1e-13 of the primal, allow the rounding of lam1*z + lam2*p:
            # just below z_max both terms dwarf the primal, and the reference
            # carries the same rounding in its own dual value.
            rounding = (m + 4) * np.finfo(np.float64).eps * (lam1 * z - lam2 * prob.p)
            assert abs(gap) <= abs(ref.gap) + 1e-13 * scale + rounding
        else:
            assert abs(gap) <= GAP_TOL_ENDPOINT * scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ch=north_star_channels(), node=st.sampled_from((1, 2)),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=3))
def test_certify_instance_is_certify_curve_at_one_z(ch, node, fracs):
    # every certificate and KKT field, to the last bit
    prob = node_problem(ch, node, 0.0)
    h_self = prob.h_self
    z_max = prob.z_max
    zs = [0.0, 1e-300, np.nextafter(z_max, 0.0), z_max] + [f * z_max for f in fracs]
    curve = certify_curve(h_self, prob.h_cross, prob.p, zs)
    for k, z in enumerate(zs):
        _, sol, cert, report = certify_instance(
            DecoupledProblem(h_self, prob.h_cross, prob.p, z))
        assert (sol.epsilon, sol.leakage) == (curve.epsilon[k], curve.primal[k])
        assert repr(cert) == repr(curve.certificates()[k])
        assert repr(report) == repr(curve.kkt_reports()[k])



def _bits(a):
    return np.ascontiguousarray(a).tobytes()


_north_star = dict(
    m=st.integers(1, 8), gamma_db=st.floats(-60.0, 120.0), beta_db=st.floats(-80.0, 0.0),
    p1=st.floats(0.01, 1e4), p2=st.floats(0.01, 1e4), symmetric=st.booleans(),
    seed=st.integers(0, 2**16))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_north_star, zero_self=st.integers(0, 8), n1=st.integers(2, 40),
       n2=st.integers(2, 40), fracs=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_certify_curves_equal_one_node_curves(m, gamma_db, beta_db, p1, p2, symmetric,
                                              seed, zero_self, n1, n2, fracs):
    # both nodes in one solve: every field of each node's curve, w included,
    # to the last bit of its own `certify_curve`
    ch = generate_scenario(ScenarioSpec(m=m, gamma_db=gamma_db, beta_db=beta_db,
                                        p1=p1, p2=p2, symmetric=symmetric, seed=seed))
    probs, z_arrays = [], []
    for node, n in ((1, n1), (2, n2)):
        prob = node_problem(ch, node, 0.0)
        h_self = prob.h_self.copy()
        h_self[:zero_self] = 0.0  # singular C, or C = 0
        probs.append(DecoupledProblem(h_self, prob.h_cross, prob.p, 0.0))
        z_max = prob.z_max
        ends = [0.0, 1e-300, 1e-9 * z_max, z_max * (1.0 - 1e-9),
                np.nextafter(z_max, 0.0), z_max]
        z_arrays.append(np.concatenate([np.linspace(0.0, z_max, n), ends,
                                        [f * z_max for f in fracs]]))
    stacked = certify_curves(probs, z_arrays)
    for prob, zs, got in zip(probs, z_arrays, stacked):
        want = certify_curve(prob.h_self, prob.h_cross, prob.p, zs)
        assert got.w.shape == (zs.size, m)
        for f in fields(CertificateCurve):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


def _twin_nodes(prob, grid, change, k, imag, up):
    """Two nodes made from prob, each with its z array: bitwise equal, or apart as `change` names.

    The first node's z array is grid(z_max).  "h_self", "h_cross" and "p"
    move one float by one ulp (entry k of a channel, in its imaginary or
    real part); "z" moves z[k] one ulp inward; "signed_zero" zeroes one
    part of h_self[k] and h_cross[k] and flips the twin's to -0.0; "z_sign"
    makes the twin's z[0] = 0.0 a -0.0, which clamping maps back to 0.0.
    """
    h_self, h_cross, p = prob.h_self.copy(), prob.h_cross.copy(), prob.p
    toward = np.inf if up else -np.inf

    def nudged(v, sign=None):
        parts = [v.real, v.imag]
        parts[imag] = np.nextafter(parts[imag], toward) if sign is None else sign * 0.0
        return complex(*parts)

    if change == "signed_zero":
        h_self[k], h_cross[k] = nudged(h_self[k], 1.0), nudged(h_cross[k], 1.0)
    first = DecoupledProblem(h_self, h_cross, p, 0.0)
    zs = grid(first.z_max)
    twin_self, twin_cross, twin_zs = h_self.copy(), h_cross.copy(), zs.copy()
    if change == "h_self":
        twin_self[k] = nudged(h_self[k])
    elif change == "h_cross":
        twin_cross[k] = nudged(h_cross[k])
    elif change == "signed_zero":
        twin_self[k], twin_cross[k] = nudged(h_self[k], -1.0), nudged(h_cross[k], -1.0)
    elif change == "p":
        p = float(np.nextafter(p, toward))
    elif change == "z":
        j = k % zs.size
        twin_zs[j] = np.nextafter(zs[j], 0.0) if zs[j] > 0.0 else 5e-324
    elif change == "z_sign":
        twin_zs[0] = -0.0
    return (first, DecoupledProblem(twin_self, twin_cross, p, 0.0)), (zs, twin_zs)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(**_north_star, zero_self=st.integers(0, 8), n=st.integers(2, 40),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=4),
       change=st.sampled_from(["none", "z_sign", "h_self", "h_cross", "p", "z",
                               "signed_zero"]),
       k=st.integers(0, 7), imag=st.integers(0, 1), up=st.booleans())
def test_bitwise_equal_nodes_share_one_solve_and_certificate(
        m, gamma_db, beta_db, p1, p2, symmetric, seed, zero_self, n, fracs, change, k, imag,
        up):
    # a node whose h_self, h_cross, p and clamped z have an earlier node's
    # bytes takes that node's objects; a node one ulp or one zero's sign
    # apart is solved and certified on its own; each is its one-node result
    prob = _north_star_problem(m, gamma_db, beta_db, p1, p2, symmetric, seed, 1, zero_self)
    probs, z_arrays = _twin_nodes(
        prob, lambda z_max: np.concatenate([np.linspace(0.0, z_max, n), _edge_zs(z_max, fracs)]),
        change, k % m, imag, up)
    zs = z_arrays[0]
    shared = change in ("none", "z_sign")
    with mock.patch.object(beamform, "_solve", wraps=beamform._solve) as solve:
        solved = beamform._solve_curves(probs, z_arrays)
    with mock.patch.object(certify_mod, "_certify", wraps=certify_mod._certify) as cert:
        curves = certify_curves(probs, z_arrays)
    assert [c.args[-1].size for c in solve.call_args_list] == \
        [zs.size * (1 if shared else 2)]
    assert cert.call_count == (1 if shared else 2)
    assert (solved[1] is solved[0]) == shared and (curves[1] is curves[0]) == shared
    for node, zs_i, got, curve in zip(probs, z_arrays, solved, curves):
        want = beamform._solve_curves([node], [zs_i])[0]
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
        alone = certify_curve(node.h_self, node.h_cross, node.p, zs_i)
        for f in fields(CertificateCurve):
            assert _bits(getattr(curve, f.name)) == _bits(getattr(alone, f.name)), f.name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_north_star, grid_n=st.integers(2, 60))
def test_curve_weights_are_optimal_weights(m, gamma_db, beta_db, p1, p2, symmetric, seed,
                                           grid_n):
    # every row of the curve, the grid ends included, is `optimal_weights`
    ch = generate_scenario(ScenarioSpec(m=m, gamma_db=gamma_db, beta_db=beta_db,
                                        p1=p1, p2=p2, symmetric=symmetric, seed=seed))
    grid = SweepGrid.for_channel(ch, grid_n)
    probs = (node_problem(ch, 1, 0.0), node_problem(ch, 2, 0.0))
    z_arrays = (grid.z1_values(), grid.z2_values())
    for node, zs, curve in zip((1, 2), z_arrays, certify_curves(probs, z_arrays)):
        for z, w in zip(zs.tolist(), curve.w):
            assert _bits(w) == _bits(optimal_weights(node_problem(ch, node, z)).w)


def _edge_zs(z_max, fracs):
    """z at and near both ends of [0, z_max], and at the fractions fracs of z_max."""
    return np.array([0.0, 1e-300, 1e-9 * z_max, z_max * (1.0 - 1e-9),
                     np.nextafter(z_max, 0.0), z_max] + [f * z_max for f in fracs])


def _north_star_problem(m, gamma_db, beta_db, p1, p2, symmetric, seed, node, zero_self):
    """One node's problem of a north-star scenario, its first zero_self self gains zeroed."""
    ch = generate_scenario(ScenarioSpec(m=m, gamma_db=gamma_db, beta_db=beta_db,
                                        p1=p1, p2=p2, symmetric=symmetric, seed=seed))
    prob = node_problem(ch, node, 0.0)
    h_self = prob.h_self.copy()
    h_self[:zero_self] = 0.0  # singular C, or C = 0
    return DecoupledProblem(h_self, prob.h_cross, prob.p, 0.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**_north_star, node=st.sampled_from((1, 2)), zero_self=st.integers(0, 8),
       fracs=st.lists(st.floats(0.0, 1.0), max_size=3))
def test_certificates_are_exactly_feasible(m, gamma_db, beta_db, p1, p2, symmetric, seed,
                                           node, zero_self, fracs):
    # rational arithmetic on the float inputs: Z >= 0 for every reported
    # (lambda1, lambda2), and the dual value is the objective of that pair
    prob = _north_star_problem(m, gamma_db, beta_db, p1, p2, symmetric, seed, node,
                               zero_self)
    zs = _edge_zs(prob.z_max, fracs)
    curve = certify_curve(prob.h_self, prob.h_cross, prob.p, zs)
    for z, lam1, lam2, dual, primal in zip(zs.tolist(), curve.lambda1.tolist(),
                                           curve.lambda2.tolist(), curve.dual_value.tolist(),
                                           curve.primal.tolist()):
        assert exact_slack_margin(prob.h_self, prob.h_cross, lam1, lam2) >= 0, z
        exact = exact_dual_objective(lam1, z, lam2, prob.p)
        assert abs(Fraction(dual) - exact) <= 1e-12 * max(1.0, primal), z


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(1, 8), gamma_db=st.floats(-60.0, 120.0), beta_db=st.floats(-80.0, 0.0),
       p1=st.floats(0.01, 1e4), p2=st.floats(0.01, 1e4), symmetric=st.booleans(),
       seed=st.integers(0, 2**16), node=st.sampled_from((1, 2)), zero_self=st.integers(0, 8))
def test_mrt_gap_is_within_its_bound(m, gamma_db, beta_db, p1, p2, symmetric, seed, node,
                                     zero_self):
    # at z_max the loading 2^25 * std balances the unattained supremum,
    # p * var / L, against the rounding of lambda1 and z, about u * p * L
    prob = _north_star_problem(m, gamma_db, beta_db, p1, p2, symmetric, seed, node,
                               zero_self)
    curve = certify_curve(prob.h_self, prob.h_cross, prob.p, np.array([prob.z_max]))
    c = np.abs(prob.h_self) ** 2
    t = np.abs(prob.h_cross) ** 2 / np.sum(np.abs(prob.h_cross) ** 2)
    std = np.sqrt(np.sum(t * (c - np.sum(t * c)) ** 2))
    scale = max(1.0, float(curve.primal[0]))
    assert abs(float(curve.gap[0])) / scale <= 2.0**-23 * prob.p * std / scale + 1e-13


def _zmax_corner_gap_rel():
    """gap_rel of each record of a node whose cross channel all but misses a huge self gain."""
    h_self, h_cross = np.array([0.0, 3e3]), np.array([1.0, 1e-4])
    z_max = DecoupledProblem(h_self, h_cross, 1.0, 0.0).z_max
    curve = certify_curve(h_self, h_cross, 1.0, np.linspace(0.0, z_max, 20))
    assert curve.kkt_passed().all()
    return np.abs(curve.gap) / np.maximum(1.0, curve.primal)


def test_zmax_corner_interior_gaps_close():
    assert np.all(_zmax_corner_gap_rel()[1:-1] <= GAP_TOL_INTERIOR)


# The dual supremum is not attained at z_max, so the float lambda1 and
# lambda2 step the dual value by about u * p * L.  Here p * std / max(1,
# primal) is 900, std as in `test_mrt_gap_is_within_its_bound`, and the
# z_max record reads gap_rel 3e-5.  A certificate at z_max that does not
# rest on that supremum would pass this test.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the z_max gap of this node exceeds GAP_TOL_ENDPOINT")
def test_zmax_corner_gap_within_endpoint_gate():
    assert _zmax_corner_gap_rel()[-1] <= GAP_TOL_ENDPOINT


def _certified_records(m, seed):
    """(instance, weights, certificate, report) at every z of one node's edge grid."""
    prob = _north_star_problem(m, 60.0, -40.0, 1.0, 2.0, False, seed, 1, 0)
    zs = _edge_zs(prob.z_max, [0.3, 0.7])
    curve = certify_curve(prob.h_self, prob.h_cross, prob.p, zs)
    return [(replace(prob, z=z), w, cert, report) for z, w, cert, report in zip(
        zs.tolist(), curve.w, curve.certificates(), curve.kkt_reports())]


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_kkt_check_of_the_beam_matches_its_report(m):
    # kkt_check reads diag(q), h†q h and tr q off the dense q = w w† and
    # computes its smallest eigenvalue: the certified report, up to round-off
    for inst, w, cert, want in _certified_records(m, seed=m):
        got = kkt_check(inst, covariance_of(w), cert)
        assert got.passed and want.passed
        power = max(1.0, float(np.linalg.norm(w)) ** 2)
        assert got.slack_margin == want.slack_margin
        assert abs(got.q_min_eigenvalue - want.q_min_eigenvalue) <= 1e-14 * power
        assert abs(got.primal_target_residual - want.primal_target_residual) \
            <= 1e-14 * max(1.0, inst.z)
        assert abs(got.power_excess - want.power_excess) <= 1e-14 * power
        assert abs(got.complementarity_residual - want.complementarity_residual) <= 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_kkt_check_fails_a_raised_lambda1(m):
    # lambda1 one part in 1e12 above the certificate's leaves Z indefinite
    for inst, w, cert, _ in _certified_records(m, seed=m):
        if cert.lambda1 == 0.0:
            continue
        report = kkt_check(inst, covariance_of(w),
                           replace(cert, lambda1=cert.lambda1 * (1.0 + 1e-12)))
        assert report.slack_margin < 0.0 and not report.passed


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_kkt_check_fails_a_beam_that_misses_its_z(m):
    for inst, w, cert, _ in _certified_records(m, seed=m):
        if inst.z == 0.0:
            continue
        miss = 1e-6 * max(1.0, inst.z)
        report = kkt_check(inst, covariance_of(w * np.sqrt(1.0 + miss / inst.z)), cert)
        assert report.primal_target_residual > report.tol and not report.passed


def test_certify_curves_run_no_eigen_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("certify_curves must not call an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for m in range(1, 9):
        ch = generate_scenario(ScenarioSpec(m=m, gamma_db=50.0, beta_db=-40.0, seed=m))
        grid = SweepGrid.for_channel(ch, 30)
        probs = (node_problem(ch, 1, 0.0), node_problem(ch, 2, 0.0))
        for curve in certify_curves(probs, (grid.z1_values(), grid.z2_values())):
            assert curve.kkt_passed().all()


class TestKktCheck:
    def test_hand_instance_all_pass(self):
        inst = hand_instance()
        q, sol, cert, report = certify_instance(inst)
        assert report.passed, report.to_dict()
        assert report.complementarity_residual <= 1e-7

    def test_suboptimal_point_fails_complementarity(self):
        inst = hand_instance()
        _, _, cert, _ = certify_instance(inst)
        # feasible but ignores C: w along h_cross scaled to deliver z=1
        h = HAND["h_cross"].astype(complex)
        w = (np.sqrt(inst.z) / np.linalg.norm(h)) * (h / np.linalg.norm(h))
        q = np.outer(w, w.conj())
        report = kkt_check(inst, q, cert)
        assert report.primal_target_residual <= 1e-9
        assert report.complementarity_residual > 1e-3

    def test_zero_solution(self):
        inst = hand_instance(z=0.0)
        cert = dual_certificate(inst, 0.0)
        report = kkt_check(inst, np.zeros((2, 2)), cert)
        assert report.passed


class TestRankReduce:
    def test_hand_instance_single_step(self):
        # A from h=(1,0), q=I: the deflation direction is forced to the pure
        # off-diagonal, so one step lands on [[1,+-1],[+-1,1]].
        inst = DecoupledProblem(h_self=np.array([1.0, 2.0]),
                                h_cross=np.array([1.0, 0.0]), p=2.0, z=1.0)
        trace = rank_reduce(inst, np.eye(2))
        assert len(trace.iterations) == 1
        q = trace.final_q
        assert numlin.numeric_rank(q, 1e-9) == 1
        assert q[0, 0].real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(q).real == pytest.approx(2.0, abs=1e-12)
        assert abs(q[0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_input_untouched(self):
        inst = hand_instance()
        w = np.array([0.8, 0.2])
        q = np.outer(w, w.conj())
        trace = rank_reduce(inst, q)
        assert trace.iterations == []
        assert np.allclose(trace.final_q, q)

    def test_zero_input(self):
        trace = rank_reduce(hand_instance(z=0.0), np.zeros((2, 2)))
        assert trace.iterations == []
        assert np.allclose(trace.final_q, 0.0)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_random_covariances(self, rank):
        rng = np.random.default_rng(40 + rank)
        for _ in range(40):
            base = random_instance(rng, 3)
            q0, inst = feasible_covariance(rng, base, rank)
            c, a = dense(inst)
            z0 = float(np.trace(a @ q0).real)
            t0 = float(np.trace(q0).real)
            c0 = float(np.trace(c @ q0).real)
            trace = rank_reduce(inst, q0)
            q = trace.final_q
            assert len(trace.iterations) <= rank - 1
            assert numlin.numeric_rank(q, 1e-9) <= 1
            scale = max(1.0, abs(z0), abs(t0))
            assert abs(float(np.trace(a @ q).real) - z0) <= 1e-9 * scale
            assert abs(float(np.trace(q).real) - t0) <= 1e-9 * scale
            assert numlin.min_eigenvalue(q) >= -1e-9 * max(1.0, t0)
            objs = [c0] + [obj for _, _, obj in trace.iterations]
            assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
            assert all(s > 0 for _, s, _ in trace.iterations)
            ranks = [r for r, _, _ in trace.iterations]
            assert ranks == sorted(ranks, reverse=True)

    def test_rejects_indefinite_input(self):
        with pytest.raises(ValueError):
            rank_reduce(hand_instance(), np.diag([1.0, -0.5]))


def gated_covariance(inst):
    """`certify_instance`'s rank-one covariance, after its gap passes the gate."""
    q, sol, cert, _ = certify_instance(inst)
    assert abs(cert.gap) <= gap_tolerance(inst) * max(1.0, sol.leakage)
    return q


class TestSolveSdpViaReduction:
    """The SDP's rank-one optimum, solved and certified by `certify_instance`."""

    def test_hand_instance(self):
        q = gated_covariance(hand_instance())
        w = np.array([0.8, 0.2])
        assert np.allclose(q, np.outer(w, w.conj()), atol=1e-10)

    def test_zero_target(self):
        q = gated_covariance(hand_instance(z=0.0))
        assert np.allclose(q, 0.0)

    def test_max_z_is_mrt(self):
        rng = np.random.default_rng(21)
        h_self = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h_cross = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = 1.2
        inst = DecoupledProblem(h_self=h_self, h_cross=h_cross, p=p,
                                z=p * np.linalg.norm(h_cross) ** 2)
        q = gated_covariance(inst)
        w = mrt_weights(h_cross, p)
        assert np.allclose(q, np.outer(w, w.conj()), atol=1e-6 * p)
