import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpareto import numlin, pareto, rates
from fdpareto.channel import ChannelSet, FrontEndModel, ScenarioSpec, generate_scenario
from fdpareto.pareto import SweepGrid, boundary, domination_oracle
from fdpareto.rates import RatePoint, rate_pair, rate_pairs, single_link_max

from oracles import covariance_faults_reference, jacobi_is_psd, psd_edge, rate_pair_reference

# Finite entries, but ||Q||_F overflows; eigenvalues +-1.5e308, trace 2.
OVERFLOWING_NORM = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])


def make_channel(m=2, beta=1e-4, sigma2=1.0, p1=1.0, p2=1.0,
                 self_scale=10.0, seed=0):
    rng = np.random.default_rng(seed)
    h12 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h12 /= np.linalg.norm(h12)
    h11 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h11 *= self_scale / np.linalg.norm(h11)
    return ChannelSet(h11=h11, h12=h12, h21=h12.copy(), h22=h11.copy(),
                      p1=p1, p2=p2, frontend=FrontEndModel(beta=beta, sigma2=sigma2))


def mrt_cov(h, p):
    w = np.sqrt(p) * h / np.linalg.norm(h)
    return np.outer(w, w.conj())


class TestRatePair:
    def test_silence(self):
        ch = make_channel()
        pt = rate_pair(ch, np.zeros((2, 2)), np.zeros((2, 2)))
        assert pt.r1 == 0.0 and pt.r2 == 0.0

    def test_ideal_mrt_corner(self):
        # beta=0, P=1, unit cross channels: each link hits log2(1+1/1) = 1
        ch = make_channel(beta=0.0)
        q1 = mrt_cov(ch.h12, ch.p1)
        q2 = mrt_cov(ch.h21, ch.p2)
        pt = rate_pair(ch, q1, q2)
        assert pt.r1 == pytest.approx(1.0, abs=1e-12)
        assert pt.r2 == pytest.approx(1.0, abs=1e-12)

    def test_scalar_substitution(self):
        ch = ChannelSet(h11=np.array([10.0]), h12=np.array([1.0]),
                        h21=np.array([1.0]), h22=np.array([10.0]),
                        p1=1.0, p2=1.0,
                        frontend=FrontEndModel(beta=1e-4, sigma2=1.0))
        pt = rate_pair(ch, np.array([[1.0]]), np.array([[1.0]]))
        expect = np.log2(1.0 + 1.0 / 1.01)
        assert pt.r1 == pytest.approx(expect, abs=1e-12)
        assert pt.r2 == pytest.approx(expect, abs=1e-12)

    def test_rejects_overpowered_covariance(self):
        ch = make_channel()
        with pytest.raises(ValueError):
            rate_pair(ch, 1.1 * np.eye(2), np.zeros((2, 2)))

    def test_rejects_indefinite_covariance(self):
        ch = make_channel()
        with pytest.raises(ValueError):
            rate_pair(ch, np.diag([0.5, -0.2]), np.zeros((2, 2)))

    def test_rejects_dimension_mismatch(self):
        ch = make_channel(m=3)
        with pytest.raises(ValueError, match=r"Q1 has shape \(2, 2\), expected \(3, 3\)"):
            rate_pair(ch, np.zeros((2, 2)), np.zeros((3, 3)))

    def test_rejects_matrix_whose_norm_overflows_without_warnings(self):
        ch = make_channel(p1=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                rate_pair(ch, OVERFLOWING_NORM, np.zeros((2, 2)))
        assert type(err.value) is ValueError
        assert str(err.value) == "Q1 is not positive semidefinite"

    def test_more_own_leakage_cannot_help(self):
        # r1 nonincreasing in each diagonal entry of Q1 at fixed Q2
        ch = make_channel(beta=1e-2)
        rng = np.random.default_rng(4)
        q2 = mrt_cov(ch.h21, ch.p2)
        base = np.diag([0.2, 0.3])
        r_base = rate_pair(ch, base, q2).r1
        for k in range(2):
            bump = base.copy()
            bump[k, k] += 0.3
            r_bump = rate_pair(ch, bump, q2).r1
            assert r_bump <= r_base + 1e-15
            if abs(ch.h11[k]) > 0:
                assert r_bump < r_base

    def test_r1_nondecreasing_in_delivered_power(self):
        ch = make_channel(beta=1e-3)
        q1 = np.diag([0.4, 0.1])
        r_prev = -1.0
        for scale in (0.0, 0.25, 0.5, 1.0):
            q2 = mrt_cov(ch.h21, scale * ch.p2) if scale else np.zeros((2, 2))
            r = rate_pair(ch, q1, q2).r1
            assert r >= r_prev
            r_prev = r

    def test_beta_zero_decouples_links(self):
        ch = make_channel(beta=0.0)
        rng = np.random.default_rng(9)
        q2 = mrt_cov(ch.h21, ch.p2)
        r1_ref = rate_pair(ch, np.zeros((2, 2)), q2).r1
        for _ in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q1 = g @ g.conj().T
            q1 *= 0.9 * ch.p1 / np.trace(q1).real
            assert rate_pair(ch, q1, q2).r1 == pytest.approx(r1_ref, abs=1e-12)


    @pytest.mark.parametrize("p", [1e-3, 0.5, 1.0])
    def test_power_slack_is_absolute_at_small_budgets(self, p):
        ch = make_channel(p1=p)
        rate_pair(ch, np.diag([p + 0.5e-9, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="exceeds the power budget"):
            rate_pair(ch, np.diag([p + 2e-9, 0.0]), np.zeros((2, 2)))

    @pytest.mark.parametrize("p", [1e7, 1e20, 1e300])
    def test_power_slack_is_relative_at_large_budgets(self, p):
        # an absolute 1e-9 lies below one ulp of p here
        ch = make_channel(p1=p)
        q1 = mrt_cov(ch.h12, p) * (1.0 + 1e-12)
        rate_pair(ch, q1, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="exceeds the power budget"):
            rate_pair(ch, q1 * (1.0 + 1e-6), np.zeros((2, 2)))


def gram_stack(rng, n, m, rank=None, trace=None):
    """n random Gram matrices g g† of the given rank (m when None) and trace."""
    r = m if rank is None else rank
    g = rng.standard_normal((n, m, r)) + 1j * rng.standard_normal((n, m, r))
    q = g @ np.conj(np.swapaxes(g, 1, 2))
    if trace is not None:
        q *= (trace / np.trace(q, axis1=1, axis2=2).real)[:, None, None]
    return q


class TestRatePairs:
    def test_equals_rate_pair_per_pair(self):
        ch = make_channel(m=3, beta=1e-2)
        rng = np.random.default_rng(5)
        q1s = gram_stack(rng, 20, 3, trace=rng.uniform(0.0, 1.0, 20))
        q2s = gram_stack(rng, 20, 3, rank=1, trace=rng.uniform(0.0, 1.0, 20))
        r1, r2 = rate_pairs(ch, q1s, q2s)
        for pt in ([rate_pair_reference(ch, a, b) for a, b in zip(q1s, q2s)],
                   [rate_pair(ch, a, b) for a, b in zip(q1s, q2s)]):
            assert r1.tolist() == [p.r1 for p in pt]
            assert r2.tolist() == [p.r2 for p in pt]

    @pytest.mark.parametrize("spoil", [
        lambda q1, q2: (np.diag([0.5, -0.2]), q2),
        lambda q1, q2: (q1, np.diag([0.5, -0.2])),
        lambda q1, q2: (1.1 * np.eye(2), q2),
        lambda q1, q2: (q1, 1.1 * np.eye(2)),
        lambda q1, q2: (q1, np.diag([np.nan, 0.1])),
        lambda q1, q2: (np.diag([np.inf, 0.1]), q2),
        # a PSD and a non-PSD fault in one pair: Q1's trace is checked first
        lambda q1, q2: (np.diag([1.5, -0.2]), np.diag([0.5, -0.2])),
    ], ids=["q1-not-psd", "q2-not-psd", "q1-over-budget", "q2-over-budget",
            "q2-nan", "q1-inf", "first-check-wins"])
    def test_spoiled_pair_raises_rate_pairs_message(self, spoil):
        ch = make_channel()
        rng = np.random.default_rng(6)
        q1s = gram_stack(rng, 6, 2, trace=0.5)
        q2s = gram_stack(rng, 6, 2, trace=0.5)
        bad1, bad2 = spoil(q1s[3], q2s[3])
        with pytest.raises(ValueError) as reference:  # Jacobi's PSD verdict
            rate_pair_reference(ch, bad1, bad2)
        with pytest.raises(ValueError) as single:
            rate_pair(ch, bad1, bad2)
        q1s[3], q2s[3] = bad1, bad2
        q1s[5] = np.diag([0.5, -0.2])  # a later fault does not mask it
        with pytest.raises(ValueError) as stacked:
            rate_pairs(ch, q1s, q2s)
        assert str(stacked.value) == str(single.value) == str(reference.value)

    def test_invalid_rates_raise_rate_point_message(self):
        # a valid Q2 whose delivered power h21† Q2 h21 overflows
        ch = ChannelSet(h11=np.array([1.0]), h12=np.array([1.0]), h21=np.array([1e10]),
                        h22=np.array([1.0]), p1=1.0, p2=1e300,
                        frontend=FrontEndModel(beta=1.0, sigma2=1.0))
        q1s, q2s = np.zeros((2, 1, 1)), np.full((2, 1, 1), 1e300)
        with pytest.raises(ValueError, match="rates must be finite"):
            rate_pair(ch, q1s[0], q2s[0])
        with pytest.raises(ValueError, match="rates must be finite"):
            rate_pairs(ch, q1s, q2s)

    def test_shape_checks(self):
        ch = make_channel(m=2)
        with pytest.raises(ValueError, match="Q2 stack has shape"):
            rate_pairs(ch, np.zeros((3, 2, 2)), np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="3 Q1 and 2 Q2"):
            rate_pairs(ch, np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_stack_psd_check_agrees_with_jacobi(self, m):
        # LAPACK on the stack and Jacobi per matrix, with the same tolerance
        rng = np.random.default_rng(m)
        stacks = [gram_stack(rng, 30, m), gram_stack(rng, 30, m, rank=1),
                  1e8 * gram_stack(rng, 30, m, rank=max(1, m - 1))]
        # shift the smallest eigenvalue to half and twice the tolerance below 0
        base = gram_stack(rng, 30, m, rank=m - 1)
        norms = np.linalg.norm(base, axis=(1, 2))
        tol = rates.PSD_TOL * np.maximum(1.0, norms)
        for factor in (0.5, 2.0):
            stacks.append(base - (factor * tol)[:, None, None] * np.eye(m))
        for qs in stacks:
            not_psd = rates._covariance_faults(qs, np.inf)[-1]
            jacobi = [not jacobi_is_psd(q, rates.PSD_TOL * max(1.0, numlin.frobenius_norm(q)))
                      for q in qs]
            assert not_psd.tolist() == jacobi
        assert not np.any(rates._covariance_faults(stacks[-2], np.inf)[-1])
        assert np.all(rates._covariance_faults(stacks[-1], np.inf)[-1])


def checked_faults(qs, p):
    """`_covariance_faults` of a stack; every output must equal the Jacobi
    reference's, the PSD verdict wherever it is decided beyond round-off."""
    got = rates._covariance_faults(qs, p)
    want = covariance_faults_reference(qs, p)
    for have, ref in zip(got[:3], want[:3], strict=True):
        np.testing.assert_array_equal(have, ref)
    decided = ~psd_edge(qs)
    np.testing.assert_array_equal(got[3][decided], want[3][decided])
    return got


def rate_pairs_outcome(ch, q1s, q2s):
    """`rate_pairs`' rates, or the message of the ValueError it raises.

    Must equal the outcome with the reference rule in place of
    `_covariance_faults`.
    """
    def outcome():
        try:
            r1, r2 = rate_pairs(ch, q1s, q2s)
        except ValueError as err:
            return str(err)
        return r1.tolist(), r2.tolist()

    got = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rates, "_covariance_faults", covariance_faults_reference)
        assert outcome() == got
    return got


def shifted_to(q, factor):
    """q - c I with lambda_min moved to -factor * tol of the eigenvalue rule."""
    m = q.shape[0]
    norm = numlin.frobenius_norm(q)
    tol = rates.PSD_TOL * max(1.0, norm) + numlin.ROUNDOFF * norm
    return q - (np.linalg.eigvalsh(q)[0] + factor * tol) * np.eye(m)


# lambda_min at -factor * tol: accepted for factor <= 1 and rejected beyond,
# at points on both sides of the edge and on it; None leaves the Gram matrix
# as drawn
_KINDS = [None, 0.0, 0.49, 0.5, 0.51, 0.99, 1.0, 1.01, 2.0, "nan", "inf"]


@st.composite
def covariance_stacks(draw):
    """An (n, m, m) stack mixing Gram matrices of any rank and scale,
    matrices moved to the edges of the PSD rule, and non-finite ones."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    qs = []
    for _ in range(draw(st.integers(1, 6))):
        q = gram_stack(rng, 1, m, rank=draw(st.integers(1, m)))[0]
        q *= 10.0 ** draw(st.integers(-300, 300)) / np.max(np.abs(q))
        kind = draw(st.sampled_from(_KINDS))
        if kind in ("nan", "inf"):
            q[rng.integers(m), rng.integers(m)] = np.nan if kind == "nan" else -np.inf
        elif kind is not None:
            q = shifted_to(q, kind)
        qs.append(q)
    qs = np.array(qs)
    p = draw(st.sampled_from([np.inf, 0.5, 1.0, 2.0])) * abs(float(np.trace(qs[0]).real))
    return qs, p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(covariance_stacks())
def test_covariance_faults_equal_eigenvalue_rule(case):
    qs, p = case
    checked_faults(qs, p)


class TestCovarianceCertificate:
    """Named edges of the PSD rule, each also through rate_pairs."""

    def test_one_indefinite_matrix_among_gram_matrices(self):
        ch = make_channel(m=3)
        rng = np.random.default_rng(11)
        q1s = gram_stack(rng, 4096, 3, trace=rng.uniform(0.0, 1.0, 4096))
        q2s = gram_stack(rng, 4096, 3, trace=rng.uniform(0.0, 1.0, 4096))
        q1s[1234] = np.diag([0.5, -0.2, 0.1])
        q2s[3000] = 1.1 * np.eye(3)  # a later fault does not mask it
        _, _, _, not_psd = checked_faults(q1s, ch.p1)
        assert np.flatnonzero(not_psd).tolist() == [1234]
        assert rate_pairs_outcome(ch, q1s, q2s) == "Q1 is not positive semidefinite"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_rows(self, bad):
        ch = make_channel(m=3)
        rng = np.random.default_rng(12)
        q1s = gram_stack(rng, 8, 3, trace=0.5)
        q2s = gram_stack(rng, 8, 3, trace=0.5)
        q2s[2, 0, 1] = bad  # an upper entry
        q2s[5, 2, 2] = bad
        _, _, non_finite, not_psd = checked_faults(q2s, ch.p2)
        assert np.flatnonzero(non_finite).tolist() == [2, 5]
        assert not not_psd.any()
        assert rate_pairs_outcome(ch, q1s, q2s) == "matrix contains non-finite entries"

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_all_zero_matrices_of_a_silent_node(self, m):
        ch = make_channel(m=m)
        zeros = np.zeros((5, m, m))
        _, _, _, not_psd = checked_faults(zeros, ch.p1)
        assert not not_psd.any()
        rng = np.random.default_rng(m)
        q2s = gram_stack(rng, 5, m, trace=0.5)
        r1, r2 = rate_pairs_outcome(ch, zeros, q2s)
        assert r2 == [0.0] * 5
        assert r1 == [rate_pair(ch, zeros[0], q).r1 for q in q2s]

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("p", [1e-12, 1.0, 1e12])
    def test_rank_one_beamformer_covariances(self, m, p):
        ch = make_channel(m=m, p1=p, p2=p)
        rng = np.random.default_rng(m)
        w = rng.standard_normal((64, m)) + 1j * rng.standard_normal((64, m))
        w *= np.sqrt(p * rng.uniform(0.0, 1.0, 64) / np.sum(np.abs(w) ** 2, axis=1))[:, None]
        qs = w[:, :, None] * w[:, None, :].conj()
        _, over, _, not_psd = checked_faults(qs, p)
        assert not over.any() and not not_psd.any()
        r1, r2 = rate_pairs_outcome(ch, qs, qs[::-1])
        pts = [rate_pair(ch, a, b) for a, b in zip(qs, qs[::-1])]
        assert (r1, r2) == ([pt.r1 for pt in pts], [pt.r2 for pt in pts])

    def test_budget_of_1e308_raises_no_warning(self):
        ch = make_channel(m=3, p1=1e308)
        rng = np.random.default_rng(13)
        q1s = gram_stack(rng, 64, 3, trace=1e308 * rng.uniform(0.0, 1.0, 64))
        q2s = gram_stack(rng, 64, 3, trace=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, over, _, not_psd = checked_faults(q1s, ch.p1)
            assert not over.any() and not not_psd.any()
            rate_pairs_outcome(ch, q1s, q2s)

    def test_norm_beyond_float_range_falls_back_to_the_rule(self):
        # ||Q||_F overflows, but tol, in units of the largest modulus, does not
        qs = np.array([OVERFLOWING_NORM, np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checked_faults(qs, 1.0)

    def test_matrix_whose_norm_overflows_is_not_psd(self):
        qs = np.array([OVERFLOWING_NORM, np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr, over, non_finite, not_psd = checked_faults(qs, 2.0)
        assert tr.tolist() == [2.0, 2.0] and not over.any() and not non_finite.any()
        assert not_psd.tolist() == [True, False]

    def test_non_hermitian_input_is_judged_by_its_hermitian_part(self):
        ch = make_channel(m=3)
        rng = np.random.default_rng(14)
        psd = gram_stack(rng, 4, 3, trace=0.5)
        skew = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        skew = 5.0 * (skew - np.conj(np.swapaxes(skew, 1, 2)))
        # a skew-Hermitian part and an imaginary diagonal are not rated
        shifted = psd + skew + 0.3j * np.eye(3)
        _, _, _, not_psd = checked_faults(shifted, np.inf)
        assert not not_psd.any()
        # a PSD lower triangle under an upper triangle that makes the
        # Hermitian part indefinite
        junk = 5.0 * (rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))
        lower = psd + np.triu(junk, 1)
        _, _, _, not_psd = checked_faults(lower, np.inf)
        assert not_psd.all()
        q2s = gram_stack(rng, 4, 3, trace=0.5)
        r1, _ = rate_pairs_outcome(ch, shifted, q2s)
        assert r1 == rate_pairs(ch, psd, q2s)[0].tolist()
        assert rate_pairs_outcome(ch, lower, q2s) == "Q1 is not positive semidefinite"

    def test_indefinite_hermitian_part_of_a_psd_lower_triangle_is_rejected(self):
        # Q = [[1, 5], [0, 1]] has a PSD lower triangle, but (Q + Q†) / 2 has
        # the eigenvalue -1.5
        ch = make_channel(m=2, p1=2.0)
        with pytest.raises(ValueError) as err:
            rate_pair(ch, [[1, 5], [0, 1]], np.zeros((2, 2)))
        assert str(err.value) == "Q1 is not positive semidefinite"


@pytest.mark.parametrize("m", [1, 3, 8])
def test_oracle_rates_its_samples_from_factors_within_budget(m):
    # the oracle forms no covariance matrix: it reaches neither rate_pairs nor
    # a Cholesky, and every trace it computes from the factors is in budget
    ch = generate_scenario(ScenarioSpec(m=m, gamma_db=40.0, beta_db=-40.0, seed=m))
    curve = boundary(ch, SweepGrid.for_channel(ch, 100))
    traces = []
    check_traces = pareto._check_traces

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not form covariance matrices")

    def recorded(tr, channel):
        traces.append(tr.copy())
        check_traces(tr, channel)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rates, "rate_pairs", forbidden)
        mp.setattr(pareto, "rate_pairs", forbidden, raising=False)
        mp.setattr(np.linalg, "cholesky", forbidden)
        mp.setattr(pareto, "_check_traces", recorded)
        report = domination_oracle(ch, curve, samples=5000, seed=m)
    assert report.passed
    tr = np.concatenate(traces)
    assert tr.shape == (5000, 2)
    assert np.all(tr <= [rates._power_limit(ch.p1), rates._power_limit(ch.p2)])


def test_sampled_traces_over_budget_raise_rate_pair_message():
    ch = make_channel(p1=1.0, p2=0.5)
    pareto._check_traces(np.array([[1.0, 0.5], [0.0, 0.0]]), ch)
    with pytest.raises(ValueError, match=r"^trace\(Q2\) = 0.6 exceeds the power budget 0.5$"):
        pareto._check_traces(np.array([[1.0, 0.5], [0.2, 0.6], [2.0, 0.0]]), ch)
    with pytest.raises(ValueError, match=r"^trace\(Q1\) = 2 exceeds the power budget 1$"):
        pareto._check_traces(np.array([[1.0, 0.5], [2.0, 0.6]]), ch)


class TestSingleLinkMax:
    def test_unit_parameters(self):
        ch = make_channel(beta=0.0)
        assert single_link_max(ch, 1) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_with_noise(self):
        ch = make_channel(sigma2=1e6)
        # log2(1+x) ~ x/ln 2 for small x
        assert single_link_max(ch, 1) == pytest.approx(1e-6 / np.log(2), rel=1e-5)

    def test_independent_of_beta_and_gamma(self):
        vals = set()
        for beta in (0.0, 1e-6, 1e-4):
            for self_scale in (1.0, 10.0, 1000.0):
                ch = make_channel(beta=beta, self_scale=self_scale)
                vals.add(round(single_link_max(ch, 1), 15))
        assert len(vals) == 1

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            single_link_max(make_channel(), 3)


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint(r1=-0.1, r2=0.0)
    with pytest.raises(ValueError):
        RatePoint(r1=float("nan"), r2=0.0)
