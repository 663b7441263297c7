import numpy as np
import pytest

from fdpareto import numlin
from fdpareto.channel import (
    ChannelSet,
    FrontEndModel,
    ScenarioSpec,
    generate_scenario,
    ideal_frontend,
)

from oracles import residual_noise_variance


class TestGenerateScenario:
    def test_norm_targets(self):
        spec = ScenarioSpec(m=3, gamma_db=40.0, beta_db=-40.0, symmetric=True, seed=7)
        ch = generate_scenario(spec)
        assert abs(np.linalg.norm(ch.h11) - 100.0) <= 1e-12 * 100.0
        assert abs(np.linalg.norm(ch.h12) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(ch.h21) - 1.0) <= 1e-12
        assert np.array_equal(ch.h12, ch.h21)
        assert np.array_equal(ch.h11, ch.h22)
        assert np.isclose(ch.frontend.beta, 1e-4)

    def test_zero_db_gain_ratio(self):
        ch = generate_scenario(ScenarioSpec(m=2, gamma_db=0.0, beta_db=-40.0, seed=1))
        assert abs(np.linalg.norm(ch.h11) - 1.0) <= 1e-12

    def test_deterministic_per_seed(self):
        spec = ScenarioSpec(m=4, gamma_db=20.0, beta_db=-60.0, symmetric=False, seed=99)
        a = generate_scenario(spec)
        b = generate_scenario(spec)
        for name in ("h11", "h12", "h21", "h22"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_asymmetric_draws_differ(self):
        ch = generate_scenario(ScenarioSpec(m=3, gamma_db=20.0, beta_db=-40.0,
                                            symmetric=False, seed=2))
        assert not np.allclose(ch.h12, ch.h21)
        assert not np.allclose(ch.h11, ch.h22)

    def test_cross_channels_shared_across_gamma_and_beta(self):
        # the gamma/beta knobs must not disturb the cross-channel draw
        base = generate_scenario(ScenarioSpec(m=3, gamma_db=20.0, beta_db=-40.0, seed=5))
        for gamma in (40.0, 60.0):
            for beta in (-60.0, -40.0):
                other = generate_scenario(
                    ScenarioSpec(m=3, gamma_db=gamma, beta_db=beta, seed=5))
                assert np.array_equal(base.h12, other.h12)
                assert np.array_equal(base.h21, other.h21)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(m=0, gamma_db=0.0, beta_db=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(m=2, gamma_db=0.0, beta_db=0.0, sigma2=0.0)

    def test_spec_json_roundtrip(self):
        spec = ScenarioSpec(m=3, gamma_db=40.0, beta_db=-40.0, p1=2.0, p2=0.5,
                            sigma2=1.5, symmetric=False, seed=11)
        d = spec.to_dict()
        assert set(d) == {"m", "gamma_db", "beta_db", "p1", "p2", "sigma2",
                          "symmetric", "seed"}
        assert ScenarioSpec.from_dict(d) == spec

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"m": 2, "gamma_db": 0.0})
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"m": 2, "gamma_db": 0.0, "beta_db": 0.0,
                                    "bogus": 1})


class TestResidualNoiseVariance:
    """The receiver noise power that `rate_pair_reference` rates with."""

    def test_ideal_front_end(self):
        fe = FrontEndModel(beta=0.0, sigma2=2.5)
        q = np.diag([1.0, 2.0])
        assert residual_noise_variance(np.array([3.0, 4.0]), q, fe) == 2.5

    def test_weight_orthogonal_to_self_channel(self):
        fe = FrontEndModel(beta=1e-4, sigma2=1.0)
        h = np.array([100.0, 0.0, 0.0])
        q = np.diag([0.0, 1.0, 0.0])
        assert residual_noise_variance(h, q, fe) == pytest.approx(1.0)

    def test_scalar_substitution(self):
        fe = FrontEndModel(beta=1e-4, sigma2=1.0)
        assert residual_noise_variance(np.array([10.0]), np.array([[1.0]]), fe) \
            == pytest.approx(1.01)

    def test_invariant_to_offdiagonals(self):
        rng = np.random.default_rng(17)
        fe = FrontEndModel(beta=0.3, sigma2=1.0)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        diag = np.abs(rng.standard_normal(4))
        base = residual_noise_variance(h, np.diag(diag), fe)
        for _ in range(10):
            off = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q = numlin.hermitianize(off)
            np.fill_diagonal(q, diag)
            assert residual_noise_variance(h, q, fe) == pytest.approx(base, abs=1e-12)

    def test_linear_in_diagonal(self):
        fe = FrontEndModel(beta=0.7, sigma2=1.0)
        h = np.array([1.0, 2.0])
        qa, qb = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        va = residual_noise_variance(h, qa, fe) - fe.sigma2
        vb = residual_noise_variance(h, qb, fe) - fe.sigma2
        vab = residual_noise_variance(h, 2.0 * qa + 3.0 * qb, fe) - fe.sigma2
        assert vab == pytest.approx(2.0 * va + 3.0 * vb)

    def test_at_least_noise_floor(self):
        rng = np.random.default_rng(23)
        fe = FrontEndModel(beta=1e-2, sigma2=0.5)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for _ in range(20):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q = g @ g.conj().T
            assert residual_noise_variance(h, q, fe) >= fe.sigma2

    def test_dimension_mismatch(self):
        fe = FrontEndModel(beta=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            residual_noise_variance(np.ones(3), np.eye(2), fe)


def test_channelset_validation():
    fe = FrontEndModel(beta=0.0, sigma2=1.0)
    with pytest.raises(ValueError):
        ChannelSet(h11=np.ones(2), h12=np.ones(3), h21=np.ones(2),
                   h22=np.ones(2), p1=1.0, p2=1.0, frontend=fe)
    with pytest.raises(ValueError):
        ChannelSet(h11=np.ones(2), h12=np.ones(2), h21=np.ones(2),
                   h22=np.ones(2), p1=0.0, p2=1.0, frontend=fe)


def test_ideal_frontend_strips_beta():
    ch = generate_scenario(ScenarioSpec(m=2, gamma_db=20.0, beta_db=-40.0, seed=3))
    ideal = ideal_frontend(ch)
    assert ideal.frontend.beta == 0.0
    assert np.array_equal(ideal.h11, ch.h11)
