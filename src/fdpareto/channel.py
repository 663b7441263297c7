"""Two-node MISO full-duplex channel model and seeded scenario generation.

A node pair is described entirely by second-order statistics: the four
channel vectors, the transmit power budgets, the receiver thermal noise
variance, and the transmit front-end distortion constant beta.  The front-end
noise of node i has covariance beta * diag(Q_i), so the residual
self-interference power seen by receiver i is

    sigma2 + beta * h_ii† diag(Q_i) h_ii.

No time-domain signals are ever sampled.

Random scenarios are drawn with numpy's PCG64 generator
(np.random.default_rng), so a (seed, spec) pair reproduces bit-identically
across platforms for a given numpy version.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import numlin


def require_int(name: str, value) -> None:
    """Raise ValueError unless value is an int (bool excluded); never coerce."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ValueError unless value is a finite int or float (bool excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class FrontEndModel:
    """Transmit front-end distortion level and receiver noise floor."""

    beta: float
    sigma2: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")


@dataclass(frozen=True)
class ChannelSet:
    """Channel vectors and budgets for one two-way link.

    h11/h22 are the self-interference channels of nodes 1 and 2; h12/h21 the
    cross channels (transmitter index first).  Immutable after construction;
    safe to share across threads.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    p1: float
    p2: float
    frontend: FrontEndModel

    def __post_init__(self):
        for name in ("h11", "h12", "h21", "h22"):
            v = numlin.check_finite(getattr(self, name), name).reshape(-1)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        dims = {v.shape[0] for v in (self.h11, self.h12, self.h21, self.h22)}
        if len(dims) != 1 or min(dims) < 1:
            raise ValueError(f"channel vectors must share one dimension >= 1, got {dims}")
        if self.p1 <= 0 or self.p2 <= 0:
            raise ValueError("power budgets must be positive")

    @property
    def m(self) -> int:
        return self.h11.shape[0]


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of a randomly drawn scenario.

    gamma_db is the self-to-cross channel gain ratio, 20*log10 on vector
    norms; beta_db is the front-end distortion level, 10*log10 on the power
    ratio.  Cross channels are always drawn with unit norm.
    """

    m: int
    gamma_db: float
    beta_db: float
    p1: float = 1.0
    p2: float = 1.0
    sigma2: float = 1.0
    symmetric: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "seed"):
            require_int(name, getattr(self, name))
        for name in ("gamma_db", "beta_db", "p1", "p2", "sigma2"):
            require_real(name, getattr(self, name))
        if not isinstance(self.symmetric, bool):
            raise ValueError(f"symmetric must be true or false, got {self.symmetric!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.p1 <= 0 or self.p2 <= 0 or self.sigma2 <= 0:
            raise ValueError("p1, p2, sigma2 must be positive")
        if self.seed < 0:
            raise ValueError("seed must be an unsigned integer")
        self.linear_gains()  # raises for a dB value whose linear gain overflows

    def linear_gains(self) -> tuple[float, float]:
        """(self-channel norm 10^(gamma_db/20), front-end level 10^(beta_db/10))."""
        try:
            return 10.0 ** (self.gamma_db / 20.0), 10.0 ** (self.beta_db / 10.0)
        except OverflowError:
            raise ValueError("gamma_db or beta_db is too large") from None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        if not isinstance(d, dict):
            raise ValueError("the scenario block must be a JSON object")
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        missing = {"m", "gamma_db", "beta_db"} - known.keys()
        if missing:
            raise ValueError(f"scenario spec missing fields: {sorted(missing)}")
        extra = d.keys() - cls.__dataclass_fields__.keys()
        if extra:
            raise ValueError(f"unknown scenario fields: {sorted(extra)}")
        return cls(**known)


def _draw_with_norm(rng: np.random.Generator, m: int, norm: float) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian entries rescaled to norm."""
    while True:
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        n = np.linalg.norm(v)
        if n > 0:
            return v * (norm / n)


def generate_scenario(spec: ScenarioSpec) -> ChannelSet:
    """Draw the ChannelSet for a ScenarioSpec (deterministic per seed).

    Cross channels land exactly (to the last ulp of the rescale) on norm 1,
    self channels on norm 10**(gamma_db/20).  With symmetric=True, h21 is h12
    and h22 is h11 element-wise.  Draw order is fixed (h12, h21, h11, h22) so
    adding asymmetry does not disturb earlier draws.
    """
    rng = np.random.default_rng(spec.seed)
    self_norm, beta = spec.linear_gains()
    h12 = _draw_with_norm(rng, spec.m, 1.0)
    h21 = h12 if spec.symmetric else _draw_with_norm(rng, spec.m, 1.0)
    h11 = _draw_with_norm(rng, spec.m, self_norm)
    h22 = h11 if spec.symmetric else _draw_with_norm(rng, spec.m, self_norm)
    frontend = FrontEndModel(beta=beta, sigma2=spec.sigma2)
    return ChannelSet(h11=h11, h12=h12, h21=h21, h22=h22,
                      p1=spec.p1, p2=spec.p2, frontend=frontend)


def ideal_frontend(ch: ChannelSet) -> ChannelSet:
    """The same channels with beta forced to zero (no front-end noise)."""
    return replace(ch, frontend=FrontEndModel(beta=0.0, sigma2=ch.frontend.sigma2))


def self_leakage(h_self: np.ndarray, q: np.ndarray) -> float:
    """Front-end leakage h_self† diag(Q) h_self of covariance Q into its own receiver.

    Only the diagonal of Q enters (per-antenna transmit powers); the result
    is >= 0 for any PSD Q.
    """
    h_self = np.asarray(h_self, dtype=np.complex128).reshape(-1)
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != (h_self.shape[0], h_self.shape[0]):
        raise ValueError(
            f"covariance shape {q.shape} does not match channel dim {h_self.shape[0]}"
        )
    return float(np.sum(np.abs(h_self) ** 2 * np.real(np.diag(q))))


def residual_noise_variance(h_self: np.ndarray, q: np.ndarray,
                            frontend: FrontEndModel) -> float:
    """Aggregate noise power at a receiver: sigma2 + beta * h_self† diag(Q) h_self."""
    return frontend.sigma2 + frontend.beta * self_leakage(h_self, q)
