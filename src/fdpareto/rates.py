"""The rate model: one rate formula, and rate pairs of transmit covariances.

With Gaussian codebooks, the rate of the link into node i is

    log2(1 + z / (sigma2 + beta * G)),

with z = h_ji† Q_j h_ji the signal power delivered from the far node and
G = h_ii† diag(Q_i) h_ii the node's own front-end leakage.  `_rate` is the
only place this formula is written: `rate_pair` applies it to covariances,
`single_link_max` to a silent node (G = 0), and the boundary sweep to whole
(z, G) grids.  Rates are in bits per channel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .channel import ChannelSet, self_leakage

# Slack on trace(Q) <= P checks; headroom for covariances built from
# computed beamforming weights.
POWER_SLACK = 1e-9
PSD_TOL = 1e-9


@dataclass(frozen=True)
class RatePoint:
    """One (r1, r2) pair with provenance.

    z1/z2 are the sweep coordinates that generated the point, when it came
    from a boundary sweep; label records which scheme produced it.
    """

    r1: float
    r2: float
    z1: float | None = None
    z2: float | None = None
    label: str = "optimal"

    def __post_init__(self):
        if not (np.isfinite(self.r1) and np.isfinite(self.r2)):
            raise ValueError("rates must be finite")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("rates must be nonnegative")


def _validate_covariance(q, m: int, p: float, name: str) -> np.ndarray:
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != (m, m):
        raise ValueError(f"{name} has shape {q.shape}, expected ({m}, {m})")
    tr = float(np.trace(q).real)
    if tr > p + POWER_SLACK:
        raise ValueError(f"trace({name}) = {tr:.12g} exceeds the power budget {p:.12g}")
    scale = max(1.0, float(np.linalg.norm(q)))
    if not numlin.is_psd(q, PSD_TOL * scale):
        raise ValueError(f"{name} is not positive semidefinite")
    return q


def _rate(z, leakage, sigma2: float, beta: float):
    """log2(1 + z / (sigma2 + beta * G)), elementwise over broadcast arrays."""
    return np.log2(1.0 + z / (sigma2 + beta * leakage))


def rate_pair(ch: ChannelSet, q1, q2, label: str = "optimal") -> RatePoint:
    """Rate pair achieved by transmit covariances (Q1, Q2)."""
    q1 = _validate_covariance(q1, ch.m, ch.p1, "Q1")
    q2 = _validate_covariance(q2, ch.m, ch.p2, "Q2")
    fe = ch.frontend
    num1 = max(0.0, float(np.real(ch.h21.conj() @ q2 @ ch.h21)))
    num2 = max(0.0, float(np.real(ch.h12.conj() @ q1 @ ch.h12)))
    return RatePoint(r1=float(_rate(num1, self_leakage(ch.h11, q1), fe.sigma2, fe.beta)),
                     r2=float(_rate(num2, self_leakage(ch.h22, q2), fe.sigma2, fe.beta)),
                     label=label)


def single_link_max(ch: ChannelSet, direction: int) -> float:
    """Maximum rate of one direction when the other node stays silent.

    A silent opposite node removes its own self-interference term, so the
    value depends only on the transmit power, cross-channel norm, and noise
    floor: log2(1 + P_j * ||h_ji||^2 / sigma2).
    """
    if direction == 1:
        p, h = ch.p2, ch.h21
    elif direction == 2:
        p, h = ch.p1, ch.h12
    else:
        raise ValueError("direction must be 1 or 2")
    return float(_rate(p * float(np.linalg.norm(h)) ** 2, 0.0, ch.frontend.sigma2,
                       ch.frontend.beta))
