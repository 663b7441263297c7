"""The rate model: one rate formula, and rate pairs of transmit covariances.

With Gaussian codebooks, the rate of the link into node i is

    log2(1 + z / (sigma2 + beta * G)),

with z = h_ji† Q_j h_ji the signal power delivered from the far node and
G = h_ii† diag(Q_i) h_ii the node's own front-end leakage.  `_rate` is the
only place this formula is written: `rate_pairs` applies it to covariance
stacks, `single_link_max` to a silent node (G = 0), the boundary sweep to
the cells of its (z, G) grid, and the oracle to its samples' Gram factors.  Rates are
in bits per channel use.

A covariance is valid when its shape is (m, m), its trace is within its
budget P up to `POWER_SLACK * max(1, P)` (a relative slack, so the check
stays above float round-off at large budgets), and it is PSD up to
`PSD_TOL * max(1, ||Q||_F)` plus round-off, judged on its Hermitian part
(Q + Q†) / 2, the part that is rated.  There is one PSD rule for
explicit covariances: `rate_pair` is `rate_pairs` of one pair, and
`_covariance_faults` judges a stack with one `eigvalsh` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .channel import ChannelSet

# Relative slack on trace(Q) <= P checks; headroom for covariances built
# from computed beamforming weights.
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


def _power_limit(p: float) -> float:
    """Largest trace accepted under the power budget p."""
    return p + POWER_SLACK * max(1.0, p)


def _trace_message(name: str, tr: float, p: float) -> str:
    return f"trace({name}) = {tr:.12g} exceeds the power budget {p:.12g}"


def _covariance_faults(qs: np.ndarray, p: float) -> tuple[np.ndarray, ...]:
    """(trace, over budget, non-finite, not PSD) of each matrix of a stack.

    A finite Q is judged by its Hermitian part H = (Q + Q†) / 2, which is
    what `_rates_of` rates, with the rule of `numlin.is_psd`:
    lambda_min(H) >= -(PSD_TOL * max(1, ||H||_F) + ROUNDOFF * ||H||_F).
    Both sides are taken in units of Q's largest modulus b, so neither H / b
    (entries at most 1) nor its norm (at most m) can overflow.  For an
    exactly Hermitian Q, H / b equals Q / b bit for bit, up to the imaginary
    part of the diagonal, which LAPACK does not read.
    """
    tr = np.trace(qs, axis1=1, axis2=2).real
    over = tr > _power_limit(p)
    finite = np.isfinite(qs).all(axis=(1, 2))
    safe = np.where(finite[:, None, None], qs, 0.0)
    big = np.max(np.abs(safe), axis=(1, 2))
    unit = np.where(big > 0.0, big, 1.0)[:, None, None]  # 1 for a zero matrix
    scaled = safe / unit
    herm = (scaled + np.conj(np.swapaxes(scaled, 1, 2))) / 2.0
    norms = np.sqrt(np.sum(herm.real ** 2 + herm.imag ** 2, axis=(1, 2)))
    with np.errstate(over="ignore"):  # 1 / b is inf only where every |lambda| < PSD_TOL
        tol = PSD_TOL * np.maximum(1.0 / unit[:, 0, 0], norms) + numlin.ROUNDOFF * norms
    return tr, over, ~finite, finite & ~(np.linalg.eigvalsh(herm)[:, 0] >= -tol)


def _rate(z, leakage, sigma2: float, beta: float):
    """log2(1 + z / (sigma2 + beta * G)), elementwise over broadcast arrays."""
    return np.log2(1.0 + z / (sigma2 + beta * leakage))


def _rates_of(ch: ChannelSet, q1s: np.ndarray, q2s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked rate pairs of (N, m, m) covariance stacks.

    Each product is grouped as the 1-D `h† @ Q @ h` of a single pair, so the
    stacked rates equal the per-pair ones bit for bit.
    """
    fe = ch.frontend

    def signal(h, qs):
        z = ((h.conj() @ qs)[:, None, :] @ h[:, None])[:, 0, 0].real
        return np.where(z > 0.0, z, 0.0)

    def leakage(h, qs):
        return np.sum(np.abs(h) ** 2 * np.diagonal(qs, axis1=1, axis2=2).real, axis=1)

    with np.errstate(all="ignore"):
        r1 = _rate(signal(ch.h21, q2s), leakage(ch.h11, q1s), fe.sigma2, fe.beta)
        r2 = _rate(signal(ch.h12, q1s), leakage(ch.h22, q2s), fe.sigma2, fe.beta)
    return r1, r2


def _rate_faults(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(non-finite, negative) masks of rate pairs, as `RatePoint` rejects them."""
    finite = np.isfinite(r1) & np.isfinite(r2)
    return ~finite, finite & ((r1 < 0) | (r2 < 0))


def _check_rates(r1: np.ndarray, r2: np.ndarray) -> None:
    """Raise RatePoint's ValueError for the first invalid pair, row-major."""
    bad_finite, bad_sign = _rate_faults(r1, r2)
    bad = bad_finite | bad_sign
    if bad.any():
        first = int(np.argmax(bad))
        if bad_finite.flat[first]:
            raise ValueError("rates must be finite")
        raise ValueError("rates must be nonnegative")


def rate_pairs(ch: ChannelSet, q1s, q2s) -> tuple[np.ndarray, np.ndarray]:
    """Rate pairs (r1, r2) of N covariance pairs given as (N, m, m) stacks.

    The first invalid pair raises a ValueError: Q1's trace, finiteness and
    PSD, the same for Q2, and then the rates (`RatePoint`'s messages), in
    that order within a pair.
    """
    m = ch.m
    q1s = np.asarray(q1s, dtype=np.complex128)
    q2s = np.asarray(q2s, dtype=np.complex128)
    for name, qs in (("Q1", q1s), ("Q2", q2s)):
        if qs.ndim != 3 or qs.shape[1:] != (m, m):
            raise ValueError(f"{name} stack has shape {qs.shape}, expected (N, {m}, {m})")
    if q1s.shape[0] != q2s.shape[0]:
        raise ValueError(f"{q1s.shape[0]} Q1 and {q2s.shape[0]} Q2 matrices")
    tr1, *faults1 = _covariance_faults(q1s, ch.p1)
    tr2, *faults2 = _covariance_faults(q2s, ch.p2)
    r1, r2 = _rates_of(ch, q1s, q2s)
    faults = np.stack([*faults1, *faults2, *_rate_faults(r1, r2)])
    if faults.any():
        k = int(np.argmax(faults.any(axis=0)))
        messages = [_trace_message("Q1", float(tr1[k]), ch.p1),
                    "matrix contains non-finite entries",
                    "Q1 is not positive semidefinite",
                    _trace_message("Q2", float(tr2[k]), ch.p2),
                    "matrix contains non-finite entries",
                    "Q2 is not positive semidefinite",
                    "rates must be finite",
                    "rates must be nonnegative"]
        raise ValueError(messages[int(np.argmax(faults[:, k]))])
    return r1, r2


def rate_pair(ch: ChannelSet, q1, q2, label: str = "optimal") -> RatePoint:
    """Rate pair achieved by transmit covariances (Q1, Q2): `rate_pairs` of one pair."""
    q1, q2 = np.asarray(q1, dtype=np.complex128), np.asarray(q2, dtype=np.complex128)
    for name, q in (("Q1", q1), ("Q2", q2)):
        if q.shape != (ch.m, ch.m):
            raise ValueError(f"{name} has shape {q.shape}, expected ({ch.m}, {ch.m})")
    r1, r2 = rate_pairs(ch, q1[None], q2[None])
    return RatePoint(r1=float(r1[0]), r2=float(r2[0]), label=label)


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
