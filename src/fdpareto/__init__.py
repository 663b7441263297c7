"""Pareto boundary of the MISO full-duplex two-way rate region.

Closed-form optimal transmit beamforming under transmit front-end noise,
with SDP-duality certificates and constructive rank-one solution recovery.
"""

from .beamform import (
    BeamformerSolution,
    DecoupledProblem,
    covariance_of,
    leakage_curve,
    leakage_matrix,
    min_leakage,
    mrt_weights,
    optimal_weights,
    zf_weights,
)
from .certify import (
    Certificate,
    CertificateCurve,
    KktReport,
    RankReductionTrace,
    certify_curve,
    dual_certificate,
    kkt_check,
    rank_reduce,
)
from .channel import (
    ChannelSet,
    FrontEndModel,
    ScenarioSpec,
    generate_scenario,
)
from .errors import (
    DegenerateGeometryError,
    InfeasibleError,
    NumericalError,
)
from .pareto import (
    BoundaryCurve,
    SweepGrid,
    boundary,
    domination_oracle,
    equal_rate_point,
    pareto_filter,
    tdma_boundary,
)
from .rates import RatePoint, rate_pair, rate_pairs, single_link_max

__version__ = "0.1.0"

__all__ = [
    "BeamformerSolution",
    "BoundaryCurve",
    "Certificate",
    "CertificateCurve",
    "ChannelSet",
    "DecoupledProblem",
    "DegenerateGeometryError",
    "FrontEndModel",
    "InfeasibleError",
    "KktReport",
    "NumericalError",
    "RankReductionTrace",
    "RatePoint",
    "ScenarioSpec",
    "SweepGrid",
    "boundary",
    "certify_curve",
    "covariance_of",
    "domination_oracle",
    "dual_certificate",
    "equal_rate_point",
    "generate_scenario",
    "kkt_check",
    "leakage_curve",
    "leakage_matrix",
    "min_leakage",
    "mrt_weights",
    "optimal_weights",
    "pareto_filter",
    "rank_reduce",
    "rate_pair",
    "rate_pairs",
    "single_link_max",
    "tdma_boundary",
    "zf_weights",
]
