"""Hypothesis strategies shared by the test files: the north-star scenario space."""

from dataclasses import replace

from hypothesis import strategies as st

from fdpareto.channel import ChannelSet, ScenarioSpec, generate_scenario


@st.composite
def north_star_channels(draw) -> ChannelSet:
    """A link drawn from the whole scenario space the package serves.

    m 1-8, gamma -60...120 dB, beta -80...0 dB, sigma2 1e-3 or 1, and
    budgets p1 and p2 of 0.01...1e4 each, or equal.  The link is reciprocal
    (h21 is h12 and h22 is h11) or not, so a reciprocal link with equal
    budgets has bitwise-equal nodes.  The first 0...m self gains of each
    node are zeroed (a singular self-interference matrix, or none at all);
    a reciprocal link keeps h22 the same array as h11.
    """
    m = draw(st.integers(1, 8))
    p1 = draw(st.floats(0.01, 1e4))
    p2 = draw(st.one_of(st.just(p1), st.floats(0.01, 1e4)))
    spec = ScenarioSpec(m=m, gamma_db=draw(st.floats(-60.0, 120.0)),
                        beta_db=draw(st.floats(-80.0, 0.0)), p1=p1, p2=p2,
                        sigma2=draw(st.sampled_from((1e-3, 1.0))),
                        symmetric=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))
    ch = generate_scenario(spec)
    zeroed = draw(st.integers(0, m))
    if zeroed:
        h11 = ch.h11.copy()
        h11[:zeroed] = 0.0
        h22 = h11
        if not spec.symmetric:
            h22 = ch.h22.copy()
            h22[:zeroed] = 0.0
        ch = replace(ch, h11=h11, h22=h22)
    return ch
