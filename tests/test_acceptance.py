"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they pass; tolerances are pinned in the asserts, not configurable.
"""

import json

import numpy as np

from fdpareto import numlin
from fdpareto.beamform import (
    DecoupledProblem,
    covariance_of,
    low_z_condition_bound,
    optimal_weights,
    zf_weights,
)
from fdpareto.certify import SdpInstance, certify_instance, rank_reduce
from fdpareto.channel import ScenarioSpec, generate_scenario, ideal_frontend
from fdpareto.cli import main
from fdpareto.pareto import (
    SweepGrid,
    boundary,
    curve_dominates,
    domination_oracle,
    equal_rate_point,
    tdma_boundary,
)
from fdpareto.rates import rate_pair

from oracles import leakage_of, sample_feasible_weights_stratified, sweep_rate_point

GRID_N = 200
SEED = 7


def report(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line, flush=True)
    assert ok, line


def scenario(gamma_db, beta_db, seed=SEED, m=3):
    return generate_scenario(ScenarioSpec(m=m, gamma_db=gamma_db,
                                          beta_db=beta_db, p1=1.0, p2=1.0,
                                          sigma2=1.0, symmetric=True, seed=seed))


def random_channels(rng, m, spread=False):
    h_self = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if spread:
        h_self *= 10.0 ** rng.uniform(0.0, 3.0)
    h_cross = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return h_self, h_cross


def test_criterion_1_closed_form_optimality_certified():
    rng = np.random.default_rng(101)
    worst_interior = 0.0
    worst_endpoint = 0.0
    n_endpoint = 0
    for k in range(1000):
        m = (2, 3, 4)[k % 3]
        h_self, h_cross = random_channels(rng, m, spread=(k % 3 == 0))
        p = float(rng.uniform(0.5, 2.0))
        z_max = p * float(np.linalg.norm(h_cross)) ** 2
        z = float(rng.uniform(0.02, 0.98)) * z_max
        inst = SdpInstance.from_channels(h_self, h_cross, z=z, p=p)
        _, sol, cert, _ = certify_instance(inst)
        rel = abs(cert.gap) / max(1.0, sol.leakage)
        worst_interior = max(worst_interior, rel)
        assert rel <= 1e-6
        if k % 10 == 0:
            for z_end in (0.0, z_max):
                inst = SdpInstance.from_channels(h_self, h_cross, z=z_end, p=p)
                _, sol, cert, _ = certify_instance(inst)
                rel = abs(cert.gap) / max(1.0, sol.leakage)
                worst_endpoint = max(worst_endpoint, rel)
                n_endpoint += 1
                assert rel <= 1e-5
    report(1, True, f"1000 interior gaps <= {worst_interior:.2e} (tol 1e-6), "
                    f"{n_endpoint} endpoint gaps <= {worst_endpoint:.2e} (tol 1e-5)")


def test_criterion_2_sampled_oracle_optimality():
    rng = np.random.default_rng(202)
    worst = np.inf
    for k in range(100):
        m = (2, 3, 4)[k % 3]
        h_self, h_cross = random_channels(rng, m, spread=(k % 4 == 0))
        p = float(rng.uniform(0.5, 2.0))
        z = float(rng.uniform(0.05, 0.995)) * p * float(np.linalg.norm(h_cross)) ** 2
        prob = DecoupledProblem(h_self=h_self, h_cross=h_cross, p=p, z=z)
        gamma = optimal_weights(prob).leakage
        comp = sample_feasible_weights_stratified(rng, prob.h_cross, p, z, 10000)
        undercut = gamma - float(leakage_of(h_self, comp).min())
        worst = min(worst, -undercut)
        assert undercut <= 1e-7
    report(2, True, f"100 x 10^4 competitors, worst margin {worst:.2e} >= -1e-7")


def test_criterion_3_loading_dichotomy():
    rng = np.random.default_rng(303)
    n_zero = n_loaded = 0
    for k in range(400):
        m = int(rng.integers(1, 5))
        h_self, h_cross = random_channels(rng, m, spread=(k % 5 == 0))
        p = float(rng.uniform(0.5, 2.0))
        z_max = p * float(np.linalg.norm(h_cross)) ** 2
        z = z_max if k % 20 == 0 else float(rng.uniform(0.0, 1.0)) * z_max
        sol = optimal_weights(DecoupledProblem(h_self=h_self, h_cross=h_cross,
                                               p=p, z=z))
        bound = low_z_condition_bound(h_self, h_cross, p)
        if z <= bound:
            assert sol.epsilon == 0.0
            n_zero += 1
        else:
            assert sol.epsilon > 0.0
            assert abs(sol.achieved_power - p) <= 1e-10 * max(1.0, p)
            n_loaded += 1
    assert n_zero > 50 and n_loaded > 50
    report(3, True, f"{n_zero} unloaded / {n_loaded} loaded instances consistent "
                    f"with the low-z condition")


def test_criterion_4_hand_instance():
    prob = DecoupledProblem(h_self=np.array([1.0, 2.0]),
                            h_cross=np.array([1.0, 1.0]), p=1.0, z=1.0)
    sol = optimal_weights(prob)
    inst = SdpInstance.from_channels(prob.h_self, prob.h_cross, z=1.0, p=1.0)
    _, _, cert, report_kkt = certify_instance(inst)
    ok = (np.allclose(sol.w, [0.8, 0.2], atol=1e-12)
          and abs(sol.leakage - 0.8) <= 1e-12
          and abs(cert.dual_value - 0.8) <= 1e-6
          and report_kkt.passed)
    report(4, ok, f"w={np.round(sol.w.real, 6)}, leakage={sol.leakage:.9f}, "
                  f"dual={cert.dual_value:.9f}")


def test_criterion_5_rank_reduction():
    rng = np.random.default_rng(505)
    hand_inst = SdpInstance.from_channels(np.array([1.0, 2.0]),
                                          np.array([1.0, 0.0]), z=1.0, p=2.0)
    hand = rank_reduce(hand_inst, np.eye(2))
    assert len(hand.iterations) == 1
    assert numlin.numeric_rank(hand.final_q, 1e-9) == 1

    checked = 0
    for k in range(200):
        rank = 2 + (k % 2)
        h_self, h_cross = random_channels(rng, 3)
        p = float(rng.uniform(0.5, 2.0))
        g = rng.standard_normal((3, rank)) + 1j * rng.standard_normal((3, rank))
        q0 = numlin.hermitianize(g @ g.conj().T)
        q0 *= float(rng.uniform(0.3, 1.0)) * p / float(np.trace(q0).real)
        z0 = float(np.trace(np.outer(h_cross, h_cross.conj()) @ q0).real)
        inst = SdpInstance.from_channels(h_self, h_cross, z=z0, p=p)
        t0 = float(np.trace(q0).real)
        c0 = float(np.trace(inst.c @ q0).real)
        trace = rank_reduce(inst, q0)
        q = trace.final_q
        scale = max(1.0, abs(z0), t0)
        assert len(trace.iterations) <= rank - 1
        assert numlin.numeric_rank(q, 1e-9) == 1
        assert abs(float(np.trace(inst.a @ q).real) - z0) <= 1e-9 * scale
        assert abs(float(np.trace(q).real) - t0) <= 1e-9 * scale
        assert numlin.min_eigenvalue(q) >= -1e-9 * max(1.0, t0)
        objs = [c0] + [o for _, _, o in trace.iterations]
        assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
        checked += 1
    report(5, True, f"hand instance in 1 step; {checked} random rank-2/3 "
                    f"covariances reduced with traces preserved to 1e-9")


def test_criterion_6_ideal_channel_doubling():
    ch = ideal_frontend(scenario(gamma_db=40.0, beta_db=-40.0))
    curve = boundary(ch, SweepGrid.for_channel(ch, GRID_N))
    fd = equal_rate_point(curve)
    td = equal_rate_point(tdma_boundary(ch, 201))
    fd_sum = fd.r1 + fd.r2
    td_sum = td.r1 + td.r2
    ok = (fd.r1 == 1.0 and fd.r2 == 1.0
          and abs(fd_sum - 2.0 * td_sum) <= 1e-9)
    report(6, ok, f"full-duplex equal rate ({fd.r1}, {fd.r2}), "
                  f"sum {fd_sum} vs 2x TDMA {2.0 * td_sum}")


def _curves_by_gamma(beta_db):
    out = {}
    for gamma in (20.0, 40.0, 60.0):
        ch = scenario(gamma_db=gamma, beta_db=beta_db)
        out[gamma] = boundary(ch, SweepGrid.for_channel(ch, GRID_N))
    return out


def test_criterion_7_region_monotonicity():
    by_gamma = {beta: _curves_by_gamma(beta) for beta in (-40.0, -60.0)}
    nested = (curve_dominates(by_gamma[-40.0][20.0], by_gamma[-40.0][40.0])
              and curve_dominates(by_gamma[-40.0][40.0], by_gamma[-40.0][60.0]))
    beta_mono = all(
        curve_dominates(by_gamma[-60.0][g], by_gamma[-40.0][g])
        for g in (20.0, 40.0, 60.0))
    report(7, nested and beta_mono,
           f"gamma nesting at beta=1e-4: {nested}; "
           f"beta=1e-6 dominates beta=1e-4 per gamma: {beta_mono}")


def test_criterion_8_axis_intercept_invariance():
    r1_max_vals, r2_max_vals, slacks = [], [], []
    for beta_db in (None, -60.0, -40.0):  # None = ideal front end
        for gamma in (20.0, 40.0, 60.0):
            ch = scenario(gamma_db=gamma, beta_db=beta_db or -40.0)
            if beta_db is None:
                ch = ideal_frontend(ch)
            curve = boundary(ch, SweepGrid.for_channel(ch, GRID_N))
            r1_max_vals.append(max(p.r1 for p in curve.points))
            r2_max_vals.append(max(p.r2 for p in curve.points))
            d1 = np.diff(curve.r1_array())
            slacks.append(float(np.max(np.abs(d1))) / 2 if d1.size else 0.0)
    tol = 1e-6 + max(slacks)
    spread1 = max(r1_max_vals) - min(r1_max_vals)
    spread2 = max(r2_max_vals) - min(r2_max_vals)
    report(8, spread1 <= tol and spread2 <= tol,
           f"intercept spreads ({spread1:.2e}, {spread2:.2e}) <= {tol:.2e} "
           f"across 9 beta/gamma combinations")


def _zf_points(ch):
    w1 = zf_weights(ch.h11, ch.h12, ch.p1)
    w2 = zf_weights(ch.h22, ch.h21, ch.p2)
    zf = rate_pair(ch, covariance_of(w1), covariance_of(w2), label="zf")
    z1 = float(abs(np.vdot(w1, ch.h12)) ** 2)
    z2 = float(abs(np.vdot(w2, ch.h21)) ** 2)
    return zf, z1, z2


def test_criterion_9_zf_suboptimality():
    # Strict domination for beta > 0 at every gamma; monotonicity of the
    # same-delivered-power margin is checked at beta = 1e-6, where the rate
    # compression of large beta*leakage does not mask it.
    strict = True
    for beta_db in (-40.0, -60.0):
        for gamma in (20.0, 40.0, 60.0):
            ch = scenario(gamma_db=gamma, beta_db=beta_db)
            zf, z1, z2 = _zf_points(ch)
            opt = sweep_rate_point(ch, z1, z2)
            strict = strict and opt.r1 > zf.r1 and opt.r2 > zf.r2
    margins = {}
    for gamma in (60.0, 40.0, 20.0):
        ch = scenario(gamma_db=gamma, beta_db=-60.0)
        zf, z1, z2 = _zf_points(ch)
        opt = sweep_rate_point(ch, z1, z2)
        margins[gamma] = min(opt.r1 - zf.r1, opt.r2 - zf.r2)
    mono = margins[60.0] >= margins[40.0] >= margins[20.0] > 0.0
    report(9, strict and mono,
           f"strictly dominated at all beta/gamma; margins "
           f"{ {g: f'{m:.2e}' for g, m in margins.items()} } nonincreasing as "
           f"gamma decreases")


def test_criterion_10_containment_oracle():
    ch = scenario(gamma_db=40.0, beta_db=-40.0)  # fig4 preset scenario
    curve = boundary(ch, SweepGrid.for_channel(ch, GRID_N))
    result = domination_oracle(ch, curve, samples=10000, seed=SEED)
    report(10, result.passed,
           f"{result.samples} samples, max violation {result.max_violation:.2e} "
           f"within 1e-6 + grid slack ({result.slack1:.2e}, {result.slack2:.2e})")


def test_criterion_11_cli_determinism(tmp_path):
    cfg = {
        "scenario": {"m": 3, "gamma_db": 40.0, "beta_db": -40.0, "p1": 1.0,
                     "p2": 1.0, "sigma2": 1.0, "symmetric": True, "seed": SEED},
        "grid_n": 40,
        "samples": 300,
        "emit": ["boundary", "tdma", "oracle"],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    identical = True
    for command in (["boundary"], ["compare-zf"], ["certify"]):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command[0]}_{run}"
            code = main([*command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        identical = identical and outs[0] == outs[1]
    report(11, identical, "boundary, compare-zf, certify byte-identical across reruns")
