import contextlib
import copy
import io
import itertools
import json
import math
import tempfile
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdpareto.certify import GAP_TOL_ENDPOINT, GAP_TOL_INTERIOR, certify_curve
from fdpareto.channel import ScenarioSpec, generate_scenario, ideal_frontend
from fdpareto.errors import NumericalError
from fdpareto import beamform, cli, pareto
from fdpareto.cli import (
    RunConfig,
    _certificate_records,
    _float_tokens,
    _json_text,
    _splice,
    build_parser,
    main,
    preset_config,
)
from fdpareto.pareto import (SweepGrid, boundary, curve_from_csv, curve_to_csv,
                             domination_oracle, node_problem)
from oracles import certificate_records_reference


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "scenario": {"m": 3, "gamma_db": 40.0, "beta_db": -40.0, "p1": 1.0,
                     "p2": 1.0, "sigma2": 1.0, "symmetric": True, "seed": 7},
        "grid_n": 25,
        "samples": 200,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_all_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestBoundaryCommand:
    def test_writes_expected_files(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"boundary.csv", "tdma.csv", "metadata.json"}
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["scenario"]["gamma_db"] == 40.0
        assert "version" in meta

    def test_minimal_grid(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=2)
        out = tmp_path / "out"
        assert main(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
        curve = curve_from_csv((out / "boundary.csv").read_text())
        assert 1 <= len(curve.points) <= 4

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["boundary", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["boundary", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_all_bytes(out1) == read_all_bytes(out2)

    def test_preset_fig4(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=15)
        out = tmp_path / "out"
        assert main(["boundary", "--config", str(cfg), "--preset", "fig4",
                     "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"boundary_gamma20.csv", "boundary_gamma40.csv",
                         "boundary_gamma60.csv", "ideal.csv", "tdma.csv",
                         "metadata.json"}

    def test_preset_sweeps_only_its_three_gammas(self, tmp_path, monkeypatch):
        # ideal.csv (beta = 0) is the closed-form corner, not a fourth sweep
        betas = []
        monkeypatch.setattr(cli, "boundary",
                            lambda ch, grid: (betas.append(ch.frontend.beta), boundary(ch, grid))[1])
        assert main(["boundary", "--preset", "fig4", "--out", str(tmp_path / "out")]) == 0
        assert betas == [1e-4] * 3

    def test_preset_with_oracle_exits_1(self, tmp_path, capsys):
        # a preset sweeps three channels and runs no oracle: asking for its
        # report is an input error, not a run that silently skips it
        cfg = write_config(tmp_path, emit=["oracle"])
        out = tmp_path / "out"
        assert main(["boundary", "--config", str(cfg), "--preset", "fig4",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            'fdpareto: error: a --preset run writes no oracle.json: '
            'remove "oracle" from emit\n')
        assert list(out.iterdir()) == []

    def test_oracle_emit(self, tmp_path):
        cfg = write_config(tmp_path, emit=["boundary", "tdma", "oracle"],
                           samples=50)
        out = tmp_path / "out"
        assert main(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
        oracle = json.loads((out / "oracle.json").read_text())
        assert oracle["passed"] is True
        assert oracle["samples"] == 50

    def test_csv_roundtrip_of_emitted_file(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["boundary", "--config", str(cfg), "--out", str(out)])
        text = (out / "boundary.csv").read_text()
        assert curve_to_csv(curve_from_csv(text)) == text


class TestCompareZfCommand:
    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=60)
        out = tmp_path / "out"
        assert main(["compare-zf", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "zf_comparison.json").read_text())
        assert "zf_point" in doc and "rate_gap" in doc
        assert doc["rate_gap"][0] >= -1e-6
        assert doc["rate_gap"][1] >= -1e-6
        geom = doc["geometry"]
        for node in ("node1", "node2"):
            # ZF nulls the self channel; the optimal filter does not
            assert geom[node]["zf"]["self_projection"] <= 1e-9
            assert geom[node]["optimal"]["cross_projection"] > 0

    def test_zf_beats_nothing_strictly_inside(self, tmp_path):
        # gamma >= 20 dB with beta > 0: ZF strictly dominated
        cfg = write_config(tmp_path, grid_n=80)
        out = tmp_path / "out"
        main(["compare-zf", "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "zf_comparison.json").read_text())
        assert doc["rate_gap"][0] > 0 and doc["rate_gap"][1] > 0

    def test_degenerate_geometry_recorded_not_fatal(self, tmp_path):
        # m=1 rejected outright
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["scenario"]["m"] = 1
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["compare-zf", "--config", str(cfg), "--out", str(out)]) == 1


class TestCertifyCommand:
    def test_clean_run(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=15)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "certificates.json").read_text())
        summary = doc["summary"]
        assert summary["passed"] is True
        assert summary["max_gap_rel_interior"] <= 1e-6
        assert summary["max_gap_rel_endpoint"] <= 1e-5
        for node in ("node1", "node2"):
            records = doc["nodes"][node]["certificates"]
            assert len(records) == 15
            z0 = records[0]
            assert z0["z"] == 0.0
            assert z0["primal"] == 0.0
            assert z0["certificate"]["dual_value"] == 0.0
            assert set(doc["nodes"][node]) == {"certificates"}

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=8)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["certify", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["certify", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_all_bytes(out1) == read_all_bytes(out2)

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_weak_self_gains_and_a_large_budget_pass(self, tmp_path, seed):
        # max c is about 1e-4 and p = 1000: a loading pinned to max(1, max c)
        # rounded the z_max dual by up to 4e-5 of the primal and exited 2
        cfg = write_config(tmp_path, grid_n=10, scenario={
            "m": 4, "gamma_db": -40.0, "beta_db": -40.0, "p1": 1000.0, "p2": 1000.0,
            "sigma2": 1.0, "symmetric": True, "seed": seed})
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "certificates.json").read_text())["summary"]
        assert summary["passed"] is True
        assert summary["max_gap_rel_endpoint"] <= 1e-7

    def test_gap_failure_exits_2(self, tmp_path, monkeypatch):
        # a certificate that cannot close the gap must trip the nonzero exit
        import fdpareto.cli as cli_mod
        from fdpareto.certify import certify_curves

        def broken(*args):
            return [replace(curve, dual_value=curve.dual_value - 1.0, gap=curve.gap + 1.0)
                    for curve in certify_curves(*args)]

        monkeypatch.setattr(cli_mod, "certify_curves", broken)
        cfg = write_config(tmp_path, grid_n=5)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
        doc = json.loads((out / "certificates.json").read_text())
        assert doc["summary"]["passed"] is False

    def test_shared_curve_renders_as_its_copies(self, tmp_path, monkeypatch):
        # a reciprocal link with equal budgets gives both nodes one curve,
        # rendered once; copies of it, rendered per node, give the same bytes
        cfg = write_config(tmp_path, grid_n=40)
        shared, copied = tmp_path / "shared", tmp_path / "copied"
        renders = []

        def counted(fn):
            def render(*args, **kwargs):
                renders.append(fn.__name__)
                return fn(*args, **kwargs)
            return render

        monkeypatch.setattr(cli, "_certificate_records", counted(cli._certificate_records))
        assert main(["certify", "--config", str(cfg), "--out", str(shared)]) == 0
        assert renders == ["_certificate_records"]
        certify_curves = cli.certify_curves

        def copies(*args):
            curves = certify_curves(*args)
            assert curves[1] is curves[0]
            return [copy.deepcopy(curve) for curve in curves]

        monkeypatch.setattr(cli, "certify_curves", copies)
        assert main(["certify", "--config", str(cfg), "--out", str(copied)]) == 0
        assert renders == ["_certificate_records"] * 3
        assert read_all_bytes(shared) == read_all_bytes(copied)
        nodes = json.loads((shared / "certificates.json").read_text())["nodes"]
        assert nodes["node1"] == nodes["node2"]


@pytest.mark.parametrize("command", ["boundary", "certify", "compare-zf"])
def test_shared_node_keeps_its_solve_error(tmp_path, capsys, command):
    # self gains near 1e300 (gamma 3000 dB) make the filter's power not
    # finite; the one solve of both nodes raises a node's own error
    cfg = write_config(tmp_path, scenario={"m": 3, "gamma_db": 3000.0, "beta_db": -40.0,
                                           "symmetric": True, "seed": 7})
    config = RunConfig.from_dict(json.loads(cfg.read_text()))
    ch = generate_scenario(config.scenario)
    prob = node_problem(ch, 1, 0.0)
    with pytest.raises(NumericalError) as alone:
        beamform.leakage_curve(prob.h_self, prob.h_cross, prob.p,
                               SweepGrid.for_channel(ch, config.grid_n).z1_values())
    run = {"boundary": cli.cmd_boundary, "certify": cli.cmd_certify,
           "compare-zf": cli.cmd_compare_zf}[command]
    with pytest.raises(NumericalError) as shared:
        run(config, tmp_path)
    assert type(shared.value) is type(alone.value)
    assert str(shared.value) == str(alone.value)
    code, _, err = _main_result([command, "--config", str(cfg), "--out", str(tmp_path)],
                                capsys)
    assert (code, err) == (1, f"fdpareto: error: {alone.value}\n")


class TestValidation:
    def test_missing_config_and_preset(self, tmp_path):
        assert main(["boundary", "--out", str(tmp_path / "x")]) == 1

    def test_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["boundary", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 1

    def test_unknown_config_field(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        assert main(["boundary", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1

    def test_missing_out(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["boundary", "--config", str(cfg)]) == 1

    def test_bad_grid(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=1)
        assert main(["boundary", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 1

    def test_config_out_dir_fallback(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, out_dir=str(out))
        assert main(["boundary", "--config", str(cfg)]) == 0
        assert (out / "boundary.csv").exists()


def _scenario_with(**fields):
    return {"m": 3, "gamma_db": 40.0, "beta_db": -40.0, "seed": 7, **fields}


@pytest.mark.parametrize("config", [
    {"scenario": _scenario_with(m="3")},
    {"scenario": _scenario_with(), "grid_n": "10"},
    [{"scenario": _scenario_with()}],
    {"scenario": [1, 2]},
    {"scenario": _scenario_with(), "grid_n": 10.5},
    {"scenario": _scenario_with(seed=1.5)},
    {"scenario": _scenario_with(m=True)},
    {"scenario": _scenario_with(), "samples": True},
    {"scenario": _scenario_with(gamma_db="x")},
    {"scenario": _scenario_with(gamma_db=1e6)},
    {"scenario": _scenario_with(beta_db=1e6)},
    {"scenario": _scenario_with(p1=float("nan"))},
    {"scenario": _scenario_with(sigma2=float("inf"))},
    {"scenario": _scenario_with(symmetric="yes")},
    {"scenario": _scenario_with(), "emit": "oracle"},
    {"scenario": _scenario_with(), "emit": [["oracle"]]},
    {"scenario": _scenario_with(), "out_dir": 5},
], ids=["m-str", "grid_n-str", "top-level-list", "scenario-list", "grid_n-float",
        "seed-float", "m-bool", "samples-bool", "gamma-str", "gamma-overflow",
        "beta-overflow", "p1-nan", "sigma2-inf", "symmetric-str", "emit-str",
        "emit-nested", "out_dir-int"])
def test_malformed_config_exits_1(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["boundary", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("fdpareto: error:")


@pytest.mark.parametrize("command, fields", [
    ("boundary", {"gamma_db": 3000.0}),
    ("certify", {"gamma_db": 3000.0}),
    ("certify", {"p1": 1e300}),
    ("certify", {"p1": 1e308}),
], ids=["boundary-gamma3000", "certify-gamma3000", "certify-p1-1e300", "certify-p1-1e308"])
def test_extreme_finite_config_exits_1(tmp_path, capsys, command, fields):
    # finite values whose filter sums or dual objective leave the float range
    cfg = write_config(tmp_path, scenario=_scenario_with(**fields), grid_n=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdpareto: error:") and err.count("\n") == 1
    # overflowing sums raise or are rescaled instead of warning, in any module
    assert _runtime_warnings(caught) == []


def _runtime_warnings(caught):
    return [f"{w.filename}: {w.message}" for w in caught
            if issubclass(w.category, RuntimeWarning)]


def test_extreme_budget_boundary_with_oracle_runs_without_warnings(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario=_scenario_with(p1=1e300), grid_n=4,
                       samples=50, emit=["boundary", "oracle"])
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert _runtime_warnings(caught) == []
    assert json.loads((out / "oracle.json").read_text())["passed"] is True


def test_boundary_with_oracle_at_p1_1e308_runs_without_warnings(tmp_path, capsys):
    # the leakage sum overflows to inf for node 1; that must stay silent
    cfg = write_config(tmp_path, scenario=_scenario_with(p1=1e308), grid_n=4,
                       samples=50, emit=["boundary", "oracle"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["boundary", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert _runtime_warnings(caught) == []


def _finite_number(text):
    value = float(text)  # "1e999" parses to inf
    if not math.isfinite(value):
        raise AssertionError(f"non-finite JSON number {text}")
    return value


def _run_twice(command, config):
    """Exit codes and written bytes of two in-process runs, checking warnings."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(config))
        codes, outputs = [], []
        for run in ("a", "b"):
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("always")
                codes.append(main([command, "--config", str(cfg), "--out", str(tmp / run)]))
            assert _runtime_warnings(caught) == []
            outputs.append(read_all_bytes(tmp / run) if (tmp / run).is_dir() else {})
    assert codes[0] == codes[1] and codes[0] in (0, 1, 2)
    assert outputs[0] == outputs[1]
    return codes[0], outputs[0]


def _json_docs(outputs):
    """Every JSON artefact, parsed with each number required to be finite."""
    return {name: json.loads(data, parse_float=_finite_number,
                             parse_constant=_finite_number)
            for name, data in outputs.items() if name.endswith(".json")}


def _assert_strictly_monotone(text):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    r1 = [float(row[0]) for row in rows]
    r2 = [float(row[1]) for row in rows]
    assert rows and all(b > a for a, b in zip(r1, r1[1:]))
    assert all(b < a for a, b in zip(r2, r2[1:]))


# The north-star config space at CLI-test sizes.
_scenarios = st.fixed_dictionaries({
    "m": st.integers(1, 8), "gamma_db": st.floats(-60.0, 120.0),
    "beta_db": st.floats(-80.0, 0.0), "p1": st.floats(0.01, 1e4),
    "p2": st.floats(0.01, 1e4), "sigma2": st.sampled_from((1e-3, 1.0)),
    "symmetric": st.booleans(), "seed": st.integers(0, 2**16)})
_grid_n = st.integers(2, 12)


# 600 examples over the north-star space, noise powers 1e-3 to 1e3 and grids
# 2 to 300: the swept corner's rates and z fields are equal to the closed
# form's bit for bit.
@settings(max_examples=600, deadline=None, derandomize=True)
@given(scenario=_scenarios, sigma2=st.floats(1e-3, 1e3), grid_n=st.integers(2, 300))
def test_ideal_curve_is_the_swept_beta_zero_boundary(scenario, sigma2, grid_n):
    ch = generate_scenario(ScenarioSpec.from_dict({**scenario, "sigma2": sigma2}))
    swept = boundary(ideal_frontend(ch), SweepGrid.for_channel(ch, grid_n))
    corner = cli._ideal_curve(ch)
    assert corner.labels == swept.labels == ("optimal",)
    for name in ("r1", "r2", "z1", "z2"):
        assert getattr(corner, name).tobytes() == getattr(swept, name).tobytes(), name


def _m1_scenario(gamma_db, p1):
    return {"m": 1, "gamma_db": gamma_db, "beta_db": -40.0, "p1": p1, "p2": 100.0,
            "sigma2": 1e-3, "symmetric": True, "seed": 0}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario=_scenarios, grid_n=_grid_n)
def test_certify_cli_properties(scenario, grid_n):
    code, outputs = _run_twice("certify", {"scenario": scenario, "grid_n": grid_n})
    assert code == 0
    docs = _json_docs(outputs)
    assert all(record["gap_ok"] for node in docs["certificates.json"]["nodes"].values()
               for record in node["certificates"])


# Values whose JSON token differs from a plain decimal, or that json spells itself.
_SPECIAL_FLOATS = (-0.0, 5e-324, 1e-7, 1e16, 1e22, math.nan, math.inf, -math.inf)
_CURVE_FIELDS = ("epsilon", "primal", "lambda1", "lambda2", "dual_value", "gap",
                 "slack_margin", "primal_target_residual", "power_excess",
                 "q_min_eigenvalue", "complementarity_residual")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.integers(1, 8), gamma_db=st.floats(0.0, 120.0), beta_db=st.floats(-80.0, 0.0),
       p1=st.floats(0.01, 100.0), p2=st.floats(0.01, 100.0), symmetric=st.booleans(),
       seed=st.integers(0, 2**16), node=st.sampled_from((1, 2)), n=st.integers(2, 30),
       near_ends=st.booleans(),
       poison=st.lists(st.tuples(st.sampled_from(_CURVE_FIELDS + ("rel",)),
                                 st.integers(0, 2**16), st.sampled_from(_SPECIAL_FLOATS)),
                       max_size=3))
def test_certificate_records_match_json_dumps(m, gamma_db, beta_db, p1, p2, symmetric,
                                              seed, node, n, near_ends, poison):
    ch = generate_scenario(ScenarioSpec(m=m, gamma_db=gamma_db, beta_db=beta_db,
                                        p1=p1, p2=p2, symmetric=symmetric, seed=seed))
    prob = node_problem(ch, node, 0.0)
    zs = np.linspace(0.0, prob.z_max, n)
    if near_ends:
        zs = np.concatenate([[0.0, 1e-300], zs[1:-1], [np.nextafter(prob.z_max, 0.0),
                                                       prob.z_max]])
    curve = certify_curve(prob.h_self, prob.h_cross, prob.p, zs)
    rel = np.abs(curve.gap) / np.maximum(1.0, curve.primal)
    columns = {name: getattr(curve, name).copy() for name in _CURVE_FIELDS}
    columns["rel"] = rel
    for name, index, value in poison:
        columns[name][index % len(zs)] = value
    rel = columns.pop("rel")
    curve = replace(curve, **columns)
    endpoint = np.zeros(len(zs), dtype=bool)
    endpoint[[0, -1]] = True
    tol = np.where(endpoint, GAP_TOL_ENDPOINT, GAP_TOL_INTERIOR)
    ok = rel <= tol
    args = (curve, zs, endpoint, rel, tol, ok)
    assert _certificate_records(*args) == certificate_records_reference(*args)


@pytest.mark.parametrize("x", _SPECIAL_FLOATS)
def test_float_tokens_match_json_dumps(x):
    assert _float_tokens(np.array([x])) == [json.dumps(x)]


# zeros, infinities, NaNs and subnormals of both signs; the NaN with its
# sign bit set is not -math.nan, which Python may fold to the plain NaN
_SIGNED_SPECIALS = _SPECIAL_FLOATS + (0.0, float(np.copysign(np.nan, -1.0)), -5e-324,
                                      2.2250738585072014e-308, -1e-310)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                       | st.sampled_from(_SIGNED_SPECIALS), max_size=40),
       repeats=st.lists(st.integers(0, 2**16), max_size=40), negate=st.booleans())
def test_float_tokens_of_repeated_values_match_json_dumps(values, repeats, negate):
    # each distinct magnitude is formatted once and shared by both signs
    a = np.array(values, dtype=np.float64)
    if a.size:
        a = np.concatenate([a, a[np.array(repeats, dtype=int) % a.size]])
        if negate:
            a = np.concatenate([a, -a])
    assert _float_tokens(a) == [json.dumps(x) for x in a.tolist()]


def _solve_calls(monkeypatch):
    calls = []
    solve = beamform._solve

    def counted(*args):
        calls.append(args[-1].size)
        return solve(*args)

    monkeypatch.setattr(beamform, "_solve", counted)
    return calls


@pytest.mark.parametrize("command", ["certify", "boundary"])
def test_one_solve_per_job(tmp_path, monkeypatch, command):
    # a reciprocal link with equal budgets has one distinct node: its z grid
    # goes through one loading solve, so a job runs no second bisection and
    # solves no row twice
    cfg = write_config(tmp_path, grid_n=30)
    calls = _solve_calls(monkeypatch)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [30]


_DISTINCT_NODES = [{"symmetric": False, "p2": 1.0}, {"symmetric": True, "p2": 2.0},
                   {"symmetric": False, "p2": 2.0}]


@pytest.mark.parametrize("command", ["certify", "boundary"])
@pytest.mark.parametrize("distinct", _DISTINCT_NODES)
def test_one_solve_of_both_distinct_nodes(tmp_path, monkeypatch, command, distinct):
    # an asymmetric link, or unequal budgets: both nodes' grids in one solve
    cfg = write_config(tmp_path, grid_n=30, scenario={
        "m": 3, "gamma_db": 40.0, "beta_db": -40.0, "p1": 1.0, "sigma2": 1.0, "seed": 7,
        **distinct})
    calls = _solve_calls(monkeypatch)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [60]


@pytest.mark.parametrize("scenario", [{}, *_DISTINCT_NODES])
def test_compare_zf_solves_the_grid_then_both_beams(tmp_path, monkeypatch, scenario):
    # one solve of the distinct grids, then one of both nodes' beams at the
    # equal-rate point: one row where the nodes and their z are bitwise equal
    spec = {"m": 3, "gamma_db": 40.0, "beta_db": -40.0, "p1": 1.0, "p2": 1.0,
            "sigma2": 1.0, "symmetric": True, "seed": 7, **scenario}
    cfg = write_config(tmp_path, grid_n=30, scenario=spec)
    calls = _solve_calls(monkeypatch)
    out = tmp_path / "out"
    assert main(["compare-zf", "--config", str(cfg), "--out", str(out)]) == 0
    eq = json.loads((out / "zf_comparison.json").read_text())["optimal_equal_rate"]
    shared = spec["symmetric"] and spec["p1"] == spec["p2"]
    assert calls == [30 if shared else 60, 1 if shared and eq["z1"] == eq["z2"] else 2]


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("command", ["certify", "boundary"])
def test_program_path_runs_no_eigen_solve(tmp_path, monkeypatch, command, m):
    # certify's gaps and KKT residuals, the boundary and the oracle's rates
    # all come from closed forms on the diagonal C and rank-one A
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{command} must not call an eigensolver")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    cfg = write_config(tmp_path, grid_n=20, emit=["oracle"], scenario={
        "m": m, "gamma_db": 40.0, "beta_db": -40.0, "p1": 1.0, "p2": 2.0,
        "sigma2": 1.0, "symmetric": False, "seed": m})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def _main_result(argv, capsys):
    """Exit code, stdout and stderr of one in-process run, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_cached_parser_serves_jobs_in_sequence(tmp_path, capsys):
    # one parser per process: a job after a usage error gets the exit code,
    # messages and bytes that a freshly built parser gives it
    cfg = str(write_config(tmp_path, grid_n=8))
    jobs = (["boundary", "--config", cfg], ["certify", "--config", cfg],
            ["certify"], ["boundary"], ["boundary", "--config", cfg],
            ["certify", "--config", cfg])

    def run(tag, fresh):
        results = []
        for k, argv in enumerate(jobs):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{tag}{k}"
            results.append((*_main_result([*argv, "--out", str(out)], capsys),
                            read_all_bytes(out) if out.exists() else None))
        return results

    cached = run("cached", fresh=False)
    assert build_parser() is build_parser()
    assert [code for code, *_ in cached] == [0, 0, 1, 1, 0, 0]
    assert "the following arguments are required: --config" in cached[2][2]
    assert cached[3][2].startswith("fdpareto: error:")
    assert cached == run("fresh", fresh=True)


def test_splice_needs_exactly_one_placeholder():
    assert _splice('{"a": "<x>"}', "<x>", "[]") == '{"a": []}'
    for text in ('{"a": 1}', '{"a": "<x>", "b": "<x>"}'):
        with pytest.raises(AssertionError):
            _splice(text, "<x>", "[]")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario=_scenarios, grid_n=_grid_n, samples=st.integers(1, 50))
# m = 1 configs whose oracle.json says passed: false at exit 0, a false
# alarm of the coarse grid
@example(scenario=_m1_scenario(0.0, p1=0.01), grid_n=5, samples=50)
@example(scenario=_m1_scenario(20.0, p1=1.0), grid_n=12, samples=50)
def test_boundary_cli_properties(scenario, grid_n, samples):
    code, outputs = _run_twice("boundary", {"scenario": scenario, "grid_n": grid_n,
                                            "samples": samples, "emit": ["oracle"]})
    docs = _json_docs(outputs)
    if code == 0:
        assert docs["oracle.json"]["samples"] == samples
        for name in ("boundary.csv", "tdma.csv"):
            _assert_strictly_monotone(outputs[name].decode())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scenario=_scenarios, grid_n=_grid_n)
def test_compare_zf_cli_properties(scenario, grid_n):
    code, outputs = _run_twice("compare-zf", {"scenario": scenario, "grid_n": grid_n})
    docs = _json_docs(outputs)
    if code == 0:
        doc = docs["zf_comparison.json"]
        assert ("rate_gap" in doc) != ("zf_error" in doc)


@pytest.mark.parametrize("p1", [1e20, 1e300])
def test_compare_zf_accepts_its_own_covariance_at_large_budgets(tmp_path, p1):
    # the trace slack is relative: an absolute 1e-9 is below p1's round-off
    cfg = write_config(tmp_path, scenario=_scenario_with(p1=p1, seed=1), grid_n=20)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compare-zf", "--config", str(cfg), "--out", str(out)]) == 0
    assert _runtime_warnings(caught) == []
    doc = json.loads((out / "zf_comparison.json").read_text())
    assert doc["geometry"]["node1"]["zf"]["power"] == pytest.approx(p1, rel=1e-12)


@pytest.mark.parametrize("entry", ["zf", "certificates"])
def test_inert_emit_entries_rejected(tmp_path, capsys, entry):
    cfg = write_config(tmp_path, emit=[entry])
    assert main(["boundary", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "unknown emit entries" in capsys.readouterr().err


def test_integer_values_echo_uncoerced(tmp_path):
    cfg = write_config(tmp_path, scenario=_scenario_with(gamma_db=40, p1=1))
    out = tmp_path / "out"
    assert main(["boundary", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "metadata.json").read_text()
    assert '"gamma_db": 40,' in text and '"p1": 1,' in text


def test_run_config_validation():
    spec = ScenarioSpec(m=2, gamma_db=0.0, beta_db=-40.0)
    with pytest.raises(ValueError):
        RunConfig(scenario=spec, grid_n=1)
    with pytest.raises(ValueError):
        RunConfig(scenario=spec, emit=frozenset({"nonsense"}))


def test_preset_config_shape():
    cfg = preset_config("fig6")
    assert cfg.scenario.beta_db == -60.0
    assert cfg.scenario.m == 3
    assert cfg.scenario.symmetric


def _failing_sampled_rates(call):
    """`pareto._sampled_rates`, but raising a ValueError on its call-th call."""
    calls = itertools.count(1)
    sampled_rates = pareto._sampled_rates

    def failing(rng, ch, u):
        if next(calls) == call:
            raise ValueError(f"sampling failed on block {call}")
        return sampled_rates(rng, ch, u)

    return failing


class TestOracleSamplingThread:
    # m = 8 rates 128 samples per block, so 300 samples take three blocks
    SCENARIO = _scenario_with(m=8, gamma_db=30.0)

    def argv(self, tmp_path, **overrides):
        cfg = write_config(tmp_path, scenario=self.SCENARIO, grid_n=12, samples=300,
                           emit=["oracle"], **overrides)
        return ["boundary", "--config", str(cfg), "--out", str(tmp_path / "out")]

    def test_sampling_error_is_reported_as_the_sequential_oracle_reports_it(
            self, tmp_path, capsys, monkeypatch):
        ch = generate_scenario(ScenarioSpec.from_dict(self.SCENARIO))
        curve = boundary(ch, SweepGrid.for_channel(ch, 12))
        monkeypatch.setattr(pareto, "_sampled_rates", _failing_sampled_rates(2))
        with pytest.raises(ValueError) as sequential:
            domination_oracle(ch, curve, samples=300, seed=7)

        monkeypatch.setattr(pareto, "_sampled_rates", _failing_sampled_rates(2))
        threads = threading.active_count()
        assert main(self.argv(tmp_path)) == 1
        assert threading.active_count() == threads
        assert capsys.readouterr().err == f"fdpareto: error: {sequential.value}\n"
        assert list((tmp_path / "out").iterdir()) == []  # nothing written

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_a_boundary_error_wins_over_a_sampling_error(self, tmp_path, capsys,
                                                         monkeypatch, error):
        def failing_boundary(ch, grid):
            raise error("boundary failed")

        monkeypatch.setattr(pareto, "_sampled_rates", _failing_sampled_rates(1))
        monkeypatch.setattr(cli, "boundary", failing_boundary)
        threads = threading.active_count()
        if error is ValueError:
            assert main(self.argv(tmp_path)) == 1
            assert capsys.readouterr().err == "fdpareto: error: boundary failed\n"
        else:  # not an input error: it leaves main as it came
            with pytest.raises(RuntimeError, match="boundary failed"):
                main(self.argv(tmp_path))
        assert threading.active_count() == threads

    def test_only_a_boundary_run_with_the_oracle_starts_a_thread(self, tmp_path,
                                                                 monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread.name), start(thread))[1])
        cfg = str(write_config(tmp_path, grid_n=8))
        for argv in (["boundary", "--config", cfg], ["boundary", "--preset", "fig6"],
                     ["compare-zf", "--config", cfg], ["certify", "--config", cfg]):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert started == []
        assert main(self.argv(tmp_path)) == 0
        assert started == ["fdpareto-oracle_samples_0"]


@pytest.mark.parametrize("m", range(1, 9))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(scenario=_scenarios, grid_n=_grid_n, extra=st.integers(1, 200))
def test_cli_oracle_report_equals_domination_oracle(m, scenario, grid_n, extra):
    # the samples drawn on the worker thread span three blocks or more, and
    # the report equals the one-thread oracle's byte for byte
    scenario = {**scenario, "m": m}
    samples = 2 * pareto._oracle_block(m) + extra
    ch = generate_scenario(ScenarioSpec.from_dict(scenario))
    try:
        curve = boundary(ch, SweepGrid.for_channel(ch, grid_n))
        expected = _json_text(domination_oracle(ch, curve, samples=samples,
                                                seed=scenario["seed"]).to_dict())
    except ValueError as exc:
        expected = exc
    threads = threading.active_count()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"scenario": scenario, "grid_n": grid_n,
                                   "samples": samples, "emit": ["oracle"]}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["boundary", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        if isinstance(expected, ValueError):
            assert (code, err.getvalue()) == (1, f"fdpareto: error: {expected}\n")
        else:
            assert code == 0
            assert (Path(tmp) / "out" / "oracle.json").read_text() == expected
    assert threading.active_count() == threads
