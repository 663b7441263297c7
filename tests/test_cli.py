import json

import pytest

from fdpareto.cli import RunConfig, main, preset_config
from fdpareto.channel import ScenarioSpec
from fdpareto.pareto import curve_from_csv, curve_to_csv


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
            demo = doc["nodes"][node]["rank_demo"]
            assert demo["final_rank"] == 1
            assert demo["start_rank"] >= 2
            assert demo["target_residual"] <= 1e-9
            assert demo["trace_residual"] <= 1e-9

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, grid_n=8)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["certify", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["certify", "--config", str(cfg), "--out", str(out2)]) == 0
        assert read_all_bytes(out1) == read_all_bytes(out2)

    def test_gap_failure_exits_2(self, tmp_path, monkeypatch):
        # a certificate that cannot close the gap must trip the nonzero exit
        import fdpareto.cli as cli_mod
        from fdpareto.certify import Certificate, certify_instance

        def broken(inst):
            q, sol, cert, report = certify_instance(inst)
            bad = Certificate(lambda1=cert.lambda1, lambda2=cert.lambda2,
                              dual_value=cert.dual_value - 1.0,
                              gap=cert.gap + 1.0,
                              slack_min_eig=cert.slack_min_eig)
            return q, sol, bad, report

        monkeypatch.setattr(cli_mod, "certify_instance", broken)
        cfg = write_config(tmp_path, grid_n=5)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
        doc = json.loads((out / "certificates.json").read_text())
        assert doc["summary"]["passed"] is False


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
