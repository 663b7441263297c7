"""Tests of the benchmark's own parts: span arithmetic, checkers, generator."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

from fdpareto import ScenarioSpec, cli, generate_scenario, pareto  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # a second root [11, 12] is the next job
    rec = spans.Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0,
                                          11.0, 12.0]))
    root, a, b, c = (rec.name_id(n) for n in ("root", "a", "b", "c"))
    r = rec.open(root)
    i = rec.open(a)
    j = rec.open(b)
    rec.close(j)
    rec.close(i)
    k = rec.open(c)
    rec.close(k)
    rec.close(r)
    rec.close(rec.open(root))
    tot = rec.totals()
    assert {n: tot[n]["self_s"] for n in tot} == {"root": 4.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert tot["a"]["dur_s"] == 3.0
    assert list(rec.parent) == [-1, 0, 1, 0, -1]
    assert list(rec.job) == [0, 0, 0, 0, 1]


def test_instrument_passes_results_and_errors_through_and_restores():
    from fdpareto import beamform, certify

    orig = beamform.optimal_weights
    ch = generate_scenario(ScenarioSpec(m=2, gamma_db=20, beta_db=-20, seed=1))
    prob = pareto.node_problem(ch, 1, 0.5)
    rec = spans.Recorder()
    with spans.instrument(rec):
        assert certify.optimal_weights is beamform.optimal_weights is not orig
        assert pareto.min_leakage(prob) == orig(prob).leakage
        with pytest.raises(ValueError, match="two endpoints"):
            cli.tdma_boundary(ch, 1)
    assert beamform.optimal_weights is orig and certify.optimal_weights is orig
    assert cli.tdma_boundary is pareto.tdma_boundary
    tot = rec.totals()
    assert tot["beamform.optimal_weights"]["calls"] == 1
    assert tot["pareto.tdma_boundary"]["calls"] == 1
    assert rec.counters["pareto.tdma_boundary.errors"] == 1
    assert rec.counters["beamform.regime.unloaded"] + rec.counters["beamform.regime.loaded"] == 1


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads(BENCHMARK.read_text())
    rec = spans.Recorder()
    got = spans.layer_metrics(rec, rec.totals(), 1, 1.0, 0)
    assert {n: v["unit"] for n, v in got.items()} == {
        m["name"]: m["unit"] for m in doc["per_layer"]}
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_tail_needs_ten_jobs_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(20)]) == (50.0, 9.0)


def _run(tmp_path, command, **cfg):
    config = {"scenario": {"m": 3, "gamma_db": 40.0, "beta_db": -40.0, "seed": 3},
              "grid_n": 20, "samples": 300}
    config.update(cfg)
    job = Job(command, config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = cli.main(job.argv(str(path), str(out)))
    return job, rc, out


def test_boundary_checks_pass_then_reject_a_dominated_point(tmp_path):
    job, rc, out = _run(tmp_path, "boundary", emit=["oracle"])
    assert checks.check_job(job, rc, out) == []
    lines = (out / "boundary.csv").read_text().splitlines()
    r1, r2, *rest = lines[2].split(",")
    # a copy of row 2 with r2 lowered is dominated by row 2
    lines.insert(3, ",".join([r1, repr(float(r2) * 0.5), *rest]))
    (out / "boundary.csv").write_text("\n".join(lines) + "\n")
    assert any("strictly" in p for p in checks.check_job(job, rc, out))


def test_boundary_check_rejects_wrong_header_and_intercept():
    text = "r1,r2,z1,z2,label\n0,2,,,x\n1,0,,,x\n"
    assert checks.check_curve(text, 1.0, 2.0, "c") == []
    assert checks.check_curve(text.replace("label", "lbl"), 1.0, 2.0, "c")
    assert any("intercept" in p for p in checks.check_curve(text, 1.0, 2.5, "c"))


def test_oracle_check_rejects_a_violation(tmp_path):
    job, rc, out = _run(tmp_path, "boundary", emit=["oracle"])
    doc = json.loads((out / "oracle.json").read_text())
    assert checks.check_oracle(doc, 300) == []
    doc.update(violations=1, passed=False)
    (out / "oracle.json").write_text(json.dumps(doc))
    assert checks.check_job(job, rc, out) == ["oracle.json: passed is not true",
                                              "oracle.json: 1 violations"]
    assert checks.check_oracle({"violations": 0, "passed": True, "samples": 300}, 301)


def test_certificate_check_rejects_passed_false(tmp_path):
    job, rc, out = _run(tmp_path, "certify", grid_n=6)
    assert checks.check_job(job, rc, out) == []
    doc = json.loads((out / "certificates.json").read_text())
    doc["summary"]["passed"] = False
    (out / "certificates.json").write_text(json.dumps(doc))
    assert checks.check_job(job, rc, out) == ["certificates.json: summary.passed is not true"]
    doc["summary"]["passed"] = True
    doc["nodes"]["node2"]["certificates"][1]["gap_ok"] = False
    assert checks.check_certificates(doc, 6) == [
        "certificates.json: node2 has 1 records not gap_ok"]


def test_zf_and_exit_code_checks(tmp_path):
    job, rc, out = _run(tmp_path, "compare-zf")
    assert checks.check_job(job, rc, out) == []
    assert checks.check_zf({"rate_gap": [-0.2, 0.0]}, (0.1, 0.1))
    assert checks.check_zf({"zf_error": "parallel"}, (0.1, 0.1))
    assert checks.check_job(job, 2, out) == ["exit code 2"]


def test_preset_check_rejects_a_curve_above_ideal(tmp_path):
    out = tmp_path / "out"
    job = Job("boundary", preset="fig4")
    assert cli.main(job.argv(None, str(out))) == 0
    assert checks.check_job(job, 0, out) == []
    # swapping ideal with a beta > 0 curve breaks the domination claim
    ideal = (out / "ideal.csv").read_text()
    (out / "ideal.csv").write_text((out / "boundary_gamma60.csv").read_text())
    (out / "boundary_gamma60.csv").write_text(ideal)
    assert any("does not dominate" in p for p in checks.check_job(job, 0, out))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    def head(seed, rounds=3):
        gen = WORKLOADS[name].rounds(seed)
        return [next(gen) for _ in range(rounds)]

    assert head(11) == head(11)
    assert head(11) != head(12)


def test_curve_checks_agree_with_program_parser():
    curve = pareto.BoundaryCurve(points=[pareto.RatePoint(0.0, 1.0), pareto.RatePoint(1.0, 0.0)])
    assert checks.check_curve(pareto.curve_to_csv(curve), 1.0, 1.0, "c") == []
