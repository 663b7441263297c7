"""Every CLI artefact of the golden cases must stay byte-identical.

The cases and the script that rewrites the files live in golden/regen.py.
"""

import copy
import json

import numpy as np
import pytest

from fdpareto import json_floats
from fdpareto.channel import ScenarioSpec, generate_scenario
from fdpareto.pareto import node_problem
from golden.regen import CASES, GOLDEN, VERSIONS, regenerate, run_case, versions
from oracles import exact_slack_margin


def _first_difference(name: str, want: bytes, got: bytes) -> str:
    want_lines = want.decode().splitlines()
    got_lines = got.decode().splitlines()
    for k, (a, b) in enumerate(zip(want_lines, got_lines), start=1):
        if a != b:
            return f"{name} line {k}:\n  golden: {a}\n  now:    {b}"
    k = min(len(want_lines), len(got_lines)) + 1
    return f"{name} line {k}: golden has {len(want_lines)} lines, now {len(got_lines)}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_artefacts(case, tmp_path):
    out = run_case(case, tmp_path)
    golden = GOLDEN / case
    want = {p.name: p.read_bytes() for p in sorted(golden.iterdir())}
    got = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    problems = []
    if want.keys() != got.keys():
        problems.append(f"files differ: golden {sorted(want)}, now {sorted(got)}")
    for name in sorted(want.keys() & got.keys()):
        if want[name] != got[name]:
            problems.append(_first_difference(f"{case}/{name}", want[name], got[name]))
            break
    if problems:
        recorded = json.loads(VERSIONS.read_text())
        if recorded != versions():
            problems.append(f"note: the golden files were written with {recorded}, "
                            f"this run uses {versions()}")
        pytest.fail("\n".join(problems))


@pytest.mark.parametrize("case", ["certify_m1", "certify_m3", "certify_m8_asym"])
def test_golden_certificates_are_exactly_feasible(case):
    # every recorded dual is exactly feasible, and every record passes
    doc = json.loads((GOLDEN / case / "certificates.json").read_text())
    ch = generate_scenario(ScenarioSpec.from_dict(CASES[case][1]["scenario"]))
    for node in (1, 2):
        prob = node_problem(ch, node, 0.0)
        records = doc["nodes"][f"node{node}"]["certificates"]
        for k, record in enumerate(records):
            cert = record["certificate"]
            margin = exact_slack_margin(prob.h_self, prob.h_cross, cert["lambda1"],
                                        cert["lambda2"])
            assert margin >= 0, (node, k)
            assert record["gap_ok"] and record["kkt"]["passed"], (node, k)
            if 0 < k < len(records) - 1:
                assert record["gap_rel"] <= 1e-12, (node, k)


def _strings(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _strings(item)
    elif isinstance(doc, str):
        yield doc


def test_certify_numbers_take_the_kernel(tmp_path, monkeypatch):
    # at most 5% of the distinct numbers in the records are formatted by
    # repr (`json_floats._repr_token`), the rest by the array kernel
    fallback = set()
    token = json_floats._repr_token
    monkeypatch.setattr(json_floats, "_repr_token", lambda v: fallback.add(token(v)) or token(v))
    out = run_case("certify_m8_asym", tmp_path)
    doc = json.loads((out / "certificates.json").read_text(), parse_float=str)
    written = {text for node in doc["nodes"].values() for text in _strings(node["certificates"])}
    assert len(written) > 200
    assert 0 < len(fallback & written) <= 0.05 * len(written)


def test_versions_without_simd_found(monkeypatch):
    # numpy's baseline dispatch (NPY_DISABLE_CPU_FEATURES) finds no optional
    # SIMD feature, and show_config then has no "found" key; it returns
    # numpy's own dict, so edit a copy
    config = copy.deepcopy(np.show_config(mode="dicts"))
    config["SIMD Extensions"].pop("found", None)
    monkeypatch.setattr(np, "show_config", lambda mode="stdout": config)
    assert versions()["simd_found"] == []


def test_regen_rejects_an_unknown_case_before_writing(monkeypatch):
    ran = []
    monkeypatch.setattr("golden.regen.run_case", lambda name, work: ran.append(name))
    with pytest.raises(ValueError, match=r"unknown golden cases \['certify_m2'\]"):
        regenerate(["certify_m1", "certify_m2"])
    assert ran == []
