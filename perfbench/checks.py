"""Output checks for one benchmark job.

Each check returns a list of problems; an empty list means the job's
artefacts are correct.  The checks read the artefacts from disk and use only
fdpareto's public functions to recompute what they compare against.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from fdpareto.channel import ScenarioSpec, generate_scenario
from fdpareto.cli import preset_config
from fdpareto.pareto import (
    SweepGrid,
    boundary,
    curve_dominates,
    curve_from_csv,
    grid_slack,
)
from fdpareto.rates import single_link_max

CSV_HEADER = "r1,r2,z1,z2,label"
INTERCEPT_REL = 1e-9
# Allowance on compare-zf's rate_gap beyond the grid slack: round-off only.
ZF_GAP_ABS = 1e-9


def check_curve(text: str, r1_max: float, r2_max: float, name: str) -> list[str]:
    """Header, strict monotonicity, finite nonnegative rates, intercepts."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{name}: header is not {CSV_HEADER!r}"]
    try:
        rates = [(float(r1), float(r2))
                 for r1, r2, *_ in (ln.split(",") for ln in lines[1:])]
    except ValueError as exc:
        return [f"{name}: unparsable row ({exc})"]
    if not rates:
        return [f"{name}: no points"]
    problems = []
    if not all(math.isfinite(v) and v >= 0.0 for pt in rates for v in pt):
        problems.append(f"{name}: a rate is negative or not finite")
    if any(b[0] <= a[0] or b[1] >= a[1] for a, b in zip(rates, rates[1:])):
        problems.append(f"{name}: r1 not strictly ascending or r2 not strictly "
                        "descending (a dominated or repeated point)")
    for label, got, want in (("r1", rates[-1][0], r1_max), ("r2", rates[0][1], r2_max)):
        if abs(got - want) > INTERCEPT_REL * want:
            problems.append(f"{name}: {label} intercept {got!r} != single_link_max {want!r}")
    return problems


def _intercepts(spec: ScenarioSpec) -> tuple[float, float]:
    ch = generate_scenario(spec)
    return single_link_max(ch, 1), single_link_max(ch, 2)


def check_oracle(doc: dict, samples: int) -> list[str]:
    problems = []
    if doc.get("passed") is not True:
        problems.append("oracle.json: passed is not true")
    if doc.get("violations") != 0:
        problems.append(f"oracle.json: {doc.get('violations')} violations")
    if doc.get("samples") != samples:
        problems.append(f"oracle.json: {doc.get('samples')} samples, expected {samples}")
    return problems


def check_certificates(doc: dict, grid_n: int) -> list[str]:
    problems = []
    if doc.get("summary", {}).get("passed") is not True:
        problems.append("certificates.json: summary.passed is not true")
    for node in ("node1", "node2"):
        records = doc.get("nodes", {}).get(node, {}).get("certificates", [])
        if len(records) != grid_n:
            problems.append(f"certificates.json: {node} has {len(records)} "
                            f"records, expected {grid_n}")
        bad = sum(1 for r in records if r.get("gap_ok") is not True)
        if bad:
            problems.append(f"certificates.json: {node} has {bad} records not gap_ok")
    return problems


def check_zf(doc: dict, slack: tuple[float, float]) -> list[str]:
    gap = doc.get("rate_gap")
    if gap is None:
        return [f"zf_comparison.json: no rate_gap ({doc.get('zf_error', 'no zf_point')})"]
    return [f"zf_comparison.json: rate_gap[{i}] = {g!r} below -slack {s!r}"
            for i, (g, s) in enumerate(zip(gap, slack)) if not g >= -(s + ZF_GAP_ABS)]


def check_job(job, rc: int, out: Path) -> list[str]:
    """All checks for one finished job; `job` is a workloads.Job."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if job.command == "boundary" and job.preset is not None:
            return _check_preset(job.preset, out)
        spec = ScenarioSpec.from_dict(job.config["scenario"])
        grid_n = job.config["grid_n"]
        if job.command == "boundary":
            r1_max, r2_max = _intercepts(spec)
            problems = []
            for name in ("boundary.csv", "tdma.csv"):
                problems += check_curve((out / name).read_text(), r1_max, r2_max, name)
            if "oracle" in job.config.get("emit", ()):
                problems += check_oracle(json.loads((out / "oracle.json").read_text()),
                                         job.config["samples"])
            return problems
        if job.command == "certify":
            return check_certificates(
                json.loads((out / "certificates.json").read_text()), grid_n)
        if job.command == "compare-zf":
            ch = generate_scenario(spec)
            slack = grid_slack(boundary(ch, SweepGrid.for_channel(ch, grid_n)))
            return check_zf(json.loads((out / "zf_comparison.json").read_text()), slack)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"artefact missing or malformed: {exc!r}"]
    return [f"no check for command {job.command!r}"]


def _check_preset(preset: str, out: Path) -> list[str]:
    r1_max, r2_max = _intercepts(preset_config(preset).scenario)
    curves = sorted(out.glob("boundary_gamma*.csv"))
    if not curves:
        return ["preset wrote no boundary_gamma*.csv"]
    problems = []
    texts = {p.name: p.read_text() for p in [*curves, out / "ideal.csv", out / "tdma.csv"]}
    for name, text in texts.items():
        problems += check_curve(text, r1_max, r2_max, name)
    if problems:
        return problems
    ideal = curve_from_csv(texts["ideal.csv"])
    for path in curves:
        if not curve_dominates(ideal, curve_from_csv(texts[path.name])):
            problems.append(f"ideal.csv does not dominate {path.name}")
    return problems
