"""Command-line front end: scenario configs in, CSV/JSON reports out.

Subcommands
-----------
boundary     full-duplex Pareto boundary + TDMA segment as CSV, plus run
             metadata; presets reproduce the qualitative structure of the
             reference gamma/beta sweeps (random channels under a documented
             seed, so ordering and containment claims only).
compare-zf   zero-forcing rate pair vs the boundary, with a beamformer
             geometry report.
certify      dual-certificate and KKT sweep over the z grid for both nodes,
             plus one rank-reduction demonstration per node; nonzero exit
             if any duality gap exceeds its gate.

Exit codes: 0 success, 1 validation/usage error, 2 certification failure.
All outputs are byte-deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, numlin
from .beamform import covariance_of, optimal_weights, zf_weights
from .certify import (
    GAP_TOL_ENDPOINT,
    GAP_TOL_INTERIOR,
    SdpInstance,
    certify_instance,
    gap_tolerance,
    rank_reduce,
)
from .channel import ChannelSet, ScenarioSpec, generate_scenario, ideal_frontend, require_int
from .errors import DegenerateGeometryError
from .pareto import (
    SweepGrid,
    boundary,
    curve_to_csv,
    domination_oracle,
    equal_rate_point,
    interpolated_r1,
    interpolated_r2,
    node_problem,
    tdma_boundary,
)
from .rates import rate_pair

_EMIT_CHOICES = {"boundary", "tdma", "oracle"}

PRESETS = {
    "fig4": {"beta_db": -40.0},
    "fig6": {"beta_db": -60.0},
}
_PRESET_GAMMAS = (20.0, 40.0, 60.0)
_PRESET_SEED = 7


@dataclass(frozen=True)
class RunConfig:
    """One run: a scenario plus sweep/report knobs."""

    scenario: ScenarioSpec
    grid_n: int = 200
    samples: int = 10000
    out_dir: str | None = None
    emit: frozenset = field(default_factory=lambda: frozenset({"boundary", "tdma"}))

    def __post_init__(self):
        require_int("grid_n", self.grid_n)
        require_int("samples", self.samples)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.grid_n < 2:
            raise ValueError("grid_n must be >= 2")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        bad = set(self.emit) - _EMIT_CHOICES
        if bad:
            raise ValueError(f"unknown emit entries: {sorted(bad)}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError("the config must be a JSON object")
        extra = d.keys() - {"scenario", "grid_n", "samples", "out_dir", "emit"}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "scenario" not in d:
            raise ValueError("config is missing the scenario block")
        kwargs = {"scenario": ScenarioSpec.from_dict(d["scenario"])}
        for key in ("grid_n", "samples", "out_dir"):
            if key in d:
                kwargs[key] = d[key]
        if "emit" in d:
            emit = d["emit"]
            if not isinstance(emit, list) or not all(isinstance(e, str) for e in emit):
                raise ValueError(f"emit must be a list of strings, got {emit!r}")
            kwargs["emit"] = frozenset(emit) | {"boundary", "tdma"}
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario.to_dict(), "grid_n": self.grid_n,
                "samples": self.samples, "emit": sorted(self.emit)}


def preset_config(name: str, grid_n: int = 200, samples: int = 10000) -> RunConfig:
    beta_db = PRESETS[name]["beta_db"]
    scenario = ScenarioSpec(m=3, gamma_db=_PRESET_GAMMAS[0], beta_db=beta_db,
                            p1=1.0, p2=1.0, sigma2=1.0, symmetric=True,
                            seed=_PRESET_SEED)
    return RunConfig(scenario=scenario, grid_n=grid_n, samples=samples)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _prepare_out_dir(path_str: str | None) -> Path:
    if not path_str:
        raise ValueError("an output directory is required (--out or out_dir)")
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


def _metadata(config: RunConfig, preset: str | None, extra: dict) -> dict:
    meta = {
        "config": config.to_dict(),
        "preset": preset,
        "tolerances": {
            "gap_interior": GAP_TOL_INTERIOR,
            "gap_endpoint": GAP_TOL_ENDPOINT,
            "oracle": 1e-6,
        },
        "version": __version__,
    }
    meta.update(extra)
    return meta


def cmd_boundary(config: RunConfig, out_dir: Path, preset: str | None = None) -> int:
    """Write boundary/TDMA CSVs (per gamma for presets) and metadata."""
    files: dict[str, str] = {}
    if preset is not None:
        beta_db = PRESETS[preset]["beta_db"]
        for gamma in _PRESET_GAMMAS:
            ch = generate_scenario(replace(config.scenario, gamma_db=gamma,
                                           beta_db=beta_db, symmetric=True))
            curve = boundary(ch, SweepGrid.for_channel(ch, config.grid_n))
            files[f"boundary_gamma{gamma:g}.csv"] = curve_to_csv(curve)
            if gamma == _PRESET_GAMMAS[0]:
                files["tdma.csv"] = curve_to_csv(tdma_boundary(ch, config.grid_n))
                ideal = boundary(ideal_frontend(ch),
                                 SweepGrid.for_channel(ch, config.grid_n))
                files["ideal.csv"] = curve_to_csv(ideal)
    else:
        ch = generate_scenario(config.scenario)
        curve = boundary(ch, SweepGrid.for_channel(ch, config.grid_n))
        files["boundary.csv"] = curve_to_csv(curve)
        files["tdma.csv"] = curve_to_csv(tdma_boundary(ch, config.grid_n))
        if "oracle" in config.emit:
            report = domination_oracle(ch, curve, samples=config.samples,
                                       seed=config.scenario.seed)
            files["oracle.json"] = _json_text(report.to_dict())

    files["metadata.json"] = _json_text(
        _metadata(config, preset, {"outputs": sorted(files) + ["metadata.json"]}))
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return 0


def _projection_report(ch: ChannelSet, node: int, w: np.ndarray) -> dict:
    prob = node_problem(ch, node, 0.0)
    return {
        "cross_projection": float(abs(np.vdot(prob.h_cross, w)) / np.linalg.norm(prob.h_cross)),
        "self_projection": float(abs(np.vdot(prob.h_self, w)) / np.linalg.norm(prob.h_self)),
        "power": float(np.linalg.norm(w)) ** 2,
    }


def cmd_compare_zf(config: RunConfig, out_dir: Path) -> int:
    """Zero-forcing rate pair vs the boundary, with geometry details."""
    ch = generate_scenario(config.scenario)
    if ch.m < 2:
        raise ValueError("compare-zf needs at least 2 antennas")
    curve = boundary(ch, SweepGrid.for_channel(ch, config.grid_n))
    eq = equal_rate_point(curve)
    doc: dict = {
        "optimal_equal_rate": {"r1": eq.r1, "r2": eq.r2, "z1": eq.z1, "z2": eq.z2},
    }
    try:
        w1 = zf_weights(ch.h11, ch.h12, ch.p1)
        w2 = zf_weights(ch.h22, ch.h21, ch.p2)
    except DegenerateGeometryError as exc:
        doc["zf_error"] = str(exc)
    else:
        zf_pt = rate_pair(ch, covariance_of(w1), covariance_of(w2), label="zf")
        gap1 = float(interpolated_r1(curve, zf_pt.r2)) - zf_pt.r1
        gap2 = float(interpolated_r2(curve, zf_pt.r1)) - zf_pt.r2
        doc["zf_point"] = {"r1": zf_pt.r1, "r2": zf_pt.r2}
        doc["rate_gap"] = [gap1, gap2]
        geometry = {}
        for node, w_zf in ((1, w1), (2, w2)):
            z_eq = eq.z1 if node == 1 else eq.z2
            entry = {"zf": _projection_report(ch, node, w_zf)}
            if z_eq is not None:
                w_opt = optimal_weights(node_problem(ch, node, z_eq)).w
                entry["optimal"] = _projection_report(ch, node, w_opt)
            geometry[f"node{node}"] = entry
        doc["geometry"] = geometry
    doc["metadata"] = _metadata(config, None, {})
    (out_dir / "zf_comparison.json").write_text(_json_text(doc))
    return 0


def _rank_demo(ch: ChannelSet, node: int, z: float, seed: int) -> dict:
    """Rank-reduce a deliberately rank-inflated feasible covariance."""
    prob = node_problem(ch, node, z)
    inst = SdpInstance.from_channels(prob.h_self, prob.h_cross, z=z, p=prob.p)
    q_opt = covariance_of(optimal_weights(prob).w)
    slack = prob.p - float(np.trace(q_opt).real)
    if slack <= 1e-9 or ch.m < 2:
        return {"skipped": "no power slack for rank inflation", "z": z}
    rng = np.random.default_rng(seed)
    h = prob.h_cross / np.linalg.norm(prob.h_cross)
    proj = np.eye(ch.m) - np.outer(h, h.conj())
    g = rng.standard_normal((ch.m, 2)) + 1j * rng.standard_normal((ch.m, 2))
    junk = numlin.hermitianize(proj @ g @ g.conj().T @ proj.conj().T)
    junk *= 0.5 * slack / float(np.trace(junk).real)
    q0 = numlin.hermitianize(q_opt + junk)
    z0 = float(np.trace(inst.a @ q0).real)
    t0 = float(np.trace(q0).real)
    trace = rank_reduce(inst, q0)
    qf = trace.final_q
    history = trace.to_dict()
    return {
        "z": z,
        "start_rank": int(numlin.numeric_rank(q0, 1e-9)),
        "iterations": history["iterations"],
        "final_rank": history["final_rank"],
        "target_residual": abs(float(np.trace(inst.a @ qf).real) - z0),
        "trace_residual": abs(float(np.trace(qf).real) - t0),
        "min_eigenvalue": numlin.min_eigenvalue(qf),
    }


def cmd_certify(config: RunConfig, out_dir: Path) -> int:
    """Certificate sweep over the z grid for both nodes; exit 2 on any gap."""
    ch = generate_scenario(config.scenario)
    grid = SweepGrid.for_channel(ch, config.grid_n)
    nodes: dict[str, dict] = {}
    max_rel = {"interior": 0.0, "endpoint": 0.0}
    max_kkt = 0.0
    failed = False
    for node, zs in ((1, grid.z1_values()), (2, grid.z2_values())):
        records = []
        for idx, z in enumerate(zs):
            prob = node_problem(ch, node, float(z))
            inst = SdpInstance.from_channels(prob.h_self, prob.h_cross,
                                             z=float(z), p=prob.p)
            _, sol, cert, report = certify_instance(inst)
            tol = gap_tolerance(inst)
            endpoint = idx == 0 or idx == len(zs) - 1
            rel = abs(cert.gap) / max(1.0, sol.leakage)
            key = "endpoint" if endpoint else "interior"
            max_rel[key] = max(max_rel[key], rel)
            kkt = report.to_dict()
            max_kkt = max(max_kkt, kkt["primal_target_residual"],
                          kkt["power_excess"], -min(0.0, kkt["q_min_eigenvalue"]),
                          -min(0.0, kkt["slack_min_eigenvalue"]),
                          kkt["complementarity_residual"])
            ok = rel <= tol
            failed = failed or not ok
            records.append({
                "z": float(z), "endpoint": endpoint,
                "primal": sol.leakage, "epsilon": sol.epsilon,
                "certificate": cert.to_dict(), "gap_rel": rel,
                "gap_tol": tol, "gap_ok": ok, "kkt": kkt,
            })
        demo_z = float(zs[len(zs) // 2])
        nodes[f"node{node}"] = {
            "certificates": records,
            "rank_demo": _rank_demo(ch, node, demo_z, seed=config.scenario.seed),
        }
    doc = {
        "nodes": nodes,
        "summary": {
            "max_gap_rel_interior": max_rel["interior"],
            "max_gap_rel_endpoint": max_rel["endpoint"],
            "max_kkt_residual": max_kkt,
            "passed": not failed,
        },
        "metadata": _metadata(config, None, {}),
    }
    (out_dir / "certificates.json").write_text(_json_text(doc))
    return 2 if failed else 0


def _load_config(args) -> RunConfig:
    preset = getattr(args, "preset", None)
    if args.config is None:
        if preset is None:
            raise ValueError("either --config or --preset is required")
        return preset_config(preset)
    raw = json.loads(Path(args.config).read_text())
    config = RunConfig.from_dict(raw)
    if preset is not None:
        # preset fixes the scenario family; config supplies the knobs
        config = replace(config, scenario=preset_config(preset).scenario)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdpareto",
        description="Rate-region Pareto boundaries for the MISO full-duplex "
                    "two-way channel, with certified optimal beamforming.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_boundary = sub.add_parser("boundary", help="compute boundary and TDMA CSVs")
    p_boundary.add_argument("--config", help="JSON run config")
    p_boundary.add_argument("--preset", choices=sorted(PRESETS),
                            help="built-in gamma sweep preset")
    p_boundary.add_argument("--out", help="output directory")

    p_zf = sub.add_parser("compare-zf", help="zero-forcing vs the boundary")
    p_zf.add_argument("--config", required=True, help="JSON run config")
    p_zf.add_argument("--out", help="output directory")

    p_cert = sub.add_parser("certify", help="certificate sweep over the z grid")
    p_cert.add_argument("--config", required=True, help="JSON run config")
    p_cert.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        out_dir = _prepare_out_dir(args.out or config.out_dir)
        if args.command == "boundary":
            return cmd_boundary(config, out_dir, preset=getattr(args, "preset", None))
        if args.command == "compare-zf":
            return cmd_compare_zf(config, out_dir)
        if args.command == "certify":
            return cmd_certify(config, out_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"fdpareto: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
