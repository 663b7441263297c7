"""Command-line front end: scenario configs in, CSV/JSON reports out.

Subcommands
-----------
boundary     full-duplex Pareto boundary + TDMA segment as CSV, plus run
             metadata and, with "oracle" in emit, the domination oracle's
             report, whose samples are drawn and rated on a second thread
             while the boundary is solved; presets reproduce the
             qualitative structure of the reference gamma/beta sweeps
             (random channels under a documented seed, so ordering and
             containment claims only), write the beta = 0 curve as the
             corner of the two single-link maxima, and run no oracle.
compare-zf   zero-forcing rate pair vs the boundary, with a beamformer
             geometry report.
certify      dual-certificate and KKT sweep over the z grid for both nodes;
             nonzero exit if any duality gap exceeds its gate.  Each
             node's records are built as one matrix of padded 64-bit
             words, with every number's json token written by a numpy
             kernel (`fdpareto.json_floats`: Python's shortest round-trip
             repr, left to repr itself for the values it cannot settle
             exactly: zeros, subnormals, non-finite values, the ends of its
             exponent table, decimals of 14 digits or fewer, some powers
             of two, and decisions within 1e-6 of a digit of their
             boundary).

Exit codes: 0 success, 1 validation/usage error, 2 certification failure.
All outputs are byte-deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .beamform import _solve_curves, covariance_of, zf_weights
from .certify import (
    GAP_TOL_ENDPOINT,
    GAP_TOL_INTERIOR,
    KKT_TOL,
    CertificateCurve,
    certify_curves,
)
from .channel import ChannelSet, ScenarioSpec, generate_scenario, require_int
from .errors import DegenerateGeometryError, NumericalError
from .pareto import (
    ORACLE_TOL,
    BoundaryCurve,
    SweepGrid,
    boundary,
    curve_to_csv,
    domination_oracle,
    equal_rate_point,
    interpolated_r1,
    interpolated_r2,
    node_problem,
    oracle_samples,
    tdma_boundary,
    _PAD_BYTE,
    _PAD_WORD,
)
from .rates import RatePoint, rate_pair, single_link_max

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
            "oracle": ORACLE_TOL,
        },
        "version": __version__,
    }
    meta.update(extra)
    return meta


def _ideal_curve(ch: ChannelSet) -> BoundaryCurve:
    """The link's boundary at beta = 0, which a preset writes as `ideal.csv`.

    With no front-end noise the rates decouple, so the region is the box
    [0, r1_max] x [0, r2_max] of the two single-link maxima, and its one
    Pareto point is the box's corner, at both nodes' z_max: the point that
    `boundary` keeps from a full sweep of the link at beta = 0, bit for bit.
    """
    return BoundaryCurve([RatePoint(r1=single_link_max(ch, 1), r2=single_link_max(ch, 2),
                                    z1=node_problem(ch, 1, 0.0).z_max,
                                    z2=node_problem(ch, 2, 0.0).z_max)])


def cmd_boundary(config: RunConfig, out_dir: Path, preset: str | None = None) -> int:
    """Write boundary/TDMA CSVs (per gamma for presets) and metadata.

    With "oracle" in emit, the oracle's samples are drawn and rated on a
    second thread while the boundary and both CSVs are computed; the report
    follows once both are done, so an error of the boundary comes first.
    """
    files: dict[str, str] = {}
    if preset is not None:
        if "oracle" in config.emit:
            raise ValueError("a --preset run writes no oracle.json: "
                             "remove \"oracle\" from emit")
        beta_db = PRESETS[preset]["beta_db"]
        for gamma in _PRESET_GAMMAS:
            ch = generate_scenario(replace(config.scenario, gamma_db=gamma,
                                           beta_db=beta_db, symmetric=True))
            curve = boundary(ch, SweepGrid.for_channel(ch, config.grid_n))
            files[f"boundary_gamma{gamma:g}.csv"] = curve_to_csv(curve)
        # gamma moves only the self channels, which neither curve reads
        files["ideal.csv"] = curve_to_csv(_ideal_curve(ch))
        files["tdma.csv"] = curve_to_csv(tdma_boundary(ch, config.grid_n))
    else:
        # imported here: it imports logging, about 7.5 ms on every import of cli
        from concurrent.futures import ThreadPoolExecutor

        ch = generate_scenario(config.scenario)
        seed = config.scenario.seed
        # leaving the block joins the worker, also when the boundary raises
        with ThreadPoolExecutor(1, thread_name_prefix="fdpareto-oracle_samples") as pool:
            sampling = (pool.submit(oracle_samples, ch, config.samples, seed)
                        if "oracle" in config.emit else None)
            curve = boundary(ch, SweepGrid.for_channel(ch, config.grid_n))
            files["boundary.csv"] = curve_to_csv(curve)
            files["tdma.csv"] = curve_to_csv(tdma_boundary(ch, config.grid_n))
        if sampling is not None:
            report = domination_oracle(ch, curve, samples=config.samples, seed=seed,
                                       rates=sampling.result())
            files["oracle.json"] = _json_text(report.to_dict())

    files["metadata.json"] = _json_text(
        _metadata(config, preset, {"outputs": sorted(files) + ["metadata.json"]}))
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return 0


def _projection_report(h_cross: np.ndarray, h_self: np.ndarray, w: np.ndarray) -> dict:
    return {
        "cross_projection": float(abs(np.vdot(h_cross, w)) / np.linalg.norm(h_cross)),
        "self_projection": float(abs(np.vdot(h_self, w)) / np.linalg.norm(h_self)),
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
        # both optimal beams at the equal-rate point, in one solve: a boundary
        # point always has both z coordinates
        beams = _solve_curves((node_problem(ch, 1, 0.0), node_problem(ch, 2, 0.0)),
                              ([eq.z1], [eq.z2]))
        doc["geometry"] = {
            f"node{node}": {"zf": _projection_report(h_cross, h_self, w_zf),
                            "optimal": _projection_report(h_cross, h_self, w_opt[0])}
            for node, h_cross, h_self, w_zf, (_, _, w_opt, _) in zip(
                (1, 2), (ch.h12, ch.h21), (ch.h11, ch.h22), (w1, w2), beams)}
    doc["metadata"] = _metadata(config, None, {})
    (out_dir / "zf_comparison.json").write_text(_json_text(doc))
    return 0


# One record of nodes.nodeN.certificates as json.dumps(indent=2, sort_keys=True)
# writes it: keys sorted, at that list's depth, with a %(name)s per JSON token.
# What comes before it ("[\n" or ",\n") is its %(open)s, and the list's end
# is the last record's %(close)s.
_CERTIFICATE_RECORD = """\
%(open)s        {
          "certificate": {
            "dual_value": %(dual_value)s,
            "gap": %(gap)s,
            "lambda1": %(lambda1)s,
            "lambda2": %(lambda2)s,
            "slack_margin": %(slack_margin)s
          },
          "endpoint": %(endpoint)s,
          "epsilon": %(epsilon)s,
          "gap_ok": %(gap_ok)s,
          "gap_rel": %(gap_rel)s,
          "gap_tol": %(gap_tol)s,
          "kkt": {
            "complementarity_residual": %(complementarity_residual)s,
            "passed": %(passed)s,
            "power_excess": %(power_excess)s,
            "primal_target_residual": %(primal_target_residual)s,
            "q_min_eigenvalue": %(q_min_eigenvalue)s,
            "slack_margin": %(slack_margin)s,
            "tol": %(tol)s
          },
          "primal": %(primal)s,
          "z": %(z)s
        }%(close)s"""
# the tokens that take one word: json's true/false/null and the list's punctuation
_ONE_WORD_TOKENS = ("open", "endpoint", "gap_ok", "passed", "close")
_RECORDS_PLACEHOLDER = "<certificates of %s>"
# a placeholder as _json_text writes it, its key captured
_PLACEHOLDER = re.compile(r'"<certificates of (\w+)>"')


def _word(text: str) -> np.uint64:
    return np.frombuffer(text.encode().ljust(8, _PAD_BYTE), dtype="<u8")[0].astype(np.uint64)


def _record_layout() -> tuple[np.ndarray, dict[str, list[int]]]:
    """A record as one row of padded words, and the columns of each token in it.

    The fixed text (with `KKT_TOL`'s token) fills whole words padded with
    _PAD; a float's token takes three words, as `json_floats` writes it,
    and any other token one.  Each name maps to the first word of each of
    its tokens (slack_margin has two).
    """
    template = _CERTIFICATE_RECORD.replace("%(tol)s", float.__repr__(KKT_TOL))
    parts = re.split(r"%\((\w+)\)s", template)
    row = bytearray()
    columns: dict[str, list[int]] = {}
    for k, part in enumerate(parts):
        if k % 2 == 0:
            row += part.encode()
            row += _PAD_BYTE * (-len(row) % 8)
        else:
            columns.setdefault(part, []).append(len(row) // 8)
            row += _PAD_BYTE * (8 if part in _ONE_WORD_TOKENS else 24)
    return np.frombuffer(row, dtype="<u8").astype(np.uint64), columns


_RECORD_ROW, _RECORD_COLUMNS = _record_layout()
_RECORD_FLOATS = tuple(name for name in _RECORD_COLUMNS if name not in _ONE_WORD_TOKENS)
# each float token's three columns, and the _RECORD_FLOATS entry it shows
_FLOAT_SLOTS = [(name, col) for name in _RECORD_FLOATS for col in _RECORD_COLUMNS[name]]
_FLOAT_WORDS = np.array([col + k for _, col in _FLOAT_SLOTS for k in range(3)])
_FLOAT_SOURCE = np.array([_RECORD_FLOATS.index(name) for name, _ in _FLOAT_SLOTS])
_TRUE, _FALSE, _NULL = _word("true"), _word("false"), _word("null")
_RECORDS_OPEN, _RECORDS_NEXT, _RECORDS_CLOSE = _word("[\n"), _word(",\n"), _word("\n      ]")


def _certificate_records(curve: CertificateCurve, zs, endpoint, rel, tol, ok) -> bytearray:
    """One node's "certificates" list, as _json_text writes it in the document.

    The records are built as one matrix of padded words, a row per record:
    the template's fixed words, the float tokens from one `json_floats`
    call over all columns, and the true/false/null words.  The padding is
    deleted once, as `curve_to_csv` does.
    """
    # imported here: only certify formats these tokens (see json_floats)
    from .json_floats import json_floats

    n = len(zs)
    floats = {"dual_value": curve.dual_value, "gap": curve.gap, "lambda1": curve.lambda1,
              "lambda2": curve.lambda2, "slack_margin": curve.slack_margin,
              "epsilon": curve.epsilon, "gap_rel": rel, "gap_tol": tol,
              "complementarity_residual": curve.complementarity_residual,
              "power_excess": curve.power_excess,
              "primal_target_residual": curve.primal_target_residual,
              "q_min_eigenvalue": curve.q_min_eigenvalue, "primal": curve.primal, "z": zs}
    tokens = json_floats(np.concatenate([floats[name] for name in _RECORD_FLOATS]))
    # the matrix lives in a bytearray, whose translate needs no copy of it
    text = bytearray(8 * n * _RECORD_ROW.size)
    rows = np.frombuffer(text, dtype="<u8").reshape(n, -1)
    rows[:] = _RECORD_ROW
    rows[:, _FLOAT_WORDS] = (tokens.reshape(3, len(_RECORD_FLOATS), n)[:, _FLOAT_SOURCE]
                             .transpose(2, 1, 0).reshape(n, -1))
    for name, flags in (("endpoint", endpoint), ("gap_ok", ok), ("passed", curve.kkt_passed())):
        rows[:, _RECORD_COLUMNS[name][0]] = np.where(flags, _TRUE, _FALSE)
    # the MRT beam at z_max is the eps -> inf limit: no finite loading
    col = _RECORD_COLUMNS["epsilon"][0]
    rows[np.isinf(curve.epsilon), col:col + 3] = (_NULL, _PAD_WORD, _PAD_WORD)
    rows[1:, _RECORD_COLUMNS["open"][0]] = _RECORDS_NEXT
    rows[0, _RECORD_COLUMNS["open"][0]] = _RECORDS_OPEN
    rows[-1, _RECORD_COLUMNS["close"][0]] = _RECORDS_CLOSE
    return text.translate(None, _PAD_BYTE)


def _splice(text: str, rendered: dict[str, bytes]) -> list[bytes]:
    """The pieces of `text` with the JSON string "<certificates of KEY>" replaced by rendered[KEY].

    One pass splits `text` at the placeholders; each key of `rendered` must
    occur exactly once, and no other.  The pieces are written one after
    another, never joined.
    """
    parts = _PLACEHOLDER.split(text)
    keys = parts[1::2]
    if sorted(keys) != sorted(rendered):
        raise AssertionError(f"placeholders of {keys} in the text, lists of {sorted(rendered)}")
    pieces = [part.encode() for part in parts]
    pieces[1::2] = [rendered[key] for key in keys]
    return pieces


def cmd_certify(config: RunConfig, out_dir: Path) -> int:
    """Certificate sweep over the z grid for both nodes; exit 2 on any gap.

    A node that `certify_curves` gives an earlier node's curve (a reciprocal
    link with equal budgets) takes that node's rendered records too: they
    are made once per distinct curve, keyed by the curve object alone.
    `certify_curves` shares a curve only when both nodes' clamped z arrays
    have the same bytes, and clamping a linspace(0, z_max, n) grid changes
    no value, so a shared curve always comes with the same z grid.
    """
    ch = generate_scenario(config.scenario)
    grid = SweepGrid.for_channel(ch, config.grid_n)
    nodes: dict[str, dict] = {}
    records: dict[str, bytearray] = {}
    rendered: dict[int, bytearray] = {}  # by id: the curves stay alive in the loop
    max_rel = {"interior": 0.0, "endpoint": 0.0}
    max_kkt = 0.0
    failed = False
    probs = (node_problem(ch, 1, 0.0), node_problem(ch, 2, 0.0))
    z_arrays = (grid.z1_values(), grid.z2_values())
    for node, zs, curve in zip((1, 2), z_arrays, certify_curves(probs, z_arrays)):
        rel = np.abs(curve.gap) / np.maximum(1.0, curve.primal)
        endpoint = np.zeros(len(zs), dtype=bool)
        endpoint[[0, -1]] = True
        tol = np.where(endpoint, GAP_TOL_ENDPOINT, GAP_TOL_INTERIOR)
        ok = rel <= tol
        failed = failed or not ok.all()
        max_rel["interior"] = max(max_rel["interior"], float(np.max(rel[1:-1], initial=0.0)))
        max_rel["endpoint"] = max(max_rel["endpoint"], float(max(rel[0], rel[-1])))
        max_kkt = max(max_kkt, float(np.max([
            curve.primal_target_residual, curve.power_excess,
            -np.minimum(0.0, curve.q_min_eigenvalue), -np.minimum(0.0, curve.slack_margin),
            curve.complementarity_residual])))
        if id(curve) not in rendered:
            rendered[id(curve)] = _certificate_records(curve, zs, endpoint, rel, tol, ok)
        key = f"node{node}"
        records[key] = rendered[id(curve)]
        nodes[key] = {"certificates": _RECORDS_PLACEHOLDER % key}
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
    with open(out_dir / "certificates.json", "wb") as out:
        out.writelines(_splice(_json_text(doc), records))
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage error, but exit 1 like any invalid input: 2 means a failed gap."""
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
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
    except (ValueError, OSError, json.JSONDecodeError, NumericalError) as exc:
        print(f"fdpareto: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
