"""In-memory span recorder and the per-layer wrapping of fdpareto.

Spans are recorded around the public functions of each fdpareto module,
from the outside: `instrument` replaces every module attribute through
which a traced function is reached (``pareto.min_leakage`` style imports
included) by a wrapper, and puts the originals back on exit.  Wrappers pass
return values and exceptions through unchanged.

A span is (name, start, end, parent, job).  Spans stay in flat arrays in
memory until `Recorder.write` dumps them at the end of a run; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from fdpareto.certify import gap_tolerance

# (span name, module, function).  eigvals_hermitian and hermitian_eig share
# one span name: both are the Jacobi eigen-solve.
TRACED = (
    ("cli.main", "cli", "main"),
    ("channel.generate_scenario", "channel", "generate_scenario"),
    ("beamform.optimal_weights", "beamform", "optimal_weights"),
    ("rates.rate_pair", "rates", "rate_pair"),
    ("numlin.eig", "numlin", "eigvals_hermitian"),
    ("numlin.eig", "numlin", "hermitian_eig"),
    ("numlin.is_psd", "numlin", "is_psd"),
    ("certify.certify_instance", "certify", "certify_instance"),
    ("certify.dual_certificate", "certify", "dual_certificate"),
    ("certify.dual_value_at", "certify", "dual_value_at"),
    ("certify.kkt_check", "certify", "kkt_check"),
    ("certify.rank_reduce", "certify", "rank_reduce"),
    ("pareto.boundary", "pareto", "boundary"),
    ("pareto.pareto_filter", "pareto", "pareto_filter"),
    ("pareto.domination_oracle", "pareto", "domination_oracle"),
    ("pareto.tdma_boundary", "pareto", "tdma_boundary"),
    ("pareto.equal_rate_point", "pareto", "equal_rate_point"),
    ("pareto.curve_to_csv", "pareto", "curve_to_csv"),
)


class Recorder:
    """Spans of one traced run, plus counters taken at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self._stack: list[int] = []
        self.job_id = -1  # index of the job whose spans are being recorded
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        if not self._stack:  # a root span (cli.main) starts the next job
            self.job_id += 1
        i = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.job.append(self.job_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def observe_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, -math.inf):
            self.maxima[key] = value

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "dur_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["dur_s"] += dur
            agg["self_s"] += dur - child[i]
        return out

    def write(self, path: Path) -> None:
        """Dump spans as gzipped TSV: id, parent, job, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tjob\tname\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t"
                        f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                        f"{self.end[i]!r}\n")


def _wrap(fn, rec: Recorder, name: str, on_result=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(i)
            rec.counters[name + ".errors"] += 1
            raise
        rec.close(i)
        if on_result is not None:
            on_result(rec, args, result)
        return result

    return wrapper


def _on_optimal_weights(rec, args, sol):
    eps = sol.epsilon
    regime = "unloaded" if eps == 0.0 else ("zmax" if math.isinf(eps) else "loaded")
    rec.counters["beamform.regime." + regime] += 1


def _on_certify_instance(rec, args, result):
    inst = args[0]
    _, sol, cert, _ = result
    rel = abs(cert.gap) / max(1.0, sol.leakage)
    rec.observe_max("certify.gap_rel_max", rel)
    rec.observe_max("certify.gap_over_gate", rel / gap_tolerance(inst))


def _on_pareto_filter(rec, args, kept):
    rec.counters["pareto.pareto_filter.in_points"] += len(args[0])
    rec.counters["pareto.pareto_filter.out_points"] += len(kept)


def _on_domination_oracle(rec, args, report):
    rec.counters["pareto.domination_oracle.samples"] += report.samples


def _on_curve_to_csv(rec, args, text):
    rec.counters["pareto.curve_to_csv.bytes"] += len(text.encode())


HOOKS = {
    "beamform.optimal_weights": _on_optimal_weights,
    "certify.certify_instance": _on_certify_instance,
    "pareto.pareto_filter": _on_pareto_filter,
    "pareto.domination_oracle": _on_domination_oracle,
    "pareto.curve_to_csv": _on_curve_to_csv,
}


@contextmanager
def instrument(rec: Recorder):
    """Wrap every TRACED function at every fdpareto module attribute."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "fdpareto" or key.startswith("fdpareto."))]
    replaced = []
    try:
        for span, module, func in TRACED:
            orig = getattr(sys.modules["fdpareto." + module], func)
            wrapper = _wrap(orig, rec, span, HOOKS.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, orig))
        yield rec
    finally:
        for mod, attr, orig in reversed(replaced):
            setattr(mod, attr, orig)


# The per_layer metrics of BENCHMARK.json, in its order.
PER_LAYER = (
    "channel.generate_scenario.calls", "channel.generate_scenario.self_s",
    "beamform.optimal_weights.calls", "beamform.optimal_weights.self_s",
    "beamform.optimal_weights.us_per_call", "beamform.regime.unloaded",
    "beamform.regime.loaded", "beamform.regime.zmax", "beamform.errors",
    "rates.rate_pair.calls", "rates.rate_pair.self_s",
    "numlin.eig.calls", "numlin.eig.self_s", "numlin.is_psd.calls",
    "certify.certify_instance.calls", "certify.certify_instance.self_s",
    "certify.dual_certificate.self_s", "certify.dual_value_at.calls",
    "certify.dual_evals_per_instance", "certify.kkt_check.self_s",
    "certify.rank_reduce.calls", "certify.rank_reduce.self_s",
    "certify.gap_rel_max", "certify.gap_over_gate",
    "pareto.boundary.calls", "pareto.boundary.self_s",
    "pareto.pareto_filter.self_s", "pareto.pareto_filter.in_points",
    "pareto.pareto_filter.out_points", "pareto.pareto_filter.keep_ratio",
    "pareto.domination_oracle.self_s", "pareto.domination_oracle.samples",
    "pareto.tdma_boundary.self_s", "pareto.equal_rate_point.self_s",
    "pareto.curve_to_csv.self_s", "pareto.curve_to_csv.bytes",
    "cli.main.self_s", "cli.bytes_written", "trace.overhead_ratio",
)
PER_JOB = "count/job"
SECONDS_PER_JOB = "s/job"


def layer_metrics(rec: Recorder, tot: dict, jobs: int, overhead_ratio: float,
                  bytes_written: int) -> dict[str, dict]:
    """Per-job layer metrics with units, as in BENCHMARK.json's per_layer.

    `tot` is rec.totals(); `jobs` the number of traced jobs.
    """
    c = rec.counters
    per_job = 1.0 / max(jobs, 1)

    def agg(name, key):
        return tot.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for span in dict.fromkeys(name for name, _, _ in TRACED):
        values[span + ".calls"] = (agg(span, "calls") * per_job, PER_JOB)
        values[span + ".self_s"] = (agg(span, "self_s") * per_job, SECONDS_PER_JOB)
    ow, inst = "beamform.optimal_weights", "certify.certify_instance"
    fin = c["pareto.pareto_filter.in_points"]
    fout = c["pareto.pareto_filter.out_points"]
    values.update({
        ow + ".us_per_call": (1e6 * ratio(agg(ow, "dur_s"), agg(ow, "calls")), "us"),
        "beamform.regime.unloaded": (c["beamform.regime.unloaded"] * per_job, PER_JOB),
        "beamform.regime.loaded": (c["beamform.regime.loaded"] * per_job, PER_JOB),
        "beamform.regime.zmax": (c["beamform.regime.zmax"] * per_job, PER_JOB),
        "beamform.errors": (c[ow + ".errors"] * per_job, PER_JOB),
        "certify.dual_evals_per_instance":
            (ratio(agg("certify.dual_value_at", "calls"), agg(inst, "calls")), "count"),
        "certify.gap_rel_max": (rec.maxima.get("certify.gap_rel_max", 0.0), "ratio"),
        "certify.gap_over_gate": (rec.maxima.get("certify.gap_over_gate", 0.0), "ratio"),
        "pareto.pareto_filter.in_points": (fin * per_job, PER_JOB),
        "pareto.pareto_filter.out_points": (fout * per_job, PER_JOB),
        "pareto.pareto_filter.keep_ratio": (ratio(fout, fin), "ratio"),
        "pareto.domination_oracle.samples":
            (c["pareto.domination_oracle.samples"] * per_job, PER_JOB),
        "pareto.curve_to_csv.bytes": (c["pareto.curve_to_csv.bytes"] * per_job, "bytes/job"),
        "cli.bytes_written": (bytes_written * per_job, "bytes/job"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return {name: {"value": values[name][0], "unit": values[name][1]}
            for name in PER_LAYER}


def layer_shares(tot: dict) -> dict[str, float]:
    """Share of traced job time spent in each layer's own code (self time)."""
    job_time = tot.get("cli.main", {}).get("dur_s", 0.0)
    shares: Counter = Counter()
    for name, agg in tot.items():
        shares[name.split(".")[0]] += agg["self_s"]
    return {layer: s / job_time for layer, s in shares.most_common()} if job_time else {}
