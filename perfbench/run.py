"""fdpareto benchmark: CLI job time on three workloads, with layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-large --seed 1 --seconds 20 --trace 0

A single-threaded closed loop with one client: jobs generated from the seed
run one after another through ``fdpareto.cli.main(argv)`` in this process,
each into a fresh output directory.  The loop starts whole rounds of jobs
(see workloads.py) until ``--seconds`` have passed and the workload's minimum
number of rounds is done.  Every job's artefacts are checked after the timed
phase.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every job twice, back
to back: once plainly and once with every layer wrapped (spans.py), and
prints the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 7
# No new round starts this long after a phase began, whatever min_rounds
# asks, so that a much slower program still finishes within its time limit.
PHASE_CAP_S = 75.0
TAIL_BEYOND = 10

# Set before numpy is first imported, here and in the set-up probes.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
E2E_UNITS = {"job_p50_s": "s", "jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Phase:
    """Jobs run in one loop, with their wall times, exit codes and outputs."""

    work: Path
    jobs: list = field(default_factory=list)       # workloads.Job, in run order
    seconds: list[float] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    outs: list[Path] = field(default_factory=list)
    rounds: int = 0
    peak_rss_mb: float = 0.0  # at the end of the first round
    wrap: Callable[[], ContextManager] = nullcontext  # spans.instrument when traced

    def run(self, cli, job) -> None:
        """Run one job through cli.main in a fresh output directory."""
        index = len(self.jobs)
        out = self.work / "out" / f"job{index:04d}"
        cfg = None
        if job.config is not None:
            cfg = self.work / "cfg" / f"job{index:04d}.json"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(json.dumps(job.config, indent=2))
        argv = job.argv(str(cfg) if cfg else None, str(out))
        gc.collect()
        with self.wrap():
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                print(f"job {index}: {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
            self.seconds.append(time.perf_counter() - t0)
        self.jobs.append(job)
        self.codes.append(rc)
        self.outs.append(out)


def import_program():
    """Import fdpareto from this checkout's src/, never from elsewhere."""
    if not (SRC / "fdpareto" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no fdpareto sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdpareto.cli

    if Path(fdpareto.cli.__file__).resolve().parent != SRC / "fdpareto":
        raise SystemExit(f"benchmark: imported fdpareto from {fdpareto.cli.__file__}")
    return fdpareto.cli


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing fdpareto.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import fdpareto.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # warm the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_loop(cli, rounds, min_rounds: int, seconds: float, phases: list[Phase]) -> None:
    """Start whole rounds until `seconds` have passed and min_rounds are done.

    Each job runs once in every phase, back to back, so that phases compare
    on the same jobs under the same machine conditions; the order of the
    phases alternates from job to job, so neither always runs warm.
    """
    t0 = time.perf_counter()
    done = 0
    for jobs in rounds:
        elapsed = time.perf_counter() - t0
        if done >= min_rounds and elapsed >= seconds or elapsed >= PHASE_CAP_S:
            break
        for job in jobs:
            turn = len(phases[0].jobs) % len(phases)
            for phase in phases[turn:] + phases[:turn]:
                phase.run(cli, job)
        done += 1
        for phase in phases:
            phase.rounds = done
        if done == 1:
            # Later rounds add heap fragmentation left by earlier jobs (the
            # oracle's), which varies from seed to seed; one round is what a
            # process running each job once would see.
            phases[0].peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify(checks, phase: Phase) -> list[list[str]]:
    problems = []
    for i, (job, rc, out) in enumerate(zip(phase.jobs, phase.codes, phase.outs)):
        found = checks.check_job(job, rc, out)
        for p in found:
            print(f"job {i} ({job.command} {job.preset or ''}): {p}", file=sys.stderr)
        problems.append(found)
    return problems


def artefact_digest(phase: Phase, jobs: int) -> str:
    """SHA-256 over the first `jobs` jobs' artefacts (names and bytes)."""
    h = hashlib.sha256()
    for i, out in enumerate(phase.outs[:jobs]):
        for path in sorted(out.glob("*")):
            h.update(f"{i}/{path.name}\0".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def bytes_written(phase: Phase) -> int:
    return sum(p.stat().st_size for out in phase.outs for p in out.glob("*"))


def tail(seconds: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with ten jobs beyond it."""
    n = len(seconds)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(seconds)[k]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(THREAD_ENV)
    cli = import_program()
    import numpy as np

    import checks
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace == 0:
            setup_s = measure_setup()
            phases = [Phase(work)]
        else:
            rec = spans.Recorder()
            phases = [Phase(work / "plain"),
                      Phase(work / "traced", wrap=lambda: spans.instrument(rec))]
        run_loop(cli, wl.rounds(args.seed), wl.min_rounds, args.seconds, phases)
        if args.trace == 1:
            spans_path = WORK / "spans" / f"{wl.name}-seed{args.seed}.tsv.gz"
            rec.write(spans_path)

        problems = [p for ph in phases for p in verify(checks, ph)]
        attempted = len(problems)
        failed = sum(1 for p in problems if p)
        first = phases[0]
        # Every run completes min_rounds, so this prefix is comparable across
        # commits whatever their speed.
        head_jobs = sum(len(r) for r, _ in zip(wl.rounds(args.seed), range(wl.min_rounds)))
        digest = artefact_digest(first, head_jobs)
        print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
              f"{len(first.jobs)} jobs in {first.rounds} rounds")
        print(f"python {platform.python_version()} numpy {np.__version__} "
              f"machine {platform.machine()} {platform.platform()} "
              f"cpus {os.cpu_count()}")
        print(f"artefacts_sha256 {digest} (first {head_jobs} jobs)")
        print(f"fail_ratio {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")

        if args.trace == 0:
            verified = sum(1 for p in problems if not p)
            metrics = {
                "job_p50_s": statistics.median(first.seconds),
                "jobs_per_s": verified / sum(first.seconds),
                "setup_s": setup_s,
                "peak_rss_mb": first.peak_rss_mb,
            }
            t = tail(first.seconds)
            print(f"job_p50_s {metrics['job_p50_s']:.6g} s (n={len(first.seconds)} jobs)")
            if t is None:
                print(f"job_tail_s not reported: {len(first.seconds)} jobs, "
                      f"needs more than {TAIL_BEYOND}")
            else:
                print(f"job_tail_s {t[1]:.6g} s at p{t[0]:.0f} (n={len(first.seconds)} jobs)")
            print(f"jobs_per_s {metrics['jobs_per_s']:.6g} 1/s "
                  f"({verified} verified jobs / {sum(first.seconds):.3f} s of jobs)")
            print(f"setup_s {setup_s:.6g} s (median of {SETUP_REPEATS} fresh interpreters)")
            print(f"peak_rss_mb {first.peak_rss_mb:.6g} MB "
                  f"(first round, {len(next(wl.rounds(args.seed)))} jobs)")
            result = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in metrics.items()}
        else:
            plain, traced = phases
            ratio = statistics.median(traced.seconds) / statistics.median(plain.seconds)
            tot = rec.totals()
            result = spans.layer_metrics(rec, tot, len(traced.jobs), ratio,
                                         bytes_written(traced))
            for layer, share in spans.layer_shares(tot).items():
                print(f"share {layer} {100 * share:.1f}% of traced job time (self)")
            print(f"spans {len(rec.start)} written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
