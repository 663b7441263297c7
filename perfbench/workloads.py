"""Deterministic job lists for the benchmark workloads.

A workload yields rounds of CLI jobs from its seed.  A round holds one job of
each kind the workload mixes, so a run that stops at a round boundary keeps
the same mix whatever its length; that keeps the median job time steady
from seed to seed.  The program only ever sees the config file and argv a
job produces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator


@dataclass(frozen=True)
class Job:
    """One CLI invocation: subcommand, config written to a file, preset."""

    command: str
    config: dict | None = None
    preset: str | None = None

    def argv(self, config_path: str | None, out_dir: str) -> list[str]:
        argv = [self.command]
        if self.config is not None:
            argv += ["--config", config_path]
        if self.preset is not None:
            argv += ["--preset", self.preset]
        return argv + ["--out", out_dir]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int], list[Job]]
    min_rounds: int

    def rounds(self, seed: int) -> Iterator[list[Job]]:
        rng = random.Random(f"{self.name}/{seed}")
        for k in count():
            yield self.make_round(rng, k)


def _scenario(rng: random.Random, **fixed) -> dict:
    spec = {"p1": 1.0, "p2": 1.0, "sigma2": 1.0, "symmetric": True,
            "seed": rng.randrange(2**31)}
    spec.update(fixed)
    return spec


def _sweep_large(rng: random.Random, k: int) -> list[Job]:
    scenario = _scenario(rng, m=3, gamma_db=40.0, beta_db=-40.0)
    return [Job("boundary", {"scenario": scenario, "grid_n": 1000,
                             "samples": 10000, "emit": ["oracle"]})]


def _certify_sweep(rng: random.Random, k: int) -> list[Job]:
    # m=8 (about 23 s a job) is left out to bound the run length.
    ms = [2, 3, 4, 6]
    rng.shuffle(ms)
    jobs = []
    for m in ms:
        scenario = _scenario(rng, m=m,
                             gamma_db=round(rng.uniform(10.0, 80.0), 3),
                             beta_db=round(rng.uniform(-70.0, -20.0), 3),
                             symmetric=rng.random() < 0.5)
        jobs.append(Job("certify", {"scenario": scenario, "grid_n": 200}))
    return jobs


def _mixed_scenario(rng: random.Random, m: int) -> dict:
    unequal = rng.random() < 0.5
    return _scenario(rng, m=m,
                     gamma_db=round(rng.uniform(0.0, 110.0), 3),
                     beta_db=round(rng.uniform(-80.0, 0.0), 3),
                     symmetric=rng.random() < 0.5,
                     p1=round(rng.uniform(0.25, 4.0), 4) if unequal else 1.0,
                     p2=round(rng.uniform(0.25, 4.0), 4) if unequal else 1.0)


def _scenario_mix(rng: random.Random, k: int) -> list[Job]:
    # Every round covers m = 1..8 once for boundary and m = 2, 4, 6, 8 for
    # compare-zf, so job cost does not hinge on which m the seed draws.
    jobs = [Job("boundary", {"scenario": _mixed_scenario(rng, m), "grid_n": 200})
            for m in range(1, 9)]
    jobs += [Job("compare-zf", {"scenario": _mixed_scenario(rng, m), "grid_n": 200})
             for m in (2, 4, 6, 8)]
    jobs.append(Job("boundary", preset="fig4" if k % 2 == 0 else "fig6"))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-large", _sweep_large, min_rounds=2),
        Workload("certify-sweep", _certify_sweep, min_rounds=2),
        Workload("scenario-mix", _scenario_mix, min_rounds=2),
    )
}
