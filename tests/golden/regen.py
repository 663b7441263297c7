"""Golden CLI artefacts: the fixed cases, and a script that rewrites them.

Each case runs one CLI command in-process on a small fixed config (grid 20
unless the case names its own, 200 oracle samples) and keeps every file it
writes under ``tests/golden/<case>/``.  ``versions.json`` records the Python
and numpy versions the files were written with, and numpy's BLAS and the
SIMD extensions it found on the machine: the channel draws and the float
formatting are exact only for one numpy version, and the last bits of
LAPACK results and numpy's vector loops can move with the BLAS kernel and
SIMD level.

Regenerate from the repository root, only in a change that means to move
output bytes (and say which fields moved), every case or only the named ones:

    PYTHONPATH=src python tests/golden/regen.py
    PYTHONPATH=src python tests/golden/regen.py certify_m1 certify_m3
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from fdpareto.cli import main

GOLDEN = Path(__file__).resolve().parent
VERSIONS = GOLDEN / "versions.json"
GRID_N = 20
SAMPLES = 200


def _config(m: int, gamma_db: float = 40.0, beta_db: float = -40.0,
            emit: list[str] | None = None, grid_n: int = GRID_N, **scenario) -> dict:
    cfg = {"scenario": {"m": m, "gamma_db": gamma_db, "beta_db": beta_db,
                        "seed": 7, **scenario},
           "grid_n": grid_n, "samples": SAMPLES}
    if emit is not None:
        cfg["emit"] = emit
    return cfg


# case name -> (CLI arguments before --config, run config)
CASES = {
    "boundary_m1": (["boundary"], _config(1, emit=["oracle"])),
    "boundary_m3_asym": (["boundary"],
                         _config(3, gamma_db=60.0, beta_db=-20.0, p1=2.0, p2=0.5,
                                 symmetric=False, seed=11, emit=["oracle"])),
    "boundary_m8": (["boundary"],
                    _config(8, gamma_db=30.0, beta_db=-30.0, seed=3, emit=["oracle"])),
    # a grid large enough for `boundary` to rate only its live blocks
    "boundary_m3_grid200": (["boundary"], _config(3, emit=["oracle"], grid_n=200)),
    "preset_fig4": (["boundary", "--preset", "fig4"], _config(3)),
    "preset_fig6": (["boundary", "--preset", "fig6"], _config(3)),
    "compare_zf_m3": (["compare-zf"], _config(3)),
    "certify_m1": (["certify"], _config(1)),
    "certify_m3": (["certify"], _config(3)),
    "certify_m8_asym": (["certify"],
                        _config(8, gamma_db=90.0, beta_db=-60.0, p1=2.0, p2=0.5,
                                symmetric=False, seed=11)),
}


def versions() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            # numpy leaves out "found" when it finds no optional feature
            "simd_found": config["SIMD Extensions"].get("found", [])}


def run_case(name: str, work: Path) -> Path:
    """Run one case with its outputs under `work`; return the output directory."""
    command, config = CASES[name]
    cfg = work / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = work / name
    code = main([*command, "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"golden case {name} exited {code}")
    return out


def regenerate(names=()) -> list[str]:
    """Rewrite the named cases (every case when none is named); return their names.

    An unknown name raises ValueError before any file is touched.
    """
    names = list(names) or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError(f"unknown golden cases {unknown}; the cases are {sorted(CASES)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = run_case(name, Path(tmp))
            dest = GOLDEN / name
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(out, dest)
    VERSIONS.write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n")
    return names


if __name__ == "__main__":
    try:
        written = regenerate(sys.argv[1:])
    except ValueError as err:
        sys.exit(f"regen: {err}")
    print(f"wrote {len(written)} golden cases under {GOLDEN}", file=sys.stderr)
