"""Mutation check: deliberate faults in src/ that the named tests must catch.

Each entry of `MUTANTS` names one fault: a file under src/fdpareto, an
exact text of that file, the text that replaces it, and the test files
that should fail once it is in.  Each fault is one that the code was once
written with, or one that its comments argue against.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

For each mutant the runner copies src/ into a temporary directory next to
a copy of tests/ and pyproject.toml, puts the fault in, runs the named
tests there with `pytest -x`, and prints whether they caught it.  A run
that takes longer than TIMEOUT_S is stopped and counted as caught
("killed (timeout)"): a mutant that makes the tests hang is caught too.
It ends with the survivors, the mutants that no named test failed, and
exits 1 if there is one.  It runs whole test files once per mutant, so it
is not part of the tier-1 suite; `test_mutants.py` checks there that each
old text occurs exactly once in src/.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# a named test run of a mutant takes this long at most (the slowest file
# takes about a minute)
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/fdpareto
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root


MUTANTS = (
    Mutant("lambda1-unshrunk", "certify.py",
           "(1.0 / s1) * (1.0 - 2 * (m + 4) * _UNIT_ROUNDOFF)",
           "(1.0 / s1)",
           ("tests/test_certify.py",)),
    Mutant("zmax-loading-2^27", "certify.py",
           "_MRT_LOADING * scale * math.sqrt(var)",
           "2.0**27 * max(1.0, scale)",
           ("tests/test_certify.py", "tests/test_golden.py")),
    Mutant("node-key-without-p", "beamform.py",
           "z.tobytes(),\n                              np.float64(prob.p).tobytes()), i)",
           "z.tobytes()), i)",
           ("tests/test_beamform.py", "tests/test_certify.py")),
    Mutant("node-key-without-z", "beamform.py",
           "prob.h_cross.tobytes(), z.tobytes(),",
           "prob.h_cross.tobytes(),",
           ("tests/test_beamform.py", "tests/test_certify.py")),
    Mutant("escape-widen-zero", "pareto.py",
           "_ESCAPE_WIDEN = 2.0 ** -49",
           "_ESCAPE_WIDEN = 0.0",
           ("tests/test_pareto.py",)),
    Mutant("oracle-executor-never-shut-down", "cli.py",
           "        with ThreadPoolExecutor(1, thread_name_prefix=\"fdpareto-oracle_samples\")"
           " as pool:\n",
           "        pool = ThreadPoolExecutor(1, thread_name_prefix=\"fdpareto-oracle_samples\")\n"
           "        if True:\n",
           ("tests/test_cli.py",)),
    Mutant("ideal-corner-z-zero", "cli.py",
           "z1=node_problem(ch, 1, 0.0).z_max,\n"
           "                                    z2=node_problem(ch, 2, 0.0).z_max)",
           "z1=0.0, z2=0.0)",
           ("tests/test_cli.py", "tests/test_golden.py")),
    Mutant("g12-tie-margin-zero", "pareto.py",
           "_TIE_MARGIN = 5e-4",
           "_TIE_MARGIN = 0.0",
           ("tests/test_pareto.py",)),
    Mutant("g12-seam-guard-dropped", "pareto.py",
           "    ok &= np.abs(y - 5.5e11) < 4.5e11 - 1\n",
           "",
           ("tests/test_pareto.py",)),
    Mutant("g12-zeros-in-kernel", "pareto.py",
           "ok = (x >= 1e-11) & (x < 1e33)",
           "ok = (x >= -0.0) & (x < 1e33)",
           ("tests/test_pareto.py",)),
    Mutant("json-margin-zero", "json_floats.py",
           "_REPR_MARGIN = 1e-6",
           "_REPR_MARGIN = 0.0",
           ("tests/test_pareto.py", "tests/test_cli.py")),
    Mutant("json-even-closure-inverted", "json_floats.py",
           "even = (bits & np.uint64(1)) == 0",
           "even = (bits & np.uint64(1)) != 0",
           ("tests/test_pareto.py", "tests/test_cli.py")),
    Mutant("json-exponent-form-from-e15", "json_floats.py",
           "fixed = (-4 <= e10) & (e10 < 16)",
           "fixed = (-4 <= e10) & (e10 < 15)",
           ("tests/test_pareto.py", "tests/test_cli.py")),
    Mutant("json-power-of-two-guard-dropped", "json_floats.py",
           "    ok &= ((bits & np.uint64(2**52 - 1)) != 0)"
           " | (t - best < 0.5 * h - _REPR_MARGIN)\n",
           "",
           ("tests/test_pareto.py", "tests/test_cli.py")),
    Mutant("json-short-decimal-guard-dropped", "json_floats.py",
           "    ok &= ~in100 | (_TRAILING4.take(g[1], mode=\"clip\") < 2)\n",
           "",
           ("tests/test_pareto.py", "tests/test_cli.py")),
    Mutant("json-power-of-ten-lo-dropped", "json_floats.py",
           "    err += ax * lo\n",
           "",
           ("tests/test_pareto.py", "tests/test_cli.py")),
    Mutant("records-last-close-dropped", "cli.py",
           "    rows[-1, _RECORD_COLUMNS[\"close\"][0]] = _RECORDS_CLOSE\n",
           "",
           ("tests/test_cli.py", "tests/test_golden.py")),
    Mutant("csv-block-one-row-long", "pareto.py",
           "rows = slice(start, start + _CSV_ROWS)",
           "rows = slice(start, start + _CSV_ROWS + 1)",
           ("tests/test_pareto.py",)),
    Mutant("pareto-indices-r1-only-key", "pareto.py",
           "order = np.lexsort((-r2, -r1))",
           "order = np.argsort(-r1, kind=\"stable\")",
           ("tests/test_pareto.py",)),
    Mutant("block-inner-corner", "pareto.py",
           "live = ~dominated(sub1[:-1, 1:], sub2[1:, :-1])",
           "live = ~dominated(sub1[:-1, :-1], sub2[1:, :-1])",
           ("tests/test_pareto.py",)),
    Mutant("valid-curve-check-dropped", "pareto.py",
           "            and all(map(_is_valid_curve, (z1s, z2s, leak1, leak2)))\n",
           "",
           ("tests/test_pareto.py",)),
    Mutant("low-z-test-ge", "beamform.py",
           "loaded = _power_at(c, habs2, z, load) > p",
           "loaded = _power_at(c, habs2, z, load) >= p",
           ("tests/test_beamform.py",)),
    Mutant("bisection-without-freeze", "beamform.py",
           "hi = np.where(active ^ up, mid, hi)",
           "hi = np.where(~up, mid, hi)",
           ("tests/test_beamform.py",)),
)


def _outcome(mutant: Mutant, work: Path) -> str:
    """Put the mutant into a fresh copy of src/ under work and run its named tests.

    Returns "killed" if a named test fails, "killed (timeout)" if the run
    takes longer than TIMEOUT_S, and "SURVIVED" if every test passes.
    """
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "fdpareto" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *mutant.tests], cwd=work, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    if run.returncode not in (0, 1):  # 1: a test failed; anything else: pytest did not run
        raise SystemExit(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return "killed" if run.returncode == 1 else "SURVIVED"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="fdpareto-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        for mutant in MUTANTS:
            if names and mutant.name not in names:
                continue
            outcome = _outcome(mutant, work)
            print(f"{mutant.name}: {outcome}", flush=True)
            if outcome == "SURVIVED":
                survivors.append(mutant.name)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
