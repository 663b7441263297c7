"""Every CLI artefact of the golden cases must stay byte-identical.

The cases and the script that rewrites the files live in golden/regen.py.
"""

import json

import pytest

from golden.regen import CASES, GOLDEN, VERSIONS, run_case, versions


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
