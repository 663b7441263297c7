"""The public surface: every exported name resolves, and README's example runs."""

import re
from pathlib import Path

import fdpareto

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in fdpareto.__all__ if not hasattr(fdpareto, name)]
    assert missing == []


def test_readme_library_example_runs():
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
