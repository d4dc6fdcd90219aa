"""The README's examples run, and its map names functions and tests that exist."""

import re
from pathlib import Path

import twofluid

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_examples_run():
    # the blocks run in order in one namespace, as a reader runs them
    namespace = {}
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_map_names_what_exists():
    # a cell's own bars are escaped, as in |∂xζ|∞
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in README.splitlines()
            if line.startswith("| ") and "::" in line]
    assert len(rows) >= 15
    for _, functions, test in rows:
        # a field read off a function's result is named in parentheses
        for name in re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", functions)):
            assert hasattr(twofluid, name), name
        path, name = re.fullmatch(r" `(\w+\.py)::(\w+)` ", test).groups()
        assert f"def {name}(" in (ROOT / "tests" / path).read_text(encoding="utf-8"), test
