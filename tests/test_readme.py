"""The README's examples run, its map names functions and tests that exist,
and each primitive it lists as mapping rows maps every row of a stack."""

import re
from pathlib import Path

import numpy as np
import pytest

import twofluid
from twofluid.spectral import _deflate, fourier_interpolate
from conftest import make_state

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
ROW_MAPS_LISTED = re.findall(r"`(\w+)`", re.search(r"A primitive that maps rows \((.*?)\)",
                                                   README, re.S).group(1))
GRID = twofluid.PeriodicGrid(16)
STATE = make_state(GRID, 0.3 * np.cos(GRID.nodes), np.sin(GRID.nodes), n_z=8)
# a call of each primitive that maps rows, on the grid and state above
ROW_MAPS = {
    "apply_multiplier": lambda u: twofluid.apply_multiplier(GRID, lambda k: 1j * k, u),
    "deriv": lambda u: twofluid.deriv(GRID, u),
    "antideriv": lambda u: twofluid.antideriv(GRID, u),
    "dealias": lambda u: twofluid.dealias(GRID, u),
    "fourier_interpolate": lambda u: fourier_interpolate(GRID, u, 32),
    "dn_apply": lambda u: twofluid.dn_apply(STATE.layer(+1), u),
    "apply_g_tilde": lambda u: twofluid.apply_g_tilde(STATE, u),
    "apply_j": lambda u: twofluid.apply_j(STATE, u),
    "invert_g_tilde": lambda u: twofluid.invert_g_tilde(STATE, u),
    "solve_neumann": lambda u: STATE.layer(-1).solve_neumann(u),
}


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


@pytest.mark.parametrize("rows", [2, 16])
@pytest.mark.parametrize("name", ROW_MAPS_LISTED)
def test_readme_row_maps_map_each_row_of_a_stack(name, rows):
    # random rows off the gauge, in the range of the Neumann and 𝒢̃ solves;
    # over 50 draws of each size the largest difference was 6.2e-16 (apply_j)
    stack = _deflate(np.random.default_rng(rows).standard_normal((rows, GRID.n)))
    out = ROW_MAPS[name](stack)
    alone = np.array([ROW_MAPS[name](row) for row in stack])
    assert out.shape == alone.shape
    assert np.max(np.abs(out - alone)) <= 2e-15 * np.max(np.abs(alone))
