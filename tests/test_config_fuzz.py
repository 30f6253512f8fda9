"""Every bundled recipe with one unknown key or one mistyped value exits 2
before it solves anything, with a single `config error:` line."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from travwave.cli import load_recipe, main

COMMANDS = {"table1_col12": "spectrum", "table1_col34": "spectrum", "table2": "spectrum",
            "fig2": "continue", "fig67": "orbital"}


def nodes(value, path=()):
    """(path, value) for every object, list element and leaf below `value`."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def replace(cfg, path, value):
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


@st.composite
def broken_configs(draw):
    recipe = draw(st.sampled_from(sorted(COMMANDS)))
    cfg = load_recipe(recipe)
    found = list(nodes(cfg))
    objects = [(path, node) for path, node in found if isinstance(node, dict)]
    numbers = [path for path, node in found if isinstance(node, (int, float)) and not isinstance(node, bool)]
    booleans = [path for path, node in found if isinstance(node, bool)]
    if draw(st.booleans()):
        path, node = draw(st.sampled_from(objects))
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in node))
        node[key] = draw(st.one_of(st.integers(), st.text(max_size=4), st.booleans()))
    elif booleans and draw(st.booleans()):
        replace(cfg, draw(st.sampled_from(booleans)), draw(st.text(max_size=4)))
    else:
        replace(cfg, draw(st.sampled_from(numbers)), draw(st.one_of(st.text(max_size=4), st.booleans())))
    return recipe, cfg


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(broken_configs())
def test_unknown_key_or_mistyped_value_exits_2(case):
    recipe, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([COMMANDS[recipe], "--config", str(path), "--out", str(Path(tmp) / "run")])
        lines = err.getvalue().splitlines()
        assert code == 2, lines
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert not list(Path(tmp).rglob("summary.json"))
