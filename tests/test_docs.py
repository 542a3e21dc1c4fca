"""The python code in the docs runs, so the imports it teaches stay true.

README.md and docs/TUTORIAL.md are walkthroughs: their python blocks
run top to bottom in one namespace per file, as a reader pasting them
in order would.  The python blocks of docs/API.md, OBSERVABILITY.md
and RUNTIME.md are fragments over names the prose defines, so only
their ``import`` statements are executed.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def python_blocks(name: str) -> list:
    return _PYTHON_BLOCK.findall((ROOT / name).read_text())


@pytest.mark.parametrize("name", ["README.md", "docs/TUTORIAL.md"])
def test_walkthrough_blocks_run_in_order(name):
    blocks = python_blocks(name)
    assert blocks, f"{name} has no python blocks"
    namespace: dict = {"__name__": "docs"}
    for index, block in enumerate(blocks):
        exec(compile(block, f"{name} (python block {index + 1})", "exec"), namespace)


@pytest.mark.parametrize(
    "name", ["docs/API.md", "docs/OBSERVABILITY.md", "docs/RUNTIME.md"]
)
def test_fragment_imports_resolve(name):
    imports = [
        node
        for block in python_blocks(name)
        for node in ast.walk(ast.parse(block))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports, f"{name} has no python imports"
    for node in imports:
        exec(compile(ast.Module([node], type_ignores=[]), name, "exec"), {})
