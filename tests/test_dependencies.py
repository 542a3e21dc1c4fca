"""Every third-party module the CLI imports is a declared dependency.

``repro serve`` and every other command start from ``import repro.cli``;
a module it loads that ``pyproject.toml`` does not declare makes a fresh
install fail at startup.  The probe runs in a new interpreter so that
modules other tests imported do not hide the CLI's own imports.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
before = set(sys.modules)
import repro.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared_dependencies() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        _normalise(re.match(r"[A-Za-z0-9._-]+", requirement).group(0))
        for requirement in project["dependencies"]
    }


def test_cli_imports_only_declared_dependencies():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded = json.loads(probe.stdout)
    assert "repro" in loaded
    declared = _declared_dependencies()
    distributions = importlib.metadata.packages_distributions()
    undeclared = [
        module
        for module in loaded
        if module != "repro"
        and module not in sys.stdlib_module_names
        and not any(
            _normalise(dist) in declared
            for dist in distributions.get(module, [module])
        )
    ]
    assert not undeclared, (
        f"repro.cli imports {undeclared}, which pyproject.toml does not "
        "declare in [project] dependencies"
    )
