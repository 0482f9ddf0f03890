"""The demos and the README's Python quickstart import only names that exist.

No test runs the demos, so a public name removed from the package would
otherwise break them silently.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _sources() -> list[tuple[str, str]]:
    found = [(path.name, path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    found += [(f"README.md-python-{k}", block) for k, block in enumerate(blocks)]
    return found


SOURCES = _sources()


def test_demos_and_quickstart_found():
    names = [name for name, _ in SOURCES]
    assert len([n for n in names if n.endswith(".py")]) >= 5
    assert "README.md-python-0" in names


@pytest.mark.parametrize("text", [text for _, text in SOURCES], ids=[name for name, _ in SOURCES])
def test_imported_names_exist(text):
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cubecover"
               for alias in node.names]
    assert imports, "imports nothing from cubecover"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
