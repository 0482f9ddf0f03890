"""The demos run, and they and the README's Python quickstart import only
names that exist, so a public name removed or changed in the package cannot
break them silently.  No module imports a name it does not use.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cubecover

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a package __init__ imports names only to re-export them
MODULES = sorted(path for part in ("src", "tests", "demos") for path in (ROOT / part).rglob("*.py")
                 if path.name != "__init__.py")


def _sources() -> list[tuple[str, str]]:
    found = [(path.name, path.read_text()) for path in DEMOS]
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


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path, tmp_path):
    src = str(Path(cubecover.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not sorted(imported - used)
