"""The runtime stays stdlib-only: every module under src/propcheck imports
only propcheck itself and the standard library, and importing the CLI
skips the standard modules that are costly to import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "propcheck"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_roots(tree: ast.AST):
    """The top-level name of every absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_imports_are_stdlib_or_propcheck(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = {
        name
        for name in imported_roots(tree)
        if name != "propcheck" and name not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports non-stdlib modules {sorted(foreign)}"


def test_cli_import_skips_costly_stdlib_modules():
    """A fresh `import propcheck.cli` loads none of `dataclasses`, `inspect`
    or `logging`. `site` may load modules before it, so only the modules
    the import adds count."""
    script = (
        "import sys; before = set(sys.modules); import propcheck.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = set(out.split())
    assert "propcheck.cli" in added
    costly = added & {"dataclasses", "inspect", "logging"}
    assert not costly, f"import propcheck.cli loads {sorted(costly)}"
