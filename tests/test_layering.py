"""Import layering: the pipeline modules import no exact arithmetic and no
text formatting, and no module of the package imports aseries, which only
the identity suites and the benchmark's tracer use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ngonspec

PACKAGE = Path(ngonspec.__file__).parent


def imported(path: Path) -> set:
    """The last part of every module name a source file imports, and every
    name imported from a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.rsplit(".", 1)[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1]
                         for alias in node.names)
    return names


def test_pipeline_modules_import_no_exact_or_text_modules():
    for name in ("roots.py", "spectrum.py"):
        assert not imported(PACKAGE / name) \
            & {"fractions", "aseries", "floattext"}, name


def test_no_package_module_imports_aseries():
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "aseries" in imported(path)] == []


def test_importing_the_cli_leaves_aseries_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ngonspec.cli; print(*map("
         "sys.modules.__contains__, ('ngonspec.cli', 'ngonspec.aseries')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout == "True False\n"
