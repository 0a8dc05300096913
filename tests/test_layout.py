"""Module layout: no trajkf module uses another module's private names, and
the package needs nothing at run time but the standard library and numpy.

A name that starts with one underscore belongs to its own module.  Code that
another module needs gets a public name in the module that owns it (it may
still stay out of ``trajkf.__all__``).
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import trajkf

SRC = Path(trajkf.__file__).parent
RUNTIME_IMPORTS = {"numpy", "trajkf"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def cross_module_private_uses(path: Path) -> list[str]:
    """``from .mod import _x`` and ``mod._x`` uses in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package_modules: set[str] = set()   # local names bound to trajkf modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("trajkf")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
                elif (node.level and node.module is None) or node.module == "trajkf":
                    package_modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "trajkf":
                    package_modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in package_modules:
                found.append(f"{path.name}:{node.lineno}: reads {ast.unparse(node)}")
    return sorted(found)


def test_no_private_name_crosses_a_module_boundary():
    found = [use for path in sorted(SRC.glob("*.py")) for use in cross_module_private_uses(path)]
    assert found == []


def test_checker_sees_both_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .trajectory import _float9, speed\n"
                   "from . import geometry\n"
                   "import trajkf.merit\n"
                   "geometry._descriptor_kernel(1)\n"
                   "trajkf.merit._hidden\n"
                   "geometry.curvature_t(1)\n"
                   "self._own\n")
    assert cross_module_private_uses(src) == [
        "mod.py:1: imports _float9",
        "mod.py:4: reads geometry._descriptor_kernel",
        "mod.py:5: reads trajkf.merit._hidden",
    ]


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_package_imports_only_stdlib_and_numpy():
    outside = {f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
               for name in imported_packages(path)
               if name not in sys.stdlib_module_names and name not in RUNTIME_IMPORTS}
    assert outside == set()


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())
    names = [re.match(r"[\w.-]+", dep).group() for dep in pyproject["project"]["dependencies"]]
    assert names == ["numpy"]


def test_import_checker_sees_nested_and_relative_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os.path\n"
                   "from . import geometry\n"
                   "from .trajectory import speed\n"
                   "def f():\n"
                   "    from scipy.interpolate import CubicSpline\n")
    assert imported_packages(src) == {"os", "scipy"}
