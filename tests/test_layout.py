"""Module layout: no trajkf module uses another module's private names, the
package needs nothing at run time but the standard library and numpy, and
the names the benchmark wraps and patches keep working.

A name that starts with one underscore belongs to its own module.  Code that
another module needs gets a public name in the module that owns it (it may
still stay out of ``trajkf.__all__``).
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
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


# The benchmark (perfbench/) wraps and patches these names; a refactor of
# src/ must keep them working or the benchmark's runs fail.
TRACING = SRC.parents[1] / "perfbench" / "tracing.py"


def test_benchmark_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in tracing.CHILD_SPANS
               if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("n_intervals", [1, 3])
def test_pipeline_calls_patched_find_peaks_once(monkeypatch, n_intervals):
    # as the benchmark's reference run records it: one positional argument
    from oracles import brute_peaks

    import trajkf.pipeline

    calls = []
    find_peaks = trajkf.pipeline.find_peaks

    def recording(curve):
        peaks = find_peaks(curve)
        calls.append((curve.selection_values(), peaks, len(curve.offsets)))
        return peaks

    monkeypatch.setattr(trajkf.pipeline, "find_peaks", recording)
    t = np.arange(600) / 60.0
    zigzag = np.column_stack([t, (1 + t) * np.abs((t * 6) % 2 - 1)])
    bounds = np.linspace(0, 599, n_intervals + 1).astype(int)
    intervals = [trajkf.SigningInterval(a + 1, b) for a, b in zip(bounds, bounds[1:])]
    trajkf.extract_keyframes(trajkf.TimedTrajectory(zigzag, 60.0), method=trajkf.MeritMethod.MT,
                             count=5, intervals=intervals if n_intervals > 1 else None)
    assert len(calls) == 1
    values, peaks, segments = calls[0]
    assert segments == n_intervals and len(peaks) > 10
    if n_intervals == 1:
        assert [(p.frame, p.value, p.prominence) for p in peaks] == brute_peaks(values)
