"""Module layout: no trajkf module uses another module's private names, the
package needs nothing at run time but the standard library and numpy, and
the names the benchmark wraps and patches keep working.

A name that starts with one underscore belongs to its own module.  Code that
another module needs gets a public name in the module that owns it (it may
still stay out of ``trajkf.__all__``).
"""

import ast
import importlib.util
import inspect
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


# One JSON layout rule: only json_text and its private workers lay JSON out
JSON_LAYOUT = {("trajectory.py", name) for name in ("json_text", "_spelled", "_json_rows")}


def json_layout_calls(path: Path) -> list[tuple[str, str, int]]:
    """(file, top-level definition, line) of each ``json.dumps`` or ``json.dump``
    call, in either spelling, given ``indent=`` or ``separators=``."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("json.dumps", "json.dump", "dumps", "dump")
                    and {kw.arg for kw in node.keywords} & {"indent", "separators"}):
                found.append((path.name, owner, node.lineno))
    return found


def test_json_is_laid_out_by_one_helper():
    found = [call for path in sorted(SRC.glob("*.py")) for call in json_layout_calls(path)]
    assert found   # the helper's own calls: the checker sees them
    assert [call for call in found if call[:2] not in JSON_LAYOUT] == []


def test_layout_checker_sees_both_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import json\n"
                   "from json import dumps\n"
                   "TEXT = json.dumps({}, indent=2)\n"
                   "def write(obj, fh):\n"
                   "    json.dump(obj, fh, separators=(',', ':'))\n"
                   "    return dumps(obj, indent=None) + json.dumps(obj)\n"
                   "class Writer:\n"
                   "    def text(self, obj):\n"
                   "        return json.dumps(obj, sort_keys=True, indent=4)\n")
    assert json_layout_calls(src) == [("mod.py", "<module>", 3), ("mod.py", "write", 5),
                                      ("mod.py", "write", 6), ("mod.py", "Writer", 9)]


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


def test_plane_fit_reads_laid_out_points_not_intervals():
    # merit.segment_layout lays the intervals out once; fit_planes fits what it is given
    assert "SigningInterval" not in inspect.getsource(trajkf.merit.fit_planes)


def trajkf_modules(path: Path) -> set[str]:
    """The trajkf modules one source file imports, in any form and at any depth;
    ``trajkf`` for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            for name in names:
                head, _, rest = name.partition(".")
                if head == "trajkf":
                    found.add(rest.split(".")[0] or "trajkf")
    return found


def test_evaluation_imports_only_trajectory():
    # scoring reads frame indices, not keyframe sets or curves
    assert trajkf_modules(SRC / "evaluation.py") == {"trajectory"}


def test_module_checker_sees_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\n"
                   "from .trajectory import speed\n"
                   "from . import geometry\n"
                   "import trajkf.merit\n"
                   "def f():\n"
                   "    from trajkf.selection.sub import KeyframeSet\n"
                   "    from trajkf import sweep\n")
    assert trajkf_modules(src) == {"trajectory", "geometry", "merit", "selection", "trajkf"}


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


def trajkf_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from trajkf... import name`` in one source file."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trajkf"
            for alias in node.names]


def unresolved(imports: list[tuple[str, str]]) -> list[str]:
    return [f"{module}.{name}" for module, name in imports
            if not hasattr(importlib.import_module(module), name)]


def test_benchmark_imports_resolve():
    imports = [pair for path in sorted(TRACING.parent.glob("*.py")) for pair in trajkf_imports(path)]
    assert len(imports) > 10 and unresolved(imports) == []
    # methods the benchmark calls on library objects: its reference run and its counter
    assert callable(trajkf.DescriptorCurve.selection_values)
    assert callable(trajkf.SigningInterval.contains)


def test_import_guard_sees_a_missing_name(tmp_path):
    src = tmp_path / "bench.py"
    src.write_text("import trajkf.pipeline\n"
                   "from trajkf.merit import merit_curves, gone\n"
                   "def f():\n"
                   "    from trajkf import extract_keyframes\n")
    imports = trajkf_imports(src)
    assert sorted(imports) == [("trajkf", "extract_keyframes"), ("trajkf.merit", "gone"),
                               ("trajkf.merit", "merit_curves")]
    assert unresolved(imports) == ["trajkf.merit.gone"]


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
