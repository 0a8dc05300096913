"""Spans for the traced run, the layer metrics derived from them, and the
untimed counting and import-time probes.

The wrappers are installed on the module attributes the pipeline looks up
(``trajkf.pipeline.merit_curve``, ``trajkf.merit.fit_plane``, ...) only for
the duration of a traced pass and are removed afterwards, so untraced
passes run the library exactly as the CLI does.
"""

from __future__ import annotations

import itertools
import re
import subprocess
from contextlib import contextmanager
from time import perf_counter

import trajkf.evaluation
import trajkf.geometry
import trajkf.merit
import trajkf.pipeline
import trajkf.selection
from trajkf.geometry import BRANCH_PLANAR
from trajkf.trajectory import SigningInterval

# (module, attribute, span name, note) for every child span of the traced
# run; ``note`` keeps the one fact a layer metric needs from the result.
CHILD_SPANS = (
    (trajkf.pipeline, "gaussian_smooth", "trajectory.smooth", None),
    (trajkf.pipeline, "default_speed_threshold", "selection.threshold", None),
    (trajkf.pipeline, "detect_intervals", "selection.detect", None),
    (trajkf.pipeline, "differentiate", "trajectory.differentiate", None),
    (trajkf.selection, "differentiate", "trajectory.differentiate", None),
    (trajkf.merit, "differentiate", "trajectory.differentiate", None),
    (trajkf.pipeline, "merit_curve", "merit.curve",
     lambda curve: curve.branch == BRANCH_PLANAR),
    (trajkf.merit, "fit_plane", "planarity.fit", None),
    (trajkf.merit, "project_to_plane", "planarity.project", None),
    (trajkf.geometry, "curvature_t", "geometry.descriptor", None),
    (trajkf.geometry, "curvature_s", "geometry.descriptor", None),
    (trajkf.geometry, "torsion_t", "geometry.descriptor", None),
    (trajkf.pipeline, "find_peaks", "selection.peaks", len),
    (trajkf.pipeline, "select_keyframes", "selection.select",
     lambda keys: len(keys.frames)),
    (trajkf.evaluation, "score", "evaluation.score", None),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id, result note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0

    def _open(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None,
               self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn, note=None):
        def timed(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[5] = note(result)
                return result
            finally:
                self._close(rec)
        return timed

    @contextmanager
    def installed(self):
        """Wrap every CHILD_SPANS attribute for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in CHILD_SPANS]
        try:
            for (mod, attr, name, note), (_, _, fn) in zip(CHILD_SPANS, saved):
                setattr(mod, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r, _ in self.spans]


def layer_metrics(spans: list[list], run_id: int) -> dict[str, float]:
    """Per-layer totals, self times and counts of one traced pass."""
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == run_id]
    child_time: dict[int, float] = {}
    for _, (_, start, end, parent, _, _) in mine:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list] = {}
    for i, (name, start, end, _, _, note) in mine:
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        notes.setdefault(name, []).append(note)

    def t(name):
        return total.get(name, 0.0)

    candidates = sum(notes.get("selection.peaks", []))
    chosen = sum(notes.get("selection.select", []))
    planar = notes.get("merit.curve", [])
    return {
        "trajectory.load_s": t("trajectory.load"),
        "trajectory.smooth_s": t("trajectory.smooth"),
        "trajectory.differentiate_s": t("trajectory.differentiate"),
        "trajectory.differentiate_calls": calls.get("trajectory.differentiate", 0),
        "merit.curve_s": t("merit.curve"),
        "merit.self_s": self_time.get("merit.curve", 0.0),
        "merit.calls": calls.get("merit.curve", 0),
        "merit.planar_share": sum(planar) / len(planar) if planar else 0.0,
        "planarity.fit_s": t("planarity.fit"),
        "planarity.fit_calls": calls.get("planarity.fit", 0),
        "planarity.project_s": t("planarity.project"),
        "geometry.descriptor_s": t("geometry.descriptor"),
        "geometry.descriptor_calls": calls.get("geometry.descriptor", 0),
        "selection.threshold_s": t("selection.threshold"),
        "selection.detect_s": t("selection.detect"),
        "selection.peaks_s": t("selection.peaks"),
        "selection.peaks_calls": calls.get("selection.peaks", 0),
        "selection.candidates": candidates,
        "selection.select_s": t("selection.select"),
        "selection.chosen_per_candidate": chosen / candidates if candidates else 0.0,
        "pipeline.extract_s": t("pipeline.extract"),
        "pipeline.self_s": self_time.get("pipeline.extract", 0.0),
        "selection.json_s": t("selection.json"),
        "evaluation.sweep_s": t("evaluation.sweep"),
        "evaluation.score_s": t("evaluation.score"),
        "evaluation.score_calls": calls.get("evaluation.score", 0),
        "evaluation.write_s": t("evaluation.write"),
    }


def count_interval_checks(fn) -> int:
    """Run ``fn()`` with SigningInterval.contains counted; return the count.

    A separate, untimed pass: wrapping tens of millions of calls would swamp
    the traced timings.
    """
    original = SigningInterval.contains
    counter = itertools.count()

    def contains(self, frame, _tick=counter.__next__, _orig=original):
        _tick()
        return _orig(self, frame)

    SigningInterval.contains = contains
    try:
        fn()
    finally:
        SigningInterval.contains = original
    return next(counter)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def scipy_import_seconds(importtime_stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime.

    The output lists each module after the modules it imported, indented two
    spaces per level; read backwards, every parent precedes its children.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, module, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not any(inside for _, inside in stack):
            total_us += cumulative
        stack.append((depth, is_scipy))
    return total_us / 1e6


def importtime_probe(python: str, env: dict, cwd, timeout: float) -> float:
    """Seconds spent importing scipy in a fresh `import trajkf.cli`."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import trajkf.cli"],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout, check=True)
    return scipy_import_seconds(proc.stderr)
