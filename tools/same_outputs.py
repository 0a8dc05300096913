"""Check that two checkouts of trajkf write the same files on the benchmark inputs.

    python tools/same_outputs.py PARENT CHANGE

For each checkout, in a fresh interpreter that imports only that checkout's
`src/trajkf` and `perfbench/workloads.py`, every benchmark workload writes its
inputs with `workloads.make_inputs` for seeds 1, 2 and 3, then the CLI runs
`extract` and `evaluate` on them with the arguments `workloads.Inputs`
builds.  Each workload and seed leaves five files: the trajectory, the truth
(annotation) file, the keyframe JSON, the report JSON and the report CSV.
Those `extract` runs use the default method, mt; `extract --method` also
writes a keyframe JSON for each of k2dt, k3dt, k2ds and k3ds on the
`signing_csv` inputs, and for the 2-D methods k2dt and k2ds on the
`zigzag_peaks` inputs.
The JSON clip of `signing_json_pergloss` is also rewritten compact with
`"points"` as its first member, which the loader parses whole rather than in
pieces, and `extract` runs on that copy too.
Each workload's clip is also copied with CR LF line ends and with a UTF-8
byte order mark, which the loaders strip from the bytes before parsing;
`extract` runs on both copies.  A CSV clip is also copied with blank lines
(two after the header, one every 1000 rows) and no final newline, and the
`signing_csv` clip of seed 1 also goes through `extract --sigma 1000`, whose
8001-tap kernel is longer than most batches' spans, so their smoothing
windows are widened to the kernel's length.
Each workload and seed also runs `extract --annotations` with two intervals,
the first and the last 60 samples of the clip, under mt and those methods.
It runs `extract --annotations` once more, under the same methods, with
intervals that cross the merit's batches of laid-out samples: one of 10,000
samples (longer than a batch), five nested around the middle of the clip,
one of them listed twice, and about 300 short ones, many to a batch, which
the longer ones overlap; all are listed out of order.
Three 7-sample clips (a helix, a parabola in a tilted plane and a 2-D
parabola), each also run backwards, go through `extract --sigma 0` with one
interval over the whole clip, under every method that takes their
dimension. The one-sided stencils of the clip ends give the derivatives at
their first and last two samples, and each pick's score reads them.  They
also go through `extract` at the default sigma, whose 13-tap kernel is
longer than the clip.
Then `trajkf synth --a 0.7 --b 0.3 --seed 4` writes each curve kind in
`synthetic.CURVE_KINDS` as CSV and as JSON: a trajectory and an annotation
file each.  That radius and pitch give analytic curvature and torsion with
more than 9 significant digits, so their rounding in the file shows.  The
files of the two checkouts are compared byte for byte; each one that
differs, or exists on one side only, is printed.  Exits 0 when none differs
and 1 otherwise, or when a run fails.  Everything is written to a temporary
directory, removed at the end; the checkouts are only read.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# run in each checkout's interpreter: argv is the output directory
CHILD = """
import dataclasses
import json
import math
import sys
from pathlib import Path

from trajkf import load_annotations
from trajkf.cli import main
from trajkf.synthetic import CURVE_KINDS
from workloads import WORKLOADS, make_inputs

# the other methods, beside the default mt; the zigzag is 2-D, so only the 2-D ones
METHODS = {"signing_csv": ("k2dt", "k3dt", "k2ds", "k3ds"), "zigzag_peaks": ("k2dt", "k2ds")}
out = Path(sys.argv[1])
for name in WORKLOADS:
    for seed in (1, 2, 3):
        work = out / name / f"seed{seed}"
        work.mkdir(parents=True)
        inp = make_inputs(name, seed, None, work)
        keys = work / "keys.json"
        for argv in (inp.extract_argv(keys),
                     inp.evaluate_argv(keys, work / "report.json", work / "report.csv")):
            if main(argv) != 0:
                sys.exit(f"{name} seed {seed}: trajkf {argv[0]} failed")
        for method in METHODS.get(name, ()):
            if main([*inp.extract_argv(work / f"keys-{method}.json"), "--method", method]):
                sys.exit(f"{name} seed {seed}: trajkf extract --method {method} failed")
        if inp.fmt == "json":   # the clip compact with "points" first, which loads whole
            obj = json.loads(inp.traj.read_text())
            first = work / "clip-points-first.json"
            first.write_text(json.dumps({"points": obj.pop("points"), **obj},
                                        separators=(",", ":")))
            keys_first = work / "keys-points-first.json"
            if main(dataclasses.replace(inp, traj=first).extract_argv(keys_first)) != 0:
                sys.exit(f"{name} seed {seed}: trajkf extract on the points-first clip failed")
        # the clip with CR LF line ends, and with a byte order mark, both cut from the bytes
        raw = inp.traj.read_bytes()
        copies = {"crlf": raw.replace(b"\\n", b"\\r\\n"), "bom": b"\\xef\\xbb\\xbf" + raw}
        if inp.fmt == "csv":   # blank lines, two after the header, and no final newline
            lines = raw.split(b"\\n")[:-1]
            copies["blank"] = b"\\n".join([lines[0], b"", b"", *(
                line + b"\\n" * (i % 1000 == 0) for i, line in enumerate(lines[1:], 1))])
        for kind, copy in copies.items():
            path = work / f"clip-{kind}.{inp.fmt}"
            path.write_bytes(copy)
            keys_copy = work / f"keys-{kind}.json"
            if main(dataclasses.replace(inp, traj=path).extract_argv(keys_copy)) != 0:
                sys.exit(f"{name} seed {seed}: trajkf extract on the {kind} clip failed")
        if name == "signing_csv" and seed == 1:   # a kernel longer than most batches' spans
            if main([*inp.extract_argv(work / "keys-sigma1000.json"), "--sigma", "1000"]):
                sys.exit(f"{name} seed {seed}: trajkf extract --sigma 1000 failed")
        # intervals at both ends of the clip, where the one-sided stencils serve
        n = load_annotations(inp.truth).n_frames
        ends = work / "ends.json"
        ends.write_text(json.dumps({"intervals": [{"start": 0, "end": 59},
                                                  {"start": n - 60, "end": n - 1}]}))
        for method in ("mt", *METHODS.get(name, ())):
            argv = ["extract", str(inp.traj), "--annotations", str(ends), "--count", "4",
                    "--method", method, "-o", str(work / f"keys-ends-{method}.json")]
            if main(argv) != 0:
                sys.exit(f"{name} seed {seed}: trajkf extract on the clip ends failed")
        # intervals across the merit's batches of laid-out samples, listed out of order:
        # one longer than a batch, five nested around the middle (one repeated), and
        # about 300 short ones, many to a batch, which the longer ones overlap
        mid = n // 2
        nested = [(max(0, mid - 400 * j), min(n - 1, mid + 400 * j)) for j in range(1, 6)]
        short = [(a, min(n - 1, a + 40 + a % 23)) for a in range(50, n - 1, n // 300)]
        spans = [*short[::2], *nested, (0, min(n - 1, 9999)), *short[1::2], nested[0]]
        batches = work / "batches.json"
        batches.write_text(json.dumps({"intervals": [{"start": a, "end": b} for a, b in spans]}))
        for method in ("mt", *METHODS.get(name, ())):
            argv = ["extract", str(inp.traj), "--annotations", str(batches), "--count", "20",
                    "--method", method, "-o", str(work / f"keys-batches-{method}.json")]
            if main(argv) != 0:
                sys.exit(f"{name} seed {seed}: trajkf extract across merit batches failed")
# 7-sample clips, the fewest third derivatives need, run unsmoothed: every sample is within
# two of an end.  The helix peaks next to both ends; each parabola's pick has its base at
# the first sample, or, run backwards, at the last.  So each score reads an end's stencils.
(out / "short").mkdir()
ann = out / "short" / "whole.json"
ann.write_text(json.dumps({"intervals": [{"start": 0, "end": 6}]}))
a = [1.2 * (k - 3) for k in range(7)]
t = [(k - 2.5) / 3 for k in range(7)]
CLIPS = {"helix": [(math.cos(x), math.sin(x), 0.4 * x) for x in a],
         "tilted": [(x, 0.6 * x * x, 0.8 * x * x) for x in t],
         "parabola": [(x, x * x) for x in t]}
for kind, points in [*CLIPS.items(), *((f"{k}-backwards", p[::-1]) for k, p in CLIPS.items())]:
    path = out / "short" / f"{kind}.csv"
    header = "frame,x,y,z" if len(points[0]) == 3 else "frame,x,y"
    path.write_text("\\n".join([header, *(",".join([str(i), *map(repr, p)])
                                          for i, p in enumerate(points))]) + "\\n")
    for method in ("mt", "k2dt", "k2ds", *(("k3dt", "k3ds") if len(points[0]) == 3 else ())):
        for sigma in ("0", "2"):   # unsmoothed, and the default, whose kernel outgrows the clip
            argv = ["extract", str(path), "--annotations", str(ann), "--count", "2", "--sigma",
                    sigma, "--method", method,
                    "-o", str(out / "short" / f"keys-{kind}-{method}-sigma{sigma}.json")]
            if main(argv) != 0:
                sys.exit(f"trajkf extract --method {method} --sigma {sigma} on the 7-sample "
                         f"{kind} clip failed")
for fmt in ("csv", "json"):
    (out / "synth" / fmt).mkdir(parents=True)
    for kind in CURVE_KINDS:
        argv = ["synth", "--kind", kind, "--a", "0.7", "--b", "0.3", "--seed", "4",
                "--format", fmt, "--out", str(out / "synth" / fmt / kind)]
        if main(argv) != 0:
            sys.exit(f"trajkf synth --kind {kind} --format {fmt} failed")
"""


def write_outputs(checkout: Path, out: Path) -> bool:
    """Run CHILD against ``checkout``, writing under ``out``; whether it succeeded."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(checkout / "src"), str(checkout / "perfbench")])}
    out.mkdir()
    return subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env, cwd=out,
                          stdout=subprocess.DEVNULL).returncode == 0


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for checkout, out in zip((args.parent, args.change), outs):
            if not write_outputs(checkout.resolve(), out):
                print(f"run failed in {checkout}")
                return 1
        names = sorted(files_under(outs[0]) | files_under(outs[1]))
        differ = [name for name in names
                  if not all((out / name).is_file() for out in outs)
                  or not filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names)} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
