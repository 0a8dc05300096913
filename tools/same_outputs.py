"""Check that two checkouts of trajkf write the same files on the benchmark inputs.

    python tools/same_outputs.py PARENT CHANGE

For each checkout, in a fresh interpreter that imports only that checkout's
`src/trajkf` and `perfbench/workloads.py`, every benchmark workload writes its
inputs with `workloads.make_inputs` for seeds 1, 2 and 3, then the CLI runs
`extract` and `evaluate` on them with the arguments `workloads.Inputs`
builds.  Each workload and seed leaves five files: the trajectory, the truth
(annotation) file, the keyframe JSON, the report JSON and the report CSV.
The files of the two checkouts are compared byte for byte; each one that
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
import sys
from pathlib import Path

from trajkf.cli import main
from workloads import WORKLOADS, make_inputs

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
"""


def write_outputs(checkout: Path, out: Path) -> bool:
    """Run CHILD against ``checkout``, writing under ``out``; whether it succeeded."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(checkout / "src"), str(checkout / "perfbench")])}
    out.mkdir()
    return subprocess.run([sys.executable, "-c", CHILD, str(out)],
                          env=env, cwd=out).returncode == 0


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
