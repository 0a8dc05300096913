"""Benchmark for `trajkf extract` and `trajkf evaluate`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload signing_csv --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the real CLI runs as sequential subprocesses (a fresh
`import trajkf.cli`, then `extract`, then `evaluate`, repeated until
``--seconds`` is spent) and the end-to-end metrics are reported.  With
``--trace 1`` the same public library calls run in this process, timed layer
by layer, and the per-layer metrics are reported.  Either way the outputs
are checked against an in-process reference run and the brute-force oracles
in tests/oracles.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record (samples,
provenance, spans) goes to perfbench/out/.  No threads, no parallel
subprocesses.  See README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORKLOADS = ("signing_csv", "signing_json_pergloss", "zigzag_peaks")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least 3 CLI rounds (1 traced round) run regardless")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="scaling override: signing segments or zigzag samples")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trajkf" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"perfbench: {SRC / 'trajkf'} or {ORACLES} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = importlib.util.spec_from_file_location("trajkf_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    import driver
    return driver.run(args, oracles)


if __name__ == "__main__":
    sys.exit(main())
