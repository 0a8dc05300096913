"""A fixed CPU task that measures how fast the host runs right now.

Usage: python3 perfbench/calibration.py

The benchmark times this task in the rounds of every end-to-end run and
divides the CLI's CPU times by its median (see driver.py).  On a shared
host, the same work can take from 1x to 2x the CPU time, depending on what
other tenants run on the same cores.  The task mixes the kinds of work the
CLI does (a fresh interpreter importing numpy, CSV parsing with float
conversion, a Python method called in a loop, small numpy array ops) so
that it slows down with the CLI.  It does not use trajkf, so no change to
the program changes its cost.
"""

import csv
import io

import numpy as np


class _Span:
    def __init__(self, start, end):
        self.start, self.end = start, end

    def contains(self, frame):
        return self.start <= frame <= self.end


def main() -> None:
    text = "\n".join(f"{i},{i * 0.001:.9g},{i * 0.002:.9g},{i * 0.003:.9g}"
                     for i in range(30000))
    rows = [[float(v) for v in row] for row in csv.reader(io.StringIO(text))]
    spans = [_Span(i * 90, i * 90 + 60) for i in range(300)]
    hits = sum(1 for s in spans for f in range(0, 27000, 12) if s.contains(f))
    points = np.asarray(rows)[:, 1:]
    total = 0.0
    for i in range(0, len(points) - 60, 40):
        seg = points[i:i + 60] - points[i:i + 60].mean(axis=0)
        total += float(np.linalg.svd(seg.T @ seg)[1][0])
    if hits <= 0 or total <= 0:
        raise SystemExit("calibration task went wrong")


if __name__ == "__main__":
    main()
