"""Run one command; print its wall time, its own peak RSS and its exit code.

Usage: python3 -I -S perfbench/spawn.py <program> [args...]

The driver starts every timed CLI call through this small intermediate
process.  Linux carries a process's peak RSS across fork and exec, so a
child started straight from the driver would report at least the driver's
own RSS as its peak.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    start = perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4 above
    print(json.dumps({"seconds": elapsed, "cpu_seconds": usage.ru_utime + usage.ru_stime,
                      "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
