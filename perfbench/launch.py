"""Run one command and record its wall time, peak RSS and exit code.

    python3 launch.py RESULT ARGV...

The benchmark starts every measured process through this small interpreter
rather than forking it from its own, larger one: Linux charges a child the
parent's peak RSS up to the child's exec, which would hide the program's own
peak. The peak reported is that of the command and its waited-for
descendants (``wait4`` of the command). RESULT receives a JSON object.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as out:
        json.dump({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                   "exit": proc.returncode}, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
