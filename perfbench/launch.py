"""Run one command; print its wall time, peak RSS and exit status as JSON.

Usage: python3 launch.py STDOUT_FILE STDERR_FILE COMMAND...

The bench starts every CLI call through this small stdlib-only process.
Linux carries a process's peak RSS across exec, so a command forked straight
from the bench, which holds numpy and the oracle's data, would report at
least the bench's own size.  Forked from here it reports its own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, err_path, *cmd = sys.argv[1:]
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": os.waitstatus_to_exitcode(status),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
