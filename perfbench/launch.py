"""Run a command; print its start, end, exit code and peak RSS as one JSON line.

Usage: python3 -S perfbench/launch.py LOG COMMAND...

Linux charges a new process with the resident-set high-water mark of the
address space it was spawned from.  The benchmark process holds numpy,
scipy and the matrices its checks read, so it starts every child through
this small process; the child's peak RSS is then its own plus the few MB
of this launcher, as when a shell starts it.  The command's output goes
to LOG.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    log, argv = sys.argv[1], sys.argv[2:]
    with open(log, "wb") as fh:
        start = time.time()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "start": start,
        "end": end,
        "returncode": proc.returncode,
        "peak_rss_kib": usage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
