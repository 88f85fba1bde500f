"""Start one program process, wait for it and report what it used.

    python3 launch.py REPORT_FD COMMAND...

The command inherits this process's stdout and stderr.  When it has ended,
one JSON object goes to file descriptor REPORT_FD: the command's start and
end on the monotonic clock, its exit code, its user plus system CPU (pool
workers it reaped included) and its peak resident set in KiB.

This small process stands between the benchmark and the program because
Linux hands the high-water RSS of the process that calls exec to the new
program: started straight from the benchmark, whose own oracle tables grow
to tens of MiB, every program process would report at least that much.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    report_fd, command = int(sys.argv[1]), sys.argv[2:]
    start = time.monotonic()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {
        "start": start,
        "end": end,
        "returncode": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }
    with os.fdopen(report_fd, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
