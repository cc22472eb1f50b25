"""Runs one child process per request for run.py and reports its wall time
and resource usage.

Linux counts the peak resident size of the process that spawns a child into
the child's ru_maxrss. This process imports almost nothing, so the peak that
wait4 reports for a child is the child's own and not that of run.py.

Protocol, one JSON object per line: a request on stdin {"argv", "out",
"err"} runs argv (argv[0] an absolute path) with stdin from /dev/null and
stdout and stderr to the two files; the reply on stdout is {"wall", "cpu",
"rss_kib", "code"}. The process ends at the end of stdin.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            t0 = time.perf_counter()
            pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                                 file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        reply = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                 "rss_kib": usage.ru_maxrss,
                 "code": os.waitstatus_to_exitcode(status)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
