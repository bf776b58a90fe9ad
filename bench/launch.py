"""Start the benchmark's child processes and report their wall time and peak RSS.

The kernel reports a child's peak resident set as at least the resident
set of the process it was forked from, so children are not forked from
the benchmark itself, which grows as it checks outputs. run.py starts this
small process first and sends it one request per child on stdin:

    {"argv": [...], "stdout": path, "stderr": path}

and reads one reply line per child on stdout:

    {"rc": exit code, "wall_s": seconds, "maxrss_kb": peak RSS from wait4}

It exits when its stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            t0 = time.perf_counter()
            pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        reply = {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
