"""Helper process that runs benchmark commands and reports exit, time and RSS.

Usage: python3 -S perfbench/spawner.py, fed one JSON request per line on
stdin: ``{"argv": [...], "out": PATH, "err": PATH, "timeout": SECONDS}``.
It answers each with one JSON line ``{"status": CODE, "wall_s": SECONDS,
"maxrss_kib": KIB}``; ``status`` is null when the command was killed at its
timeout.  It exits at the end of its input.

Linux counts the memory of the process that spawned a command into that
command's max RSS.  The benchmark itself is larger than an ``ellcy``
process, so commands are spawned from here, where little is imported, and
their max RSS is their own.
"""

import json
import os
import signal
import sys
import time

_child = 0
_expired = False


def _expire(signum, frame):
    global _expired
    try:
        os.kill(_child, signal.SIGKILL)
        _expired = True
    except ProcessLookupError:
        pass


def run(argv, out, err, timeout):
    """Run argv with stdout and stderr to files; wall time spawn to exit."""
    global _child, _expired
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out, create, 0o600),
               (os.POSIX_SPAWN_OPEN, 2, err, create, 0o600)]
    _expired = False
    start = time.perf_counter()
    _child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(_child, 0)
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    code = os.waitstatus_to_exitcode(status)
    killed = _expired and code == -signal.SIGKILL
    return {"status": None if killed else code, "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss}


def main():
    signal.signal(signal.SIGALRM, _expire)
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["out"], req["err"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
