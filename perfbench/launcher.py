"""Starts ``cdgraph`` command-line processes and reports on each.

A child inherits the memory high-water mark of the process that starts
it (``ru_maxrss`` from wait4 counts it), so the command-line processes
are started from this small interpreter rather than from run.py, which
holds the workload's inputs and outputs. A bare interpreter is smaller
than any cdgraph process, so the reported peak is the child's own.

Before each child it takes ``PROBES`` host speed probes (speed.py), so
that run.py can report each child's time at the reference speed.

Run as ``python3 -S launcher.py``. Each line on stdin is a JSON request
``{"argv": [...], "stdin": "...", "timeout": seconds}``; each reply line
holds the exit code, stdout, stderr, start and end clock readings, peak
memory and the probes taken before the child.
"""

import json
import os
import signal
import sys
import time

import speed

PROBES = 5


def kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended as the alarm fired
        pass


def run(argv: list, data: str, timeout: int) -> dict:
    in_r, in_w = os.pipe()
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(
        argv[0],
        argv,
        os.environ,
        file_actions=[
            (os.POSIX_SPAWN_DUP2, in_r, 0),
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_DUP2, err_w, 2),
        ],
    )
    for fd in (in_r, out_w, err_w):
        os.close(fd)
    signal.signal(signal.SIGALRM, lambda *_: kill(pid))
    signal.alarm(timeout)
    try:
        with open(in_w, "wb") as pipe:
            pipe.write(data.encode())
    except BrokenPipeError:
        pass
    with open(out_r, "rb") as pipe:
        out = pipe.read()
    with open(err_r, "rb") as pipe:
        err = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    signal.alarm(0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "out": out.decode(errors="replace"),
        "err": err.decode(errors="replace")[-400:],
        "start": start,
        "end": end,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sampler = speed.Sampler()
        for _ in range(PROBES):
            sampler.sample()
        reply = run(request["argv"], request["stdin"], request["timeout"])
        reply["probes"] = [sampler.starts, sampler.seconds]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
