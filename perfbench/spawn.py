"""Small launcher that runs the benchmark's CLI commands one at a time.

``run.py`` starts it once per run as ``python -I -S spawn.py``.  It is kept
tiny on purpose: on Linux a child's ``ru_maxrss`` starts from the RSS of
the process that spawned it, so this process imports only small built-in
modules, streams each child's stdout into a hash instead of buffering it,
and keeps a constant footprint (about 9 MB, below the ~19 MB of the
smallest CLI command).

Host speed.  On a shared host a core's speed swings by up to ~1.6x within
seconds, following what other tenants run on its hardware siblings; the
command's own CPU time swings with it.  So the launcher pins itself, and
with it every command and pool worker, to one CPU, and every
``PROBE_EVERY_S`` while a command runs it times a fixed pure-Python loop
(the probe) in CPU time on that CPU.  A command's *reference time* is its
wall time with each interval between probes scaled by ``PROBE_REF_NS``
over the probe's time there: the time the command would take on a core
whose probe takes ``PROBE_REF_NS``.  Probe time itself is left out.

Protocol, one line each way per command, until stdin closes:

  in:   <timeout s> TAB <arg> TAB <arg> ...
  out:  <exit code> <wall s> <cpu s> <maxrss KB> <stdout bytes> <sha256 hex>
        <timed out 0|1> <reference wall s> <probes> <median probe ns>
        <hex of the first HEAD_BYTES of stdout>

Each command runs as ``<this python> -m vincular.cli <args>`` in the
current directory with this process's environment; stdin and stderr are
/dev/null.  CPU time and maxrss come from ``os.wait4`` and so include the
pool workers the command reaps.
"""

import _sha256
import os
import select
import sys
import time

HEAD_BYTES = 1 << 14
READ_BYTES = 1 << 16

PROBE_EVERY_S = 0.01
PROBE_LOOPS = 4000
# Probe CPU time on the fast, uncontended state of a 2-vCPU x86-64 cloud
# host with CPython 3.11; one reference second is a second on such a core.
PROBE_REF_NS = 300_000


def probe() -> int:
    """CPU nanoseconds of a fixed pure-Python loop.  CPU time, not wall
    time, so that the command preempting the probe does not count."""
    start = time.thread_time_ns()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.thread_time_ns() - start


def run(timeout: float, argv: list) -> str:
    read_fd, write_fd = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, write_fd, 1),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    probes = [probe()]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "vincular.cli", *argv], os.environ, file_actions=actions
    )
    os.close(write_fd)
    digest = _sha256.sha256()
    head = b""
    size = 0
    timed_out = False
    deadline = start + timeout
    reference = 0.0
    mark = start  # end of the last probe

    def sample(now: float) -> float:
        """Probe, scale the interval since the last probe, return the time after."""
        nonlocal reference
        ns = probe()
        reference += (now - mark) * PROBE_REF_NS * 2 / (probes[-1] + ns)
        probes.append(ns)
        return time.perf_counter()

    while True:
        now = time.perf_counter()
        if now >= deadline:
            os.kill(pid, 9)  # SIGKILL; the signal module would pull in enum
            timed_out = True
            break
        if now - mark >= PROBE_EVERY_S:
            mark = sample(now)
            continue
        wait = min(mark + PROBE_EVERY_S, deadline) - now
        if not select.select([read_fd], [], [], wait)[0]:
            continue
        chunk = os.read(read_fd, READ_BYTES)
        if not chunk:
            break
        digest.update(chunk)
        size += len(chunk)
        if len(head) < HEAD_BYTES:
            head += chunk[: HEAD_BYTES - len(head)]
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    sample(end)
    wall = end - start
    os.close(read_fd)
    code = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    probes.sort()
    return (
        f"{code} {wall!r} {cpu!r} {usage.ru_maxrss} {size} {digest.hexdigest()} "
        f"{int(timed_out)} {reference!r} {len(probes)} {probes[len(probes) // 2]} {head.hex()}\n"
    )


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        timeout, *argv = line.rstrip("\n").split("\t")
        sys.stdout.write(run(float(timeout), argv))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
