"""Run the benchmark in a child process and leave no process behind.

Spark's JVM starts Python worker daemons, which end a little after the
JVM does, and helper processes can outlive the process that started
them. The supervisor makes itself the reaper of every orphan below it
(Linux ``PR_SET_CHILD_SUBREAPER``), so such processes become its own
children rather than init's. After the benchmark process ends, it stops
whatever is left below it and waits for each process to end.
"""
from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: A run that has not ended by then is stopped (runs take about a minute).
TIMEOUT_S = 170
#: Time between SIGTERM and SIGKILL for what is left after a run.
GRACE_S = 5.0


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _descendants(root: int) -> list[int]:
    """Every process below ``root``, zombies included, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, stack = [], [root]
    while stack:
        for pid in children.get(stack.pop(), ()):
            out.append(pid)
            stack.append(pid)
    return out


def _reap() -> bool:
    """Reap every child that has ended; return whether any is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def stop_all() -> None:
    """SIGTERM every process below this one, SIGKILL what is left after
    ``GRACE_S``, and return once each has ended and been reaped."""
    me = os.getpid()
    kill_at = time.monotonic() + GRACE_S
    termed: set[int] = set()
    while True:
        left = _reap()
        procs = _descendants(me)
        if not procs and not left:
            return
        late = time.monotonic() > kill_at
        for pid in procs:
            if pid in termed and not late:
                continue
            try:
                os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
            except ProcessLookupError:
                pass
            termed.add(pid)
        time.sleep(0.05)


def run(cmd: list[str], env: dict) -> int:
    """Run ``cmd`` to its end and return its exit code (1 if it had to be
    stopped). Every process it started has ended when this returns."""
    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(cmd, env=env)
    code = 1
    try:
        code = child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] run did not end within {TIMEOUT_S} s; stopping it",
              file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        stop_all()
        child.returncode = code
    return code if code >= 0 else 128 - code
