"""Peak resident memory of one miner call, in a process that does
nothing else.

A child Python process (this file, run as a script) reads one pickled
job on its standard input, rebuilds the sequence database from ``D_SEQ``
rows, reads its resident set size, runs one miner and reads the
operating system's peak resident set size (``VmHWM``). It writes the
peak minus the resident size at the start of the call, and the patterns,
pickled to its standard output. No ``tracemalloc``.

The children are plain subprocesses, not ``multiprocessing`` ones: a
``spawn`` context also starts a resource-tracker process that ends only
after the benchmark itself has exited.
"""
from __future__ import annotations

import gc
import pickle
import subprocess
import sys


def _status_kib(field: str) -> int:
    """A ``kB`` field of ``/proc/self/status``, e.g. VmRSS or VmHWM."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _child(rows, n_seq, cfg_kwargs, edges):
    from repro.core import ahtpgm, htpgm
    from repro.core.seqdb import SequenceDatabase

    db = SequenceDatabase.from_rows(rows, n_seq=n_seq)
    del rows
    cfg = htpgm.MiningConfig(**cfg_kwargs)
    graph = None
    if edges is not None:
        edge_set = {frozenset(e) for e in edges}
        graph = ahtpgm.CorrelationGraph(
            mu=0.0, edges=edge_set, variables={v for e in edge_set for v in e}
        )
    gc.collect()
    start = _status_kib("VmRSS")
    if graph is None:
        result = htpgm.mine(db, cfg)
    else:
        result = ahtpgm.mine_approx(db, graph, cfg)
    # VmHWM is the peak of this process image. getrusage's ru_maxrss
    # would not do: it carries the parent's peak across fork and exec.
    peak = _status_kib("VmHWM")
    return (peak - start) / 1024, result.patterns


def peak_mib(jobs: list[tuple], meanwhile=None):
    """Run each ``(rows, n_seq, cfg_kwargs, edges)`` job in its own child.

    ``edges=None`` runs ``htpgm.mine``; a list of variable pairs runs
    ``ahtpgm.mine_approx`` on that correlation graph. The children run
    side by side, since each one's memory is its own, and ``meanwhile()``
    runs in this process until they end. Returns the list of
    ``(added peak MiB, patterns)`` per job, in order, and the result of
    ``meanwhile()``. Every child has ended when this returns or raises.
    """
    procs = []
    try:
        for job in jobs:
            p = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
            procs.append(p)
            with p.stdin:
                pickle.dump(job, p.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        extra = meanwhile() if meanwhile is not None else None
        out = []
        for p in procs:
            data = p.stdout.read()
            if p.wait() != 0:
                raise RuntimeError(f"memory child exited with {p.returncode}")
            out.append(pickle.loads(data))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            if p.stdout is not None:
                p.stdout.close()
    return out, extra


if __name__ == "__main__":
    job = pickle.load(sys.stdin.buffer)
    result = _child(*job)
    sys.stdout.buffer.write(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
