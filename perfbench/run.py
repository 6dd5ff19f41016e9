"""Benchmark of the FTPMfTS pipeline and its miners.

Run from the root of a checkout::

    python3 perfbench/run.py --workload city-deep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced mode
also writes its spans to ``.perfbench/``. See README.md.

The command runs the benchmark in a child process of its own, under
``supervise.py``, and returns only once every process the run started
has ended.
"""
import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: Set in the environment of the child process that runs the benchmark.
WORKER_ENV = "PERFBENCH_WORKER"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment(tmp: str) -> None:
    """Put ``src`` on the path of this process and of Spark's Python
    workers, and keep every temporary file inside the checkout."""
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--driver-memory 2g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "pyspark-shell"
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no package at {SRC}/repro; run from a full checkout")
    if os.environ.get(WORKER_ENV) != "1":
        import supervise

        env = dict(os.environ, **{WORKER_ENV: "1"})
        return supervise.run([sys.executable, os.path.abspath(__file__), *argv], env)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    prepare_environment(tmp)
    os.makedirs(tmp, exist_ok=True)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp: str) -> int:
    import tempfile

    tempfile.tempdir = tmp
    import harness
    import workloads
    from tracing import Tracer

    wl = workloads.make(args.workload, args.seed)
    ops = harness.Ops()
    setup = harness.Setup(wl, tmp)
    try:
        if args.trace:
            refs = harness.References(wl, setup.readings_pdf)
            tracer = Tracer(setup.spark.sparkContext)
            e2e = harness.traced(wl, setup, refs, ops, tracer)
            path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
            tracer.write(path, workload=wl.name, seed=args.seed,
                         setup_s=setup.seconds, e2e_under_trace=e2e)
            metrics = {
                name: harness._metric(value, harness.per_layer_unit(name))
                for name, value in sorted(tracer.counts.items())
            }
        else:
            metrics = harness.untraced(wl, setup, ops, args.seconds)
    finally:
        harness.stop_spark(setup.spark)
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
