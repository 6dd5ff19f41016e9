"""One benchmark run of one workload.

Untraced (``--trace 0``): set up, measure the miners' peak memory in
child processes while the references are computed, then time whole
rounds of the five pipeline steps until the run time is used up,
checking every output. Traced (``--trace 1``): the same set-up, then
passes that record per-layer spans and counts.
"""
from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict

from pyspark.sql import SparkSession

from repro.core import ahtpgm, distributed, htpgm, mi
from repro.core.events import to_instances
from repro.core.seqdb import DSEQ_COLUMNS, SequenceDatabase
from repro.core.sequences import split_sequences

import memory
import reference
import workloads
from tracing import Tracer

#: Fixed Spark parallelism, so that figures taken on different machines
#: use the same number of cores (at most what the machine has).
SPARK_CORES = min(2, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 4
#: Every untraced run times at least this many rounds, for medians.
MIN_ROUNDS = 3
#: Transform calls made before any is timed: in some runs the JVM's
#: compiled code for it settles only after four calls on the full input.
TRANSFORM_WARMUP = 4
#: Timed calls of the Spark steps per round; the two short ones vary
#: most from call to call. The in-process miners are called
#: ``Workload.miner_calls`` times per round.
CALLS_PER_ROUND = {"transform": 2, "nmi": 2, "dist": 1}
#: Repetitions of each in-process mining call in the traced mode.
TRACE_REPS = 3
NMI_TOLERANCE = 1e-9


def start_spark(tmp: str) -> SparkSession:
    spark = (
        SparkSession.builder.master(f"local[{SPARK_CORES}]")
        .appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.default.parallelism", str(SPARK_CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.local.dir", tmp)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark: SparkSession) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


class Ops:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, name: str, fn, *args):
        """One timed call: ``(seconds, result)``, or ``None`` if it raised."""
        self.attempted += 1
        gc.collect()
        try:
            t = time.perf_counter()
            out = fn(*args)
            return time.perf_counter() - t, out
        except Exception:
            self.failed += 1
            print(f"[perfbench] {name} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.correct = False
            print(f"[perfbench] check {name} FAILED", file=sys.stderr)


# ---------------------------------------------------------------------------
# The five steps, each a call into the program's public functions
# ---------------------------------------------------------------------------


def transform(wl, readings):
    syb = wl.symbolize(readings)
    inst = to_instances(syb)
    dseq = split_sequences(inst, seq_len=wl.seq_len, overlap=0)
    return syb, SequenceDatabase.from_spark(dseq)


def nmi_graph(wl, syb):
    nmi = mi.nmi_matrix(syb)
    return nmi, ahtpgm.CorrelationGraph.from_nmi(nmi, density=wl.density)


def config(wl, max_k: int = workloads.MAX_K) -> htpgm.MiningConfig:
    return htpgm.MiningConfig(
        sigma=wl.sigma, delta=wl.delta, epsilon=workloads.EPSILON,
        d_o=workloads.D_O, t_max=None, max_k=max_k,
    )


# ---------------------------------------------------------------------------
# References and checks
# ---------------------------------------------------------------------------


class References:
    """Everything the outputs are checked against, computed apart."""

    def __init__(self, wl, readings_pdf):
        syms = reference.symbols(wl, readings_pdf)
        self.dseq = reference.dseq(reference.instances(syms), wl.seq_len)
        self.rows = reference.row_set(self.dseq)
        self.n_seq = int(self.dseq["seq_id"].max()) + 1
        self.nmi = reference.nmi(syms)
        self.edges = reference.graph_edges(self.nmi, wl.density)
        self.patterns = reference.patterns(
            self.dseq, self.n_seq, wl.sigma, wl.delta, workloads.EPSILON, workloads.D_O
        )
        self.approx = reference.approx_expected(self.patterns, self.edges)

    def check_db(self, ops, db) -> None:
        ops.check("dseq", db.n_seq == self.n_seq and reference.row_set(db.to_pandas()) == self.rows)

    def check_nmi(self, ops, nmi, graph) -> None:
        got = {k: float(v) for k, v in nmi["nmi"].items()}
        ok = got.keys() == self.nmi.keys() and all(
            abs(got[k] - self.nmi[k]) <= NMI_TOLERANCE for k in got
        )
        ops.check("nmi", ok and graph.edges == self.edges)


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Steps:
    """The five timed steps of one round, and the outputs they pass on."""

    NAMES = ("transform", "nmi", "exact", "approx", "dist")

    def __init__(self, wl, spark, readings):
        self.wl, self.spark, self.readings = wl, spark, readings
        self.cfg = config(wl)
        self.times = {name: [] for name in self.NAMES}
        self.syb, self.db = transform(wl, readings)
        self.graph = nmi_graph(wl, self.syb)[1]
        self.dseq_df = spark.createDataFrame(self.db.to_pandas())

    def round(self, ops: Ops, refs: References) -> None:
        """Call each step ``CALLS_PER_ROUND`` times, and each in-process
        miner ``miner_calls`` times, and check every output."""
        wl, cfg, t = self.wl, self.cfg, self.times
        for _ in range(CALLS_PER_ROUND["transform"]):
            r = ops.run("transform", transform, wl, self.readings)
            if r:
                t["transform"].append(r[0])
                self.syb, self.db = r[1]
                refs.check_db(ops, self.db)
        for _ in range(CALLS_PER_ROUND["nmi"]):
            r = ops.run("nmi", nmi_graph, wl, self.syb)
            if r:
                t["nmi"].append(r[0])
                self.graph = r[1][1]
                refs.check_nmi(ops, *r[1])
        for _ in range(wl.miner_calls):
            r = ops.run("exact", htpgm.mine, self.db, cfg)
            if r:
                t["exact"].append(r[0])
                ops.check("exact", r[1].patterns == refs.patterns)
        for _ in range(wl.miner_calls):
            r = ops.run("approx", ahtpgm.mine_approx, self.db, self.graph, cfg)
            if r:
                t["approx"].append(r[0])
                ops.check("approx", r[1].patterns == refs.approx)
        for _ in range(CALLS_PER_ROUND["dist"]):
            r = ops.run("dist", distributed.mine_distributed, self.spark, self.dseq_df, cfg)
            if r:
                t["dist"].append(r[0])
                ops.check("dist", r[1].patterns == refs.patterns)


class Setup:
    """Session start, input generation and warm-up.

    The first calls of each Spark step compile JVM code and start Python
    workers. The distributed miner is called once, on two sequences,
    after the first transform call; the transform is called
    ``TRANSFORM_WARMUP`` times and NMI twice before any is timed (see
    README.md). The in-process miners need no warm-up. Warm-up calls are
    neither timed nor counted.
    """

    def __init__(self, wl, tmp: str):
        t0 = time.perf_counter()
        self.spark = start_spark(tmp)
        self.readings_pdf = wl.readings_pandas()
        self.readings = self.spark.createDataFrame(self.readings_pdf).cache()
        self.readings.count()
        t1 = time.perf_counter()
        syb, db = transform(wl, self.readings)
        two = self.spark.createDataFrame(db.to_pandas()).where("seq_id < 2")
        warm = htpgm.MiningConfig(sigma=1.0, delta=1.0, max_k=workloads.MAX_K)
        distributed.mine_distributed(self.spark, two, warm)
        nmi_graph(wl, syb)
        for _ in range(TRANSFORM_WARMUP - 2):
            transform(wl, self.readings)
        self.steps = Steps(wl, self.spark, self.readings)
        self.seconds = time.perf_counter() - t0
        print(f"[perfbench] set-up {t1 - t0:.3f} s + warm-up "
              f"{self.seconds - (t1 - t0):.3f} s", file=sys.stderr)


def untraced(wl, setup: Setup, ops: Ops, seconds: int) -> dict:
    steps = setup.steps
    # The memory children run while this process computes the
    # references; both end before the first timed call.
    peaks, refs = memory_pass(
        wl, steps.db, steps.graph, ops,
        meanwhile=lambda: References(wl, setup.readings_pdf),
    )
    rounds = 0
    t_end = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < t_end:
        rounds += 1
        steps.round(ops, refs)
    times = steps.times
    print(f"[perfbench] {rounds} rounds; times {times}", file=sys.stderr)
    return {
        "setup_s": _metric(setup.seconds, "s"),
        "transform_s": _metric(statistics.median(times["transform"]), "s"),
        "nmi_s": _metric(statistics.median(times["nmi"]), "s"),
        "exact_mine_s": _metric(statistics.median(times["exact"]), "s"),
        "approx_mine_s": _metric(statistics.median(times["approx"]), "s"),
        "dist_mine_s": _metric(statistics.median(times["dist"]), "s"),
        "exact_peak_mib": _metric(peaks[0], "MiB"),
        "approx_peak_mib": _metric(peaks[1], "MiB"),
    }


def memory_pass(wl, db, graph, ops, meanwhile):
    """Peak MiB added by ``htpgm.mine`` and ``ahtpgm.mine_approx``.

    Returns the two peaks and the references that ``meanwhile()``
    computes while the children run; the children's patterns are
    checked against them.
    """
    rows = list(db.to_pandas().itertuples(index=False, name=None))
    kw = asdict(config(wl))
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    ops.attempted += 2
    results, refs = memory.peak_mib(
        [(rows, db.n_seq, kw, None), (rows, db.n_seq, kw, edges)], meanwhile
    )
    (exact_mib, exact_p), (approx_mib, approx_p) = results
    ops.check("exact_memory_pass", exact_p == refs.patterns)
    ops.check("approx_memory_pass", approx_p == refs.approx)
    return (exact_mib, approx_mib), refs


def traced(wl, setup: Setup, refs: References, ops: Ops, tracer: Tracer) -> dict:
    """Per-layer figures. Stages are materialized one by one here."""
    c = tracer.counts
    secs = tracer.seconds
    readings = setup.readings

    # ---- transform, stage by stage --------------------------------
    with tracer.span("transform.staged"):
        with tracer.span("symbolize") as s:
            syb = wl.symbolize(readings).cache()
            c["symbolize.rows"] = syb.count()
        c["symbolize.wall_s"] = secs(s)
        with tracer.span("events") as s:
            inst = to_instances(syb).cache()
            c["events.instances"] = inst.count()
        c["events.wall_s"] = secs(s)
        with tracer.span("sequences") as s:
            dseq = split_sequences(inst, seq_len=wl.seq_len, overlap=0).cache()
            c["sequences.rows"] = dseq.count()
        c["sequences.wall_s"] = secs(s)
        c["sequences.spark_jobs"] = tracer.spark_counts(s)[0]
        with tracer.span("seqdb.collect") as s:
            pdf = dseq.select(*DSEQ_COLUMNS).toPandas()
        c["seqdb.collect_s"] = secs(s)
        with tracer.span("seqdb.build") as s:
            db = SequenceDatabase.from_pandas(pdf)
        c["seqdb.build_s"] = secs(s)
    for df in (dseq, inst, syb):
        df.unpersist()
    c["seqdb.sequences"] = db.n_seq
    c["seqdb.events"] = len(db.bitmaps)
    c["seqdb.instances"] = len(pdf)
    refs.check_db(ops, db)
    dseq_df = setup.spark.createDataFrame(pdf)
    ops.attempted += 5

    # ---- transform as one call, as the untraced run times it ------
    e2e = {}
    cpu = time.process_time()
    with tracer.span("transform") as s:
        syb, db = transform(wl, readings)
    cpu = time.process_time() - cpu
    ops.attempted += 1
    refs.check_db(ops, db)
    e2e["transform_s"] = secs(s)
    c["transform.cpu_s"] = cpu
    c["transform.wait_s"] = secs(s) - cpu
    c["transform.spark_tasks"] = tracer.spark_counts(s)[1]

    # ---- NMI: joint counts, then the per-pair reduction -----------
    joint = mi.joint_symbol_counts
    joint_spans = []

    def traced_joint(symbols):
        with tracer.span("mi.joint_counts") as js:
            out = joint(symbols)
        joint_spans.append(js)
        c["mi.joint_rows"] = len(out)
        return out

    mi.joint_symbol_counts = traced_joint
    try:
        with tracer.span("nmi") as s:
            nmi, graph = nmi_graph(wl, syb)
    finally:
        mi.joint_symbol_counts = joint
    ops.attempted += 1
    refs.check_nmi(ops, nmi, graph)
    e2e["nmi_s"] = secs(s)
    c["mi.joint_counts_s"] = secs(joint_spans[0])
    c["mi.reduce_s"] = secs(s) - secs(joint_spans[0])
    c["mi.pairs"] = len(nmi) // 2
    c["mi.graph_edges"] = len(graph.edges)
    c["mi.spark_tasks"] = tracer.spark_counts(s)[1]

    # ---- in-process miners, level by level ------------------------
    def levels(name, fn, ks):
        best = {}
        for k in ks:
            runs = []
            for _ in range(TRACE_REPS):
                gc.collect()
                ops.attempted += 1
                with tracer.span(f"{name}.max_k={k}") as s:
                    res = fn(config(wl, k))
                runs.append(secs(s))
            best[k] = (statistics.median(runs), res)
        return best

    ex = levels("htpgm", lambda cfg: htpgm.mine(db, cfg), (1, 2, 3))
    res = ex[3][1]
    ops.check("exact", res.patterns == refs.patterns)
    e2e["exact_mine_s"] = ex[3][0]
    c["htpgm.L1_s"] = ex[1][0]
    c["htpgm.L2_s"] = ex[2][0] - ex[1][0]
    c["htpgm.L3_s"] = ex[3][0] - ex[2][0]
    c["htpgm.L2.candidates"] = res.stats["candidates_l2"]
    c["htpgm.L3.candidates"] = res.stats["candidates_k"]
    c["htpgm.enumerated_nodes"] = res.stats["enumerated_nodes"]
    c["htpgm.L2.nodes"] = res.node_counts.get(2, 0)
    c["htpgm.L3.nodes"] = res.node_counts.get(3, 0)
    c["htpgm.L2.patterns"] = res.pattern_counts.get(2, 0)
    c["htpgm.L3.patterns"] = res.pattern_counts.get(3, 0)
    c["htpgm.L3.yield"] = c["htpgm.L3.nodes"] / max(1, c["htpgm.L3.candidates"])

    ap = levels("ahtpgm", lambda cfg: ahtpgm.mine_approx(db, graph, cfg), (1, 2, 3))
    res = ap[3][1]
    ops.check("approx", res.patterns == refs.approx)
    e2e["approx_mine_s"] = ap[3][0]
    c["ahtpgm.L2_s"] = ap[2][0] - ap[1][0]
    c["ahtpgm.L3_s"] = ap[3][0] - ap[2][0]
    c["ahtpgm.events"] = res.node_counts.get(1, 0)
    c["ahtpgm.L3.candidates"] = res.stats["candidates_k"]
    c["ahtpgm.L3.nodes"] = res.node_counts.get(3, 0)
    c["ahtpgm.L3.yield"] = c["ahtpgm.L3.nodes"] / max(1, c["ahtpgm.L3.candidates"])

    # ---- distributed miner, level by level ------------------------
    dist = {}
    for k in (1, 2, 3):
        ops.attempted += 1
        cpu = time.process_time()
        with tracer.span(f"distributed.max_k={k}") as s:
            res = distributed.mine_distributed(setup.spark, dseq_df, config(wl, k))
        dist[k] = (secs(s), time.process_time() - cpu, s)
    ops.check("dist", res.patterns == refs.patterns)
    e2e["dist_mine_s"] = dist[3][0]
    c["distributed.L2_s"] = dist[2][0] - dist[1][0]
    c["distributed.L3_s"] = dist[3][0] - dist[2][0]
    c["distributed.cpu_s"] = dist[3][1]
    c["distributed.wait_s"] = dist[3][0] - dist[3][1]
    jobs, tasks = tracer.spark_counts(dist[3][2])
    c["distributed.spark_jobs"] = jobs
    c["distributed.spark_tasks"] = tasks

    # ---- memory per level, in child processes ---------------------
    rows = list(pdf.itertuples(index=False, name=None))
    with tracer.span("memory"):
        [(l2, _), (l3, l3_patterns)], _ = memory.peak_mib(
            [(rows, db.n_seq, asdict(config(wl, k)), None) for k in (2, 3)]
        )
    ops.attempted += 2
    ops.check("exact_memory_pass", l3_patterns == refs.patterns)
    c["htpgm.L2_peak_mib"] = l2
    c["htpgm.L3_peak_mib"] = l3
    return e2e


PER_LAYER_UNITS = {
    "_s": "s", "_mib": "MiB", ".yield": "ratio",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"
