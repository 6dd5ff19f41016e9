"""Spans and counts taken in the benchmark's own code, around its calls
into each module, plus Spark job and task counts per job group."""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """In-memory spans (name, start, end, parent) and named counts.

    Each span also sets a Spark job group named after it, so that the
    jobs a call starts can be counted with :meth:`spark_counts`.
    """

    def __init__(self, sc=None):
        self.sc = sc
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        if self.sc is not None:
            self.sc.setJobGroup(self.group(rec), name)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()
            if self.sc is not None:
                if parent is None:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                    self.sc.setLocalProperty("spark.job.description", None)
                else:
                    p = self.spans[parent]
                    self.sc.setJobGroup(self.group(p), p["name"])

    @staticmethod
    def group(rec: dict) -> str:
        return f"perfbench-{rec['id']}"

    @staticmethod
    def seconds(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def descendants(self, rec: dict) -> list[dict]:
        """The span and every span opened inside it."""
        out, ids = [], {rec["id"]}
        for s in self.spans[rec["id"]:]:
            if s["id"] in ids or s["parent"] in ids:
                ids.add(s["id"])
                out.append(s)
        return out

    def spark_counts(self, rec: dict) -> tuple[int, int]:
        """(jobs, completed tasks) started under the span or its children."""
        st = self.sc.statusTracker()
        deadline = time.monotonic() + 5.0
        while True:
            jobs = [
                st.getJobInfo(j)
                for s in self.descendants(rec)
                for j in st.getJobIdsForGroup(self.group(s))
            ]
            if all(j is not None and j.status != "RUNNING" for j in jobs):
                break
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        tasks = 0
        for job in jobs:
            for sid in job.stageIds if job is not None else ():
                info = st.getStageInfo(sid)
                if info is not None:
                    tasks += info.numCompletedTasks
        return len(jobs), tasks

    def write(self, path: str, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, f, indent=1)
