"""Computations made apart from the program, to check its outputs.

Nothing here calls the modules under test beyond reading their results:
``D_SEQ`` and the NMI matrix are recomputed from the readings with
numpy/pandas, and the temporal patterns are brute-forced in DuckDB SQL
written from the paper's definitions (§III), not from
``relations.relation_sql`` or ``core/enumerate.py``, which every miner
shares.
"""
from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd

from workloads import CITY_LABELS, CITY_PERCENTILES, ENERGY_THRESHOLD

DSEQ_COLUMNS = ["seq_id", "event", "start", "end"]


# ---------------------------------------------------------------------------
# D_SYB and D_SEQ
# ---------------------------------------------------------------------------


def symbols(wl, readings: pd.DataFrame) -> pd.DataFrame:
    """``(var, t, symbol)``: On/Off threshold or per-variable percent-rank bins."""
    out = []
    for var, grp in readings.groupby("var", sort=True):
        grp = grp.sort_values("t")
        v = grp["value"].to_numpy()
        if wl.kind == "energy":
            sym = np.where(v >= ENERGY_THRESHOLD, "On", "Off")
        else:
            # percent_rank = (#values strictly smaller) / (n - 1)
            srt = np.sort(v)
            pr = np.searchsorted(srt, v, side="left") / max(len(v) - 1, 1)
            idx = np.searchsorted(np.asarray(CITY_PERCENTILES), pr, side="right")
            sym = np.asarray(CITY_LABELS, dtype=object)[idx]
        out.append(pd.DataFrame({"var": var, "t": grp["t"].to_numpy(), "symbol": sym}))
    return pd.concat(out, ignore_index=True)


def instances(syms: pd.DataFrame) -> pd.DataFrame:
    """Maximal runs of one symbol over consecutive slots: ``(var, symbol, start, end)``."""
    out = []
    for var, grp in syms.groupby("var", sort=True):
        t = grp["t"].to_numpy()
        s = grp["symbol"].to_numpy()
        new_run = np.ones(len(t), dtype=bool)
        new_run[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1] + 1)
        first = np.nonzero(new_run)[0]
        last = np.append(first[1:], len(t)) - 1
        out.append(
            pd.DataFrame(
                {"var": var, "symbol": s[first], "start": t[first], "end": t[last] + 1}
            )
        )
    return pd.concat(out, ignore_index=True)


def dseq(inst: pd.DataFrame, seq_len: int) -> pd.DataFrame:
    """Non-overlapping windows of ``seq_len`` slots, instances clipped and rebased."""
    total = int(inst["end"].max())
    n_windows = max(1, (total - seq_len) // seq_len + 1)
    rows = []
    for var, sym, start, end in inst.itertuples(index=False, name=None):
        w_first = start // seq_len
        w_last = min(n_windows - 1, (end - 1) // seq_len)
        for w in range(w_first, w_last + 1):
            lo, hi = w * seq_len, (w + 1) * seq_len
            cs, ce = max(start, lo), min(end, hi)
            if ce > cs:
                rows.append((w, f"{var}:{sym}", cs - lo, ce - lo))
    return pd.DataFrame(rows, columns=DSEQ_COLUMNS)


def row_set(pdf: pd.DataFrame) -> list[tuple]:
    """Sorted list of ``D_SEQ`` rows with plain Python values."""
    return sorted(
        (int(a), str(b), int(c), int(d))
        for a, b, c, d in pdf[DSEQ_COLUMNS].itertuples(index=False, name=None)
    )


# ---------------------------------------------------------------------------
# NMI
# ---------------------------------------------------------------------------


def nmi(syms: pd.DataFrame) -> dict[tuple[str, str], float]:
    """Directed NMI(X;Y) = I(X;Y) / H(X) in nats, for every ordered pair X != Y."""
    wide = syms.pivot(index="t", columns="var", values="symbol")
    codes = {v: pd.factorize(wide[v])[0] for v in wide.columns}
    out = {}
    names = sorted(codes)
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            cx, cy = codes[x], codes[y]
            table = np.zeros((cx.max() + 1, cy.max() + 1))
            np.add.at(table, (cx, cy), 1.0)
            p = table / table.sum()
            px, py = p.sum(axis=1), p.sum(axis=0)
            nz = p > 0
            mi = float((p[nz] * np.log(p[nz] / np.outer(px, py)[nz])).sum())
            hx = float(-(px[px > 0] * np.log(px[px > 0])).sum())
            hy = float(-(py[py > 0] * np.log(py[py > 0])).sum())
            out[(x, y)] = mi / hx if hx > 0 else 0.0
            out[(y, x)] = mi / hy if hy > 0 else 0.0
    return out


def graph_edges(nmi_ref: dict, density: float) -> set[frozenset]:
    """Top ``density`` share of pairs by min(NMI(X;Y), NMI(Y;X)), ties kept."""
    score: dict[frozenset, float] = {}
    for (x, y), v in nmi_ref.items():
        key = frozenset((x, y))
        score[key] = min(score.get(key, v), v)
    ranked = sorted(score.values(), reverse=True)
    n_keep = min(len(ranked), int(round(density * len(ranked))))
    if n_keep <= 0:
        return set()
    mu = ranked[n_keep - 1]
    return {k for k, v in score.items() if v >= mu}


# ---------------------------------------------------------------------------
# Pattern oracle
# ---------------------------------------------------------------------------


def _before(a: str, b: str) -> str:
    """Instance ``a`` strictly precedes ``b`` in the order ``(start, -end, event)``."""
    return (
        f"({a}.start < {b}.start OR ({a}.start = {b}.start AND ({a}.\"end\" > {b}.\"end\""
        f" OR ({a}.\"end\" = {b}.\"end\" AND {a}.event < {b}.event))))"
    )


def _rel(a: str, b: str, epsilon: int, d_o: int) -> str:
    """Paper Defs. 3.6-3.8 for ``a`` before ``b``: Follow, then Contain, then Overlap."""
    sa, ea, sb, eb = f"{a}.start", f'{a}."end"', f"{b}.start", f'{b}."end"'
    return (
        f"CASE WHEN {sb} >= {ea} - {epsilon} THEN 'F' "
        f"WHEN {sa} <= {sb} AND {ea} + {epsilon} >= {eb} THEN 'C' "
        f"WHEN {sa} < {sb} AND {ea} + {epsilon} < {eb} "
        f"AND {ea} - {sb} >= {d_o} - {epsilon} THEN 'O' END"
    )


def patterns(
    dseq_pdf: pd.DataFrame, n_seq: int, sigma: float, delta: float,
    epsilon: int, d_o: int,
) -> dict[tuple, int]:
    """Every frequent, confident 2- and 3-event pattern with its support.

    Keys follow ``repro.core.model.PatternKey``: ``(events, relations)``
    with relations in the order (0,1), (0,2), (1,2). Support counts
    distinct sequences; confidence is support over the largest support
    among the pattern's events.
    """
    min_supp = max(1, math.ceil(sigma * n_seq))
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 2")
        con.register("dseq_in", dseq_pdf[DSEQ_COLUMNS])
        con.execute(
            "CREATE TEMP TABLE ev AS SELECT event, count(DISTINCT seq_id) AS supp "
            "FROM dseq_in GROUP BY event"
        )
        # A pattern is never more frequent than its events, so only
        # instances of frequent events can take part.
        con.execute(
            "CREATE TEMP TABLE d AS SELECT i.* FROM dseq_in i JOIN ev USING (event) "
            f"WHERE ev.supp >= {min_supp}"
        )
        r_ab, r_ac, r_bc = (
            _rel("a", "b", epsilon, d_o),
            _rel("a", "c", epsilon, d_o),
            _rel("b", "c", epsilon, d_o),
        )
        pairs = con.execute(
            f"""
            SELECT a.event AS e1, b.event AS e2, r1, count(DISTINCT a.seq_id) AS supp
            FROM d a JOIN d b ON a.seq_id = b.seq_id AND {_before('a', 'b')},
                 LATERAL (SELECT {r_ab} AS r1)
            WHERE r1 IS NOT NULL
            GROUP BY ALL HAVING count(DISTINCT a.seq_id) >= {min_supp}
            """
        ).fetchall()
        triples = con.execute(
            f"""
            SELECT a.event, b.event, c.event, r1, r2, r3, count(DISTINCT a.seq_id)
            FROM d a
            JOIN d b ON a.seq_id = b.seq_id AND {_before('a', 'b')}
            JOIN d c ON b.seq_id = c.seq_id AND {_before('b', 'c')},
                 LATERAL (SELECT {r_ab} AS r1, {r_ac} AS r2, {r_bc} AS r3)
            WHERE r1 IS NOT NULL AND r2 IS NOT NULL AND r3 IS NOT NULL
            GROUP BY ALL HAVING count(DISTINCT a.seq_id) >= {min_supp}
            """
        ).fetchall()
        ev_supp = dict(con.execute("SELECT event, supp FROM ev").fetchall())
    finally:
        con.close()
    out: dict[tuple, int] = {}
    for e1, e2, r1, supp in pairs:
        if supp / max(ev_supp[e1], ev_supp[e2]) >= delta:
            out[((e1, e2), (r1,))] = int(supp)
    for e1, e2, e3, r1, r2, r3, supp in triples:
        if supp / max(ev_supp[e1], ev_supp[e2], ev_supp[e3]) >= delta:
            out[((e1, e2, e3), (r1, r2, r3))] = int(supp)
    return out


def approx_expected(exact: dict, edges: set[frozenset]) -> dict:
    """Alg. 2's output as a property of the exact result.

    The exact patterns whose variables are all vertices of the
    correlation graph and whose distinct variables are pairwise joined by
    an edge; their supports are unchanged.
    """
    vertices = {v for e in edges for v in e}

    def var(event: str) -> str:
        return event.rsplit(":", 1)[0]

    out = {}
    for key, supp in exact.items():
        vs = sorted({var(e) for e in key[0]})
        if not all(v in vertices for v in vs):
            continue
        if all(frozenset((x, y)) in edges for i, x in enumerate(vs) for y in vs[i + 1 :]):
            out[key] = supp
    return out
