"""Query side: BM25 top-k over the segmented inverted index.

The analog of the reference's query lifecycle (`SURVEY.md` §3.3):
  - query parse/validate -> ``IndexSearcher._prepare``
    (`KNNQueryBuilder.java:228-281,438-508` — driver-side prep, small)
  - per-segment search    -> ``SegmentSearcher``, run in stateless
    per-segment tasks or on warm ``serve.SearchService`` actors
    (`JVectorReader.search`, `JVectorReader.java:131-212` — S5)
  - bounded top-k heap    -> per-segment heap/argpartition
    (`JVectorKnnCollector.java:16-64` — O1)
  - per-leaf -> global reduce -> driver merge of <= S small k-lists
    (`ResultUtil.reduceToTopK` — A1: partial + final aggregate, NOT a
    global sort)
  - filtered search       -> pre-filter mask over the docs table
    (`KNNQueryBuilder.java:534-539`, bits conversion
    `JVectorReader.java:167-181` — J2)
  - two-pass rescore      -> quantized-norm first pass k' =
    clamp(k*oversample, 100, 10000), exact second pass
    (`RescoreContext.java:17-97` — O2)
  - block-max WAND        -> ``mode="wand"``: per-block score bounds
    pick the posting blocks that can hold a top-k doc, and only those
    are decoded and scored by the one TAAT kernel [Lucene public
    semantics: impacts/BMW; the reference's approx+rerank two-phase is
    the same shape, `JVectorReader.java:154-166`]

Scoring is float64 end-to-end; per-query term contributions are summed in
analyzed term order, so scores are bit-stable across segmentations (the
rank-identity requirement, SURVEY §7 "hard parts").
"""

from __future__ import annotations

import bisect
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from opensearch_jvector_ray.analyze import query_term_weights
from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.functions.scoring import (
    bm25_idf, bm25_tf_part, quantize_doc_len,
)
from opensearch_jvector_ray.postings import (
    decode_blocks, decode_posting_list, decode_positions,
)
from opensearch_jvector_ray.state.manifest import (
    CONFIG_NAME, DOCS_NAME, POSTINGS_NAME, SEGMENTS_DIR, STATS_NAME, read_json,
)


# ---------------------------------------------------------------------------
# per-segment scoring
# ---------------------------------------------------------------------------

def _levenshtein_vec(cands: Sequence[str], q: str) -> np.ndarray:
    """Unit-cost Levenshtein distance from ``q`` to every candidate term
    (insert/delete/substitute; no transposition — transpositions=false in
    Lucene FuzzyQuery terms, and exactly DuckDB's ``levenshtein``).

    The DP is vectorized across CANDIDATES: the python loops run over
    query length × max candidate length (tens of iterations), each step
    a numpy op over the whole candidate array.  Candidates are a pruned
    VOCAB slice (length band + optional prefix range), never corpus rows.
    Distances are codepoint-based on both sides (ASCII-identical to
    DuckDB; the analyzer lowercases before comparison).
    """
    n = len(cands)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    qa = np.array([ord(c) for c in q], dtype=np.int64)
    lens = np.array([len(t) for t in cands], dtype=np.int64)
    lmax = int(lens.max())
    T = np.zeros((n, lmax), dtype=np.int64)
    for j, t in enumerate(cands):            # vocab-slice-sized fill
        T[j, : len(t)] = [ord(c) for c in t]
    prev = np.tile(np.arange(lmax + 1, dtype=np.int64), (n, 1))
    for i in range(1, len(q) + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        sub = (T != qa[i - 1]).astype(np.int64)
        for j in range(1, lmax + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + sub[:, j - 1])
        prev = cur
    return prev[np.arange(n), lens]


def _sig_text_scan(reader: "SegmentReader", sig_sets: dict[str, np.ndarray],
                   n_docs: int, schema: pa.Schema) -> pa.Table | None:
    """significant_text foreground partial [OpenSearch significant_text
    public semantics — significance over the ANALYZED INDEX TERMS of
    the match set, not a stored field]: per query, per term, fg
    doc_count = |postings(term) ∩ match set|, computed by ONE scan of
    the segment's encoded postings — a vocabulary-sized loop whose
    body is a vectorized decode + one boolean-matrix gather for ALL
    queries at once.  Ships (query, term, count) rows with fg > 0 plus
    one fg_tot row per query under the reserved term '' key (the
    analyzer never emits an empty term); nothing match-set- or
    corpus-sized leaves the task.  Cost note: the scan is O(total
    postings) per segment — the same order as building the segment —
    bounded, distributed, and paid only by this agg kind.  Called by
    SegmentSearcher on both the stateless task path and the warm
    serve.SegmentShardActor path."""
    sig_sets = {q: o for q, o in sig_sets.items() if len(o)}
    if not sig_sets:
        return None
    qids = sorted(sig_sets)
    M = np.zeros((len(qids), n_docs), dtype=bool)
    for i, q in enumerate(qids):
        M[i, sig_sets[q]] = True
    out_q: list[str] = []
    out_t: list[str] = []
    out_c: list[int] = []
    for t, row in reader.rows().items():
        o, _ = reader.decode(row)
        cnt = M[:, o].sum(axis=1)
        for j in np.flatnonzero(cnt):
            out_q.append(qids[j])
            out_t.append(t)
            out_c.append(int(cnt[j]))
    for i, q in enumerate(qids):
        out_q.append(q)
        out_t.append("")
        out_c.append(int(M[i].sum()))
    return pa.table({"query_id": out_q, "term": out_t, "doc_count": out_c},
                    schema=schema)


def _int_values(docs: pa.Table, col: str, ords: np.ndarray) -> np.ndarray:
    """A stored column's values at ``ords`` as int64 (the integer
    metric partials: order-free, int64 range assumed and documented
    per wrapper)."""
    return docs[col].take(pa.array(ords)).to_numpy(zero_copy_only=False) \
        .astype(np.int64)


def _take(docs: pa.Table, cols: Sequence[str],
          ords: np.ndarray) -> dict[str, Any]:
    take = pa.array(ords)
    return {c: docs[c].take(take) for c in cols}


_CAL_UNITS = {"month": "M", "day": "D", "hour": "h"}


def _cal_buckets(vals: pa.Array, interval: str) -> np.ndarray:
    """Calendar bucket START per timestamp: exact integer datetime64
    truncation to month/day/hour (the oracle's date_trunc)."""
    v = vals.to_numpy(zero_copy_only=False).astype("datetime64[us]")
    return v.astype(f"datetime64[{_CAL_UNITS[interval]}]") \
        .astype("datetime64[us]")


def _agg_top_hits(agg, docs, ords, scores):
    # per-bucket top-n hit rows: ords/scores arrive already (score desc,
    # key asc) sorted from the radial collector, so a stable cumcount
    # within bucket is a per-bucket head(n)
    bvals = docs[agg["col"]].take(pa.array(ords)) \
        .to_numpy(zero_copy_only=False)
    pos = pd.Series(np.zeros(len(ords), dtype=np.int64)) \
        .groupby(bvals, sort=False).cumcount()
    keep = (pos < agg["n"]).to_numpy()
    return {**_take(docs, [agg["col"], *agg["key_cols"]], ords[keep]),
            "score": scores[keep]}


def _agg_top_metrics(agg, docs, ords, scores):
    # [OpenSearch top_metrics-agg public semantics]: the metric column
    # values of the best n docs by a stored SORT column ((sort dir, key
    # asc) — the global rule; within a segment key-asc == key_rank, or
    # ord for key-sorted build segments).  <= n rows ship per segment;
    # the driver re-merges by the same order.
    tie = (docs["key_rank"].to_numpy(zero_copy_only=False)
           .astype(np.int64)
           if "key_rank" in docs.column_names
           else np.arange(docs.num_rows, dtype=np.int64))
    sv = docs[agg["col"]].take(pa.array(ords)) \
        .to_numpy(zero_copy_only=False)
    if sv.dtype.kind == "M":
        sv = sv.astype("datetime64[us]").astype(np.int64)
    # integer sort cols stay EXACT int64 (a float64 cast would collapse
    # values above 2^53 and drift from the driver's and the oracle's
    # exact integer sorts); floats sort IEEE like SQL
    if sv.dtype.kind != "f":
        sv = sv.astype(np.int64)
    order = np.lexsort((tie[ords], -sv if agg["desc"] else sv))
    return _take(docs, [*agg["key_cols"], agg["col"], *agg["m_cols"]],
                 ords[order[:agg["n"]]])


def _agg_filters(agg, docs, ords, scores):
    # [OpenSearch filters-agg / adjacency_matrix-agg public semantics]:
    # per named filter the count of qualifying docs that ALSO pass it;
    # with ``pairs`` also per filter PAIR the intersection count (key
    # "a&b", names in sorted order).  Only nonzero cells ship — filters
    # zero-fills the grid on the driver, adjacency omits empty buckets.
    masks = agg["_masks"]        # precomputed once per segment
    names = [k for k, _ in agg["filters"]]
    sel = {k: masks[k][ords] for k in names}
    keys, cnts = [], []
    for i, a in enumerate(names):
        cells = [(a, sel[a])]
        if agg.get("pairs"):
            cells += [(f"{a}&{b}", sel[a] & sel[b]) for b in names[i + 1:]]
        for key, m in cells:
            c = int(m.sum())
            if c:
                keys.append(key)
                cnts.append(c)
    return {"filter_key": keys, "doc_count": cnts}


def _agg_t_test(agg, docs, ords, scores):
    # [OpenSearch t_test-agg public semantics, unpaired heteroscedastic
    # (Welch) form]: the match set split by two NAMED structured filters
    # a / b; per side an order-free integer (n, sum, sum-of-squares)
    # triple in ONE row per segment (|v|^2 x doc_count < 2^63 assumed).
    # Every float (means, sample variances, t) derives on the driver
    # from a pinned op chain shared verbatim with the generated SQL.
    masks = agg["_masks"]        # precomputed once per segment
    v = _int_values(docs, agg["col"], ords)
    out: dict[str, list] = {}
    for side, (key, _) in zip("ab", agg["filters"]):
        vs = v[masks[key][ords]]
        out[f"n_{side}"] = [len(vs)]
        out[f"sum_{side}"] = [int(vs.sum())]
        out[f"sos_{side}"] = [int(np.dot(vs, vs))]
    return out


def _agg_string_stats(agg, docs, ords, scores):
    # [OpenSearch string_stats-agg public semantics]: integer (count,
    # min_len, max_len, len_sum) over the non-null values PLUS
    # per-character counts (charset-bounded rows — the entropy
    # combiner).  Lengths are codepoints (pc.utf8_length == SQL length()).
    sv = docs[agg["col"]].take(pa.array(ords)).drop_null()
    lens = pc.utf8_length(sv).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    if not len(lens):
        return None
    cu, cc = np.unique(np.frombuffer("".join(sv.to_pylist())
                                     .encode("utf-32-le"), dtype=np.uint32),
                       return_counts=True)
    pad = [0] * len(cu)
    # row 0 carries the scalar partial; char rows follow
    return {"ch": [-1, *cu.tolist()], "ch_count": [0, *cc.tolist()],
            "doc_count": [len(lens), *pad],
            "len_sum": [int(lens.sum()), *pad],
            "len_min": [int(lens.min()), *pad],
            "len_max": [int(lens.max()), *pad]}


def _agg_matrix(agg, docs, ords, scores):
    # [OpenSearch matrix_stats-agg public semantics, two-field form]:
    # the six int64 moments — order-free (|x*y| x doc_count < 2^63
    # assumed); every float derives at the END from a pinned op chain
    # shared with the generated SQL.
    x = _int_values(docs, agg["col"], ords)
    y = _int_values(docs, agg["col_y"], ords)
    return {"doc_count": [len(x)], "x_sum": [int(x.sum())],
            "y_sum": [int(y.sum())], "xx_sum": [int(np.dot(x, x))],
            "yy_sum": [int(np.dot(y, y))], "xy_sum": [int(np.dot(x, y))]}


def _agg_terms_stats(agg, docs, ords, scores):
    # terms bucket + stats sub-aggregation: per bucket value, integer
    # (count, sum, min, max) of the value column
    b = docs[agg["col"]].take(pa.array(ords)).to_numpy(zero_copy_only=False)
    v = _int_values(docs, agg["val_col"], ords)
    g = (pd.DataFrame({"b": b, "v": v}).groupby("b", sort=False)["v"]
         .agg(doc_count="count", v_sum="sum", v_min="min", v_max="max")
         .reset_index())
    return {agg["col"]: pa.array(g["b"]), "doc_count": g["doc_count"],
            "v_sum": g["v_sum"], "v_min": g["v_min"], "v_max": g["v_max"]}


def _agg_multi_terms(agg, docs, ords, scores):
    # [OpenSearch multi_terms-agg public semantics]: value counts per
    # COMPOSITE key; docs missing ANY key field are skipped (the
    # terms-family rule), counted count_all (row count, never
    # key-column-null-count).
    sub = docs.select(agg["cols"]).take(pa.array(ords)).drop_null()
    vc = sub.group_by(agg["cols"]).aggregate([([], "count_all")])
    return {**{c: vc[c] for c in agg["cols"]}, "doc_count": vc["count_all"]}


def _agg_script(agg, docs, ords, scores):
    # scripted_metric: init/map/combine == the user's map_fn over (docs,
    # qualifying ords, scores), its COMBINED partial pickled so any
    # Python value rides the Arrow fan-out; reduce runs on the driver
    import pickle
    return {"partial": [pickle.dumps(agg["map_fn"](docs, ords, scores))]}


def _agg_sample(agg, docs, ords, scores):
    # [OpenSearch sampler-agg public semantics]: the segment's best n
    # match-set docs by (raw score desc, key asc) — ords arrive sorted
    # that way, so the partial is a head(n) the driver re-merges
    return {**_take(docs, [*agg["key_cols"], agg["col"]], ords[:agg["n"]]),
            "score": scores[:agg["n"]]}


def _agg_count(agg, docs, ords, scores):
    # _count / missing / value_count [OpenSearch public semantics]: the
    # match-set size and how many of its docs have ``col`` PRESENT.
    # Absent = NULL, or '' for string columns — the engine's string
    # sidecars store absent metadata as '' (e.g. transcripts `tool` on
    # non-tool turns); the generated oracles share the rule.  Without a
    # ``col`` every doc counts as present.
    present = len(ords)
    if "col" in agg:
        vals = docs[agg["col"]].take(pa.array(ords))
        present -= vals.null_count
        if pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type):
            present -= int(pc.sum(pc.equal(vals.drop_null(), "")).as_py()
                           or 0)
    return {"doc_count": [len(ords)], "n_present": [present]}


def _agg_tdigest(agg, docs, ords, scores):
    # approximate-percentiles partial [Dunning t-digest, k1 scale]:
    # O(compression) centroids per segment regardless of value
    # cardinality (functions/tdigest.py module docstring)
    import pickle

    from opensearch_jvector_ray.functions import tdigest as td
    v = docs[agg["col"]].take(pa.array(ords)) \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    return {"partial": [pickle.dumps(td.from_values(v, agg["compression"]))]}


def _agg_mg_terms(agg, docs, ords, scores):
    # approximate heavy-hitters partial [Misra-Gries, mergeable-summaries
    # rule — functions/heavyhitters.py]: O(capacity) counters per segment
    # regardless of field cardinality
    import pickle

    from opensearch_jvector_ray.functions import heavyhitters as hh
    v = docs[agg["col"]].take(pa.array(ords)).drop_null()
    summ = hh.mg_from_values(v.to_numpy(zero_copy_only=False),
                             agg["capacity"])
    return {"partial": [pickle.dumps((summ, len(v)))]}


def _agg_range(agg, docs, ords, scores):
    # counts per [lo, hi) caller-keyed range, zero rows elided — the
    # driver zero-fills the query x range grid
    v = docs[agg["col"]].take(pa.array(ords)) \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    keys, cnts = [], []
    for rkey, lo, hi in agg["ranges"]:
        m = np.ones(len(v), dtype=bool)
        if lo is not None:
            m &= v >= lo
        if hi is not None:
            m &= v < hi
        c = int(m.sum())
        if c:
            keys.append(rkey)
            cnts.append(c)
    return {"range_key": keys, "doc_count": cnts}


def _agg_val_bucket(agg, docs, ords, scores):
    # cumulative_cardinality [OpenSearch pipeline-agg public semantics,
    # served EXACT]: per (field value, calendar bucket) doc counts; the
    # driver derives the per-bucket counts (nulls kept as their own key)
    # AND each value's FIRST bucket from the same partial
    take = pa.array(ords)
    b = _cal_buckets(docs[agg["col"]].take(take), agg["interval"])
    fv = docs[agg["val_col"]].take(take).to_numpy(zero_copy_only=False)
    g = (pd.DataFrame({"v": fv, "b": b})
         .groupby(["v", "b"], sort=False, dropna=False).size()
         .rename("doc_count").reset_index())
    return {agg["val_col"]: pa.Array.from_pandas(g["v"]),
            "bucket": g["b"].to_numpy(), "doc_count": g["doc_count"]}


def _agg_hist(agg, docs, ords, scores):
    # counts per bucket.  hist: floor(v/interval)*interval (exact for
    # |v| < 2^53, mirrored by the oracle's DOUBLE floor); date_hist: the
    # calendar bucket start
    vals = docs[agg["col"]].take(pa.array(ords))
    if agg["kind"] == "date_hist":
        b = _cal_buckets(vals, agg["interval"])
    else:
        iv = float(agg["interval"])
        b = (np.floor(vals.to_numpy(zero_copy_only=False)
                      .astype(np.float64) / iv) * iv).astype(np.int64)
    ub, cnt = np.unique(b, return_counts=True)
    return {"bucket": ub, "doc_count": cnt}


def _agg_parent_max(agg, docs, ords, scores):
    # has_child: per-parent (max child score, child count, integer-micro
    # child-score sum).  Scores are quantized to floor(score * 1e6)
    # int64 BEFORE summation (the lm.py integer-micro trick) so all four
    # join modes combine exactly across segments; only parent-sized rows
    # ship (the A2 combiner-first rule applied to the join)
    par = docs[agg["col"]].take(pa.array(ords)).to_numpy(zero_copy_only=False)
    micro = np.floor(scores * 1e6).astype(np.int64)
    g = (pd.DataFrame({"p": par, "s": scores, "m": micro})
         .groupby("p", sort=False)
         .agg(v_max=("s", "max"), doc_count=("s", "count"),
              v_micro=("m", "sum")).reset_index())
    return {agg["col"]: pa.array(g["p"]), "v_max": g["v_max"],
            "doc_count": g["doc_count"], "v_micro": g["v_micro"]}


def _agg_hll(agg, docs, ords, scores):
    # HyperLogLog [Flajolet et al. 2007; the OpenSearch cardinality-agg
    # sketch shape]: per register the max leading-zero rank of the md5-64
    # hash of each DISTINCT value — <= 2^p rows regardless of corpus.
    # md5 keeps the sketch deterministic across runs and processes.
    import hashlib
    p_bits = int(agg["precision"])
    # drop nulls BEFORE hashing: the exact path (nunique) and the SQL
    # oracle (count(DISTINCT ...)) both exclude NULL
    uniq = pc.unique(docs[agg["col"]].take(pa.array(ords)).drop_null())
    regs: dict[int, int] = {}
    low_bits = 64 - p_bits
    low_mask = (1 << low_bits) - 1
    for v in uniq.to_pylist():
        h = int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "big")
        idx = h >> low_bits
        rho = low_bits - (h & low_mask).bit_length() + 1
        if regs.get(idx, 0) < rho:
            regs[idx] = rho
    items = sorted(regs.items())
    return {"reg": [r for r, _ in items], "rho": [x for _, x in items]}


def _agg_ext_stats(agg, docs, ords, scores):
    # (count, sum, min, max, sum-of-squares): order-free integer
    # arithmetic, one row per segment (|v|^2 x doc_count < 2^63 assumed)
    v = _int_values(docs, agg["col"], ords)
    return {"doc_count": [len(v)], "v_sum": [int(v.sum())],
            "v_min": [int(v.min())], "v_max": [int(v.max())],
            "v_sos": [int(np.dot(v, v))]}


def _agg_weighted(agg, docs, ords, scores):
    # weighted_avg: integer (sum(v*w), sum(w)); the ONE division happens
    # on the driver
    v = _int_values(docs, agg["col"], ords)
    w = _int_values(docs, agg["w_col"], ords)
    return {"vw_sum": [int(np.dot(v, w))], "w_sum": [int(w.sum())]}


def _agg_terms(agg, docs, ords, scores):
    vals = docs[agg["col"]].take(pa.array(ords))
    if agg.get("after") is not None:
        # composite-agg pagination pushdown: buckets strictly after the
        # resume key never leave the task (search_after on bucket keys)
        vals = vals.filter(pc.greater(vals, agg["after"]))
    vc = pa.table({"v": vals}).group_by("v").aggregate([("v", "count")])
    return {agg["col"]: vc["v"], "doc_count": vc["v_count"]}


class _AggKind(NamedTuple):
    partial: Callable | None
    cols: tuple
    reads: tuple[str, ...] = ()


_F64, _STR, _TS = pa.float64(), pa.string(), pa.timestamp("us")
_PICKLED = (("partial", pa.binary()),)

# One declaration per aggregation kind: its per-segment partial
# function ``(agg, docs, ords, scores) -> {column: values} | None`` and
# the partial's columns after ``query_id``.  A column is a name (int64),
# a (name, type) pair, or ``"$key"``: the stored column(s) named by
# ``agg[key]``, typed as stored.  ``reads`` names the agg keys of other
# stored columns the partial reads.  Kinds:
#   terms        value counts (facets, cardinality, the quantile family)
#   count        match-set size + docs with ``col`` present (_count,
#                missing, value_count)
#   ext_stats    int count/sum/min/max/sum-of-squares (stats, ext_stats)
#   hist         counts per floor(v/interval)*interval int64 bucket
#   date_hist    counts per calendar (month/day/hour) bucket start
#   range        counts per caller-keyed [lo, hi) range
#   filters      counts per named filter (+ pairs: adjacency_matrix)
#   top_hits     per-bucket head(n) hit rows (also diversified_sampler)
#   sample       head(n) hit rows (sampler)
#   top_metrics  best n rows by a stored sort column
#   terms_stats  per-bucket int count/sum/min/max of a value column
#   multi_terms  counts per composite key
#   val_bucket   per (value, calendar bucket) counts
#                (cumulative_cardinality)
#   parent_max   per-parent max/count/micro-sum of child scores
#                (has_child)
#   hll          HyperLogLog registers (approximate cardinality)
#   weighted     int sum(v*w), sum(w)
#   t_test       per-side int n/sum/sum-of-squares
#   matrix       the six int moments of two columns
#   string_stats len count/sum/min/max + per-character counts
#   script       pickled user map_fn partial (scripted_metric)
#   tdigest      pickled t-digest centroids
#   mg_terms     pickled Misra-Gries summary (approx_terms)
#   sig_text     per-term match-set doc counts from one postings scan
#                (``_sig_text_scan``; no per-query partial)
# Only aggregate-sized rows leave the task (the combiner-first rule).
_AGG_KINDS: dict[str, _AggKind] = {
    "terms": _AggKind(_agg_terms, ("$col", "doc_count")),
    "count": _AggKind(_agg_count, ("doc_count", "n_present"), ("col",)),
    "ext_stats": _AggKind(_agg_ext_stats, ("doc_count", "v_sum", "v_min",
                                           "v_max", "v_sos"), ("col",)),
    "hist": _AggKind(_agg_hist, ("bucket", "doc_count"), ("col",)),
    "date_hist": _AggKind(_agg_hist, (("bucket", _TS), "doc_count"),
                          ("col",)),
    "range": _AggKind(_agg_range, (("range_key", _STR), "doc_count"),
                      ("col",)),
    "filters": _AggKind(_agg_filters, (("filter_key", _STR), "doc_count")),
    "top_hits": _AggKind(_agg_top_hits, ("$col", "$key_cols",
                                         ("score", _F64))),
    "sample": _AggKind(_agg_sample, ("$key_cols", "$col", ("score", _F64))),
    "top_metrics": _AggKind(_agg_top_metrics, ("$key_cols", "$col",
                                               "$m_cols")),
    "terms_stats": _AggKind(_agg_terms_stats, ("$col", "doc_count", "v_sum",
                                               "v_min", "v_max"),
                            ("val_col",)),
    "multi_terms": _AggKind(_agg_multi_terms, ("$cols", "doc_count")),
    "val_bucket": _AggKind(_agg_val_bucket, ("$val_col", ("bucket", _TS),
                                             "doc_count"), ("col",)),
    "parent_max": _AggKind(_agg_parent_max, ("$col", ("v_max", _F64),
                                             "doc_count", "v_micro")),
    "hll": _AggKind(_agg_hll, ("reg", "rho"), ("col",)),
    "weighted": _AggKind(_agg_weighted, ("vw_sum", "w_sum"),
                         ("col", "w_col")),
    "t_test": _AggKind(_agg_t_test, ("n_a", "sum_a", "sos_a", "n_b",
                                     "sum_b", "sos_b"), ("col",)),
    "matrix": _AggKind(_agg_matrix, ("doc_count", "x_sum", "y_sum",
                                     "xx_sum", "yy_sum", "xy_sum"),
                       ("col", "col_y")),
    "string_stats": _AggKind(_agg_string_stats, ("ch", "ch_count",
                                                 "doc_count", "len_sum",
                                                 "len_min", "len_max"),
                             ("col",)),
    "script": _AggKind(_agg_script, _PICKLED),
    "tdigest": _AggKind(_agg_tdigest, _PICKLED, ("col",)),
    "mg_terms": _AggKind(_agg_mg_terms, _PICKLED, ("col",)),
    "sig_text": _AggKind(None, (("term", _STR), "doc_count")),
}


def _agg_schema(agg: dict, docs_schema: pa.Schema) -> pa.Schema:
    """The Arrow schema of ``agg``'s per-segment partial, built from its
    kind's declaration; every stored column it names must exist."""
    def stored(key: str) -> list[str]:
        names = agg.get(key, ())
        names = [names] if isinstance(names, str) else list(names)
        for cn in names:
            if cn not in docs_schema.names:
                raise ValueError(f"agg column {cn!r} is not a stored doc "
                                 f"column ({docs_schema.names})")
        return names

    decl = _AGG_KINDS[agg["kind"]]
    for key in decl.reads:
        stored(key)
    fields: dict[str, pa.DataType] = {"query_id": pa.string()}
    for c in decl.cols:
        if isinstance(c, tuple):
            fields[c[0]] = c[1]
        elif c.startswith("$"):
            for cn in stored(c[1:]):
                fields.setdefault(cn, docs_schema.field(cn).type)
        else:
            fields[c] = pa.int64()
    return pa.schema(list(fields.items()))


def _agg_partial(agg: dict, schema: pa.Schema, docs: pa.Table,
                 ords: np.ndarray, qid: str,
                 scores: np.ndarray | None = None) -> pa.Table:
    """One query's aggregation PARTIAL over one segment's qualifying doc
    ordinals (kinds and columns: ``_AGG_KINDS``), as a ``schema`` table."""
    cols = _AGG_KINDS[agg["kind"]].partial(agg, docs, ords, scores)
    if cols is None:
        return schema.empty_table()
    n = len(next(iter(cols.values())))
    return pa.table({"query_id": pa.repeat(pa.scalar(qid, pa.string()), n),
                     **cols}, schema=schema)


def _damerau_levenshtein_vec(cands: Sequence[str], q: str) -> np.ndarray:
    """TRUE Damerau-Levenshtein distance (Lowrance-Wagner: insert /
    delete / substitute / adjacent transposition, with edits allowed
    between the transposed pair) from ``q`` to every candidate —
    exactly DuckDB's ``damerau_levenshtein`` (verified: CA->ABC = 2,
    where the restricted/OSA variant reads 3), the transpositions=true
    arm of the fuzzy family.

    Vectorized across CANDIDATES like ``_levenshtein_vec``: the python
    loops run over query length x max candidate length, each step a
    numpy op over the whole candidate array.  The transposition term
    needs the FULL DP history (D[k-1][l-1] for the last matching pair
    positions), so memory is (|q|+1) x n x (lmax+1) int64 — candidate
    sets are pruned vocab slices, never corpus rows."""
    n = len(cands)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    qa = np.array([ord(c) for c in q], dtype=np.int64)
    m = len(q)
    lens = np.array([len(t) for t in cands], dtype=np.int64)
    lmax = int(lens.max()) if len(lens) else 0
    T = np.zeros((n, lmax), dtype=np.int64)
    for j, t in enumerate(cands):            # vocab-slice-sized fill
        T[j, : len(t)] = [ord(c) for c in t]
    rows = np.arange(n, dtype=np.int64)
    D = np.zeros((m + 1, n, lmax + 1), dtype=np.int64)
    D[0, :, :] = np.arange(lmax + 1, dtype=np.int64)[None, :]
    for i in range(1, m + 1):
        D[i, :, 0] = i
    # lastk[row, j]: last i' (1-based, <= current i-1) with
    # q[i'-1] == cand[row][j-1]; 0 = none yet
    lastk = np.zeros((n, lmax + 1), dtype=np.int64)
    for i in range(1, m + 1):
        # lastl[row]: last j' (1-based, < current j) with
        # cand[row][j'-1] == q[i-1]; 0 = none yet
        lastl = np.zeros(n, dtype=np.int64)
        for j in range(1, lmax + 1):
            sub = (T[:, j - 1] != qa[i - 1]).astype(np.int64)
            best = np.minimum(
                np.minimum(D[i - 1, :, j] + 1, D[i, :, j - 1] + 1),
                D[i - 1, :, j - 1] + sub)
            k = lastk[:, j]
            l_ = lastl
            valid = (k > 0) & (l_ > 0)
            # D[k-1, row, l-1] + deletions between the pair + 1 swap;
            # invalid rows gather a garbage cell but are masked out
            trans = (D[k - 1, rows, l_ - 1] + (i - k - 1) + 1
                     + (j - l_ - 1))
            D[i, :, j] = np.where(valid, np.minimum(best, trans), best)
            lastl = np.where(T[:, j - 1] == qa[i - 1], j, lastl)
        hit = T == qa[i - 1]
        lastk[:, 1:][hit] = i
    return D[m, rows, lens]


# rate-agg (interval, unit) -> units per bucket; exact fixed factors
# only (calendar months have variable length and are rejected)
_RATE_FACTORS = {("day", "hour"): 24.0, ("day", "minute"): 1440.0,
                 ("hour", "minute"): 60.0, ("hour", "second"): 3600.0}


def _qdisc(vals: np.ndarray, cnts: np.ndarray, q: float):
    """Exact discrete quantile over merged (ascending value, count)
    pairs — DuckDB's quantile_disc selection rule (the value at
    cumulative count >= max(1, ceil(q*n))), shared by percentiles /
    mad / boxplot / moving_percentiles."""
    import math as _math
    cum = np.cumsum(cnts)
    t = max(1, _math.ceil(q * int(cum[-1])))
    return vals[int(np.searchsorted(cum, t))]


def _query_value_counts(df: pd.DataFrame, col: str):
    """Per query (ascending), the merged ascending (value -> count)
    Series of the ``terms`` partials — the input of the exact quantile
    family.  NULL values drop out; a query whose match set is all NULL
    yields nothing (the oracles' HAVING count(col) > 0); timestamps
    report their epoch int in the stored unit."""
    if df.empty:
        return
    for qid, g in df.groupby("query_id", sort=True):
        vc = g.groupby(col, sort=True)["doc_count"].sum()
        if vc.empty or int(vc.sum()) == 0:
            continue
        if pd.api.types.is_datetime64_any_dtype(vc.index):
            vc.index = vc.index.astype("int64")
        yield qid, vc


def _query_totals(queries: dict, df: pd.DataFrame, name: str,
                  count) -> pd.DataFrame:
    """One int64 total per query of the ``count`` partials, zero-filled
    over the sorted query grid; ``count(df)`` picks the per-row number."""
    base = pd.DataFrame({"query_id": sorted(queries)})
    got = {} if df.empty else count(df).groupby(df["query_id"]).sum()
    base[name] = base["query_id"].map(got).fillna(0).astype(np.int64)
    return base


def _key_grid_counts(queries: dict, df: pd.DataFrame, key_col: str,
                     keys: list[str]) -> pd.DataFrame:
    """Summed doc counts over the full (query, key) grid, zero-filled —
    like OpenSearch, empty range/filter buckets still appear."""
    grid = pd.MultiIndex.from_product([sorted(queries), keys],
                                      names=["query_id", key_col])
    if df.empty:
        out = pd.Series(0, index=grid, dtype=np.int64, name="doc_count")
    else:
        out = (df.groupby(["query_id", key_col], sort=False)["doc_count"]
                 .sum().reindex(grid, fill_value=0))
    return out.reset_index()[["query_id", key_col, "doc_count"]]


def _filters_masks(docs: pa.Table,
                   filters: Sequence[tuple]) -> dict[str, np.ndarray]:
    """Per-segment boolean masks for the filters-agg named specs —
    computed ONCE per segment (the masks are query-independent)."""
    from opensearch_jvector_ray.query_dsl import compile_filter
    n_docs = docs.num_rows
    with_ord = docs.append_column(
        "__ord", pa.array(np.arange(n_docs, dtype=np.int64)))
    out: dict[str, np.ndarray] = {}
    for fkey, spec in filters:
        kept = with_ord.filter(compile_filter(spec))["__ord"] \
            .to_numpy(zero_copy_only=False)
        m = np.zeros(n_docs, dtype=bool)
        m[kept] = True
        out[fkey] = m
    return out


def _key_gt(docs: pa.Table, key_cols: Sequence[str], ords: np.ndarray,
            after_key: Sequence[Any]) -> np.ndarray:
    """Lexicographic ``key > after_key`` over the composite key columns
    for the given doc ordinals (the search_after boundary compare)."""
    take = pa.array(ords)
    gt = np.zeros(len(ords), dtype=bool)
    eq = np.ones(len(ords), dtype=bool)
    for kc, av in zip(key_cols, after_key):
        vals = docs[kc].take(take).to_numpy(zero_copy_only=False)
        gt |= eq & (vals > av)
        eq &= vals == av
    return gt


def _field_as_float(docs: pa.Table, field: str) -> np.ndarray:
    """Stored-field column -> float64 per-ordinal array (timestamps via
    their int64 epoch view, unit-preserving)."""
    if field not in docs.column_names:
        raise ValueError(f"score/sort field {field!r} is not a stored "
                         f"column (have {docs.column_names})")
    col = docs[field]
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.int64())
    return col.to_numpy(zero_copy_only=False).astype(np.float64)


def _doc_boost(docs: pa.Table, spec: dict) -> np.ndarray:
    """function_score multiplier per doc ordinal [Lucene/OpenSearch
    function_score public semantics; FunctionScoreQuery with
    boost_mode=multiply].

    kinds:
      field_value_factor  m = factor * modifier(field)   (modifier in
                          none | sqrt | log1p; nulls -> ``missing``)
      decay               m = linear|exp|gauss distance decay from
                          ``origin`` with ``scale``/``offset``/``decay``
                          (numeric or timestamp field; origin/scale/
                          offset in the field's own units — us for ts)

    The hard driver oracles use sqrt / linear, whose IEEE-754 ops are
    bit-identical between numpy and DuckDB; log1p / exp / gauss are
    libm-dependent and gated by the pytest brute-force oracle instead.
    """
    kind = spec["kind"]
    v = _field_as_float(docs, spec["field"])
    if kind == "field_value_factor":
        missing = float(spec.get("missing", 1.0))
        v = np.where(np.isnan(v), missing, v)
        modifier = spec.get("modifier", "none")
        if modifier == "sqrt":
            v = np.sqrt(v)
        elif modifier == "log1p":
            v = np.log1p(v)
        elif modifier != "none":
            raise ValueError(f"unknown modifier {modifier!r} "
                             "(none | sqrt | log1p)")
        return float(spec.get("factor", 1.0)) * v
    if kind == "decay":
        fn = spec.get("decay_fn", "gauss")
        origin = float(spec["origin"])
        scale = float(spec["scale"])
        offset = float(spec.get("offset", 0.0))
        decay = float(spec.get("decay", 0.5))
        if scale <= 0 or not (0.0 < decay < 1.0):
            raise ValueError("decay needs scale > 0 and 0 < decay < 1")
        import math
        dist = np.maximum(np.abs(v - origin) - offset, 0.0)
        if fn == "linear":
            s = scale / (1.0 - decay)
            return np.maximum(0.0, (s - dist) / s)
        if fn == "exp":
            # scalar constants via math (libm), matching the oracle
            # generator's embedded repr literals exactly
            lam = math.log(decay) / scale
            return np.exp(lam * dist)
        if fn == "gauss":
            sigma2 = -(scale * scale) / (2.0 * math.log(decay))
            return np.exp(-(dist * dist) / (2.0 * sigma2))
        raise ValueError(f"unknown decay_fn {fn!r} (linear | exp | gauss)")
    raise ValueError(f"unknown score_fn kind {kind!r}")


def _doc_addend(docs: pa.Table, spec: dict) -> np.ndarray:
    """Additive per-doc feature score [Lucene RankFeatureQuery /
    DistanceFeatureQuery public semantics, the OpenSearch rank_feature
    and distance_feature clauses]: a non-negative contribution ADDED to
    the summed BM25 score of matching docs (one add per doc — the fp
    rule the generated oracle shares).

    kinds:
      saturation   boost * x / (x + pivot)           (x >= 0; NULL -> 0)
      distance     boost * pivot / (pivot + |x - origin|)
                   (numeric or timestamp field, units of the field;
                    NULL -> 0 contribution)

    Both forms are division/multiply chains of IEEE doubles — bit-exact
    between numpy and the generated SQL (no libm)."""
    kind = spec["kind"]
    if kind == "sum":
        # rank_features (plural) [OpenSearch rank_features field public
        # semantics]: multiple per-doc feature contributions summed in
        # LIST ORDER (sequential accumulation — the pinned-summation
        # rule; the oracle's left-associative '+' chain matches)
        feats = spec.get("features")
        if not isinstance(feats, list) or not feats:
            raise ValueError("rank_features sum needs a non-empty "
                             "'features' list")
        if any(f.get("kind") == "sum" for f in feats):
            raise ValueError("rank_features cannot nest")
        out = _doc_addend(docs, feats[0])
        for f in feats[1:]:
            out = out + _doc_addend(docs, f)
        return out
    v = _field_as_float(docs, spec["field"])
    boost = float(spec.get("boost", 1.0))
    if boost <= 0:
        raise ValueError("rank_feature boost must be > 0")
    if kind == "saturation":
        pivot = float(spec["pivot"])
        if pivot <= 0:
            raise ValueError("saturation needs pivot > 0")
        x = np.where(np.isnan(v) | (v < 0), 0.0, v)
        return boost * (x / (x + pivot))
    if kind == "distance":
        pivot = float(spec["pivot"])
        origin = float(spec["origin"])
        if pivot <= 0:
            raise ValueError("distance needs pivot > 0")
        dist = np.abs(np.where(np.isnan(v), np.inf, v) - origin)
        return boost * (pivot / (pivot + dist))
    raise ValueError(f"unknown rank_feature kind {kind!r} "
                     "(saturation | distance)")


_RX_CONTROL_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "f": "\f",
                       "v": "\v", "a": "\a"}   # escapes that ARE a
                                               # specific literal char


def _prefix_upper_bound(pfx: str) -> str | None:
    """Exclusive upper bound for the dictionary range sharing ``pfx``:
    bump the last char, skipping the UTF-16 surrogate gap (chr(0xD800..
    0xDFFF) is not a valid Arrow/UTF-8 string, and no stored term can
    start inside the gap, so jumping to U+E000 keeps the bound exact —
    round-4 review).  None when no bound exists (last char U+10FFFF)."""
    last = ord(pfx[-1])
    if last >= 0x10FFFF:
        return None
    nxt = last + 1
    if 0xD800 <= nxt <= 0xDFFF:
        nxt = 0xE000
    return pfx[:-1] + chr(nxt)


def _regex_prefilter(pattern: str) -> tuple[str, list[str]]:
    """Conservative (anchored_prefix, required_literals) extraction from
    an RE2 pattern — the cheap stand-in for Lucene's automaton-directed
    FST intersection: the prefix pushes a sorted-range filter into the
    dictionary read, the literals run as plain (non-regex) substring
    prefilters before the anchored RE2 pass.  NEVER removes a true
    match: any construct that could make a literal optional bails —
    alternation anywhere returns ('', []); quantifiers ``? * {`` drop
    the preceding char from its run; classes/groups/dot/escape-classes
    are opaque and break the current run.  Literal runs shorter than 2
    chars are not worth a substring pass and are dropped (the prefix is
    kept at any length)."""
    if "|" in pattern:
        return "", []
    # inline flag / extension groups ("(?i)", "(?i:...)", "(?P<...>")
    # change matching semantics for everything AFTER them (e.g. (?i)
    # makes later literals case-insensitive, so a case-sensitive
    # substring prefilter would drop true matches) — bail on anything
    # but the plain non-capturing "(?:"
    j = pattern.find("(?")
    while j != -1:
        if j + 2 >= len(pattern) or pattern[j + 2] != ":":
            return "", []
        j = pattern.find("(?", j + 2)
    runs: list[tuple[int, str]] = []      # (start_pos, literal_run)
    cur: list[str] = []
    cur_start = 0
    depth = 0                             # group contents are opaque —
    i, n = 0, len(pattern)                # a (…)? would unrequire them

    def flush() -> None:
        if cur:
            if depth == 0:
                runs.append((cur_start, "".join(cur)))
            cur.clear()

    while i < n:
        c = pattern[i]
        if depth > 0:                     # skip opaque group contents
            if c == "\\":
                i += 2
            elif c == "[":                # class may contain ( ) — skip
                i += 1
                if i < n and pattern[i] == "^":
                    i += 1
                if i < n and pattern[i] == "]":
                    i += 1
                while i < n and pattern[i] != "]":
                    i += 2 if pattern[i] == "\\" else 1
                i += 1
            elif c == "(":
                depth += 1
                i += 1
            elif c == ")":
                depth -= 1
                i += 1
            else:
                i += 1
            continue
        if c == "\\" and i + 1 < n:
            nxt = pattern[i + 1]
            if nxt in _RX_CONTROL_ESCAPES:
                nxt = _RX_CONTROL_ESCAPES[nxt]   # \n -> newline etc.
            if nxt.isalnum():
                # every OTHER escaped alphanumeric is opaque: class
                # escapes (\d \w ...), hex (\x41 / \x{...}), octal
                # (\012), unicode classes (\pL / \p{Greek}) — treating
                # them as the literal following char would DROP true
                # matches (round-4 review: 'foo\\nbar' must not
                # prefilter on 'foonbar'), and their ARGUMENT chars
                # must be consumed so they aren't collected as literals
                flush()
                i += 2
                if nxt == "x":
                    if i < n and pattern[i] == "{":
                        while i < n and pattern[i] != "}":
                            i += 1
                        i += 1
                    else:
                        h = 0
                        while (i < n and h < 2 and
                               pattern[i] in "0123456789abcdefABCDEF"):
                            i += 1
                            h += 1
                elif nxt in "pP":
                    if i < n and pattern[i] == "{":
                        while i < n and pattern[i] != "}":
                            i += 1
                        i += 1
                    elif i < n:
                        i += 1               # \pL one-letter form
                elif nxt.isdigit():          # octal escape / backref
                    while i < n and pattern[i].isdigit():
                        i += 1
            else:                         # escaped literal
                if i + 2 < n and pattern[i + 2] in "?*{":
                    flush()               # optional/repeated -> drop
                    i += 2
                elif i + 2 < n and pattern[i + 2] == "+":
                    if not cur:
                        cur_start = i
                    cur.append(nxt)       # x+ still requires one x
                    flush()
                    i += 3
                else:
                    if not cur:
                        cur_start = i
                    cur.append(nxt)
                    i += 2
            continue
        if c in ".^$":
            flush()
            i += 1
            continue
        if c == "{":                      # {m,n} quantifier: skip body
            flush()
            while i < n and pattern[i] != "}":
                i += 1
            i += 1
            continue
        if c in "?*+":                    # quantifier on an opaque atom
            flush()
            i += 1
            continue
        if c == "[":                      # character class: skip opaque
            flush()
            i += 1
            if i < n and pattern[i] == "^":
                i += 1
            if i < n and pattern[i] == "]":
                i += 1
            while i < n and pattern[i] != "]":
                i += 2 if pattern[i] == "\\" else 1
            i += 1
            continue
        if c == "(":                      # group: opaque (see depth)
            flush()
            depth += 1
            i += 1
            continue
        if c == ")":                      # unbalanced ')' at depth 0
            flush()
            i += 1
            continue
        # plain literal char
        if i + 1 < n and pattern[i + 1] in "?*{":
            flush()                       # optional/repeated -> drop
            i += 1
        elif i + 1 < n and pattern[i + 1] == "+":
            if not cur:
                cur_start = i
            cur.append(c)                 # x+ still requires one x
            flush()
            i += 2
        else:
            if not cur:
                cur_start = i
            cur.append(c)
            i += 1
    flush()
    prefix = ""
    if runs and runs[0][0] == 0:
        prefix = runs[0][1]
    # the prefix run is implied by the range filter — re-running it as
    # a substring pass would scan the already-pruned vocab for an
    # always-true condition (round-4 review efficiency note)
    literals = sorted({r for _, r in runs if len(r) >= 2 and r != prefix},
                      key=lambda r: (-len(r), r))[:3]
    return prefix, literals


def _sort_key_numeric(docs: pa.Table, field: str) -> np.ndarray:
    """Sort field -> a numeric per-ordinal key whose ascending order
    equals the field's natural order (strings via per-segment uniq
    codes — valid inside one segment; the global merge re-sorts on the
    actual values)."""
    if field not in docs.column_names:
        raise ValueError(f"sort field {field!r} is not a stored column "
                         f"(have {docs.column_names})")
    col = docs[field]
    if col.null_count:
        # fail loudly with a defined contract instead of np.unique's
        # TypeError (str/None mix) or unspecified NaN placement vs the
        # oracle — sort fields must be non-null
        raise ValueError(f"sort field {field!r} contains "
                         f"{col.null_count} null(s); sort-by-field "
                         f"requires a non-null column")
    if pa.types.is_timestamp(col.type):
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        vals = col.to_numpy(zero_copy_only=False)
        _, codes = np.unique(vals, return_inverse=True)
        return codes.astype(np.int64)
    if pa.types.is_integer(col.type):
        # keep integers exact: a float64 cast collapses values that
        # differ only beyond 2^53, and the wrong doc would never leave
        # the segment (the top_metrics partial's documented hazard);
        # uint64 stays uint64 — an int64 cast would wrap values > 2^63
        vals = col.to_numpy(zero_copy_only=False)
        return vals if vals.dtype == np.uint64 else vals.astype(np.int64)
    return col.to_numpy(zero_copy_only=False).astype(np.float64)


def _topk_from_scores(scores: np.ndarray, candidates: np.ndarray,
                      k: int, tie: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(score desc, doc-key asc) top-k via bounded argpartition — never
    sorts the full candidate set (O1: bounded collector).

    ``tie`` maps ordinal -> key rank for tie-breaking.  Build-time
    segments are key-sorted so ord IS the key rank (tie=None); bulk-merged
    segments carry an explicit ``key_rank`` column (segment-major ordinals
    are NOT key-ordered there).
    """
    n = min(k, len(candidates))
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    cand_scores = scores[candidates]
    tie_of = (lambda o: o) if tie is None else (lambda o: tie[o])
    if len(candidates) > n:
        part = np.argpartition(-cand_scores, n - 1)[:n]
        # ties at the boundary must resolve by key rank asc, not
        # argpartition's arbitrary pick (rank-identity requirement)
        boundary = cand_scores[part].min()
        above = candidates[cand_scores > boundary]
        tied = candidates[cand_scores == boundary]
        tied = tied[np.argsort(tie_of(tied), kind="stable")][: n - len(above)]
        sel_ord = np.concatenate([above, tied])
        sel_sc = scores[sel_ord]
    else:
        sel_ord = candidates
        sel_sc = cand_scores
    order = np.lexsort((tie_of(sel_ord), -sel_sc))
    return sel_ord[order], sel_sc[order]


# the per-block skip data WAND reads besides the encoded lists: each
# block's last ordinal, score-bound inputs (max tf, min doc length) and
# the byte offsets ``decode_blocks`` slices by
_BLOCK_MAX_COLS = ("blk_last_ord", "blk_off_ord", "blk_off_tf", "blk_max_tf",
                   "blk_min_dl")


def _doc_arrays(docs: pa.Table) -> tuple[np.ndarray, np.ndarray | None]:
    """(doc lengths, tie-break ranks) of one segment's docs table.
    Bulk-merged segments carry segment-major ordinals + a key_rank
    column for exact (score, key) tie-breaks; build-time segments are
    key-sorted so ord == key rank (tie None)."""
    dl = docs["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64)
    tie = (docs["key_rank"].to_numpy(zero_copy_only=False).astype(np.int64)
           if "key_rank" in docs.column_names else None)
    return dl, tie


# -- the per-process reader cache ----------------------------------------
# Segment and dictionary files are immutable once written, so a process
# keeps what it has read of them: Ray reuses worker processes, so a later
# cold task (and every request to a shard actor) finds the docs tables
# and decoded postings of the segments it searched before (the
# reference's held-open ``JVectorReader`` plus its node-level
# ``QuantizationStateCache``).  Every entry is keyed by the identity
# (inode, mtime, size) of the files it was read from, so a segment
# rebuilt in place, or an index deleted and rebuilt at the same path, is
# read afresh, never served stale.  One byte-bounded LRU holds every
# entry of the process; its budget is the process's share of one node
# figure, so the node's total stays bounded however many worker
# processes hold a cache.

READER_CACHE_NODE_BYTES = 1 << 30  # one node's budget, in bytes
# charged per entry besides its arrays: its key, LRU node, value tuple
# and array headers (a one-posting decoded term measured ~560 bytes)
_ENTRY_BYTES = 512
# the per-term namespaces (decoded (ords, tfs), position slots,
# dictionary df): hits and misses count lookups of these alone
_TERM_KEYS = ("ords", "pos", "df")


def _node_worker_slots() -> int:
    """The processes of this node that may each hold a reader cache: one
    Ray worker per CPU the node reports (a shard actor holds one), plus
    the driver; 1 outside Ray."""
    if not ray.is_initialized():
        return 1
    node = ray.get_runtime_context().get_node_id()
    cpus = next((n["Resources"].get("CPU", 1) for n in ray.nodes()
                 if n["NodeID"] == node), os.cpu_count() or 1)
    return int(cpus) + 1


class _ReaderCache:
    """key -> (value, bytes) LRU over the whole process; a value of None
    records an absent term.  A lock guards it: the process's threads (a
    threaded actor, a threaded driver) share it."""

    def __init__(self, budget: int | None = None):
        self.entries: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self.lock = threading.Lock()
        self._budget = budget
        self.bytes = 0
        self.hits = self.misses = self.evictions = 0
        self.position_decodes = 0

    @property
    def budget(self) -> int:
        """The process's share of ``READER_CACHE_NODE_BYTES``, resolved
        on first use (in a Ray worker, after Ray is up)."""
        if self._budget is None:
            self._budget = READER_CACHE_NODE_BYTES // _node_worker_slots()
        return self._budget

    def get(self, key: tuple) -> tuple[Any, int] | None:
        with self.lock:
            e = self.entries.get(key)
            if e is not None:
                self.entries.move_to_end(key)
            return e

    def put(self, key: tuple, value: Any, nbytes: int,
            decoded: bool = False) -> None:
        """Cache ``value``, unless it is larger than a quarter of the
        budget: such an entry would flush most of the cache and soon be
        flushed itself, so its caller uses it once and drops it.
        ``decoded`` counts a position decode."""
        budget = self.budget
        n = nbytes + _ENTRY_BYTES
        with self.lock:
            self.position_decodes += decoded
            if n > budget // 4:
                return
            old = self.entries.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            self.entries[key] = (value, n)
            self.bytes += n
            while self.bytes > budget:
                _, (_, m) = self.entries.popitem(last=False)
                self.bytes -= m
                self.evictions += 1

    def terms(self, prefix: tuple, terms: Sequence[str],
              read: Callable[[list[str]], dict[str, tuple[Any, int]]]
              ) -> tuple[dict[str, Any], list[str]]:
        """(term -> value of the present ``terms``, in ``terms`` order;
        the terms not in the cache).  With ``read``, the missing ones are
        read as ``read(missing)`` -> {present term: (value, bytes)},
        cached (absent ones as None) and returned too."""
        vals: dict[str, Any] = {}
        missing: list[str] = []
        for t in terms:
            e = self.get((*prefix, t))
            if e is None:
                missing.append(t)
            else:
                vals[t] = e[0]
        with self.lock:
            self.hits += len(terms) - len(missing)
            self.misses += len(missing)
        if missing and read is not None:
            got = read(missing)
            for t in missing:
                vals[t], n = got.get(t, (None, len(t)))
                self.put((*prefix, t), vals[t], n)
            missing = []
        return {t: vals[t] for t in terms
                if vals.get(t) is not None}, missing

    def stats(self) -> dict[str, int]:
        with self.lock:
            return {"hits": self.hits, "misses": self.misses,
                    "cached_terms": sum(k[-2] in _TERM_KEYS
                                        for k in self.entries),
                    "bytes": self.bytes, "evictions": self.evictions,
                    "position_decodes": self.position_decodes}


_READERS = _ReaderCache()


def reader_cache_stats() -> dict[str, int]:
    """This process's reader-cache counters: per-term lookups (decoded
    postings, position slots, dictionary df) that hit or missed, the
    per-term entries held (absent terms included), bytes held, entries
    evicted and position lists decoded."""
    return _READERS.stats()


def _file_id(path: str) -> tuple[int, int, int]:
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns, st.st_size


def _frozen(*arrays: np.ndarray) -> int:
    """Mark cached arrays read-only (a kernel that wrote into one would
    corrupt every later query) and return their bytes."""
    for a in arrays:
        a.flags.writeable = False
    return sum(a.nbytes for a in arrays)


def _column_views(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(row offsets, flat values) of a binary, string or list column,
    row r being ``values[offsets[r]:offsets[r + 1]]``: bytes as a zero-copy
    uint8 view, list values as int64, both read-only."""
    col = col.combine_chunks()
    if col.null_count:
        raise ValueError(f"postings column of {col.type} holds nulls")
    if pa.types.is_list(col.type):
        offs = col.offsets.to_numpy()
        vals = col.values.to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False)
    else:
        large = (pa.types.is_large_binary(col.type)
                 or pa.types.is_large_string(col.type))
        offs = np.frombuffer(col.buffers()[1], dtype=np.int64 if large
                             else np.int32)[col.offset:
                                            col.offset + len(col) + 1]
        data = col.buffers()[2]
        vals = (np.frombuffer(data, dtype=np.uint8) if data is not None
                else np.zeros(0, dtype=np.uint8))
    _frozen(offs, vals)
    return offs, vals


class _RowGroup:
    """One row group of a postings file, every column but ``pos_enc``,
    as read-only numpy views; a term's row is found by binary search of
    the term column, which every postings writer sorts."""

    def __init__(self, tbl: pa.Table):
        t = tbl["term"]
        if len(t) > 1 and not pc.all(pc.less(t[:-1], t[1:])).as_py():
            raise ValueError("postings row group is not sorted by term")
        self.df = tbl["df"].to_numpy(zero_copy_only=False)
        self.cols = {n: _column_views(tbl[n]) for n in tbl.column_names
                     if n != "df"}
        self.n = tbl.num_rows
        self.nbytes = self.df.nbytes + sum(o.nbytes + v.nbytes
                                           for o, v in self.cols.values())

    def term(self, r: int) -> bytes:
        offs, vals = self.cols["term"]
        return vals[offs[r]:offs[r + 1]].tobytes()

    def find(self, t: str) -> int | None:
        """The row of term ``t``, or None."""
        tb = t.encode()
        r = bisect.bisect_left(range(self.n), tb, key=self.term)
        return r if r < self.n and self.term(r) == tb else None

    def row(self, t: str, r: int, pos: tuple | None) -> dict[str, Any]:
        row = {"term": t, "df": int(self.df[r])}
        for n, (offs, vals) in self.cols.items():
            if n != "term":
                row[n] = vals[offs[r]:offs[r + 1]]
        if pos is not None:
            row["pos_enc"] = pos[1][pos[0][r]:pos[0][r + 1]]
        return row


class SegmentReader:
    """One segment's files read through the process's reader cache: the
    docs table with its doc-length and tie-break arrays; the encoded
    postings one parquet row group at a time (the file is sorted by
    term, and its footer's per-row-group term bounds say which row group
    can hold a term, so a miss reads that row group alone, as a
    term-filtered read would); and per term the decoded (ords, tfs) and
    the position slots, each cached on first read (absent terms too)."""

    _COLS = ("df", "ords_enc", "tfs_enc", *_BLOCK_MAX_COLS, "blk_n")

    def __init__(self, seg_dir: str, codec: str = "varint",
                 block_size: int = 128):
        self.path = os.path.join(seg_dir, POSTINGS_NAME)
        self.docs_path = os.path.join(seg_dir, DOCS_NAME)
        self.codec, self.block_size = codec, block_size
        self.key = (seg_dir, _file_id(self.docs_path), _file_id(self.path),
                    codec, block_size)

    def _cached(self, kind: str, part: Any, read: Callable[[], Any],
                nbytes: Callable[[Any], int]) -> Any:
        key = (self.key, kind, part)
        e = _READERS.get(key)
        if e is not None:
            return e[0]
        val = read()
        _READERS.put(key, val, nbytes(val))
        return val

    def _layout(self) -> tuple[list[str], list[tuple[str, str] | None]]:
        """(the postings columns, each row group's (first, last) term or
        None when the footer has no bounds for it), from the footer."""
        def read():
            md = pq.read_metadata(self.path)
            j = [md.schema.column(c).path
                 for c in range(md.num_columns)].index("term")
            bounds = []
            for i in range(md.num_row_groups):
                st = md.row_group(i).column(j).statistics
                bounds.append((st.min, st.max) if st is not None
                              and st.has_min_max else None)
            return md.schema.to_arrow_schema().names, bounds
        return self._cached("layout", "", read,
                            lambda v: _ENTRY_BYTES * len(v[1]))

    def _group(self, i: int) -> _RowGroup:
        """Row group ``i`` of the postings, without ``pos_enc``."""
        names = self._layout()[0]
        return self._cached("rg", i, lambda: _RowGroup(
            pq.ParquetFile(self.path).read_row_group(i, columns=[
                "term", *(n for n in self._COLS if n in names)])),
            lambda g: g.nbytes)

    def _group_positions(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row group ``i``'s ``pos_enc`` column, as ``_column_views``."""
        return self._cached("rg_pos", i, lambda: _column_views(
            pq.ParquetFile(self.path).read_row_group(
                i, columns=["pos_enc"])["pos_enc"]),
            lambda v: v[0].nbytes + v[1].nbytes)

    def rows(self, terms: Sequence[str] | None = None,
             positions: bool = False) -> dict[str, dict[str, Any]]:
        """term -> its postings row (column -> value: ``term``, ``df``,
        ``ords_enc``, ``tfs_enc``, the block skip data, ``blk_n`` when
        present and ``pos_enc`` when ``positions``; bytes and lists as
        read-only views of the cached row group) of the present
        ``terms`` (None: every term)."""
        bounds = self._layout()[1]
        want: dict[int, list[str] | None] = {}
        for i, b in enumerate(bounds):
            if terms is None:
                want[i] = None
                continue
            ts = [t for t in terms if b is None or b[0] <= t <= b[1]]
            if ts:
                want[i] = ts
        out: dict[str, dict[str, Any]] = {}
        for i, ts in want.items():
            g = self._group(i)
            pos = self._group_positions(i) if positions else None
            if ts is None:
                for r in range(g.n):
                    t = g.term(r).decode()
                    out[t] = g.row(t, r, pos)
                continue
            for t in ts:
                r = g.find(t)
                if r is not None and t not in out:
                    out[t] = g.row(t, r, pos)
        return out

    def decode(self, row: dict[str, Any]) -> tuple[np.ndarray, np.ndarray]:
        """Decoded (ords, tfs) of one row of ``rows``.  Bulk-merged
        segments carry irregular block sizes (``blk_n``) that the pfor
        decoder MUST consult: decoding such a run without them silently
        corrupts ordinals."""
        return decode_posting_list(row["ords_enc"], row["tfs_enc"],
                                   codec=self.codec, df=row["df"],
                                   block_size=self.block_size,
                                   blk_n=row.get("blk_n"))

    def docs(self) -> tuple[pa.Table, np.ndarray, np.ndarray | None]:
        """(docs table, doc lengths, tie-break ranks)."""
        def read():
            docs = pq.read_table(self.docs_path)
            return (docs, *_doc_arrays(docs))
        return self._cached("docs", "", read, lambda v: v[0].nbytes + _frozen(
            *(a for a in v[1:] if a is not None)))

    def decoded(self, terms: Sequence[str]
                ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Decoded (ords, tfs) of the present ``terms``, read without
        positions."""
        def read(missing):
            out = {}
            for t, row in self.rows(missing).items():
                ords, tfs = self.decode(row)
                out[t] = ((ords, tfs), _frozen(ords, tfs))
            return out
        return _READERS.terms((self.key, "ords"), terms, read)[0]

    def slots(self, terms: Sequence[str]) -> "_Slots":
        """(ords, flat positions, offsets) slots of the present ``terms``,
        each decoded when first asked for: posting i's positions
        (PRE-stopword axis, ascending) are ``flat[offsets[i]:offsets[i +
        1]]``.  The one positions decode of the phrase/span family, sqs
        and the highlight fetch."""
        prefix = (self.key, "pos")
        ready, missing = _READERS.terms(prefix, terms, None)
        pending: dict[str, tuple] = {}
        if missing:
            pending = {t: (*self.decode(row), row["pos_enc"]) for t, row
                       in self.rows(missing, positions=True).items()}
            for t in missing:
                if t not in pending:
                    _READERS.put((*prefix, t), None, len(t))
        return _Slots(prefix, ready, pending)


class _Slots:
    """term -> position slot of one segment's present terms: the cached
    slots, plus the read-but-undecoded rows of the others, decoded on
    first access (a query whose other terms are absent from the segment
    decodes none).  Lookups only: it cannot be iterated or sized."""

    __iter__ = None

    def __init__(self, prefix: tuple, ready: dict, pending: dict):
        self._prefix = prefix
        self._ready = ready
        self._pending = pending

    def __contains__(self, t) -> bool:
        return t in self._ready or t in self._pending

    def __getitem__(self, t):
        slot = self._ready.get(t)
        if slot is None:
            ords, tfs, pe = self._pending.pop(t)    # KeyError when absent
            slot = (ords, *decode_positions(pe, tfs))
            _READERS.put((*self._prefix, t), slot, _frozen(*slot),
                         decoded=True)
            self._ready[t] = slot
        return slot

    def get(self, t, default=None):
        return self[t] if t in self else default

    def decoded(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        """(ords, tfs) of a present term, without decoding positions."""
        if t in self._pending:
            return self._pending[t][:2]
        ords, _, offs = self[t]
        return ords, np.diff(offs)


def _sparse_term_weights(queries: "dict[str, list[tuple[str, float]]]"
                         ) -> dict[str, list[tuple[str, float]]]:
    """sparse_vector (token, weight) lists as token-sorted float pairs —
    the pinned summation order; weights must be > 0."""
    norm: dict[str, list[tuple[str, float]]] = {}
    for qid, tw in queries.items():
        pairs = sorted((str(t), float(w)) for t, w in tw)
        if any(w <= 0 for _, w in pairs):
            raise ValueError("sparse_vector weights must be > 0")
        norm[qid] = pairs
    return norm


# -- the position layer of the phrase/span family ------------------------
# A slot is one (ords, flat positions, offsets) triple: a term's postings
# as ``SegmentReader.slots`` returns them, or the union of several terms'
# (``_union_slot``).  Each kernel turns its query into slots, runs one
# combine rule over the docs holding every slot (the ordered chain or
# the window cover) and scores the resulting (doc, tf) pairs.

_NO_HITS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))


def _slots(names, post: dict) -> list | None:
    """The slots of ``names`` in order; None when one is absent from
    the segment (no doc can match)."""
    if any(t not in post for t in names):
        return None
    return [post[t] for t in names]


def _union_slot(slots: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One slot whose positions in each doc are the union of ``slots``'
    positions there (a span_or clause; phrase_prefix's last slot)."""
    if len(slots) == 1:
        return slots[0]
    po = np.concatenate([np.repeat(o, np.diff(offs)) for o, _, offs in slots])
    pp = np.concatenate([flat for _, flat, _ in slots])
    order = np.lexsort((pp, po))
    po, pp = po[order], pp[order]
    # dedupe identical (doc, pos) pairs (two terms never share a
    # position in reality, but stay exact anyway)
    keep = np.concatenate(([True], (po[1:] != po[:-1]) | (pp[1:] != pp[:-1])))
    po, pp = po[keep], pp[keep]
    uords, counts = np.unique(po, return_counts=True)
    return (uords.astype(np.int64), pp,
            np.concatenate(([0], np.cumsum(counts))).astype(np.int64))


def _slot_docs(slots: list, mask: np.ndarray | None) -> np.ndarray:
    """The docs (ascending ordinals) holding every slot, filter applied."""
    common = slots[0][0]
    for ords, _, _ in slots[1:]:
        common = common[np.isin(common, ords, assume_unique=True)]
    if mask is not None and len(common):
        common = common[mask[common]]
    return common


def _doc_axis(slots: list, common: np.ndarray, pad: int
              ) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Lay the ``common`` docs end to end on one position axis: each doc
    gets (its largest position in any slot) + ``pad`` cells, so a window
    or zone reaching ``pad - 1`` cells past a position never crosses
    into the next doc.  Returns (each slot's row index of every common
    doc, each doc's base cell, the axis length)."""
    idxs = [np.searchsorted(ords, common) for ords, _, _ in slots]
    last = np.stack([flat[offs[ix + 1] - 1]
                     for (_, flat, offs), ix in zip(slots, idxs)])
    size = last.max(axis=0).astype(np.int64) + pad
    base = np.concatenate(([0], np.cumsum(size)[:-1]))
    return idxs, base, int(size.sum())


def _gather(slot, ix: np.ndarray, base: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Ragged gather of the positions of the docs at rows ``ix`` of
    ``slot`` onto the concatenated axis: (axis cell of every position,
    its doc's index into ``ix``), docs in ``ix`` order."""
    _, flat, offs = slot
    lens = offs[ix + 1] - offs[ix]
    docslot = np.repeat(np.arange(len(ix)), lens)
    shift = offs[ix] - (np.cumsum(lens) - lens)
    return base[docslot] + flat[np.arange(len(docslot)) + shift[docslot]], docslot


def _cover(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The cells of an ``n``-cell axis inside at least one [lo, hi)
    interval: one diff-array scatter and one cumsum."""
    d = np.zeros(n + 1, dtype=np.int32)
    np.add.at(d, lo, 1)
    np.add.at(d, hi, -1)
    return np.cumsum(d[:-1]) > 0


def _window_cells(slots: list, idxs: list, base: np.ndarray, n: int,
                  W: int) -> np.ndarray:
    """Window-cover core: the axis cells s whose width-W window
    [s-W+1, s] holds >= 1 position of every slot."""
    acc = None
    for slot, ix in zip(slots, idxs):
        g, _ = _gather(slot, ix, base)
        b = _cover(g, g + W, n)
        acc = b if acc is None else acc & b
    return acc


def _window_tf(slots: list, W: int, mask: np.ndarray | None
               ) -> tuple[np.ndarray, np.ndarray]:
    """(docs, tf) of the window-cover rule: tf = the valid window cells
    of the doc (``_window_cells``)."""
    common = _slot_docs(slots, mask)
    if not len(common):
        return _NO_HITS
    idxs, base, n = _doc_axis(slots, common, W + 2)
    tf = np.add.reduceat(
        _window_cells(slots, idxs, base, n, W).astype(np.int64), base)
    keep = tf > 0
    return common[keep], tf[keep]


def _chain_tf(slots: list, W: int, mask: np.ndarray | None
              ) -> tuple[np.ndarray, np.ndarray]:
    """(docs, tf) of the ordered-chain rule: tf = the first-slot
    positions p1 from which a strictly increasing chain p1 < p2 < ... <
    pn through the remaining slots, in slot order, fits in
    [p1, p1+W-1].  Such a chain exists iff the greedy next-occurrence
    chain fits, which is what the walk computes: per chain step ONE
    searchsorted against the next slot's positions on the concatenated
    axis.  W = n slots is an exact phrase (overlaps counted)."""
    common = _slot_docs(slots, mask)
    if not len(common):
        return _NO_HITS
    idxs, base, _ = _doc_axis(slots, common, W + 2)
    g1, docslot = _gather(slots[0], idxs[0], base)
    cur = g1
    alive = np.ones(len(cur), dtype=bool)
    for slot, ix in zip(slots[1:], idxs[1:]):
        g, ds = _gather(slot, ix, base)
        ends = np.cumsum(np.bincount(ds, minlength=len(common)))
        j = np.searchsorted(g, cur, side="right")
        ok = j < ends[docslot]
        cur = np.where(ok, g[np.minimum(j, len(g) - 1)], cur)
        alive &= ok
    tf = np.bincount(docslot[alive & (cur - g1 <= W - 1)],
                     minlength=len(common))
    keep = tf > 0
    return common[keep], tf[keep]


class SegmentSearcher:
    """The per-segment BM25 kernel: scores every query of the payload
    against each segment named in a ``seg_dir`` batch (the reference's
    per-segment reader, S5, `JVectorReader.java:42-331`).  Cold searches
    run it in stateless Ray tasks (``IndexSearcher._map_segments``),
    ``serve.SearchService`` in its shard actors; both read each segment
    through the process's ``SegmentReader`` cache."""

    def __init__(self, payload: dict):
        self.p = payload
        self.k1 = payload["k1"]
        self.b = payload["b"]
        self.avgdl = payload["avgdl"]
        self._counters: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from opensearch_jvector_ray.state import metrics
        self._counters: dict[str, int] = {}
        tables = [self._search_segment(d) for d in batch["seg_dir"].to_pylist()]
        tables = [t for t in tables if t is not None]
        metrics.incr({metrics.SEGMENTS_SEARCHED: batch.num_rows,
                      **self._counters})
        if not tables:
            return self._empty()
        return pa.concat_tables(tables)

    # -- helpers ---------------------------------------------------------
    def _empty(self) -> pa.Table:
        if self.p.get("agg") is not None:
            return self.p["agg_schema"].empty_table()
        cols: dict[str, pa.Array] = {"query_id": pa.array([], type=pa.string())}
        for kc, kt in self.p["key_types"]:
            cols[kc] = pa.array([], type=kt)
        if self.p.get("sort") is not None:
            cols[self.p["sort"]["field"]] = pa.array(
                [], type=self.p["sort_type"])
        cols["score"] = pa.array([], type=pa.float64())
        return pa.table(cols)

    # -- the only segment I/O of the kernel ------------------------------
    def _postings(self, reader: SegmentReader, terms: Sequence[str],
                  mode: str) -> dict[str, Any]:
        """The ``terms`` present in one segment, as ``mode``'s scorer
        reads them: the positional family (``_POSITIONAL``) gets
        (ords, flat positions, offsets) slots, each decoded at most once
        for the whole query batch and only when a kernel asks; WAND gets
        the encoded posting rows (column -> value, with the per-block
        skip data: it decodes only the blocks its bounds keep); every
        other mode gets (ords, tfs), read without positions."""
        if mode in self._POSITIONAL:
            return reader.slots(terms)
        if mode == "wand":
            return reader.rows(terms)
        return reader.decoded(terms)

    def _search_segment(self, seg_dir: str) -> pa.Table | None:
        p = self.p
        union_terms = p["union_terms"]
        if not union_terms:
            return None
        reader = SegmentReader(seg_dir, p.get("codec", "varint"),
                               p.get("block_size", 128))
        docs, dl, tie = reader.docs()
        n_docs = docs.num_rows
        if n_docs == 0:
            return None

        boost = (_doc_boost(docs, p["score_fn"])
                 if p.get("score_fn") is not None else None)
        addend = (_doc_addend(docs, p["rank_feature"])
                  if p.get("rank_feature") is not None else None)
        sort_spec = p.get("sort")
        sortnum = (_sort_key_numeric(docs, sort_spec["field"])
                   if sort_spec else None)

        mask: np.ndarray | None = None
        if p["filter"] is not None:
            with_ord = docs.append_column(
                "__ord", pa.array(np.arange(n_docs, dtype=np.int64)))
            kept = with_ord.filter(p["filter"])["__ord"].to_numpy(zero_copy_only=False)
            mask = np.zeros(n_docs, dtype=bool)
            mask[kept] = True

        mode = p["mode"]
        post = self._postings(reader, union_terms, mode)
        kernel = self._POSITIONAL.get(mode)

        out_qid: list[str] = []
        out_ord: list[np.ndarray] = []
        out_sc: list[np.ndarray] = []
        agg = p.get("agg")
        if agg is not None and "filters" in agg:
            # masks are query-independent: compute once per segment
            agg = {**agg, "_masks": _filters_masks(docs, agg["filters"])}
        ftables: list[pa.Table] = []
        sig_sets: dict[str, np.ndarray] = {}
        sa_all = p.get("search_after") or {}
        key_names = [kc for kc, _ in p["key_types"]]
        for q in p["queries"]:
            if kernel is not None:
                ords, scores = kernel(self, q, post, dl, mask, tie)
                out_qid.extend([q["query_id"]] * len(ords))
                out_ord.append(ords)
                out_sc.append(scores)
                continue
            if mode == "synonym":
                gs = [{**g, "terms": [t for t in g["terms"] if t in post]}
                      for g in q["groups"]]
                gs = [g for g in gs if g["terms"]]
                if not gs:
                    continue
                ords, scores = self._taat_groups(gs, post, dl, mask,
                                                 q["k"], tie)
                out_qid.extend([q["query_id"]] * len(ords))
                out_ord.append(ords)
                out_sc.append(scores)
                continue
            if mode == "dismax":
                # DisjunctionMaxQuery over arbitrary subqueries on ONE
                # index [Lucene DisMaxQuery public semantics]:
                # score = best + tie * (total - best), combined PER
                # SEGMENT over dense subquery score arrays (doc-local
                # formula => per-segment combine is exact; nothing
                # match-set-sized leaves the task).  fp rule: total is
                # the SEQUENTIAL subquery-index chain s0 + s1 + ...
                # (subquery count capped at 8 so the SQL left-assoc
                # chain matches), best is exact elementwise max.
                subs = q["sub_terms"]
                arr = np.zeros((len(subs), n_docs), dtype=np.float64)
                for i, st in enumerate(subs):
                    for (t, w, idf) in st:
                        if t not in post:
                            continue
                        o2, tfs = post[t]
                        arr[i, o2] += w * idf * bm25_tf_part(
                            tfs, dl[o2], self.avgdl, self.k1, self.b)
                best = arr[0].copy()
                for i in range(1, len(subs)):
                    np.maximum(best, arr[i], out=best)
                total = arr[0].copy()
                for i in range(1, len(subs)):
                    total = total + arr[i]
                scores = best + p["dismax_tie"] * (total - best)
                if mask is not None:
                    best[~mask] = 0.0
                candidates = np.flatnonzero(best > 0.0)
                ords, scores = _topk_from_scores(scores, candidates,
                                                 q["k"], tie)
                out_qid.extend([q["query_id"]] * len(ords))
                out_ord.append(ords)
                out_sc.append(scores)
                continue
            terms = [(t, w, idf) for (t, w, idf) in q["terms"]
                     if t in post]
            if not terms:
                continue
            if mode == "wand":
                ords, scores = self._wand(terms, post, dl, mask, q["k"], tie)
            elif mode == "boolean":
                bmask = np.ones(len(dl), dtype=bool) if mask is None \
                    else mask.copy()
                ok = True
                for t in q.get("must", ()):     # every MUST term present
                    if t not in post:
                        ok = False              # term absent from segment
                        break
                    m = np.zeros(len(dl), dtype=bool)
                    m[post[t][0]] = True
                    bmask &= m
                if not ok:
                    continue
                for t in q.get("must_not", ()):
                    if t in post:
                        bmask[post[t][0]] = False
                msm = p.get("msm")
                if msm:
                    # minimum_should_match [Lucene BooleanQuery public
                    # semantics]: a doc qualifies iff it matches >= msm
                    # DISTINCT should terms; fewer should terms than msm
                    # in the query => the query matches nothing
                    cnt = np.zeros(len(dl), dtype=np.int32)
                    for t in q.get("should", ()):
                        if t in post:
                            cnt[post[t][0]] += 1
                    bmask &= cnt >= msm
                ords, scores = self._taat(terms, post, dl, bmask, q["k"],
                                          tie=tie,
                                          min_score=p.get("min_score"))
            else:
                after = None
                sa = sa_all.get(q["query_id"])
                if sa is not None:
                    after = (float(sa["score"]),
                             lambda o, _k=sa["key"]: _key_gt(docs, key_names,
                                                             o, _k))
                neg = None
                if p.get("neg") is not None:
                    negmask = np.zeros(len(dl), dtype=bool)
                    for t in p["neg"].get(q["query_id"], ()):
                        if t in post:
                            negmask[post[t][0]] = True
                    neg = (negmask, p["negative_boost"])
                tmask = mask
                ts_spec = p.get("terms_set")
                if ts_spec is not None:
                    # terms_set query [OpenSearch terms_set public
                    # semantics, with the canonical min(num_terms,
                    # field) minimum_should_match_script]: a doc
                    # qualifies iff it matches >= max(1, min(n_query
                    # _terms, required_field)) DISTINCT query terms.
                    # n_query_terms is the GLOBAL query property
                    # (shipped in the payload), matched counts are
                    # segment-local.
                    reqv = docs[ts_spec["field"]] \
                        .to_numpy(zero_copy_only=False).astype(np.int64)
                    cnt = np.zeros(n_docs, dtype=np.int64)
                    for t in sorted({tt for (tt, _, _) in terms}):
                        cnt[post[t][0]] += 1
                    need = np.maximum(
                        1, np.minimum(
                            int(ts_spec["n_terms"][q["query_id"]]), reqv))
                    tm = cnt >= need
                    tmask = tm if tmask is None else (tmask & tm)
                ords, scores = self._taat(terms, post, dl, tmask, q["k"],
                                          rescore=p["rescore_oversample"] if mode == "rescore" else None,
                                          tie=tie,
                                          min_score=p.get("min_score"),
                                          after=after, boost=boost,
                                          sort_key=sortnum,
                                          sort_desc=bool(sort_spec and
                                                         sort_spec["desc"]),
                                          neg=neg,
                                          const=p.get("const"),
                                          addend=addend)
            if agg is not None:
                # aggregation partial over this segment's qualifying
                # docs — only aggregate-sized rows leave the task (A2's
                # combiner-first rule), never the hit set
                if agg["kind"] == "sig_text":
                    # defer: one postings scan serves ALL queries
                    sig_sets[q["query_id"]] = ords
                    continue
                if len(ords):
                    ftables.append(_agg_partial(agg, p["agg_schema"], docs,
                                                ords, q["query_id"],
                                                scores=scores))
                continue
            out_qid.extend([q["query_id"]] * len(ords))
            out_ord.append(ords)
            out_sc.append(scores)
        if agg is not None:
            if agg["kind"] == "sig_text":
                return _sig_text_scan(reader, sig_sets, n_docs,
                                      p["agg_schema"])
            return pa.concat_tables(ftables) if ftables else None
        if not out_qid:
            return None
        ords_all = np.concatenate(out_ord)
        cols: dict[str, Any] = {"query_id": pa.array(out_qid, type=pa.string())}
        take_idx = pa.array(ords_all)
        for kc, _ in p["key_types"]:
            cols[kc] = docs[kc].take(take_idx)
        if sort_spec is not None:
            cols[sort_spec["field"]] = docs[sort_spec["field"]].take(take_idx)
        cols["score"] = pa.array(np.concatenate(out_sc), type=pa.float64())
        return pa.table(cols)

    # -- the phrase/span family: slots -> one combine rule -> BM25 -------
    # Every kernel takes (q, post, dl, mask, tie), ``post`` being the
    # segment's slots (``_postings``), and returns the segment's top-k
    # (ords, scores); a query whose slots are absent matches nothing.
    def _bm25(self, hits, idf_sum: float, dl: np.ndarray) -> np.ndarray:
        """Dense per-doc scores of (docs, tf) pairs: idf_sum *
        tf/(tf + k1*(1-b+b*dl/avgdl)), zero elsewhere."""
        docs, tf = hits
        scores = np.zeros(len(dl), dtype=np.float64)
        scores[docs] = idf_sum * bm25_tf_part(
            tf.astype(np.float64), dl[docs], self.avgdl, self.k1, self.b)
        return scores

    def _top(self, hits, idf_sum, dl, k, tie):
        return _topk_from_scores(self._bm25(hits, idf_sum, dl), hits[0], k, tie)

    def _span_ordered(self, q, post, dl, mask, tie):
        """Exact phrase [Lucene PhraseQuery] and in-order proximity
        [Lucene SpanNearQuery(inOrder=true), the sloppy-phrase analog;
        rule defined here and mirrored by the SQL oracle]: the ordered
        chain (``_chain_tf``) over the query terms in sequence order,
        duplicates kept, with W = n_terms + slop (slop is 0 for a
        phrase: adjacent positions, overlaps counted).  Positions are on
        the PRE-stopword axis, so StopFilter gaps break phrases as in
        Lucene.  score = idf_sum (sequence order, duplicates counted —
        the Lucene per-clause sum) * tf-part."""
        slots = _slots([t for t, _, _ in q["terms"]], post)
        if not slots:
            return _NO_HITS
        idf_sum = float(sum(w * idf for (_, w, idf) in q["terms"]))
        return self._top(_chain_tf(slots, len(slots) + self.p["slop"], mask),
                         idf_sum, dl, q["k"], tie)

    def _phrase_prefix(self, q, post, dl, mask, tie):
        """match_phrase_prefix [Lucene MultiPhraseQuery public
        semantics]: an exact phrase whose LAST slot accepts ANY term of
        the capped prefix-expansion set — the ordered chain with
        W = n slots whose last slot is the union of the expansion
        terms' positions; idf_sum (precomputed at prepare time from
        GLOBAL stats: literal idfs in position order + expansion idfs
        term-ascending) scales the shared tf-part."""
        lits = _slots(q["lit_terms"], post)
        if lits is None:
            return _NO_HITS
        exps = [post[e] for e in q["exp_terms"] if e in post]
        if not exps:
            return _NO_HITS
        slots = [*lits, _union_slot(exps)]
        return self._top(_chain_tf(slots, len(slots), mask), q["idf_sum"],
                         dl, q["k"], tie)

    def _span_near(self, q, post, dl, mask, tie):
        """Unordered proximity scoring [Lucene SpanNearQuery-shaped;
        window rule defined here and mirrored symbol-for-symbol by the
        SQL oracle]: with window width W = n_distinct_terms + slop, a
        match start is any position s (on the PRE-stopword axis, s may
        hang off either end) whose width-W window contains at least one
        occurrence of EVERY distinct query term; tf = number of such
        starts (the window cover, ``_window_tf``), score = idf_sum over
        the distinct terms, first-occurrence analyzed order * tf-part."""
        seen: dict[str, tuple] = {}
        for tr in q["terms"]:
            seen.setdefault(tr[0], tr)
        slots = _slots(seen, post)
        if not slots:
            return _NO_HITS
        idf_sum = float(sum(w * idf for (_, w, idf) in seen.values()))
        return self._top(_window_tf(slots, len(slots) + self.p["slop"], mask),
                         idf_sum, dl, q["k"], tie)

    def _span_or_near(self, q, post, dl, mask, tie):
        """span_near over span_or clauses [Lucene SpanNearQuery over
        SpanOrQuery public semantics; rule defined here and mirrored by
        the SQL oracle]: each clause is a set of alternative terms
        whose per-doc occurrence positions are UNIONED; containment
        (width W = n_clauses + slop) then runs exactly like _span_near
        over the clause slots, and needs >= 1 member of every clause in
        the segment.  Clause idf follows the SynonymQuery-BLENDED rule
        the synonym engine already uses: idf from the MAX member df;
        idf_sum = Σ clause idfs in clause order."""
        groups = q["groups"]
        if not groups or not all(any(t in post for t in g["terms"])
                                  for g in groups):
            return _NO_HITS
        members = [[post[t] for t in g["terms"] if t in post] for g in groups]
        idf_sum = float(sum(g["idf"] for g in groups))
        return self._top(_window_tf([_union_slot(m) for m in members],
                                    len(groups) + self.p["slop"], mask),
                         idf_sum, dl, q["k"], tie)

    def _span_containing(self, q, post, dl, mask, tie):
        """span_containing [Lucene SpanContainingQuery-shaped; rule
        defined here and mirrored by the SQL oracle]: big = the
        span_near window over the big terms (width W = n_big + slop),
        little = a single term; tf = number of valid big window ENDS
        whose window ALSO contains >= 1 little occurrence — exactly the
        span_near containment with the little term as one extra slot;
        score = idf_sum(BIG terms only) * tf-part (the big span is what's
        scored)."""
        big = q["terms"]
        slots = _slots([t for t, _, _ in [*big, q["span_little"]]], post)
        if not big or slots is None:
            return _NO_HITS
        idf_sum = float(sum(w * idf for (_, w, idf) in big))
        return self._top(_window_tf(slots, len(big) + self.p["slop"], mask),
                         idf_sum, dl, q["k"], tie)

    def _span_within(self, q, post, dl, mask, tie):
        """span_within [Lucene SpanWithinQuery-shaped; rule defined
        here and mirrored by the SQL oracle]: tf = number of LITTLE
        occurrences p covered by some valid big window (∃ window end
        e in [p, p+W-1] whose width-W window contains every big term,
        W = n_big + slop); score = w * idf(little) * tf-part (the
        little span is what's scored).  The big terms' window cells
        (``_window_cells``) plus ONE cumsum window-count over the
        little positions."""
        big, (_, lw, lidf) = q["terms"], q["span_little"]
        slots = _slots([t for t, _, _ in [*big, q["span_little"]]], post)
        if not big or slots is None:
            return _NO_HITS
        W = len(big) + self.p["slop"]
        common = _slot_docs(slots, mask)
        if not len(common):
            return _NO_HITS
        idxs, base, n = _doc_axis(slots, common, W + 2)
        c = np.cumsum(_window_cells(slots[:-1], idxs[:-1], base, n, W)
                      .astype(np.int64))
        g, docslot = _gather(slots[-1], idxs[-1], base)
        hi = c[g + W - 1]
        lo = np.where(g > 0, c[np.maximum(g - 1, 0)], 0)
        tf = np.bincount(docslot[hi - lo > 0], minlength=len(common))
        keep = tf > 0
        return self._top((common[keep], tf[keep]), lw * lidf, dl, q["k"], tie)

    def _span_not(self, q, post, dl, mask, tie):
        """span_not [Lucene SpanNotQuery public semantics, single-term
        include/exclude; rule defined here and mirrored by the SQL
        oracle]: an include-term occurrence at position p (PRE-stopword
        axis) survives unless some exclude-term occurrence q satisfies
        q - pre <= p <= q + post; tf = surviving occurrences, score =
        w * idf(include) * tf-part.  Docs without the exclude term keep
        their full tf; exclude-only docs never match."""
        (inc, w, idf), = q["terms"]
        if inc not in post:
            return _NO_HITS
        slot = post[inc]
        ords, _, offs = slot
        tf = np.diff(offs)
        exc = q.get("span_not_exc")
        if exc in post:
            # docs holding both: mark the [q-pre, q+post] zones on the
            # concatenated axis, count include positions outside them
            pre, after = self.p["span_pre"], self.p["span_post"]
            pair = [slot, post[exc]]
            common = _slot_docs(pair, None)
            if len(common):
                (ix, ix_e), base, n = _doc_axis(pair, common, after + 2)
                g_e, ds_e = _gather(pair[1], ix_e, base)
                zone = _cover(np.maximum(g_e - pre, base[ds_e]),
                              g_e + after + 1, n)
                g_i, ds_i = _gather(slot, ix, base)
                tf[ix] = np.bincount(ds_i[~zone[g_i]], minlength=len(common))
        keep = tf > 0
        if mask is not None:
            keep &= mask[ords]
        return self._top((ords[keep], tf[keep]), w * idf, dl, q["k"], tie)

    def _span_first(self, q, post, dl, mask, tie):
        """Span-first scoring [Lucene SpanFirstQuery-shaped; rule
        defined here and mirrored by the SQL oracle]: a term occurrence
        counts only if its position (PRE-stopword axis, 0-based) is
        < ``span_end`` — i.e. the match must sit inside the document's
        first ``span_end`` tokens.  Per term, tf_first = number of
        qualifying occurrences; score = the standard match-query sum
        over the analyzed terms present in the segment with tf_first in
        place of tf (terms with no qualifying occurrence contribute
        nothing; a doc matches if ANY term qualifies).  One cumsum of
        (pos < end) per term + ragged-offset differences."""
        end = self.p["span_end"]
        scores = np.zeros(len(dl), dtype=np.float64)
        for (t, w, idf) in q["terms"]:    # analyzed first-appearance order
            if t not in post:
                continue
            ords, flat, offs = post[t]
            c = np.concatenate([[0], np.cumsum(flat < end)])
            cnt = (c[offs[1:]] - c[offs[:-1]]).astype(np.float64)
            nz = cnt > 0.0
            if nz.any():
                sel = ords[nz]
                scores[sel] += w * idf * bm25_tf_part(
                    cnt[nz], dl[sel], self.avgdl, self.k1, self.b)
        if mask is not None:
            scores[~mask] = 0.0
        return _topk_from_scores(scores, np.flatnonzero(scores > 0.0),
                                 q["k"], tie)

    def _sqs(self, q, post, dl, mask, tie):
        """simple_query_string [OpenSearch public semantics, the
        +/-/"phrase"/trailing-* flag subset]: score = the SEQUENTIAL
        clause-index chain of positive-clause scores; a doc qualifies
        iff it matches every MUST clause, no MUST_NOT clause, and >= 1
        positive clause.  A phrase clause scores as an exact phrase
        (the ordered chain, W = n terms), a term clause as the BM25 sum.
        Clause scores are doc-local => per-segment combine + bounded
        top-k is exact; the oracle mirrors the chain as left-assoc
        COALESCE sums over per-clause radial CTEs in the same clause
        order."""
        n_docs = len(dl)
        scores = np.zeros(n_docs, dtype=np.float64)
        qual = (np.ones(n_docs, dtype=bool) if mask is None
                else mask.copy())
        pos_match = np.zeros(n_docs, dtype=bool)
        for cl in q["clauses"]:
            if cl["kind"] == "phrase":
                slots = _slots([t for t, _, _ in cl["terms"]], post)
                cd = (self._bm25(_chain_tf(slots, len(slots), None),
                                 float(sum(w * idf for (_, w, idf)
                                           in cl["terms"])), dl)
                      if slots else np.zeros(n_docs, dtype=np.float64))
            else:
                cd = np.zeros(n_docs, dtype=np.float64)
                for (t, w, idf) in cl["terms"]:
                    if t not in post:
                        continue
                    o2, tfs = post.decoded(t)
                    cd[o2] += w * idf * bm25_tf_part(
                        tfs, dl[o2], self.avgdl, self.k1, self.b)
            m = cd > 0.0
            if cl["occur"] == "must_not":
                qual &= ~m
                continue
            if cl["occur"] == "must":
                qual &= m
            scores = scores + cd
            pos_match |= m
        return _topk_from_scores(scores, np.flatnonzero(qual & pos_match),
                                 q["k"], tie)

    # mode -> kernel of the positional family; ``_postings`` hands these
    # modes position slots
    _POSITIONAL = {
        "phrase": _span_ordered, "span_ordered": _span_ordered,
        "phrase_prefix": _phrase_prefix, "span": _span_near,
        "span_or": _span_or_near, "span_containing": _span_containing,
        "span_within": _span_within, "span_not": _span_not,
        "span_first": _span_first, "sqs": _sqs,
    }

    def _taat_groups(self, groups, decoded, dl, mask, k, tie=None):
        """Synonym-group scoring [Lucene SynonymQuery public semantics]:
        each group scores as ONE pseudo-term — per-doc tf is the SUM of
        the member terms' tfs, idf comes from the MAX member df (already
        folded into ``g["idf"]`` at prepare time), so a doc matching two
        synonyms saturates like one frequent term instead of scoring the
        disjunction twice.  Groups sum in query order (pinned fp order);
        within a group the tf accumulation is integer-exact."""
        n_docs = len(dl)
        scores = np.zeros(n_docs, dtype=np.float64)
        for g in groups:
            tf_doc = np.zeros(n_docs, dtype=np.float64)
            for t in g["terms"]:
                ords, tfs = decoded[t]
                tf_doc[ords] += tfs
            cand = np.flatnonzero(tf_doc > 0.0)
            scores[cand] += g["w"] * g["idf"] * bm25_tf_part(
                tf_doc[cand], dl[cand], self.avgdl, self.k1, self.b)
        if mask is not None:
            scores[~mask] = 0.0
        candidates = np.flatnonzero(scores > 0.0)
        self._counters["candidates_scored"] = (
            self._counters.get("candidates_scored", 0) + len(candidates))
        return _topk_from_scores(scores, candidates, k, tie)

    def _wand(self, terms, rows, dl, mask, k, tie=None):
        """Block-max WAND [Lucene public semantics: impacts/BMW] as a
        block filter in front of ``_taat``: only the posting blocks that
        can hold a top-k doc are decoded, then scored exactly.

        Every term's ``blk_last_ord`` cuts the ordinal axis into
        intervals, each inside one block per term; an interval's bound
        is the sum of those blocks' block-max scores (max tf, min doc
        length).  theta is the k-th score of ``_taat`` over the blocks
        under the highest-bound intervals (their count doubling until k
        hits come back, else theta = -inf); a partial score never
        exceeds the exact one, so theta never exceeds the true k-th
        score.  The result is ``_taat`` over the blocks covering every
        interval whose bound is >= theta: a doc that can reach the top k
        lies in such an interval with all its blocks decoded, so hits,
        scores and ties equal plain ``_taat`` bit for bit."""
        codec = self.p.get("codec", "varint")
        block_size = self.p.get("block_size", 128)
        last = [np.asarray(rows[t]["blk_last_ord"], dtype=np.int64)
                for t, _, _ in terms]
        cuts = np.unique(np.concatenate(last))
        # blk[i][j]: term i's block covering interval (cuts[j-1], cuts[j]]
        blk = [np.searchsorted(lo, cuts) for lo in last]
        bound = np.zeros(len(cuts), dtype=np.float64)
        for (t, w, idf), b in zip(terms, blk):
            tfp = bm25_tf_part(rows[t]["blk_max_tf"], rows[t]["blk_min_dl"],
                               self.avgdl, self.k1, self.b)
            ub = w * idf * tfp * (1.0 + 1e-12) + 1e-12
            has = b < len(ub)
            bound[has] += ub[b[has]]

        def score_blocks(keep):
            sel = [np.unique(b[keep & (b < len(lo))])
                   for b, lo in zip(blk, last)]
            dec = {t: decode_blocks(rows[t], s, codec, block_size)
                   for (t, _, _), s in zip(terms, sel)}
            return (self._taat(terms, dec, dl, mask, k, tie=tie),
                    sum(map(len, sel)))

        theta, m = -np.inf, k
        order = np.argsort(-bound, kind="stable")
        while m < len(cuts):
            keep = np.zeros(len(cuts), dtype=bool)
            keep[order[:m]] = True
            (ords, scores), _ = score_blocks(keep)
            if len(ords) == k:
                theta = scores[-1]
                break
            m *= 2
        c = self._counters
        n0 = c.get("candidates_scored", 0)
        (ords, scores), n_dec = score_blocks(bound >= theta)
        c["wand_blocks_pruned"] = (c.get("wand_blocks_pruned", 0)
                                   + sum(map(len, last)) - n_dec)
        c["wand_docs_evaluated"] = (c.get("wand_docs_evaluated", 0)
                                    + c["candidates_scored"] - n0)
        return ords, scores

    def _taat(self, terms, decoded, dl, mask, k, rescore=None, tie=None,
              min_score=None, after=None, boost=None, sort_key=None,
              sort_desc=False, neg=None, const=None, addend=None):
        """Term-at-a-time vectorized scoring; optional two-pass rescore.

        ``min_score`` switches to the UNCAPPED radial predicate (O5 is a
        score>=theta predicate, not a heap): every candidate at or above
        the threshold is returned — no silent max_k truncation.

        ``after`` = (score, key_gt_fn) is the search_after boundary: a
        candidate survives iff it sorts strictly AFTER the boundary in
        the global (score desc, key asc) order — applied BEFORE the
        local top-k so each segment returns its best k rows beyond the
        boundary (deep pagination never re-ships earlier pages)."""
        n_docs = len(dl)
        if rescore is not None:
            if after is not None:
                raise ValueError("search_after is not supported with rescore")
            # first pass: lossy quantized norms (PQ-approx analog)
            dl_q = quantize_doc_len(dl)
            k1 = self.p["first_pass_k"](k, rescore)
            scores_q = np.zeros(n_docs, dtype=np.float64)
            for t, w, idf in terms:
                ords, tfs = decoded[t]
                scores_q[ords] += w * idf * bm25_tf_part(tfs, dl_q[ords], self.avgdl,
                                                         self.k1, self.b)
            if mask is not None:
                scores_q[~mask] = 0.0
            cand = np.flatnonzero(scores_q > 0.0)
            cand, _ = _topk_from_scores(scores_q, cand, k1, tie)
            # second pass: exact BM25 on the candidate set only
            cand_sorted = np.sort(cand)
            exact = np.zeros(len(cand_sorted), dtype=np.float64)
            for t, w, idf in terms:
                ords, tfs = decoded[t]
                pos = np.searchsorted(ords, cand_sorted)
                pos = np.clip(pos, 0, len(ords) - 1)
                hit = ords[pos] == cand_sorted
                if hit.any():
                    tf_h = tfs[pos[hit]]
                    exact[hit] += w * idf * bm25_tf_part(
                        tf_h, dl[cand_sorted[hit]], self.avgdl, self.k1, self.b)
            scores = np.zeros(n_docs, dtype=np.float64)
            scores[cand_sorted] = exact
            cand2 = cand_sorted[exact > 0.0]
            return _topk_from_scores(scores, cand2, k, tie)

        scores = np.zeros(n_docs, dtype=np.float64)
        linear = bool(self.p.get("linear_tf"))
        for t, w, idf in terms:      # fixed analyzed order -> stable fp sums
            ords, tfs = decoded[t]
            if linear:
                # sparse_vector / neural_sparse scoring [OpenSearch
                # neural-sparse + Lucene FeatureField linear form]:
                # contribution = query_weight * tf — no idf, no length
                # norm; integer weights x integer tf keep per-doc sums
                # exact (order-free), so ranking is fp-noise-immune
                scores[ords] += w * tfs
            else:
                scores[ords] += w * idf * bm25_tf_part(tfs, dl[ords],
                                                       self.avgdl,
                                                       self.k1, self.b)
        if boost is not None:
            # function_score multiplier, applied to the summed BM25
            # score BEFORE candidate selection (it changes the ranking);
            # a zero multiplier (e.g. beyond a linear decay's reach)
            # drops the doc — the score>0 match predicate is preserved
            scores *= boost
        if neg is not None:
            # boosting query [OpenSearch boosting-query public
            # semantics]: docs matching the negative clause keep
            # matching but are DEMOTED by negative_boost
            negmask, nb = neg
            scores[negmask] *= nb
        if mask is not None:
            scores[~mask] = 0.0
        candidates = np.flatnonzero(scores > 0.0)
        if addend is not None:
            # rank_feature / distance_feature additive contribution
            # [Lucene RankFeature/DistanceFeature public semantics]:
            # added to MATCHING docs only, AFTER the BM25 sum (one add
            # per doc — the oracle's score__raw + expr); the addend is
            # non-negative so the score>0 match predicate is preserved
            scores[candidates] = scores[candidates] + addend[candidates]
        if const is not None:
            # constant_score [OpenSearch constant_score public
            # semantics]: every matching doc scores exactly ``boost`` —
            # ranking degenerates to the key-asc tie order
            scores[candidates] = const
        self._counters["candidates_scored"] = (
            self._counters.get("candidates_scored", 0) + len(candidates))
        if after is not None and len(candidates):
            s_a, key_gt = after
            c_sc = scores[candidates]
            keep = c_sc < s_a
            eqm = c_sc == s_a
            if eqm.any():
                keep[eqm] = key_gt(candidates[eqm])
            candidates = candidates[keep]
        if min_score is not None:
            candidates = candidates[scores[candidates] >= min_score]
            return _topk_from_scores(scores, candidates, len(candidates), tie)
        if sort_key is not None:
            # sort-by-field [OpenSearch sort clause public semantics]:
            # hits are the score>0 match set, ranked (field dir, key
            # asc) — BM25 scores are still computed and reported, they
            # just don't drive the order
            n = min(k, len(candidates))
            if n == 0:
                return (np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.float64))
            tie_of = (lambda o: o) if tie is None else (lambda o: tie[o])
            sk = sort_key[candidates]
            if sort_desc:
                # integer keys flip via bitwise complement: -sk wraps
                # at int64.min / any uint64, ~sk is exact and monotone
                sk = ~sk if sk.dtype.kind in "iu" else -sk
            order = np.lexsort((tie_of(candidates), sk))
            sel = candidates[order[:n]]
            return sel, scores[sel]
        return _topk_from_scores(scores, candidates, k, tie)


# ---------------------------------------------------------------------------
# query-time fan-out
# ---------------------------------------------------------------------------

@ray.remote
def _run_task(fn: Callable[..., pa.Table], batch: pa.Table,
              kw: dict) -> pa.Table:
    return fn(batch, **kw)


def _fan_out(fn: Callable[..., pa.Table], items: Sequence[dict],
             concurrency: int | None = None, **kw) -> list[pa.Table]:
    """Run ``fn(batch, **kw)`` as plain Ray tasks, one per item (a
    ``{"seg_dir": d}`` row, or a per-field slot of segment dirs), and
    return the tables in item order.  ``kw`` is put in the object store
    once for all tasks.  ``concurrency`` caps the task count: the items
    split into that many contiguous batches (None or 0: no cap).

    Plain tasks, because a query's kernel work is less than what a Ray
    Data dataset costs to plan and start (~25 vs ~70 ms per call on a
    2-segment, 36k-turn index, one CPU), and because an idle actor pool
    would hold CPUs the serving actors need.  Build and merge, which stream the corpus,
    stay on Ray Data."""
    items = list(items)
    if concurrency is not None and concurrency < 0:
        raise ValueError(f"concurrency must be >= 1, or None/0 for one "
                         f"task per item; got {concurrency}")
    if not items:
        return []
    n = min(concurrency or len(items), len(items))
    cuts = [len(items) * i // n for i in range(n + 1)]
    kw_ref = ray.put(kw)
    return ray.get([
        _run_task.remote(fn, pa.Table.from_pylist(items[lo:hi]), kw_ref)
        for lo, hi in zip(cuts, cuts[1:])])


def _search_segments_task(batch: pa.Table, payload: dict) -> pa.Table:
    """Stateless per-task wrapper around SegmentSearcher."""
    return SegmentSearcher(payload)(batch)


def _docs_value_counts_task(batch: pa.Table, field: str) -> pa.Table:
    """Value counts of one stored column over whole segments (docs
    sidecar only — the significant_terms background partial)."""
    tables = []
    for d in batch["seg_dir"].to_pylist():
        t = pq.read_table(os.path.join(d, DOCS_NAME), columns=[field])
        # count_all, not (field, "count"): a NULL-valued bucket must
        # carry its true row count so bg_tot matches the oracle's
        # count(*) over all rows (latent JLH drift on nullable fields)
        vc = t.group_by(field).aggregate([([], "count_all")])
        tables.append(pa.table({
            field: vc[field].combine_chunks(),
            "bg_count": pc.cast(vc["count_all"], pa.int64()),
        }))
    return pa.concat_tables(tables)


def _keys_present_task(batch: pa.Table, field: str, ids: list) -> pa.Table:
    """Existence probe: which of the given key values live in these
    segments (pushed-down parquet IN filter over the docs sidecar —
    id-list-sized result, the pinned-query probe)."""
    tables = []
    for d in batch["seg_dir"].to_pylist():
        tables.append(pq.read_table(os.path.join(d, DOCS_NAME),
                                    columns=[field],
                                    filters=[(field, "in", ids)]))
    return pa.concat_tables(tables)


def _docs_stats_task(batch: pa.Table, field: str) -> pa.Table:
    """Whole-segment integer stats partial of one stored column (docs
    sidecar only — the global-agg fan-out; no postings touched)."""
    rows = {"doc_count": [], "v_sum": [], "v_min": [], "v_max": []}
    for d in batch["seg_dir"].to_pylist():
        t = pq.read_table(os.path.join(d, DOCS_NAME), columns=[field])
        v = t[field].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(v):
            continue
        rows["doc_count"].append(len(v))
        rows["v_sum"].append(int(v.sum()))
        rows["v_min"].append(int(v.min()))
        rows["v_max"].append(int(v.max()))
    return pa.table({k: pa.array(vv, type=pa.int64())
                     for k, vv in rows.items()})


def _mget_task(batch: pa.Table, flt) -> pa.Table:
    """Pushed-down sidecar read for mget's many-segment fan-out: only
    rows matching the key filter leave the task (result-sized)."""
    return pa.concat_tables([
        pq.read_table(os.path.join(d, DOCS_NAME), filters=flt)
        for d in batch["seg_dir"].to_pylist()])


def _field_stats_task(batch: pa.Table, fields: list[str]) -> pa.Table:
    """Per-segment field-stats partial: for each requested stored field,
    (type name, non-null count, min/max) — numerics also ship float64
    partials so the driver combine is numeric, strings ship string
    partials.  Columnar-pruned sidecar read; no postings touched."""
    out = {"field": [], "type": [], "doc_count": [], "is_num": [],
           "min_str": [], "max_str": [], "min_num": [], "max_num": []}
    for d in batch["seg_dir"].to_pylist():
        t = pq.read_table(os.path.join(d, DOCS_NAME), columns=fields)
        for f in fields:
            col = t[f]
            typ = str(col.type)
            # Arrow type predicates, not name prefixes: halffloat /
            # decimal128 are numeric too — a string-branch min/max
            # would combine lexicographically across segments
            is_num = (pa.types.is_integer(col.type)
                      or pa.types.is_floating(col.type)
                      or pa.types.is_decimal(col.type))
            n = len(col) - col.null_count
            mn_s = mx_s = None
            mn_n = mx_n = float("nan")
            if n:
                try:
                    mm = pc.min_max(col)
                except pa.lib.ArrowNotImplementedError:
                    # no native kernel (e.g. halffloat): numeric cast
                    mm = pc.min_max(pc.cast(col, pa.float64()))
                lo, hi = mm["min"].as_py(), mm["max"].as_py()
                if is_num:
                    mn_n, mx_n = float(lo), float(hi)
                else:
                    mn_s, mx_s = str(lo), str(hi)
            out["field"].append(f)
            out["type"].append(typ)
            out["doc_count"].append(n)
            out["is_num"].append(bool(is_num))
            out["min_str"].append(mn_s)
            out["max_str"].append(mx_s)
            out["min_num"].append(mn_n)
            out["max_num"].append(mx_n)
    return pa.table({
        "field": pa.array(out["field"], type=pa.string()),
        "type": pa.array(out["type"], type=pa.string()),
        "doc_count": pa.array(out["doc_count"], type=pa.int64()),
        "is_num": pa.array(out["is_num"], type=pa.bool_()),
        "min_str": pa.array(out["min_str"], type=pa.string()),
        "max_str": pa.array(out["max_str"], type=pa.string()),
        "min_num": pa.array(out["min_num"], type=pa.float64()),
        "max_num": pa.array(out["max_num"], type=pa.float64()),
    })


def _children_terms_task(batch: pa.Table, parents: dict,
                         parent_col: str, field: str) -> pa.Table:
    """Per-segment children-agg partial: count a child field's values
    over the turns whose parent id is in each query's parent set.
    Sidecar-only (no postings); output is (queries x distinct values)-
    bounded.  Missing = NULL or '' (the string-sidecar sentinel rule
    shared with value_count/missing)."""
    out_q, out_v, out_c = [], [], []
    for d in batch["seg_dir"].to_pylist():
        t = pq.read_table(os.path.join(d, DOCS_NAME),
                          columns=[parent_col, field])
        pcol = t[parent_col]
        fcol = t[field]
        present = pc.and_(pc.is_valid(fcol), pc.not_equal(fcol, ""))
        for qid in sorted(parents):
            pset = pa.array(parents[qid], type=pcol.type)
            keep = pc.and_(pc.is_in(pcol, value_set=pset), present)
            vals = fcol.filter(keep)
            if not len(vals):
                continue
            g = pa.table({"v": vals}).group_by("v").aggregate(
                [("v", "count")])
            out_q.extend([qid] * g.num_rows)
            out_v.append(g["v"].combine_chunks())
            out_c.append(g["v_count"].combine_chunks())
    if not out_q:
        return pa.table({"query_id": pa.array([], type=pa.string()),
                         "value": pa.array([], type=pa.string()),
                         "doc_count": pa.array([], type=pa.int64())})
    return pa.table({
        "query_id": pa.array(out_q, type=pa.string()),
        "value": pa.concat_arrays([a.cast(pa.string()) for a in out_v]),
        "doc_count": pa.concat_arrays(
            [a.cast(pa.int64()) for a in out_c]),
    })


def _positions_for_segment(seg_dir: str, p: dict) -> pa.Table | None:
    """Matched-term positions for the hit docs living in one segment —
    the highlight fetch (the J4 hit->source pattern applied to the
    positions sidecar).  The per-hit loop runs over the k*queries hit
    rows, but each query term's full position list is decoded in every
    segment holding a hit, so the decode is bounded by the terms'
    corpus frequency, not by the result size."""
    key_cols = p["key_cols"]
    reader = SegmentReader(seg_dir, p["codec"], p["block_size"])
    docs = reader.docs()[0].select(list(key_cols)).to_pandas()
    docs["ord_"] = np.arange(len(docs), dtype=np.int64)
    hitdf = pd.DataFrame(p["hits"])
    m = hitdf.merge(docs, on=list(key_cols))
    if m.empty:
        return None
    term_data = reader.slots(p["union"])
    out_q: list[str] = []
    out_key: dict[str, list] = {kc: [] for kc in key_cols}
    out_t: list[str] = []
    out_p: list[np.ndarray] = []
    for rec in m.to_dict("records"):
        for t in p["qterms"].get(rec["query_id"], ()):
            td = term_data.get(t)
            if td is None:
                continue
            ords, flat, offs = td
            i = int(np.searchsorted(ords, rec["ord_"]))
            if i >= len(ords) or ords[i] != rec["ord_"]:
                continue
            pos = flat[offs[i]:offs[i + 1]]
            out_q.extend([rec["query_id"]] * len(pos))
            for kc in key_cols:
                out_key[kc].extend([rec[kc]] * len(pos))
            out_t.extend([t] * len(pos))
            out_p.append(np.asarray(pos, dtype=np.int64))
    if not out_q:
        return None
    cols: dict[str, Any] = {"query_id": pa.array(out_q, type=pa.string())}
    for kc in key_cols:
        cols[kc] = pa.array(out_key[kc])
    cols["term"] = pa.array(out_t, type=pa.string())
    cols["pos"] = pa.array(np.concatenate(out_p))
    return pa.table(cols)


def _positions_task(batch: pa.Table, payload: dict) -> pa.Table:
    tables = [_positions_for_segment(d, payload)
              for d in batch["seg_dir"].to_pylist()]
    tables = [t for t in tables if t is not None]
    if not tables:
        cols: dict[str, Any] = {"query_id": pa.array([], type=pa.string())}
        for kc, kt in payload["key_types"]:
            cols[kc] = pa.array([], type=kt)
        cols["term"] = pa.array([], type=pa.string())
        cols["pos"] = pa.array([], type=pa.int64())
        return pa.table(cols)
    return pa.concat_tables(tables)


# ---------------------------------------------------------------------------
# driver-side searcher
# ---------------------------------------------------------------------------

class IndexSearcher:
    """Loads index metadata once; fans queries out over segments."""

    def __init__(self, index_dir: str, pit: dict | None = None):
        self.index_dir = index_dir
        meta = read_json(os.path.join(index_dir, CONFIG_NAME))
        self.cfg = EngineConfig.from_json(meta["config"])
        self.spec = meta["spec"]
        if pit is not None:
            # point-in-time handle: bind the exact segment set, global
            # stats and dictionary generation captured at open_pit() time
            # (OpenSearch _search/point_in_time; Lucene reader-liveness —
            # appends publish NEW segment dirs and a NEW dictionary
            # generation, so everything the handle references is immutable)
            if pit.get("config_fingerprint") != self.cfg.fingerprint():
                raise ValueError("pit was opened against a different "
                                 "index config")
            self.stats = dict(pit["stats"])
            self.seg_dirs = list(pit["seg_dirs"])
            self.dict_dir = pit["dict_dir"]
        else:
            from opensearch_jvector_ray.state.manifest import (
                resolve_dict_dir)
            self.stats = read_json(os.path.join(index_dir, STATS_NAME))
            seg_root = os.path.join(index_dir, SEGMENTS_DIR)
            self.seg_dirs = sorted(
                os.path.join(seg_root, d) for d in os.listdir(seg_root)
                if d.startswith("seg="))
            self.dict_dir = resolve_dict_dir(index_dir)
        self.key_cols: list[str] = list(self.spec["key_cols"])

    def open_pit(self) -> dict:
        """Open a point-in-time context (the `_pit` API analog): a plain
        dict snapshot of this searcher's segment list, global stats and
        dictionary generation.  Pass it to ``IndexSearcher(dir, pit=...)``
        to search the index exactly as it was when the snapshot was
        taken, regardless of segments appended or dictionary generations
        published since (old generations are never rewritten in place)."""
        return {"seg_dirs": list(self.seg_dirs),
                "stats": dict(self.stats),
                "dict_dir": self.dict_dir,
                "config_fingerprint": self.cfg.fingerprint()}

    # -- dictionary lookup: filtered read, never loads the full vocab ----
    def lookup_df(self, terms: Sequence[str]) -> dict[str, int]:
        """term -> dictionary df of the present ``terms``, through the
        process's reader cache, keyed by the identity of the dictionary
        files read (a generation dir is immutable, the legacy flat
        layout is not, and an index can be rebuilt at the same path)."""
        dict_dir = self.dict_dir
        if not terms or not os.path.isdir(dict_dir) or not os.listdir(dict_dir):
            return {}
        from opensearch_jvector_ray.state.manifest import dict_read_paths
        paths = dict_read_paths(dict_dir)
        files = paths if isinstance(paths, list) else sorted(
            os.path.join(paths, f) for f in os.listdir(paths))

        def read(missing):
            tbl = pq.read_table(paths, filters=[("term", "in", missing)],
                                columns=["term", "df"])
            return {t: (df, len(t)) for t, df in zip(
                tbl["term"].to_pylist(), tbl["df"].to_pylist())}
        key = (tuple((f, *_file_id(f)) for f in files), "df")
        return _READERS.terms(key, terms, read)[0]

    def _read_dictionary(self, filters=None) -> pa.Table:
        dict_dir = self.dict_dir
        if not os.path.isdir(dict_dir) or not os.listdir(dict_dir):
            return pa.table({"term": pa.array([], type=pa.string()),
                             "df": pa.array([], type=pa.int64())})
        from opensearch_jvector_ray.state.manifest import dict_read_paths
        return pq.read_table(dict_read_paths(dict_dir),
                             columns=["term", "df"], filters=filters)

    # -- segment dispatch: every SegmentSearcher fan-out goes through here
    def _map_segments(self, payload: dict,
                      concurrency: int | None = None) -> list[pd.DataFrame]:
        """Run the segment kernel over every segment of ``self.seg_dirs``
        and return the per-segment partial frames (per task batch when
        ``concurrency`` caps the tasks), each with the kernel's schema
        even when empty.  Task fan-out (``_fan_out``): one-shot
        searches pay no actor spin-up and hold no CPU between calls; the
        worker processes Ray reuses keep their reader caches.  Serving
        on shard actors that hold their segments and a CPU overrides
        this (serve.SearchService)."""
        return self._fan_segments(_search_segments_task, concurrency,
                                  payload=payload)

    def _fan_segments(self, fn: Callable[..., pa.Table],
                      concurrency: int | None = None, **kw
                      ) -> list[pd.DataFrame]:
        """``fn`` over every segment of ``self.seg_dirs`` (``_fan_out``),
        as pandas frames in segment order."""
        return [t.to_pandas() for t in _fan_out(
            fn, [{"seg_dir": d} for d in self.seg_dirs], concurrency, **kw)]

    # -- multi-term expansion (the Lucene MultiTermQuery rewrite family) --
    def expand_prefix(self, prefix: str, max_expansions: int = 50,
                      ) -> list[str]:
        """Prefix (trailing-wildcard) term expansion [Lucene PrefixQuery
        under a scoring-BooleanQuery rewrite with a deterministic cap]:
        every dictionary term starting with ``prefix``, ordered
        (df DESC, term ASC), capped at ``max_expansions`` — the highest-
        df terms win the cap, mirroring Lucene's top-terms rewrites.

        The dictionary is term-SORTED parquet, so the read pushes the
        [prefix, successor(prefix)) range filter down to row groups —
        only the matching vocab slice leaves storage, never a scan.
        """
        return self.suggest_prefix(prefix, max_expansions)["term"].tolist()

    def suggest_prefix(self, prefix: str, n: int = 10) -> pd.DataFrame:
        """Completion suggester [Lucene/OpenSearch term-completion public
        semantics]: the top-n dictionary terms with the given prefix as
        (term, df), ordered (df DESC, term ASC) — popularity-ranked
        autocomplete straight off the range-pruned dictionary read."""
        if not prefix:
            raise ValueError("prefix must be non-empty")
        filters: list[tuple] = [("term", ">=", prefix)]
        hi = _prefix_upper_bound(prefix)
        if hi is not None:
            filters.append(("term", "<", hi))
        tbl = self._read_dictionary(filters)
        tbl = tbl.filter(pc.starts_with(tbl["term"], prefix))
        idx = pc.sort_indices(tbl, sort_keys=[("df", "descending"),
                                              ("term", "ascending")])
        return tbl.take(idx[:n]).to_pandas()[["term", "df"]]

    def expand_fuzzy(self, term: str, max_edits: int = 1,
                     prefix_length: int = 0,
                     max_expansions: int = 50,
                     transpositions: bool = False) -> list[str]:
        """Fuzzy term expansion [Lucene FuzzyQuery public semantics]:
        dictionary terms within ``max_edits`` unit-cost edits of
        ``term``, ordered (edit distance ASC, df DESC, term ASC),
        capped at ``max_expansions``.  ``transpositions=True`` (the
        OpenSearch match-query default) adds adjacent transposition as
        a unit edit — TRUE Damerau-Levenshtein (Lowrance-Wagner), which
        is what DuckDB's ``damerau_levenshtein`` computes, so the
        oracle stays symbol-for-symbol.

        ``prefix_length`` chars must match exactly (candidate[:pl] ==
        term[:pl], the slice-truncation rule — mirrored by the oracle's
        substr compare) and PRUNE the dictionary read to one sorted term
        range, the analog of Lucene walking only the matching FST
        subtree.  With prefix_length=0 the read is vocab-sized — the
        small side of the engine, but a real scan; at 1e8+ terms prefer
        prefix_length>=1 (documented gap vs Lucene's Levenshtein
        automaton).  A length band |len(t)-len(term)|<=max_edits prunes
        before the DP; the DP itself is vectorized across candidates.
        """
        return self.suggest_fuzzy(term, max_expansions, max_edits,
                                  prefix_length,
                                  transpositions)["term"].tolist()

    def suggest_fuzzy(self, term: str, n: int = 10, max_edits: int = 2,
                      prefix_length: int = 0,
                      transpositions: bool = False) -> pd.DataFrame:
        """Spell-correction suggester [Lucene DirectSpellChecker public
        semantics]: the top-n dictionary terms within ``max_edits`` of
        ``term`` as (term, dist, df), ordered (dist ASC, df DESC, term
        ASC) — 'did you mean' off the same pruned candidate set the
        fuzzy query expands."""
        if max_edits < 0:
            raise ValueError("max_edits must be >= 0")
        filters = None
        pl = min(prefix_length, len(term))
        if pl > 0:
            pfx = term[:pl]
            filters = [("term", ">=", pfx)]
            hi = _prefix_upper_bound(pfx)
            if hi is not None:
                filters.append(("term", "<", hi))
        tbl = self._read_dictionary(filters)
        lens = pc.utf8_length(tbl["term"])
        band = pc.and_(pc.greater_equal(lens, len(term) - max_edits),
                       pc.less_equal(lens, len(term) + max_edits))
        tbl = tbl.filter(band)
        cands = tbl["term"].to_pylist()
        if prefix_length > 0:
            keep = [i for i, t in enumerate(cands)
                    if t[:prefix_length] == term[:prefix_length]]
            tbl = tbl.take(pa.array(keep, type=pa.int64()))
            cands = [cands[i] for i in keep]
        if len(cands) > 256 and term:   # empty term: ucp would be empty
            # and the gather below would index [-1]; the DP alone
            # handles '' correctly (round-4 review)
            # bag-of-chars lower bound before the DP (bounds the pl=0
            # vocab scan): one edit changes the char multiset by at most
            # 2 in L1, so L1(bag) > 2*max_edits can never be within
            # max_edits; chars outside the query term share one 'other'
            # class (merging classes only lowers L1 — the bound stays
            # valid).  Vectorized: one codepoint concat + one bincount.
            tcp = np.frombuffer(term.encode("utf-32-le"), "<u4") \
                .astype(np.int64)
            ucp = np.unique(tcp)
            A = len(ucp) + 1
            tvec = np.zeros(A, dtype=np.int64)
            np.add.at(tvec, np.searchsorted(ucp, tcp), 1)
            joined = "".join(cands)
            clens = np.fromiter(map(len, cands), np.int64, len(cands))
            cp = np.frombuffer(joined.encode("utf-32-le"), "<u4") \
                .astype(np.int64)
            pos = np.searchsorted(ucp, cp)
            found = (pos < len(ucp)) & (ucp[np.minimum(pos,
                                                       len(ucp) - 1)]
                                        == cp)
            cls = np.where(found, pos, len(ucp))
            rows = np.repeat(np.arange(len(cands), dtype=np.int64),
                             clens)
            hist = np.bincount(rows * A + cls,
                               minlength=len(cands) * A) \
                .reshape(len(cands), A)
            l1 = np.abs(hist - tvec[None, :]).sum(axis=1)
            keep = np.flatnonzero(l1 <= 2 * max_edits)
            if len(keep) < len(cands):
                tbl = tbl.take(pa.array(keep, type=pa.int64()))
                cands = [cands[i] for i in keep.tolist()]
        # the bag-of-chars bound above stays valid for transpositions
        # (a swap changes the char multiset by 0 <= 2 in L1), as does
        # the length band (swaps preserve length)
        dist = (_damerau_levenshtein_vec(cands, term) if transpositions
                else _levenshtein_vec(cands, term))
        dfv = tbl["df"].to_numpy(zero_copy_only=False)
        hits = [(int(dist[i]), -int(dfv[i]), cands[i])
                for i in np.flatnonzero(dist <= max_edits)]
        hits.sort()
        hits = hits[:n]
        return pd.DataFrame({"term": [t for _, _, t in hits],
                             "dist": np.array([d for d, _, _ in hits],
                                              dtype=np.int64),
                             "df": np.array([-nd for _, nd, _ in hits],
                                            dtype=np.int64)})

    def suggest_phrase(self, texts: dict[str, str],
                       max_edits: int = 2) -> pd.DataFrame:
        """Phrase suggester [OpenSearch phrase-suggester public
        semantics, one-candidate-per-slot form]: each analyzed token of
        the input is kept if it exists in the vocabulary, otherwise
        replaced by its best DirectSpellChecker correction ((dist asc,
        df desc, term asc) — suggest_fuzzy's rule); tokens with no
        correction within ``max_edits`` stay as-is.  Returns
        (suggest_id, suggestion)."""
        from opensearch_jvector_ray.analyze import analyze_query
        rows = []
        for sid, text in sorted(texts.items()):
            toks = analyze_query(text, self.cfg)
            dfm = self.lookup_df(sorted(set(toks)))
            out = []
            for t in toks:
                if dfm.get(t, 0) > 0:
                    out.append(t)
                else:
                    c = self.suggest_fuzzy(t, n=1, max_edits=max_edits)
                    out.append(c["term"][0] if len(c) else t)
            rows.append((sid, " ".join(out)))
        return pd.DataFrame(rows, columns=["suggest_id", "suggestion"])

    def expand_regex(self, pattern: str, max_expansions: int = 50,
                     ) -> list[str]:
        """Regexp term expansion [Lucene RegexpQuery public semantics]:
        dictionary terms FULLY matching the pattern (implicit anchoring,
        as Lucene's automaton), ordered (df DESC, term ASC), capped.
        Both sides run RE2 (pyarrow here, DuckDB in the oracle), so the
        pattern string is shared verbatim.  The scan is BOUNDED by a
        conservative literal extraction (``_regex_prefilter``): an
        anchored literal prefix pushes a sorted-range filter into the
        dictionary read (row-group pruning — wildcard translations like
        ``foo.*`` never scan), and required literal substrings run as
        plain match_substring prefilters before the RE2 pass — the
        cheap stand-in for Lucene's automaton-directed FST walk;
        results are identical (the prefilter never drops a true match).
        """
        pfx, literals = _regex_prefilter(pattern)
        filters: list[tuple] | None = None
        if pfx:
            filters = [("term", ">=", pfx)]
            hi = _prefix_upper_bound(pfx)
            if hi is not None:
                filters.append(("term", "<", hi))
        tbl = self._read_dictionary(filters)
        for lit in literals:
            tbl = tbl.filter(pc.match_substring(tbl["term"], lit))
        m = pc.match_substring_regex(tbl["term"], f"^(?:{pattern})$")
        tbl = tbl.filter(m)
        idx = pc.sort_indices(tbl, sort_keys=[("df", "descending"),
                                              ("term", "ascending")])
        return tbl.take(idx[:max_expansions])["term"].to_pylist()

    def regexp_search(self, queries: dict[str, str], k: int | None = None,
                      max_expansions: int = 50,
                      **search_kwargs) -> pd.DataFrame:
        """Regexp query: each query is ONE pattern (the single-term
        Lucene RegexpQuery shape); expansions score as a weight-1 BM25
        disjunction via the weighted-term path."""
        tw_map = {
            qid: [(t, 1.0) for t in self.expand_regex(pat, max_expansions)]
            for qid, pat in queries.items()}
        return self.search(queries, k=k, term_weights=tw_map,
                           **search_kwargs)

    def wildcard_search(self, queries: dict[str, str],
                        k: int | None = None, max_expansions: int = 50,
                        **search_kwargs) -> pd.DataFrame:
        """Wildcard query [Lucene WildcardQuery]: ``*`` / ``?`` patterns
        translate to anchored RE2 (``analyze.wildcard_to_regex`` — the
        SAME translation generates the oracle) and ride the regexp
        expansion path."""
        from opensearch_jvector_ray.analyze import wildcard_to_regex
        tw_map = {
            qid: [(t, 1.0) for t in self.expand_regex(
                wildcard_to_regex(pat), max_expansions)]
            for qid, pat in queries.items()}
        return self.search(queries, k=k, term_weights=tw_map,
                           **search_kwargs)

    def prefix_search(self, queries: dict[str, str], k: int | None = None,
                      max_expansions: int = 50,
                      **search_kwargs) -> pd.DataFrame:
        """Trailing-wildcard query strings: whitespace chunks ending in
        ``*`` expand against the dictionary (see ``expand_prefix``); all
        other chunks analyze and score as literal terms.  Expanded and
        literal weights for the same term ADD (the flattened-Boolean
        rewrite); scoring then rides the standard distributed BM25 path.
        """
        from opensearch_jvector_ray.analyze import parse_prefix_query
        tw_map: dict[str, list[tuple[str, float]]] = {}
        for qid, text in queries.items():
            lits, prefixes = parse_prefix_query(text, self.cfg)
            weights: dict[str, float] = {}
            order: list[str] = []

            def add(t: str, w: float) -> None:
                if t not in weights:
                    order.append(t)
                    weights[t] = 0.0
                weights[t] += w

            for t, c in lits:
                add(t, float(c))
            for pfx in prefixes:
                for t in self.expand_prefix(pfx, max_expansions):
                    add(t, 1.0)
            tw_map[qid] = [(t, weights[t]) for t in order]
        return self.search(queries, k=k, term_weights=tw_map,
                           **search_kwargs)

    def match_bool_prefix(self, queries: dict[str, str],
                          k: int | None = None,
                          max_expansions: int = 50,
                          **search_kwargs) -> pd.DataFrame:
        """match_bool_prefix query [OpenSearch match_bool_prefix public
        semantics]: every analyzed term matches normally except the
        LAST, which matches as a prefix (the non-phrase sibling of
        match_phrase_prefix — terms may appear anywhere, no position
        constraint).  Implemented as the shared ``mbp_rewrite``
        ("a b c" -> "a b c*") feeding the standard prefix_search path;
        the oracle applies the identical rewrite."""
        from opensearch_jvector_ray.analyze import mbp_rewrite
        return self.prefix_search(
            {qid: mbp_rewrite(t) for qid, t in queries.items()},
            k=k, max_expansions=max_expansions, **search_kwargs)

    def dis_max(self, queries: dict[str, list[str]],
                k: int | None = None, tie_breaker: float = 0.0,
                concurrency: int | None = None) -> pd.DataFrame:
        """Generic DisjunctionMaxQuery [Lucene dis_max public
        semantics]: each output query is a LIST of subquery strings over
        THIS index; per doc, score = best subquery score + tie_breaker x
        (sum of the rest).  The per-field form is ``multi_match``
        best_fields; this is the arbitrary-subquery sibling.

        Combined inside each segment task over dense per-subquery score
        arrays (the formula is doc-local, so per-segment combine +
        bounded top-k is exact — nothing match-set-sized ships).
        fp rules shared with the generated oracle: each subquery score
        is the standard analyzed-term-order BM25 sum; total is the
        sequential subquery-index chain; best is exact max; ONE
        fused multiply-add.  Subquery count capped at 8 (keeps the
        numpy sequential sum == the SQL left-assoc chain)."""
        cfg = self.cfg
        if not (0.0 <= tie_breaker <= 1.0):
            raise ValueError("tie_breaker must be in [0, 1]")
        for gid, subs in queries.items():
            if not isinstance(subs, (list, tuple)) or not subs:
                raise ValueError(f"dis_max query {gid!r} needs a "
                                 "non-empty subquery list")
            if len(subs) > 8:
                raise ValueError("dis_max supports at most 8 subqueries "
                                 "(documented fp-chain bound)")
            if "\x1f" in gid:
                raise ValueError("query ids must not contain \\x1f")
        k = k or cfg.default_k
        if k > cfg.max_k:
            raise ValueError(f"k={k} exceeds max_k={cfg.max_k}")
        from opensearch_jvector_ray.state import metrics
        metrics.incr({metrics.QUERY_REQUESTS: len(queries)})
        flat = {f"{gid}\x1f{i}": t
                for gid, subs in sorted(queries.items())
                for i, t in enumerate(subs)}
        prepared, union = self._prepare(flat, k)
        by_id = {q["query_id"]: q for q in prepared}
        grouped = []
        for gid, subs in sorted(queries.items()):
            grouped.append({
                "query_id": gid, "k": k,
                "sub_terms": [by_id[f"{gid}\x1f{i}"]["terms"]
                              for i in range(len(subs))],
            })
        key_types = []
        if self.seg_dirs:
            docs_schema = pq.read_schema(
                os.path.join(self.seg_dirs[0], DOCS_NAME))
            key_types = [(kc, docs_schema.field(kc).type)
                         for kc in self.key_cols]
        payload = {
            "queries": grouped, "union_terms": union, "mode": "dismax",
            "codec": cfg.codec, "block_size": cfg.block_size,
            "k1": cfg.k1, "b": cfg.b,
            "avgdl": float(self.stats["avgdl"] or 1.0),
            "filter": None, "rescore_oversample": None,
            "key_types": key_types,
            "first_pass_k": cfg.first_pass_k,
            "min_score": None,
            "dismax_tie": float(tie_breaker),
        }
        cols = ["query_id", *self.key_cols, "score"]
        if not union or not self.seg_dirs:
            return self._finalize(pd.DataFrame(columns=cols), k, None)
        frames = self._map_segments(payload, concurrency)
        df = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame(columns=cols)
        return self._finalize(df, k, None)

    def simple_query_string(self, queries: dict[str, str],
                            k: int | None = None,
                            max_expansions: int = 50,
                            concurrency: int | None = None
                            ) -> pd.DataFrame:
        """simple_query_string query [OpenSearch simple_query_string
        public semantics — the ``+``/``-``/``"phrase"``/trailing-``*``
        flag subset with default_operator=OR; see
        analyze.parse_simple_query_string, which is ALSO what generates
        the oracle's clause structure — one parse, two backends].

        Scoring is Lucene BooleanQuery: score = sum of matching
        positive-clause scores (sequential clause-index fp chain); a
        doc must match every MUST clause, no MUST_NOT clause, and at
        least one positive clause.  Term clauses are the standard BM25
        sum, phrase clauses the PhraseQuery scorer, prefix clauses
        expand through the dictionary ((df DESC, term ASC) cap rule
        shared with prefix_search) and score as the expansion-term sum.
        Combined inside each segment task over dense clause score
        arrays (doc-local formula => exact bounded top-k)."""
        from opensearch_jvector_ray.analyze import (
            parse_simple_query_string,
        )
        cfg = self.cfg
        k = k or cfg.default_k
        if k > cfg.max_k:
            raise ValueError(f"k={k} exceeds max_k={cfg.max_k}")
        from opensearch_jvector_ray.state import metrics
        metrics.incr({metrics.QUERY_REQUESTS: len(queries)})
        parsed = {qid: parse_simple_query_string(text, cfg)
                  for qid, text in sorted(queries.items())}
        # resolve clause term lists (prefix clauses expand through the
        # global dictionary ONCE, driver-side — the multi-term rewrite)
        clause_tw: dict[tuple[str, int], list[tuple[str, float]]] = {}
        all_terms: set[str] = set()
        for qid, cls in parsed.items():
            if "\x1f" in qid:
                raise ValueError("query ids must not contain \\x1f")
            for i, cl in enumerate(cls):
                if cl["kind"] == "prefix":
                    tw = [(t, 1.0) for t in
                          self.expand_prefix(cl["prefix"],
                                             max_expansions)]
                elif cl["kind"] == "phrase":
                    tw = [(t, 1.0) for t in cl["words"]]
                else:
                    tw = [(t, float(w)) for t, w in cl["tw"]]
                clause_tw[(qid, i)] = tw
                all_terms.update(t for t, _ in tw)
        df_map = self.lookup_df(sorted(all_terms))
        n = float(self.stats["n_docs_indexed"])
        grouped = []
        union: set[str] = set()
        for qid, cls in parsed.items():
            out_cls = []
            for i, cl in enumerate(cls):
                terms, missing = [], False
                for t, w in clause_tw[(qid, i)]:
                    df = df_map.get(t, 0)
                    if df > 0:
                        terms.append((t, float(w), float(bm25_idf(n, df))))
                        union.add(t)
                    else:
                        missing = True
                if cl["kind"] == "phrase" and missing:
                    terms = []     # a zero-df member: phrase matches 0 docs
                out_cls.append({
                    "occur": cl["occur"],
                    "kind": "phrase" if cl["kind"] == "phrase"
                            else "terms",
                    "terms": terms})
            grouped.append({"query_id": qid, "k": k, "clauses": out_cls})
        key_types = []
        if self.seg_dirs:
            docs_schema = pq.read_schema(
                os.path.join(self.seg_dirs[0], DOCS_NAME))
            key_types = [(kc, docs_schema.field(kc).type)
                         for kc in self.key_cols]
        payload = {
            "queries": grouped, "union_terms": sorted(union),
            "mode": "sqs",
            "codec": cfg.codec, "block_size": cfg.block_size,
            "k1": cfg.k1, "b": cfg.b,
            "avgdl": float(self.stats["avgdl"] or 1.0),
            "filter": None, "rescore_oversample": None,
            "key_types": key_types,
            "first_pass_k": cfg.first_pass_k,
            "min_score": None,
        }
        cols = ["query_id", *self.key_cols, "score"]
        if not union or not self.seg_dirs:
            return self._finalize(pd.DataFrame(columns=cols), k, None)
        frames = self._map_segments(payload, concurrency)
        df = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame(columns=cols)
        return self._finalize(df, k, None)

    def fuzzy_search(self, queries: dict[str, str], k: int | None = None,
                     max_edits: int = 1, prefix_length: int = 0,
                     max_expansions: int = 50,
                     transpositions: bool = False,
                     **search_kwargs) -> pd.DataFrame:
        """Match query with fuzziness [the OpenSearch ``match`` +
        ``fuzziness`` surface]: each analyzed query term expands to its
        fuzzy neighborhood (see ``expand_fuzzy``); an expansion inherits
        the source term's occurrence count as weight, and weights for
        the same expanded term ADD across source terms.  The exact term
        itself is distance 0, so it always survives the cap first."""
        tw_map: dict[str, list[tuple[str, float]]] = {}
        for qid, text in queries.items():
            weights: dict[str, float] = {}
            order: list[str] = []
            for t, c in query_term_weights(text, self.cfg):
                for e in self.expand_fuzzy(t, max_edits, prefix_length,
                                           max_expansions,
                                           transpositions):
                    if e not in weights:
                        order.append(e)
                        weights[e] = 0.0
                    weights[e] += float(c)
            tw_map[qid] = [(t, weights[t]) for t in order]
        return self.search(queries, k=k, term_weights=tw_map,
                           **search_kwargs)

    def boosted_search(self, queries: dict[str, str], k: int | None = None,
                       **search_kwargs) -> pd.DataFrame:
        """Query-string boosts [Lucene ``term^2.5`` syntax]: parse per-
        chunk boosts (see ``analyze.parse_boosted_query``), then ride
        the standard weighted-term BM25 path — a boost simply scales
        the term's contribution, and boosts for the same term ADD."""
        from opensearch_jvector_ray.analyze import parse_boosted_query
        tw = {qid: parse_boosted_query(text, self.cfg)
              for qid, text in queries.items()}
        return self.search(queries, k=k, term_weights=tw, **search_kwargs)

    def synonym_search(self, queries: dict[str, str],
                       synonyms: dict[str, list[str]],
                       k: int | None = None,
                       concurrency: int | None = None) -> pd.DataFrame:
        """Query-time synonym expansion [Lucene SynonymQuery public
        semantics]: each analyzed query term with an entry in
        ``synonyms`` forms a GROUP with its (analyzed) synonyms; the
        group scores as one pseudo-term — per-doc tf = sum of member
        tfs, df = MAX of member global dfs — so matching several
        synonyms saturates like one frequent term rather than stacking
        a disjunction.  Group weight = the base term's occurrence
        count; a group whose members all have df 0 matches nothing.
        """
        from opensearch_jvector_ray.analyze import analyze_query
        cfg = self.cfg
        k = k or cfg.default_k
        if k > cfg.max_k:
            raise ValueError(f"k={k} exceeds max_k={cfg.max_k}")
        all_terms: set[str] = set()
        parsed: dict[str, list[dict]] = {}
        for qid, text in queries.items():
            groups = []
            for t, c in query_term_weights(text, cfg):
                members = [t]
                for s in synonyms.get(t, []):
                    for x in analyze_query(s, cfg):
                        if x not in members:
                            members.append(x)
                groups.append({"terms": members, "w": float(c)})
                all_terms.update(members)
            parsed[qid] = groups
        df_map = self.lookup_df(sorted(all_terms))
        n = float(self.stats["n_docs_indexed"])
        prepared = []
        union: set[str] = set()
        for qid, groups in parsed.items():
            gs = []
            for g in groups:
                dfs = [df_map.get(t, 0) for t in g["terms"]]
                mx = max(dfs) if dfs else 0
                if mx <= 0:
                    continue
                live = [t for t, d in zip(g["terms"], dfs) if d > 0]
                union.update(live)
                gs.append({"terms": live, "w": g["w"],
                           "idf": float(bm25_idf(n, mx))})
            prepared.append({"query_id": qid, "groups": gs, "k": k})
        from opensearch_jvector_ray.state import metrics
        metrics.incr({metrics.QUERY_REQUESTS: len(queries)})
        if not union or not self.seg_dirs:
            return self._finalize(pd.DataFrame(
                columns=["query_id", *self.key_cols, "score"]), k, None)
        docs_schema = pq.read_schema(
            os.path.join(self.seg_dirs[0], DOCS_NAME))
        payload = {
            "queries": prepared, "union_terms": sorted(union),
            "mode": "synonym",
            "codec": cfg.codec, "block_size": cfg.block_size,
            "k1": cfg.k1, "b": cfg.b,
            "avgdl": float(self.stats["avgdl"] or 1.0),
            "filter": None, "rescore_oversample": None,
            "key_types": [(kc, docs_schema.field(kc).type)
                          for kc in self.key_cols],
            "first_pass_k": cfg.first_pass_k,
            "min_score": None,
        }
        frames = self._map_segments(payload, concurrency)
        df = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame(columns=["query_id", *self.key_cols, "score"])
        return self._finalize(df, k, None)

    def phrase_prefix_search(self, queries: dict[str, str],
                             k: int | None = None,
                             max_expansions: int = 50,
                             concurrency: int | None = None,
                             ) -> pd.DataFrame:
        """match_phrase_prefix [OpenSearch public semantics / Lucene
        MultiPhraseQuery]: the query text analyzes to an exact phrase
        whose LAST term is a prefix — expanded against the dictionary
        (df DESC, term ASC, capped ``max_expansions``; the capped set is
        what matches, exactly as Lucene), the last phrase slot accepts
        any expansion.  idf_sum = literal idfs (position order) +
        expansion idfs (term-ascending), all from GLOBAL stats — the
        oracle mirrors both sums symbol-for-symbol."""
        from opensearch_jvector_ray.analyze import analyze_query
        cfg = self.cfg
        k = k or cfg.default_k
        if k > cfg.max_k:
            raise ValueError(f"k={k} exceeds max_k={cfg.max_k}")
        parsed = {}
        lit_all: set[str] = set()
        for qid, text in queries.items():
            words = analyze_query(text, cfg)
            parsed[qid] = (words[:-1], words[-1] if words else None)
            lit_all.update(words[:-1])
        df_map = self.lookup_df(sorted(lit_all))
        n = float(self.stats["n_docs_indexed"])
        prepared = []
        union: set[str] = set()
        for qid, (lits, pfx) in parsed.items():
            entry = {"query_id": qid, "k": k, "lit_terms": [],
                     "exp_terms": [], "idf_sum": 0.0}
            if pfx is not None and all(df_map.get(t, 0) > 0 for t in lits):
                sp = self.suggest_prefix(pfx, max_expansions)
                if len(sp):
                    # fp grouping pinned to the oracle: literal idfs
                    # chain left-assoc (the SQL '+' chain), expansion
                    # idfs accumulate separately term-ascending (the
                    # SQL ordered aggregate), added once at the end
                    idf_sum = 0.0
                    for t in lits:            # position order
                        idf_sum += float(bm25_idf(n, df_map[t]))
                    exp_sum = 0.0
                    for _, r in sp.sort_values("term").iterrows():
                        exp_sum += float(bm25_idf(n, float(r["df"])))
                    idf_sum = idf_sum + exp_sum
                    entry.update(lit_terms=list(lits),
                                 exp_terms=sp["term"].tolist(),
                                 idf_sum=idf_sum)
                    union.update(lits)
                    union.update(sp["term"].tolist())
            prepared.append(entry)
        from opensearch_jvector_ray.state import metrics
        metrics.incr({metrics.QUERY_REQUESTS: len(queries)})
        if not union or not self.seg_dirs:
            return self._finalize(pd.DataFrame(
                columns=["query_id", *self.key_cols, "score"]), k, None)
        docs_schema = pq.read_schema(
            os.path.join(self.seg_dirs[0], DOCS_NAME))
        payload = {
            "queries": [e for e in prepared if e["exp_terms"]],
            "union_terms": sorted(union), "mode": "phrase_prefix",
            "codec": cfg.codec, "block_size": cfg.block_size,
            "k1": cfg.k1, "b": cfg.b,
            "avgdl": float(self.stats["avgdl"] or 1.0),
            "filter": None, "rescore_oversample": None,
            "key_types": [(kc, docs_schema.field(kc).type)
                          for kc in self.key_cols],
            "first_pass_k": cfg.first_pass_k,
            "min_score": None,
        }
        frames = self._map_segments(payload, concurrency)
        df = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame(columns=["query_id", *self.key_cols, "score"])
        return self._finalize(df, k, None)

    def facet_counts(self, queries: dict[str, str], facet_col: str,
                     min_score: float, size: int | None = None,
                     term_weights: dict[str, list[tuple[str, float]]] | None = None,
                     concurrency: int | None = None,
                     include: str | None = None,
                     exclude: str | None = None,
                     min_doc_count: int = 1) -> pd.DataFrame:
        """Terms aggregation (facets) over the query's radial match set
        [OpenSearch terms-aggregation public semantics]: per query, the
        count of matching docs (BM25 score >= min_score) per distinct
        value of a stored doc column, ordered (doc_count DESC, value
        ASC), optionally capped at ``size`` buckets.

        ``include``/``exclude`` are FULLY-ANCHORED RE2 patterns on the
        bucket value (string columns only — the OpenSearch terms-agg
        include/exclude regex; engine ``^(?:pat)$`` via pyarrow ==
        oracle ``regexp_full_match``, both RE2).  ``min_doc_count`` is
        the GLOBAL post-merge threshold (the OpenSearch default is 1;
        buckets below it are dropped AFTER partial merge, BEFORE the
        size cap — same order as the SQL HAVING).

        Distribution shape: each segment task reduces its qualifying
        docs to a (query, facet value, count) PARTIAL — only facet-
        cardinality-sized partials reach the driver (combiner-first);
        the hit set itself never leaves the tasks; include/exclude/
        min_doc_count filter the bucket-cardinality-sized merge.
        """
        if min_doc_count < 1:
            raise ValueError("min_doc_count must be >= 1")
        df = self._agg_fanout(queries, {"kind": "terms", "col": facet_col},
                              min_score, term_weights, concurrency)
        cols = ["query_id", facet_col, "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", facet_col], sort=False)["doc_count"]
                 .sum().reset_index())
        if include is not None or exclude is not None:
            vals = out[facet_col]
            if vals.dtype != object:
                raise ValueError("include/exclude apply to string "
                                 f"bucket columns only ({facet_col} is "
                                 f"{vals.dtype})")
            arr = pa.array(vals, type=pa.string())
            keep = np.ones(len(out), dtype=bool)
            if include is not None:
                keep &= pc.match_substring_regex(
                    arr, f"^(?:{include})$").to_numpy(zero_copy_only=False)
            if exclude is not None:
                keep &= ~pc.match_substring_regex(
                    arr, f"^(?:{exclude})$").to_numpy(zero_copy_only=False)
            out = out[keep]
        if min_doc_count > 1:
            out = out[out["doc_count"] >= min_doc_count]
        out = out.sort_values(["query_id", "doc_count", facet_col],
                              ascending=[True, False, True],
                              kind="mergesort")
        if size is not None:
            out = out.groupby("query_id", sort=False).head(size)
        return out.reset_index(drop=True)[cols]

    def stats_agg(self, queries: dict[str, str], value_col: str,
                  min_score: float,
                  term_weights: dict[str, list[tuple[str, float]]] | None = None,
                  concurrency: int | None = None) -> pd.DataFrame:
        """Stats aggregation [OpenSearch stats-agg public semantics] over
        the radial match set: per query, (doc_count, sum, min, max, avg)
        of an integer stored column.  Partials are integer and order-
        free (one row per segment reaches the driver); the single avg
        division happens once at the end, so the float is bit-equal to
        the oracle's.  int64 range assumed (documented)."""
        df = self._agg_fanout(queries, {"kind": "ext_stats",
                                        "col": value_col},
                              min_score, term_weights, concurrency)
        cols = ["query_id", "doc_count", "v_sum", "v_min", "v_max", "v_avg"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        g = df.groupby("query_id", sort=True).agg(
            doc_count=("doc_count", "sum"), v_sum=("v_sum", "sum"),
            v_min=("v_min", "min"), v_max=("v_max", "max")).reset_index()
        g["v_avg"] = g["v_sum"].astype(np.float64) / g["doc_count"]
        return g[cols]

    def histogram_agg(self, queries: dict[str, str], value_col: str,
                      interval: float, min_score: float,
                      term_weights: dict[str, list[tuple[str, float]]] | None = None,
                      concurrency: int | None = None) -> pd.DataFrame:
        """Histogram aggregation [OpenSearch histogram-agg public
        semantics] over the radial match set: doc counts per
        floor(value/interval)*interval bucket, ordered (query_id, bucket
        ASC).  Exact for |value| < 2^53 (the DOUBLE-floor rule shared
        with the oracle).  INTEGER intervals only (documented subset):
        the bucket column is int64 on both sides — a fractional
        interval would produce fractional bucket keys whose int64
        truncation (engine) and BIGINT rounding (DuckDB) disagree."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if float(interval) != float(int(interval)):
            raise ValueError(f"interval must be a whole number, got "
                             f"{interval!r} (int64 bucket keys on both "
                             f"engine and oracle sides)")
        df = self._agg_fanout(queries,
                              {"kind": "hist", "col": value_col,
                               "interval": float(interval)},
                              min_score, term_weights, concurrency)
        cols = ["query_id", "bucket", "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", "bucket"], sort=True)["doc_count"]
                 .sum().reset_index())
        return out[cols]

    def range_agg(self, queries: dict[str, str], value_col: str,
                  ranges: list[tuple[str, float | None, float | None]],
                  min_score: float,
                  term_weights: dict[str, list[tuple[str, float]]] | None = None,
                  concurrency: int | None = None) -> pd.DataFrame:
        """Range aggregation [OpenSearch range-agg public semantics] over
        the radial match set: doc counts per caller-keyed [lo, hi) range
        (lo inclusive, hi exclusive, None = open end; ranges may
        overlap).  Every (query, range) pair is emitted, zero-filled —
        like OpenSearch, empty buckets still appear.  Caller-supplied
        range keys avoid any cross-side float-formatting drift."""
        if not ranges:
            raise ValueError("ranges must be non-empty")
        rr = [(str(rk), None if lo is None else float(lo),
               None if hi is None else float(hi)) for rk, lo, hi in ranges]
        if len({rk for rk, _, _ in rr}) != len(rr):
            raise ValueError("range keys must be unique")
        df = self._agg_fanout(queries, {"kind": "range", "col": value_col,
                                        "ranges": rr},
                              min_score, term_weights, concurrency)
        return _key_grid_counts(queries, df, "range_key",
                                [rk for rk, _, _ in rr])

    def date_histogram_agg(self, queries: dict[str, str], ts_col: str,
                           calendar_interval: str, min_score: float,
                           pipeline: str | None = None,
                           pipeline_window: int = 3,
                           pipeline_lag: int = 1,
                           selector_op: str = "gte",
                           selector_value: int = 1,
                           sort_from: int = 0,
                           sort_size: int = 5,
                           pipeline_percent: float = 0.5,
                           rate_unit: str = "hour",
                           term_weights: dict[str, list[tuple[str, float]]] | None = None,
                           concurrency: int | None = None) -> pd.DataFrame:
        """Date-histogram aggregation [OpenSearch date_histogram public
        semantics, calendar_interval arm] over the radial match set: doc
        counts per calendar bucket (month / day / hour START, exact
        integer datetime64 truncation — the oracle's date_trunc), ordered
        (query_id, bucket ASC).  Empty buckets are not emitted (the
        OpenSearch min_doc_count=1 shape).

        ``pipeline`` [OpenSearch pipeline-aggregation public semantics]
        adds a bucket-script column over the PRESENT buckets in order:
        ``cumulative_sum`` (running doc_count total), ``derivative``
        (doc_count delta vs the previous bucket; first bucket null),
        ``moving_avg`` (mean of the trailing ``pipeline_window`` present
        buckets INCLUDING the current one, partial windows averaged over
        what exists — the moving_fn/unweightedAvg shape; fp rule: ONE
        division of two exact integers, emitted unrounded, so the
        generated SQL is bit-identical), or ``serial_diff`` (delta vs
        the bucket ``pipeline_lag`` positions back; first ``lag``
        buckets null), or ``bucket_selector`` (drop buckets whose
        doc_count fails ``selector_op``/``selector_value`` — the
        HAVING-style bucket filter; same columns as the base frame),
        or ``bucket_script`` (percent-of-total: each bucket's
        doc_count / the query's total — two exact ints, ONE division).
        Nullable int results are emitted float64/NaN —
        DuckDB materializes BIGINT-with-NULL that way and the driver
        gate hashes representations (the round-3 derivative lesson).
        Integer arithmetic, driver-side over bucket-count-sized rows."""
        if calendar_interval not in ("month", "day", "hour"):
            raise ValueError("calendar_interval must be month|day|hour")
        if pipeline not in (None, "cumulative_sum", "derivative",
                            "moving_avg", "serial_diff",
                            "bucket_selector", "bucket_script",
                            "moving_max", "moving_min", "moving_sum",
                            "normalize", "bucket_sort",
                            "moving_percentiles", "rate"):
            raise ValueError("pipeline must be cumulative_sum|derivative"
                             "|moving_avg|serial_diff|bucket_selector"
                             "|bucket_script|moving_max|moving_min"
                             "|moving_sum|normalize|bucket_sort"
                             "|moving_percentiles|rate")
        if pipeline in ("moving_max", "moving_min", "moving_sum",
                        "moving_percentiles") and pipeline_window < 1:
            raise ValueError("pipeline_window must be >= 1")
        if pipeline == "moving_percentiles" \
                and not (0.0 < pipeline_percent <= 1.0):
            raise ValueError("pipeline_percent must be in (0, 1]")
        if pipeline == "bucket_sort" and (sort_from < 0 or sort_size < 1):
            raise ValueError("sort_from must be >= 0 and sort_size >= 1")
        if pipeline == "rate":
            if (calendar_interval, rate_unit) not in _RATE_FACTORS:
                raise ValueError(
                    "rate supports (interval, unit) pairs "
                    f"{sorted(_RATE_FACTORS)} — calendar months have "
                    "variable length and are rejected")
        if pipeline == "bucket_selector" and selector_op not in (
                "gt", "gte", "lt", "lte", "eq"):
            raise ValueError("selector_op must be gt|gte|lt|lte|eq")
        if pipeline == "moving_avg" and pipeline_window < 1:
            raise ValueError("pipeline_window must be >= 1")
        if pipeline == "serial_diff" and pipeline_lag < 1:
            raise ValueError("pipeline_lag must be >= 1")
        df = self._agg_fanout(queries,
                              {"kind": "date_hist", "col": ts_col,
                               "interval": calendar_interval},
                              min_score, term_weights, concurrency)
        cols = ["query_id", "bucket", "doc_count"]
        if pipeline == "bucket_sort":
            cols = cols + ["sort_rank"]
        elif pipeline is not None and pipeline != "bucket_selector":
            cols = cols + [pipeline]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", "bucket"], sort=True)["doc_count"]
                 .sum().reset_index())
        if pipeline == "cumulative_sum":
            out[pipeline] = (out.groupby("query_id", sort=False)
                                ["doc_count"].cumsum().astype(np.int64))
        elif pipeline == "derivative":
            # float64 with NaN on the first bucket: DuckDB materializes the
            # oracle's BIGINT-with-NULL as float64/NaN, and the driver gate
            # hashes representations, not just values (round-3 red row).
            out[pipeline] = (out.groupby("query_id", sort=False)
                                ["doc_count"].diff().astype(np.float64))
        elif pipeline == "moving_avg":
            # rolling SUM and COUNT are exact integers in float64; the
            # single division is the only inexact op (matches the SQL's
            # sum::DOUBLE / count::DOUBLE)
            grp = out.groupby("query_id", sort=False)["doc_count"]
            rsum = grp.rolling(pipeline_window, min_periods=1).sum() \
                      .reset_index(level=0, drop=True)
            rcnt = grp.rolling(pipeline_window, min_periods=1).count() \
                      .reset_index(level=0, drop=True)
            out[pipeline] = (rsum / rcnt).astype(np.float64)
        elif pipeline in ("moving_max", "moving_min", "moving_sum"):
            # moving_fn max/min/sum [OpenSearch moving_fn public
            # semantics, trailing window incl. the current bucket,
            # partial windows over what exists] — pure int64 arithmetic,
            # bit-exact vs the SQL window aggregate
            fn = pipeline.split("_")[1]
            grp = out.groupby("query_id", sort=False)["doc_count"]
            r = grp.rolling(pipeline_window, min_periods=1).agg(fn) \
                   .reset_index(level=0, drop=True)
            out[pipeline] = r.astype(np.int64)
        elif pipeline == "normalize":
            # normalize rescale_0_1 [OpenSearch normalize-agg public
            # semantics]: (v - min) / (max - min) over the query's
            # present buckets; max == min emits 0.0.  Numerator and
            # denominator are exact integer diffs; the ONE division
            # mirrors the SQL's ::DOUBLE / ::DOUBLE
            grp = out.groupby("query_id", sort=False)["doc_count"]
            mn = grp.transform("min")
            mx = grp.transform("max")
            rng = (mx - mn).astype(np.float64)
            num = (out["doc_count"] - mn).astype(np.float64)
            out[pipeline] = np.where(rng > 0.0,
                                     num / np.where(rng > 0.0, rng, 1.0),
                                     0.0)
        elif pipeline == "serial_diff":
            out[pipeline] = (
                out["doc_count"]
                - out.groupby("query_id", sort=False)["doc_count"]
                     .shift(pipeline_lag)).astype(np.float64)
        elif pipeline == "bucket_script":
            # the canonical bucket_script: each bucket's share of the
            # query's total (percent-of-total).  Numerator and
            # denominator are exact int64; the ONE division mirrors the
            # SQL's doc_count::DOUBLE / sum OVER (PARTITION)::DOUBLE
            tot = out.groupby("query_id", sort=False)["doc_count"] \
                     .transform("sum")
            out[pipeline] = (out["doc_count"].astype(np.float64)
                             / tot.astype(np.float64))
        elif pipeline == "bucket_selector":
            import operator as _op
            cmp = {"gt": _op.gt, "gte": _op.ge, "lt": _op.lt,
                   "lte": _op.le, "eq": _op.eq}[selector_op]
            out = out[cmp(out["doc_count"],
                          int(selector_value))].reset_index(drop=True)
        elif pipeline == "bucket_sort":
            # bucket_sort [OpenSearch bucket_sort public semantics]:
            # re-order the query's buckets by (doc_count DESC, bucket
            # ASC tie) and keep ranks (from, from+size] — the
            # sort+truncate pipeline.  The 1-based sort_rank column
            # makes the kept ORDER part of the row set (the driver
            # gate hashes values, not row positions).
            out = out.sort_values(["query_id", "doc_count", "bucket"],
                                  ascending=[True, False, True],
                                  kind="mergesort").reset_index(drop=True)
            out["sort_rank"] = (out.groupby("query_id", sort=False)
                                   .cumcount() + 1).astype(np.int64)
            out = out[(out["sort_rank"] > int(sort_from))
                      & (out["sort_rank"] <= int(sort_from)
                         + int(sort_size))].reset_index(drop=True)
        elif pipeline == "moving_percentiles":
            # moving_percentiles [OpenSearch moving_percentiles public
            # semantics — approximate TDigest there, EXACT here]: the
            # discrete pipeline_percent quantile of the trailing
            # pipeline_window present buckets' doc_count (incl. the
            # current one, partial windows over what exists); the
            # quantile_disc selection rule shared with percentiles_agg,
            # so the oracle is quantile_disc OVER a ROWS window
            q = float(pipeline_percent)

            def _wq(vals: np.ndarray) -> float:
                v = np.sort(vals.astype(np.int64))
                return float(_qdisc(v, np.ones(len(v), dtype=np.int64),
                                    q))
            grp = out.groupby("query_id", sort=False)["doc_count"]
            out[pipeline] = (grp.rolling(pipeline_window, min_periods=1)
                                .apply(_wq, raw=True)
                                .reset_index(level=0, drop=True)
                                .astype(np.float64))
        elif pipeline == "rate":
            # rate [OpenSearch rate-agg public semantics, doc-count
            # form]: each bucket's doc_count rescaled from the
            # histogram interval to the rate unit — exact int64 count,
            # ONE division by the fixed unit factor (calendar months
            # are rejected: variable length).
            factor = _RATE_FACTORS[(calendar_interval, rate_unit)]
            out[pipeline] = (out["doc_count"].astype(np.float64)
                             / float(factor))
        return out[cols]

    def cumulative_cardinality_agg(self, queries: dict[str, str],
                                   ts_col: str, calendar_interval: str,
                                   field: str, min_score: float,
                                   concurrency: int | None = None
                                   ) -> pd.DataFrame:
        """Cumulative-cardinality pipeline aggregation [OpenSearch
        cumulative_cardinality public semantics — approximate HLL
        there, EXACT here] over a date_histogram of the radial match
        set: per bucket, the doc count AND the running count of
        DISTINCT ``field`` values seen in any bucket up to and
        including it.

        Distributed shape: ONE fan-out of per-segment (value, bucket)
        count partials; the driver takes each value's global first
        bucket (min across segments) and cumsums first-appearance
        counts over the present buckets — distinct values never ship,
        only value x bucket sized counts.  Those partials ARE
        value-cardinality-sized (the exact-cardinality trade-off, same
        as cardinality_agg's exact default; at web scale with a
        corpus-sized distinct field use cardinality_agg's HLL sketch
        per bucket instead).  NULL field values are excluded from the
        distinct count (count(DISTINCT) semantics) but still count
        toward doc_count."""
        if calendar_interval not in ("month", "day", "hour"):
            raise ValueError("calendar_interval must be month|day|hour")
        df = self._agg_fanout(queries,
                              {"kind": "val_bucket", "col": ts_col,
                               "val_col": field,
                               "interval": calendar_interval},
                              min_score, None, concurrency)
        cols = ["query_id", "bucket", "doc_count",
                "cumulative_cardinality"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", "bucket"], sort=True)["doc_count"]
                 .sum().reset_index())
        fs = (df[df[field].notna()]
              .groupby(["query_id", field], sort=False)["bucket"].min()
              .reset_index())
        fc = (fs.groupby(["query_id", "bucket"], sort=False).size()
                .rename("n_first").reset_index())
        out = out.merge(fc, on=["query_id", "bucket"], how="left")
        out["n_first"] = out["n_first"].fillna(0).astype(np.int64)
        out["cumulative_cardinality"] = (
            out.groupby("query_id", sort=False)["n_first"].cumsum()
               .astype(np.int64))
        out["doc_count"] = out["doc_count"].astype(np.int64)
        return out[cols]

    def top_hits_agg(self, queries: dict[str, str], group_col: str, n: int,
                     min_score: float,
                     term_weights: dict[str, list[tuple[str, float]]] | None = None,
                     concurrency: int | None = None) -> pd.DataFrame:
        """Top-hits aggregation [OpenSearch top_hits-agg public
        semantics]: per query and per distinct value of a stored doc
        column, the n best hits of the radial match set by the engine's
        global (raw score desc, key asc) order — the per-facet-bucket
        result list (generalizes collapse from 1 to n per bucket).

        Distribution shape: each segment ships at most n x buckets hit
        rows (its match set arrives pre-sorted from the radial collector,
        so the partial is a stable per-bucket head(n)); the driver
        re-merges by the same order — the A1 leaf -> global reduce
        argument, applied per bucket."""
        if n < 1:
            raise ValueError("n must be >= 1")
        df = self._agg_fanout(queries, {"kind": "top_hits",
                                        "col": group_col, "n": int(n),
                                        "key_cols": list(self.key_cols)},
                              min_score, term_weights, concurrency)
        cols = ["query_id", group_col, "bucket_rank", *self.key_cols,
                "score"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        df = df.sort_values(
            ["query_id", group_col, "score", *self.key_cols],
            ascending=[True, True, False] + [True] * len(self.key_cols),
            kind="mergesort")
        df = df.groupby(["query_id", group_col], sort=False).head(n)
        df["bucket_rank"] = (df.groupby(["query_id", group_col],
                                        sort=False).cumcount() + 1)
        df["score"] = np.round(df["score"].astype(np.float64), 6)
        return df.reset_index(drop=True)[cols]

    def cardinality_agg(self, queries: dict[str, str], field: str,
                        min_score: float,
                        approx: bool = False, precision: int = 12,
                        concurrency: int | None = None) -> pd.DataFrame:
        """Cardinality aggregation over the radial match set [OpenSearch
        cardinality-agg public semantics].

        Default: EXACT distinct count (strictly stronger than
        OpenSearch's HLL answer).  Partial = per-segment distinct
        (value, count) rows — the driver merges distinct-value-sized
        frames, fine for categorical fields.

        ``approx=True``: HyperLogLog sketch (the OpenSearch shape and
        the 100-TB path) — each segment ships <= 2^precision (reg, rho)
        rows regardless of corpus size, merged by per-register max; the
        estimate applies the standard bias correction + linear counting
        for the small range.  Deterministic (md5 hash family), typical
        error ~1.04/sqrt(2^precision)."""
        cols = ["query_id", "cardinality"]
        base = pd.DataFrame({"query_id": sorted(queries)})
        if approx:
            if not (4 <= precision <= 16):
                raise ValueError("precision must be in [4, 16]")
            df = self._agg_fanout(queries,
                                  {"kind": "hll", "col": field,
                                   "precision": int(precision)},
                                  min_score, None, concurrency)
            m = 1 << precision
            alpha = 0.7213 / (1.0 + 1.079 / m)
            ests = {}
            if not df.empty:
                for qid, g in df.groupby("query_id", sort=True):
                    regs = g.groupby("reg")["rho"].max()
                    z = float(np.sum(np.power(2.0, -regs.values)))
                    z += m - len(regs)          # empty registers: 2^-0
                    e = alpha * m * m / z
                    v = m - len(regs)
                    if e <= 2.5 * m and v > 0:  # linear counting range
                        e = m * np.log(m / v)
                    ests[qid] = int(round(e))
            base["cardinality"] = base["query_id"].map(ests) \
                .fillna(0).astype(np.int64)
            return base[cols]
        df = self._agg_fanout(queries, {"kind": "terms", "col": field},
                              min_score, None, concurrency)
        if df.empty:
            base["cardinality"] = np.int64(0)
            return base[cols]
        got = (df.groupby("query_id", sort=True)[field].nunique()
                 .rename("cardinality").reset_index())
        out = base.merge(got, on="query_id", how="left")
        out["cardinality"] = out["cardinality"].fillna(0).astype(np.int64)
        return out[cols]

    def percentiles_agg(self, queries: dict[str, str], value_col: str,
                        percents: Sequence[float], min_score: float,
                        concurrency: int | None = None) -> pd.DataFrame:
        """Percentiles aggregation over the radial match set [OpenSearch
        percentiles-agg public semantics — which is approximate
        t-digest; this engine computes EXACT discrete percentiles].
        Selection rule matches DuckDB's quantile_disc (the value at
        cumulative count >= max(1, ceil(q*n)) over the ascending value
        order) — the same rule `relational.quantile_summary` uses, so
        the oracle is `quantile_disc` inside the radial-hit CTE.
        Partials are per-segment (value, count) rows (combiner-first);
        the driver selects from merged cumulative counts."""
        import math as _math
        if not percents:
            raise ValueError("percents must be non-empty")
        ps = [float(q) for q in percents]
        if any(not (0.0 < q <= 1.0) for q in ps):
            raise ValueError("percents must be fractions in (0, 1]")
        df = self._agg_fanout(queries, {"kind": "terms", "col": value_col},
                              min_score, None, concurrency)
        cols = ["query_id", "quantile", "value"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        rows = []
        for qid, vc in _query_value_counts(df, value_col):
            cum = vc.cumsum()
            total = int(cum.iloc[-1])
            for q in ps:
                t = max(1, _math.ceil(q * total))
                v = vc.index[int(np.searchsorted(cum.values, t))]
                rows.append((qid, q, float(v)))
        return pd.DataFrame(rows, columns=cols)

    def percentile_ranks_agg(self, queries: dict[str, str],
                             value_col: str, values: Sequence[float],
                             min_score: float,
                             concurrency: int | None = None
                             ) -> pd.DataFrame:
        """Percentile-ranks aggregation [OpenSearch percentile_ranks-agg
        public semantics — approximate there, EXACT here]: for each
        given value v, the fraction of match-set docs whose
        ``value_col`` <= v.  Rides the same per-segment (value, count)
        partials as percentiles; rank = count(x <= v) / n — two exact
        integers, ONE division (bit-equal to the oracle's).  Ranks are
        fractions in [0, 1].  NULL values are excluded on both sides; a
        query whose whole match set is NULL-valued emits NO row (the
        oracle's HAVING count(col) > 0)."""
        if not values:
            raise ValueError("values must be non-empty")
        vs = [float(v) for v in values]
        if len(set(vs)) != len(vs):
            raise ValueError("values must be unique")
        df = self._agg_fanout(queries, {"kind": "terms", "col": value_col},
                              min_score, None, concurrency)
        cols = ["query_id", "value", "pct_rank"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        rows = []
        for qid, vc in _query_value_counts(df, value_col):
            vals_sorted = vc.index.to_numpy(dtype=np.float64)
            cum = vc.cumsum().to_numpy(dtype=np.int64)
            total = int(cum[-1])
            for v in sorted(vs):
                i = int(np.searchsorted(vals_sorted, v, side="right"))
                le = int(cum[i - 1]) if i > 0 else 0
                rows.append((qid, v, float(le) / float(total)))
        return pd.DataFrame(rows, columns=cols)

    def mad_agg(self, queries: dict[str, str], value_col: str,
                min_score: float,
                concurrency: int | None = None) -> pd.DataFrame:
        """Median-absolute-deviation aggregation [OpenSearch
        median_absolute_deviation-agg public semantics — approximate
        TDigest there, EXACT here]: MAD = median(|x - median(x)|) over
        the radial match set.  Rides the same per-segment (value,
        count) partials as percentiles (combiner-first); both medians
        use the quantile_disc selection rule (value at cumulative
        count >= max(1, ceil(q*n))), so the oracle is two nested
        quantile_disc calls.  Absolute deviations of an integer column
        stay exact integers — the only floats are the final DOUBLE
        casts.  NULL values are excluded on both sides; an all-NULL
        match set emits NO row."""
        df = self._agg_fanout(queries, {"kind": "terms", "col": value_col},
                              min_score, None, concurrency)
        cols = ["query_id", "median", "mad"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        rows = []
        for qid, vc in _query_value_counts(df, value_col):
            vals = vc.index.to_numpy(dtype=np.int64)
            cnts = vc.to_numpy(dtype=np.int64)
            m = _qdisc(vals, cnts, 0.5)
            av = np.abs(vals - m)
            order = np.argsort(av, kind="mergesort")
            sa, sc = av[order], cnts[order]
            uv, idx = np.unique(sa, return_index=True)
            mad = _qdisc(uv, np.add.reduceat(sc, idx), 0.5)
            rows.append((qid, float(m), float(mad)))
        return pd.DataFrame(rows, columns=cols)

    def boxplot_agg(self, queries: dict[str, str], value_col: str,
                    min_score: float,
                    concurrency: int | None = None) -> pd.DataFrame:
        """Boxplot aggregation [OpenSearch boxplot-agg public semantics
        — approximate TDigest there, EXACT here]: min / q1 / q2 / q3 /
        max of an integer stored column over the radial match set.
        Quartiles use the quantile_disc selection rule shared with
        percentiles_agg; the oracle is min/max + three quantile_disc
        calls.  NULL values are excluded on both sides; an all-NULL
        match set emits NO row."""
        df = self._agg_fanout(queries, {"kind": "terms", "col": value_col},
                              min_score, None, concurrency)
        cols = ["query_id", "v_min", "q1", "q2", "q3", "v_max"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        rows = []
        for qid, vc in _query_value_counts(df, value_col):
            vals = vc.index.to_numpy(dtype=np.int64)
            cnts = vc.to_numpy(dtype=np.int64)
            rows.append((qid, float(vals[0]),
                         float(_qdisc(vals, cnts, 0.25)),
                         float(_qdisc(vals, cnts, 0.5)),
                         float(_qdisc(vals, cnts, 0.75)),
                         float(vals[-1])))
        return pd.DataFrame(rows, columns=cols)

    def t_test_agg(self, queries: dict[str, str], value_col: str,
                   filter_a: dict, filter_b: dict, min_score: float,
                   concurrency: int | None = None) -> pd.DataFrame:
        """T-test aggregation [OpenSearch t_test-agg public semantics,
        unpaired heteroscedastic (Welch) form]: the t statistic of an
        integer stored column between two structured-filter splits of
        the radial match set.  Partials are six order-free int64 sums
        per segment; every float derives here from a PINNED op chain
        shared verbatim with the generated SQL (avg = sum/n;
        sample variance = (sos - avg*sum) / (n-1);
        t = (avg_a - avg_b) / sqrt(var_a/n_a + var_b/n_b)) — division,
        multiply, subtract and sqrt are IEEE-correctly-rounded, so both
        sides are bit-equal.  Sides with n <= 1 drop the query's row
        (the variance is undefined — the oracle's WHERE n > 1).  The
        value column must be non-null over the match set."""
        from opensearch_jvector_ray.query_dsl import compile_filter
        compile_filter(filter_a)
        compile_filter(filter_b)          # driver-side validation
        df = self._agg_fanout(
            queries,
            {"kind": "t_test", "col": value_col,
             "filters": [("a", filter_a), ("b", filter_b)]},
            min_score, None, concurrency)
        cols = ["query_id", "n_a", "n_b", "avg_a", "avg_b", "t_value"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        g = df.groupby("query_id", sort=True).agg(
            n_a=("n_a", "sum"), sum_a=("sum_a", "sum"),
            sos_a=("sos_a", "sum"), n_b=("n_b", "sum"),
            sum_b=("sum_b", "sum"), sos_b=("sos_b", "sum")).reset_index()
        g = g[(g["n_a"] > 1) & (g["n_b"] > 1)].reset_index(drop=True)
        if g.empty:
            return pd.DataFrame(columns=cols)
        na = g["n_a"].astype(np.float64)
        nb = g["n_b"].astype(np.float64)
        g["avg_a"] = g["sum_a"].astype(np.float64) / na
        g["avg_b"] = g["sum_b"].astype(np.float64) / nb
        var_a = ((g["sos_a"].astype(np.float64)
                  - g["avg_a"] * g["sum_a"].astype(np.float64))
                 / (g["n_a"] - 1).astype(np.float64))
        var_b = ((g["sos_b"].astype(np.float64)
                  - g["avg_b"] * g["sum_b"].astype(np.float64))
                 / (g["n_b"] - 1).astype(np.float64))
        g["t_value"] = ((g["avg_a"] - g["avg_b"])
                        / np.sqrt(var_a / na + var_b / nb))
        return g[cols]

    def scripted_metric_agg(self, queries: dict[str, str],
                            map_fn, reduce_fn, min_score: float,
                            concurrency: int | None = None
                            ) -> pd.DataFrame:
        """Scripted-metric aggregation [OpenSearch scripted_metric
        public semantics — init/map/combine/reduce scripts, expressed
        as Python callables like the script-score UDF (X5)]:
        ``map_fn(docs: pa.Table, ords, scores) -> Any`` runs once per
        segment over the qualifying doc ordinals and returns its
        already-COMBINED partial (init+map+combine fused — the
        combiner-first rule applies to user scripts too);
        ``reduce_fn(partials: list) -> Any`` folds the per-segment
        partials on the driver.  Partials are pickled, so any Python
        value works; only aggregate-sized objects should leave the
        task.  Returns (query_id, value) with one row per query that
        matched."""
        import pickle
        if not callable(map_fn) or not callable(reduce_fn):
            raise ValueError("map_fn and reduce_fn must be callables")
        df = self._agg_fanout(queries,
                              {"kind": "script", "map_fn": map_fn},
                              min_score, None, concurrency)
        cols = ["query_id", "value"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        rows = []
        for qid, g in df.groupby("query_id", sort=True):
            parts = [pickle.loads(b) for b in g["partial"]]
            rows.append((qid, reduce_fn(parts)))
        return pd.DataFrame(rows, columns=cols)

    def missing_agg(self, queries: dict[str, str], field: str,
                    min_score: float,
                    concurrency: int | None = None) -> pd.DataFrame:
        """Missing aggregation [OpenSearch missing-agg public
        semantics]: per query, the count of match-set docs whose stored
        ``field`` is absent.  The engine's string sidecars store absent
        metadata as '' (e.g. the transcripts ``tool`` column on
        non-tool turns), so absent = NULL or '' — the documented rule
        the generated oracle shares.  One int64 row per segment ships
        (combiner-first); the query grid is emitted zero-filled like
        OpenSearch's always-present missing bucket."""
        df = self._agg_fanout(queries, {"kind": "count", "col": field},
                              min_score, None, concurrency)
        return _query_totals(queries, df, "doc_count",
                             lambda d: d["doc_count"] - d["n_present"])

    def variable_width_histogram_agg(self, queries: dict[str, str],
                                     value_col: str, buckets: int,
                                     min_score: float,
                                     concurrency: int | None = None
                                     ) -> pd.DataFrame:
        """Variable-width histogram [OpenSearch
        variable_width_histogram-agg public SHAPE — that implementation
        is explicitly collector-order-dependent; this engine pins a
        DETERMINISTIC largest-gaps rule]: the match set's distinct
        values split at the ``buckets - 1`` largest adjacent gaps
        (ties broken (gap DESC, boundary value ASC)); each bucket
        reports min / max / doc_count / centroid.  centroid =
        sum(v * c) / sum(c): two exact integers, ONE division
        (bit-equal to the oracle's).  Rides the same per-segment
        (value, count) partials as percentiles (combiner-first); the
        driver works over distinct-value-sized rows only.  Fewer
        distinct values than ``buckets`` yields one bucket per value.
        NULL values are excluded; an all-NULL match set emits no row."""
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        df = self._agg_fanout(queries, {"kind": "terms", "col": value_col},
                              min_score, None, concurrency)
        cols = ["query_id", "v_min", "v_max", "doc_count", "centroid"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        rows = []
        for qid, vc in _query_value_counts(df, value_col):
            vals = vc.index.to_numpy(dtype=np.int64)
            cnts = vc.to_numpy(dtype=np.int64)
            m = len(vals)
            bid = np.zeros(m, dtype=np.int64)
            if m > 1 and buckets > 1:
                gaps = vals[1:] - vals[:-1]          # gap BEFORE vals[i+1]
                # top (buckets-1) boundaries by (gap DESC, value ASC)
                order = np.lexsort((vals[1:], -gaps))
                chosen = order[:buckets - 1] + 1     # index into vals
                brk = np.zeros(m, dtype=np.int64)
                brk[chosen] = 1
                bid = np.cumsum(brk)
            for b in np.unique(bid):
                sel = bid == b
                v, c = vals[sel], cnts[sel]
                tot = int(c.sum())
                rows.append((qid, float(v[0]), float(v[-1]), tot,
                             float(int(np.dot(v, c))) / float(tot)))
        return pd.DataFrame(rows, columns=cols)

    def value_count_agg(self, queries: dict[str, str], field: str,
                        min_score: float,
                        concurrency: int | None = None) -> pd.DataFrame:
        """Value-count aggregation [OpenSearch value_count-agg public
        semantics]: per query, the number of match-set docs whose
        stored ``field`` is present — the exact complement of
        missing_agg's rule (absent = NULL, or '' for string sidecar
        columns).  One int64 row per segment ships (combiner-first);
        the query grid is emitted zero-filled."""
        df = self._agg_fanout(queries, {"kind": "count", "col": field},
                              min_score, None, concurrency)
        return _query_totals(queries, df, "value_count",
                             lambda d: d["n_present"])

    def tdigest_percentiles_agg(self, queries: dict[str, str],
                                value_col: str,
                                percents: Sequence[float],
                                min_score: float,
                                compression: float = 200.0,
                                ) -> pd.DataFrame:
        """Approximate percentiles via merging t-digest [OpenSearch
        percentiles-agg default implementation at scale; Dunning k1
        variant — see functions/tdigest.py].  Each segment ships an
        O(compression) centroid partial over its match-set values; the
        driver concatenates and re-compresses once, then interpolates.
        Deterministic for a fixed segmentation (sorted greedy merge, no
        randomness; centroid sort is a total order so partial arrival
        order is irrelevant).  Accuracy is pytest-gated — the sketch
        depends on partitioning, so this is a rows-only driver entry
        (the exact percentiles_agg carries the hard SQL gate)."""
        import pickle

        from opensearch_jvector_ray.functions import tdigest as td
        ps = [float(p) for p in percents]
        if not ps or any(not (0.0 < p <= 1.0) for p in ps):
            # validate BEFORE the distributed fan-out — bad input must
            # cost nothing
            raise ValueError("percents must be fractions in (0, 1] — "
                             "the exact percentiles_agg convention")
        df = self._agg_fanout(queries,
                              {"kind": "tdigest", "col": value_col,
                               "compression": float(compression)},
                              min_score, None, None)
        rows = []
        for qid in sorted(queries):
            if df.empty:
                parts = []
            else:
                parts = [pickle.loads(b) for b in
                         df[df["query_id"] == qid]["partial"]]
            m, w = td.merge(parts, float(compression))
            for p in ps:
                rows.append((qid, p, td.quantile(m, w, p)))
        return pd.DataFrame(rows, columns=["query_id", "percent",
                                           "value"])

    def approx_terms_agg(self, queries: dict[str, str], field: str,
                         min_score: float, size: int = 10,
                         capacity: int = 1024) -> pd.DataFrame:
        """Approximate terms aggregation via Misra-Gries heavy hitters
        [the mergeable-summaries scale path — see
        functions/heavyhitters.py]: each segment ships an O(capacity)
        counter summary of the match set's field values regardless of
        field cardinality; the driver merges summaries with the
        pointwise-add + trim rule and emits the top ``size`` buckets
        with (count_lower, max_error, guaranteed) — guaranteed=True
        buckets are provably in the true top-k.  Deterministic: trim
        ties are (count desc, value asc) and summary merging is
        arrival-order-free (pytest-pinned).  Rows-only driver entry —
        the exact facet_counts carries the hard SQL gate."""
        import pickle

        from opensearch_jvector_ray.functions import heavyhitters as hh
        df = self._agg_fanout(queries,
                              {"kind": "mg_terms", "col": field,
                               "capacity": int(capacity)},
                              min_score, None, None)
        frames = []
        for qid in sorted(queries):
            parts, total = [], 0
            if not df.empty:
                for b in df[df["query_id"] == qid]["partial"]:
                    summ, n = pickle.loads(b)
                    parts.append(summ)
                    total += int(n)
            merged = hh.mg_merge(parts, int(capacity))
            top = hh.mg_topk(merged, size, total, int(capacity))
            top.insert(0, "query_id", qid)
            frames.append(top)
        return pd.concat(frames, ignore_index=True)

    def count(self, queries: dict[str, str],
              min_score: float = 0.0) -> pd.DataFrame:
        """_count API [OpenSearch count public semantics]: per query,
        the number of matching docs (score > 0; a positive ``min_score``
        switches to the radial threshold).  One int64 partial per
        (segment, query) — the match set itself never ships.  The query
        grid is emitted zero-filled."""
        df = self._agg_fanout(queries, {"kind": "count"},
                              float(min_score), None, None)
        return _query_totals(queries, df, "doc_count",
                             lambda d: d["doc_count"])

    def global_stats_agg(self, value_col: str) -> pd.DataFrame:
        """Global aggregation [OpenSearch global-agg public semantics]
        with a stats sub-agg: (doc_count, sum, min, max, avg) of a
        stored integer column over ALL docs of the index, ignoring any
        query — the global-bucket escape hatch.  One docs-sidecar-only
        task per segment ships a single integer partial row (no
        postings touched); the one avg division happens on the driver,
        bit-equal to the oracle's sum::DOUBLE / count::DOUBLE."""
        cols = ["doc_count", "v_sum", "v_min", "v_max", "v_avg"]
        frames = [f for f in self._fan_segments(_docs_stats_task,
                                                field=value_col)
                  if not f.empty]
        if not frames:
            return pd.DataFrame(columns=cols)
        df = pd.concat(frames, ignore_index=True)
        g = pd.DataFrame({
            "doc_count": [np.int64(df["doc_count"].sum())],
            "v_sum": [np.int64(df["v_sum"].sum())],
            "v_min": [np.int64(df["v_min"].min())],
            "v_max": [np.int64(df["v_max"].max())],
        })
        g["v_avg"] = g["v_sum"].astype(np.float64) / g["doc_count"]
        return g[cols]

    def mget(self, keys: Sequence[Any]) -> pd.DataFrame:
        """_mget API [OpenSearch multi-get public semantics]: fetch the
        STORED fields of the given doc keys in the REQUESTED order, with
        a ``found`` flag for keys absent from the index.  Each key is a
        tuple over ``key_cols`` (bare scalars accepted for single-column
        keys).  The read is the J4 pushed-down sidecar lookup — a
        key-IN row-group filter per segment, result-sized, no postings
        touched.  Duplicate keys across segments (the add-without-delete
        rule) resolve to the first segment in sorted dir order."""
        norm = [k if isinstance(k, tuple) else (k,) for k in keys]
        if not norm:
            return pd.DataFrame()
        key0 = self.key_cols[0]
        flt = [(key0, "in", sorted({k[0] for k in norm}))]
        if len(self.seg_dirs) > 16:
            # many segments: fan the pushed-down reads out as Ray tasks
            # (a driver-serial loop would pay O(segments) read latency —
            # the 100k-segment shape); each task returns only matching
            # rows, so the gather is result-sized.  ``_fan_out`` keeps
            # segment order, so the first-segment duplicate rule holds
            # as in the serial loop
            parts = self._fan_segments(_mget_task, flt=flt)
        else:
            parts = [pq.read_table(os.path.join(d, DOCS_NAME),
                                   filters=flt).to_pandas()
                     for d in self.seg_dirs]
        parts = [f for f in parts if not f.empty]
        req = pd.DataFrame(norm, columns=list(self.key_cols))
        req["__order"] = np.arange(len(req), dtype=np.int64)
        if parts:
            docs = pd.concat(parts, ignore_index=True).drop_duplicates(
                subset=list(self.key_cols), keep="first")
            out = req.merge(docs, on=list(self.key_cols), how="left",
                            indicator=True)
            # found = key presence itself (the merge indicator), never
            # null-ness of a stored column — nullable store columns
            # would otherwise report found=False for existing docs
            found = out.pop("_merge") == "both"
        else:
            docs_schema = pq.read_schema(
                os.path.join(self.seg_dirs[0], DOCS_NAME)) \
                if self.seg_dirs else None
            out = req.copy()
            if docs_schema is not None:
                for name in docs_schema.names:
                    if name not in out.columns:
                        out[name] = pd.NA
            found = pd.Series(False, index=out.index)
        out["found"] = found.to_numpy(dtype=bool)
        out = out.sort_values("__order").drop(columns="__order")
        cols = list(self.key_cols) + ["found"] + [
            c for c in out.columns
            if c not in self.key_cols and c != "found"]
        return out[cols].reset_index(drop=True)

    def children_terms_agg(self, parents: "dict[str, Sequence[Any]]",
                           field: str, size: int = 10) -> pd.DataFrame:
        """children aggregation [OpenSearch children-agg public
        semantics, terms sub-agg]: bucket the CHILD docs of each query's
        parent id set and count a child field's values — the join-field
        bucket-then-sub-agg shape (`parent_join` children agg).  Parent
        sets are the result-sized output of a parent-level query (e.g. a
        conversations-index search); they broadcast to one sidecar-only
        task per segment, which ships value-bounded (query, value,
        count) partials — the per-parent child match sets never leave
        the segments.  Missing child values (NULL or the '' string
        sentinel) are excluded; buckets order (doc_count desc, value
        asc) with a ``size`` cap."""
        cols = ["query_id", "value", "doc_count"]
        if not self.seg_dirs or not parents:
            return pd.DataFrame(columns=cols)
        parent_col = self.key_cols[0]
        norm = {qid: sorted(set(v)) for qid, v in parents.items()}
        frames = [f for f in self._fan_segments(
            _children_terms_task, parents=norm, parent_col=parent_col,
            field=field) if not f.empty]
        if not frames:
            return pd.DataFrame(columns=cols)
        df = (pd.concat(frames, ignore_index=True)
              .groupby(["query_id", "value"], sort=False)["doc_count"]
              .sum().reset_index())
        df["doc_count"] = df["doc_count"].astype(np.int64)
        df = df.sort_values(["query_id", "doc_count", "value"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df = df.groupby("query_id", sort=False).head(size)
        return df[cols].reset_index(drop=True)

    def sparse_vector_search(self,
                             queries: "dict[str, list[tuple[str, float]]]",
                             k: int | None = None,
                             filter: Any = None) -> pd.DataFrame:
        """sparse_vector / neural_sparse query [OpenSearch neural-sparse
        + Lucene FeatureField public semantics, doc-side weight = tf]:
        each query is a (token, weight) list — a learned-sparse /
        SPLADE-style expansion, NOT analyzed text — and a doc scores
        sum(weight * tf(token, doc)) over its matching tokens.  Rides
        the ordinary term-at-a-time fan-out with the linear kernel (no
        idf, no length norm); integer weights keep per-doc sums exact.
        Tokens must be in the index's post-analysis vocabulary form.

        Weights must be > 0 (a zero weight would keep docs at score 0,
        which the score>0 match predicate — and the oracle — drop), and
        pairs are summed in TOKEN-SORTED order on both sides (the
        pinned-summation rule: fractional weights make per-doc sums
        fp-order-dependent; the oracle's sum is ordered the same way)."""
        norm = _sparse_term_weights(queries)
        texts = {qid: "" for qid in norm}
        return self.search(texts, k=k, filter=filter,
                           term_weights=norm, score_mode="linear_tf")

    def field_stats(self, fields: Sequence[str]) -> pd.DataFrame:
        """_field_stats API [the pre-field_caps OpenSearch field-stats
        shape]: per stored field, the Arrow type name, non-null doc
        count, and min/max values (rendered as strings so mixed-type
        fields share one frame).  One columnar-pruned sidecar task per
        segment ships a 3-number partial per field; the driver combine
        is fields x segments-sized."""
        cols = ["field", "type", "doc_count", "min_value", "max_value"]
        frames = [f for f in self._fan_segments(_field_stats_task,
                                                fields=list(fields))
                  if not f.empty]
        if not frames:
            return pd.DataFrame(columns=cols)
        df = pd.concat(frames, ignore_index=True)
        rows = []
        for f in fields:
            g = df[df["field"] == f]
            typ = g["type"].iloc[0]
            nn = g[g["doc_count"] > 0]
            if nn.empty:
                mn = mx = None
            elif bool(g["is_num"].iloc[0]):
                # numeric: combine on the numeric partials (string
                # min/max would be lexicographic — '9' > '10'), render
                # int-typed results without a decimal point to match
                # CAST(x AS VARCHAR)
                lo, hi = nn["min_num"].min(), nn["max_num"].max()
                as_int = typ.startswith(("int", "uint"))
                mn = str(int(lo)) if as_int else repr(float(lo))
                mx = str(int(hi)) if as_int else repr(float(hi))
            else:
                mn, mx = nn["min_str"].min(), nn["max_str"].max()
            rows.append({
                "field": f, "type": typ,
                "doc_count": np.int64(g["doc_count"].sum()),
                "min_value": mn, "max_value": mx,
            })
        return pd.DataFrame(rows, columns=cols)

    def sampler_agg(self, queries: dict[str, str], field: str,
                    shard_size: int, min_score: float,
                    concurrency: int | None = None) -> pd.DataFrame:
        """Sampler aggregation [OpenSearch sampler-agg public semantics,
        with a terms sub-agg]: restrict the radial match set to its
        best ``shard_size`` docs by the engine's global (raw score
        desc, key asc) ranking, then count ``field`` values over that
        sample, ordered (doc_count desc, value asc).

        Distribution shape: each segment ships its own top shard_size
        sample rows (its match set arrives pre-sorted from the radial
        collector, so the partial is a head); the driver re-merges
        <= shard_size x segments rows on the same order."""
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        df = self._agg_fanout(queries,
                              {"kind": "sample", "col": field,
                               "n": int(shard_size),
                               "key_cols": list(self.key_cols)},
                              min_score, None, concurrency)
        cols = ["query_id", field, "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        df = df.sort_values(
            ["query_id", "score", *self.key_cols],
            ascending=[True, False] + [True] * len(self.key_cols),
            kind="mergesort")
        df = df.groupby("query_id", sort=False).head(int(shard_size))
        out = (df.groupby(["query_id", field], sort=False).size()
                 .rename("doc_count").reset_index())
        out = out.sort_values(["query_id", "doc_count", field],
                              ascending=[True, False, True],
                              kind="mergesort")
        out["doc_count"] = out["doc_count"].astype(np.int64)
        return out.reset_index(drop=True)[cols]

    def diversified_sampler_agg(self, queries: dict[str, str],
                                field: str, div_field: str,
                                max_docs_per_value: int, shard_size: int,
                                min_score: float,
                                concurrency: int | None = None
                                ) -> pd.DataFrame:
        """Diversified-sampler aggregation [OpenSearch
        diversified_sampler public semantics, with a terms sub-agg]:
        walk the radial match set in the engine's global (raw score
        desc, key asc) order, keep at most ``max_docs_per_value`` docs
        per distinct ``div_field`` value, stop after ``shard_size``
        kept docs, then count ``field`` values over the sample
        (doc_count desc, value asc).  Docs whose ``div_field`` is NULL
        are excluded from the sample (the terms-family missing rule,
        shared with the oracle's IS NOT NULL).

        Distribution shape: a doc kept by the global walk is always
        within its own segment's per-value head(max_docs_per_value) —
        its same-value predecessors in the global order are a superset
        of those in its segment — so the per-segment partial is the
        top_hits per-bucket head: <= div-cardinality x max_docs rows
        ship, and the exact global walk runs over those."""
        if max_docs_per_value < 1:
            raise ValueError("max_docs_per_value must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if field == div_field:
            raise ValueError("field and div_field must differ")
        df = self._agg_fanout(queries,
                              {"kind": "top_hits", "col": div_field,
                               "n": int(max_docs_per_value),
                               "key_cols": [*self.key_cols, field]},
                              min_score, None, concurrency)
        cols = ["query_id", field, "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        # docs with a NULL div_field are excluded from the sample (the
        # terms-family missing rule; the oracle's IS NOT NULL)
        df = df[df[div_field].notna()]
        df = df.sort_values(
            ["query_id", "score", *self.key_cols],
            ascending=[True, False] + [True] * len(self.key_cols),
            kind="mergesort")
        pos = df.groupby(["query_id", div_field], sort=False).cumcount()
        df = df[pos.to_numpy() < int(max_docs_per_value)]
        df = df.groupby("query_id", sort=False).head(int(shard_size))
        out = (df.groupby(["query_id", field], sort=False).size()
                 .rename("doc_count").reset_index())
        out = out.sort_values(["query_id", "doc_count", field],
                              ascending=[True, False, True],
                              kind="mergesort")
        out["doc_count"] = out["doc_count"].astype(np.int64)
        return out.reset_index(drop=True)[cols]

    def auto_date_histogram_agg(self, queries: dict[str, str],
                                ts_col: str, target_buckets: int,
                                min_score: float,
                                concurrency: int | None = None
                                ) -> pd.DataFrame:
        """Auto-interval date histogram [OpenSearch auto_date_histogram
        public semantics]: per query, pick the smallest calendar
        interval from the (hour, day, month) ladder whose PRESENT
        bucket count is <= ``target_buckets`` (month regardless if none
        qualifies) and emit that histogram with the chosen interval.

        ONE hour-granularity date_hist partial pass fans out; the
        coarser candidates derive driver-side by exact integer
        datetime64 truncation of the hour buckets (calendar truncation
        composes exactly), so the interval CHOICE is made over
        bucket-count-sized frames — and the generated oracle verifies
        the choice itself, not just the chosen histogram."""
        if target_buckets < 1:
            raise ValueError("target_buckets must be >= 1")
        df = self._agg_fanout(queries,
                              {"kind": "date_hist", "col": ts_col,
                               "interval": "hour"},
                              min_score, None, concurrency)
        cols = ["query_id", "cal_interval", "bucket", "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        hour = (df.groupby(["query_id", "bucket"], sort=True)["doc_count"]
                  .sum().reset_index())
        frames = []
        for qid, g in hour.groupby("query_id", sort=True):
            name, cg = "month", None
            for unit, nm in (("h", "hour"), ("D", "day"), ("M", "month")):
                b = (g["bucket"].to_numpy()
                      .astype(f"datetime64[{unit}]")
                      .astype("datetime64[us]"))
                cg = (pd.DataFrame({"bucket": b,
                                    "doc_count": g["doc_count"].to_numpy()})
                        .groupby("bucket", sort=True)["doc_count"].sum()
                        .reset_index())
                name = nm
                if len(cg) <= int(target_buckets):
                    break
            cg.insert(0, "cal_interval", name)
            cg.insert(0, "query_id", qid)
            frames.append(cg)
        out = pd.concat(frames, ignore_index=True)
        out["doc_count"] = out["doc_count"].astype(np.int64)
        return out[cols]

    def significant_terms_agg(self, queries: dict[str, str], field: str,
                              min_score: float, size: int = 10,
                              concurrency: int | None = None
                              ) -> pd.DataFrame:
        """Significant-terms aggregation [OpenSearch significant_terms
        public semantics, JLH heuristic]: per query, the stored-column
        values over-represented in the match set vs the whole corpus,
        scored JLH = (fg% - bg%) * (fg% / bg%) and ranked (score desc,
        value asc), top ``size``.  All four inputs are integer counts
        and the score is a fixed chain of IEEE double ops, so the SQL
        oracle is bit-exact.  Foreground counts ride the terms partial;
        background counts fan one docs-sidecar-only task per segment."""
        fg = self._agg_fanout(queries, {"kind": "terms", "col": field},
                              min_score, None, concurrency)
        cols = ["query_id", field, "doc_count", "bg_count", "score"]
        if fg.empty:
            return pd.DataFrame(columns=cols)
        bg = self._field_value_counts(field)
        bg_tot = float(bg["bg_count"].sum())
        fg_sum = (fg.groupby(["query_id", field], sort=False)["doc_count"]
                    .sum().reset_index())
        fg_tot = (fg_sum.groupby("query_id")["doc_count"].sum()
                        .rename("fg_tot"))
        m = fg_sum.merge(bg, on=field).merge(fg_tot, on="query_id")
        fgp = m["doc_count"].astype(np.float64) / m["fg_tot"]
        bgp = m["bg_count"].astype(np.float64) / bg_tot
        m["score"] = (fgp - bgp) * (fgp / bgp)
        m = m.sort_values(["query_id", "score", field],
                          ascending=[True, False, True], kind="mergesort")
        m = m.groupby("query_id", sort=False).head(size)
        m["score"] = np.round(m["score"].astype(np.float64), 6)
        return m.reset_index(drop=True)[cols]

    def significant_text_agg(self, queries: dict[str, str],
                             min_score: float, size: int = 10,
                             concurrency: int | None = None
                             ) -> pd.DataFrame:
        """significant_text aggregation [OpenSearch significant_text
        public semantics, JLH heuristic]: per query, the ANALYZED INDEX
        TERMS over-represented in the match set vs the whole corpus —
        the free-text sibling of significant_terms_agg.  Foreground
        counts come from a per-segment postings scan
        (``_sig_text_scan``: vocabulary-sized partials, fg_tot rides
        the reserved '' row), background counts are the dictionary's
        GLOBAL df, fg_tot = matched docs, bg_tot = n_docs_indexed.
        score JLH = (fg% - bg%) * (fg% / bg%) — integer counts through
        a fixed chain of IEEE double ops, so the SQL oracle is
        bit-exact; ranked (raw score desc, term asc), top ``size``.
        Query terms are NOT excluded (they legitimately dominate — the
        OpenSearch default behavior)."""
        fg = self._agg_fanout(queries, {"kind": "sig_text"}, min_score,
                              None, concurrency)
        cols = ["query_id", "term", "doc_count", "bg_count", "score"]
        if fg.empty:
            return pd.DataFrame(columns=cols)
        fg_sum = (fg.groupby(["query_id", "term"], sort=False)
                    ["doc_count"].sum().reset_index())
        fgt = (fg_sum[fg_sum["term"] == ""]
               .rename(columns={"doc_count": "fg_tot"})
               [["query_id", "fg_tot"]])
        m = fg_sum[fg_sum["term"] != ""].merge(fgt, on="query_id")
        df_map = self.lookup_df(sorted(set(m["term"])))
        m["bg_count"] = m["term"].map(df_map).astype(np.int64)
        bg_tot = float(self.stats["n_docs_indexed"])
        fgp = m["doc_count"].astype(np.float64) / m["fg_tot"]
        bgp = m["bg_count"].astype(np.float64) / bg_tot
        m["score"] = (fgp - bgp) * (fgp / bgp)
        m = m.sort_values(["query_id", "score", "term"],
                          ascending=[True, False, True],
                          kind="mergesort")
        m = m.groupby("query_id", sort=False).head(size)
        m["score"] = np.round(m["score"].astype(np.float64), 6)
        return m.reset_index(drop=True)[cols]

    def filters_agg(self, queries: dict[str, str],
                    filters: dict[str, dict], min_score: float,
                    concurrency: int | None = None) -> pd.DataFrame:
        """Filters aggregation [OpenSearch filters-agg public semantics]:
        per query, the match-set doc count under each NAMED structured
        filter (term/terms/range/exists/bool specs — the same objects
        `compile_filter` and the SQL oracle consume).  Every
        (query, filter) cell is emitted zero-filled."""
        if not filters:
            raise ValueError("filters must be non-empty")
        from opensearch_jvector_ray.query_dsl import compile_filter
        for spec in filters.values():
            compile_filter(spec)      # driver-side validation
        fl = sorted(filters.items())
        df = self._agg_fanout(queries, {"kind": "filters", "filters": fl},
                              min_score, None, concurrency)
        return _key_grid_counts(queries, df, "filter_key",
                                [k for k, _ in fl])

    def terms_stats_agg(self, queries: dict[str, str], group_col: str,
                        value_col: str, min_score: float,
                        concurrency: int | None = None) -> pd.DataFrame:
        """Terms bucket + stats sub-aggregation [OpenSearch terms agg
        with a stats sub-agg]: per query and bucket value,
        (doc_count, sum, min, max, avg) of an integer stored column.
        Partials are per-(segment, bucket) integer rows — order-free;
        the one avg division happens once at the end (bit-equal to the
        oracle's).  Ordered (query_id, bucket asc)."""
        df = self._agg_fanout(queries,
                              {"kind": "terms_stats", "col": group_col,
                               "val_col": value_col},
                              min_score, None, concurrency)
        cols = ["query_id", group_col, "doc_count", "v_sum", "v_min",
                "v_max", "v_avg"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        g = df.groupby(["query_id", group_col], sort=True).agg(
            doc_count=("doc_count", "sum"), v_sum=("v_sum", "sum"),
            v_min=("v_min", "min"), v_max=("v_max", "max")).reset_index()
        g["v_avg"] = g["v_sum"].astype(np.float64) / g["doc_count"]
        return g[cols]

    def multi_terms_agg(self, queries: dict[str, str], fields: list[str],
                        min_score: float, size: int | None = None,
                        concurrency: int | None = None) -> pd.DataFrame:
        """Multi-terms aggregation [OpenSearch multi_terms-agg public
        semantics]: doc counts per COMPOSITE bucket of several stored
        columns over the radial match set, ordered (doc_count DESC,
        field values ASC), optionally capped at ``size`` buckets per
        query.  Docs missing ANY key field are skipped (the OpenSearch
        terms-family missing rule — mirrored by the oracle's IS NOT
        NULL predicates).  Partials are composite-cardinality-sized
        (combiner-first)."""
        if not fields or len(fields) < 2:
            raise ValueError("multi_terms needs at least 2 fields")
        if len(set(fields)) != len(fields):
            raise ValueError("multi_terms fields must be unique")
        df = self._agg_fanout(queries, {"kind": "multi_terms",
                                        "cols": list(fields)},
                              min_score, None, concurrency)
        cols = ["query_id", *fields, "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", *fields], sort=False)["doc_count"]
                 .sum().reset_index())
        out = out.sort_values(["query_id", "doc_count", *fields],
                              ascending=[True, False] + [True] * len(fields),
                              kind="mergesort")
        if size is not None:
            out = out.groupby("query_id", sort=False).head(size)
        return out.reset_index(drop=True)[cols]

    def rare_terms_agg(self, queries: dict[str, str], field: str,
                       max_doc_count: int, min_score: float,
                       concurrency: int | None = None) -> pd.DataFrame:
        """Rare-terms aggregation [OpenSearch rare_terms-agg public
        semantics]: the long-tail buckets — values whose GLOBAL match-set
        doc count is <= ``max_doc_count`` — ordered (doc_count ASC,
        value ASC).  The filter applies AFTER the cross-segment merge
        (a value common in every segment is not rare), which is why it
        rides the same terms partials as facet_counts rather than a
        per-segment filter."""
        if max_doc_count < 1:
            raise ValueError("max_doc_count must be >= 1")
        df = self._agg_fanout(queries, {"kind": "terms", "col": field},
                              min_score, None, concurrency)
        cols = ["query_id", field, "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", field], sort=False)["doc_count"]
                 .sum().reset_index())
        out = out[out["doc_count"] <= int(max_doc_count)]
        out = out.sort_values(["query_id", "doc_count", field],
                              ascending=[True, True, True],
                              kind="mergesort")
        return out.reset_index(drop=True)[cols]

    def extended_stats_agg(self, queries: dict[str, str], value_col: str,
                           min_score: float, sigma: float = 2.0,
                           concurrency: int | None = None) -> pd.DataFrame:
        """Extended-stats aggregation [OpenSearch extended_stats-agg
        public semantics]: stats + sum_of_squares / variance / std_dev /
        std bounds of an integer stored column over the radial match
        set.  Partials stay integer and order-free (one row per
        segment); every float is derived at the END by a PINNED op
        chain shared verbatim with the generated SQL:
        avg = sum/n; variance = sos/n - avg*avg (population form);
        std = sqrt(variance) (IEEE-exact, like the sqrt modifier);
        bounds = avg +/- sigma*std.  int64 range assumed
        (|v|^2 x doc_count < 2^63, documented)."""
        df = self._agg_fanout(queries,
                              {"kind": "ext_stats", "col": value_col},
                              min_score, None, concurrency)
        cols = ["query_id", "doc_count", "v_sum", "v_min", "v_max",
                "v_sos", "v_avg", "v_variance", "v_std",
                "std_upper", "std_lower"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        g = df.groupby("query_id", sort=True).agg(
            doc_count=("doc_count", "sum"), v_sum=("v_sum", "sum"),
            v_min=("v_min", "min"), v_max=("v_max", "max"),
            v_sos=("v_sos", "sum")).reset_index()
        n = g["doc_count"].astype(np.float64)
        g["v_avg"] = g["v_sum"].astype(np.float64) / n
        g["v_variance"] = (g["v_sos"].astype(np.float64) / n
                           - g["v_avg"] * g["v_avg"])
        g["v_std"] = np.sqrt(g["v_variance"])
        g["std_upper"] = g["v_avg"] + float(sigma) * g["v_std"]
        g["std_lower"] = g["v_avg"] - float(sigma) * g["v_std"]
        return g[cols]

    def weighted_avg_agg(self, queries: dict[str, str], value_col: str,
                         weight_col: str, min_score: float,
                         concurrency: int | None = None) -> pd.DataFrame:
        """Weighted-average aggregation [OpenSearch weighted_avg-agg
        public semantics]: sum(value x weight) / sum(weight) over the
        radial match set, both integer stored columns.  Partials are
        two int64 sums per segment (order-free); the single division is
        the only float op (bit-equal to the oracle's)."""
        df = self._agg_fanout(queries,
                              {"kind": "weighted", "col": value_col,
                               "w_col": weight_col},
                              min_score, None, concurrency)
        cols = ["query_id", "w_sum", "weighted_avg"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        g = df.groupby("query_id", sort=True).agg(
            vw_sum=("vw_sum", "sum"), w_sum=("w_sum", "sum")).reset_index()
        g["weighted_avg"] = (g["vw_sum"].astype(np.float64)
                             / g["w_sum"].astype(np.float64))
        return g[cols]

    def top_metrics_agg(self, queries: dict[str, str], sort_col: str,
                        metric_cols: list[str], min_score: float,
                        size: int = 1, sort_order: str = "desc",
                        concurrency: int | None = None) -> pd.DataFrame:
        """Top-metrics aggregation [OpenSearch top_metrics-agg public
        semantics]: per query, the metric column values of the ``size``
        best match-set docs ordered by a stored SORT column
        ((sort dir, key asc) — ties on the doc key like everything
        else).  Each segment ships <= size rows (the A1 bounded-partial
        argument applied to a field sort); the driver re-merges by the
        same order.  Sort column must be numeric or timestamp."""
        if size < 1:
            raise ValueError("size must be >= 1")
        if sort_order not in ("asc", "desc"):
            raise ValueError("sort_order must be asc|desc")
        if not metric_cols:
            raise ValueError("metric_cols must be non-empty")
        if (len(set(metric_cols)) != len(metric_cols)
                or sort_col in metric_cols):
            raise ValueError("metric_cols must be unique and exclude "
                             "the sort column")
        df = self._agg_fanout(
            queries,
            {"kind": "top_metrics", "col": sort_col,
             "m_cols": list(metric_cols), "n": int(size),
             "desc": sort_order == "desc",
             "key_cols": list(self.key_cols)},
            min_score, None, concurrency)
        cols = ["query_id", "rank", *self.key_cols, sort_col,
                *metric_cols]
        if df.empty:
            return pd.DataFrame(columns=cols)
        df = df.sort_values(
            ["query_id", sort_col, *self.key_cols],
            ascending=[True, sort_order == "asc"]
            + [True] * len(self.key_cols),
            kind="mergesort")
        df = df.groupby("query_id", sort=False).head(size)
        df["rank"] = df.groupby("query_id", sort=False).cumcount() + 1
        return df.reset_index(drop=True)[cols]

    def adjacency_matrix_agg(self, queries: dict[str, str],
                             filters: dict[str, dict], min_score: float,
                             concurrency: int | None = None
                             ) -> pd.DataFrame:
        """Adjacency-matrix aggregation [OpenSearch adjacency_matrix-agg
        public semantics]: per query, the match-set count under each
        NAMED structured filter plus each filter PAIR's intersection
        (key "a&b", names in sorted order).  Empty buckets are OMITTED
        (the OpenSearch rule — unlike filters_agg's zero-filled grid);
        ordered (query_id, filter_key asc).  Masks are precomputed once
        per segment; partials are (filters + pairs)-sized."""
        if not filters:
            raise ValueError("filters must be non-empty")
        if any("&" in k for k in filters):
            raise ValueError("filter names must not contain '&' "
                             "(the intersection-key separator)")
        from opensearch_jvector_ray.query_dsl import compile_filter
        for spec in filters.values():
            compile_filter(spec)      # driver-side validation
        fl = sorted(filters.items())
        df = self._agg_fanout(queries,
                              {"kind": "filters", "filters": fl,
                               "pairs": True},
                              min_score, None, concurrency)
        cols = ["query_id", "filter_key", "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", "filter_key"], sort=True)
                 ["doc_count"].sum().reset_index())
        return out[cols]

    def string_stats_agg(self, queries: dict[str, str], field: str,
                         min_score: float,
                         concurrency: int | None = None) -> pd.DataFrame:
        """String-stats aggregation [OpenSearch string_stats-agg public
        semantics]: count / min_length / max_length / avg_length /
        Shannon entropy of a string column over the radial match set
        (nulls excluded; a query whose whole match set is NULL-valued
        emits NO row — the oracle's HAVING count > 0 rule; lengths in
        unicode codepoints).  Partials are
        integer and charset-bounded; avg_length is ONE division.
        ``entropy`` sums -p*log2(p) SEQUENTIALLY in character-codepoint
        ascending order (charset-sized loop) — log2 is libm, so the
        hard driver gate covers the other columns and entropy is
        pytest-gated (the ndcg/log1p precedent)."""
        import math
        df = self._agg_fanout(queries,
                              {"kind": "string_stats", "col": field},
                              min_score, None, concurrency)
        cols = ["query_id", "doc_count", "len_min", "len_max",
                "len_sum", "avg_length", "entropy"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        scalar = df[df["ch"] == -1]
        g = scalar.groupby("query_id", sort=True).agg(
            doc_count=("doc_count", "sum"), len_sum=("len_sum", "sum"),
            len_min=("len_min", "min"), len_max=("len_max", "max"),
        ).reset_index()
        g["avg_length"] = (g["len_sum"].astype(np.float64)
                           / g["doc_count"].astype(np.float64))
        chars = df[df["ch"] >= 0]
        cg = (chars.groupby(["query_id", "ch"], sort=True)["ch_count"]
                   .sum().reset_index())
        ents = {}
        for qid, sub in cg.groupby("query_id", sort=False):
            total = float(int(sub["ch_count"].sum()))
            ent = 0.0
            for c in sub["ch_count"]:       # ch-asc (sorted groupby)
                p = float(int(c)) / total
                ent -= p * math.log2(p)
            ents[qid] = ent
        g["entropy"] = g["query_id"].map(ents).astype(np.float64)
        return g[cols]

    def matrix_stats_agg(self, queries: dict[str, str], x_col: str,
                         y_col: str, min_score: float,
                         concurrency: int | None = None) -> pd.DataFrame:
        """Matrix-stats aggregation [OpenSearch matrix_stats-agg public
        semantics, two-field form]: means, population variances,
        covariance and Pearson correlation of two integer stored
        columns over the radial match set.  Partials are six int64
        moments per segment (order-free); every float derives at the
        END from a PINNED op chain shared verbatim with the generated
        SQL: mean = sum/n; var = sos/n - mean*mean; cov = sxy/n -
        mean_x*mean_y; corr = cov / (sqrt(var_x) * sqrt(var_y)).
        int64 range assumed (|x*y| x doc_count < 2^63, documented)."""
        df = self._agg_fanout(queries,
                              {"kind": "matrix", "col": x_col,
                               "col_y": y_col},
                              min_score, None, concurrency)
        cols = ["query_id", "doc_count", "x_mean", "y_mean",
                "x_variance", "y_variance", "covariance", "correlation"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        g = df.groupby("query_id", sort=True).agg(
            doc_count=("doc_count", "sum"), x_sum=("x_sum", "sum"),
            y_sum=("y_sum", "sum"), xx_sum=("xx_sum", "sum"),
            yy_sum=("yy_sum", "sum"), xy_sum=("xy_sum", "sum"),
        ).reset_index()
        n = g["doc_count"].astype(np.float64)
        g["x_mean"] = g["x_sum"].astype(np.float64) / n
        g["y_mean"] = g["y_sum"].astype(np.float64) / n
        g["x_variance"] = (g["xx_sum"].astype(np.float64) / n
                           - g["x_mean"] * g["x_mean"])
        g["y_variance"] = (g["yy_sum"].astype(np.float64) / n
                           - g["y_mean"] * g["y_mean"])
        g["covariance"] = (g["xy_sum"].astype(np.float64) / n
                           - g["x_mean"] * g["y_mean"])
        g["correlation"] = g["covariance"] / (np.sqrt(g["x_variance"])
                                              * np.sqrt(g["y_variance"]))
        return g[cols]

    def date_range_agg(self, queries: dict[str, str], ts_col: str,
                       ranges: list[tuple[str, str | None, str | None]],
                       min_score: float,
                       concurrency: int | None = None) -> pd.DataFrame:
        """Date-range aggregation [OpenSearch date_range-agg public
        semantics]: doc counts per caller-keyed [lo, hi) timestamp
        range (ISO strings, None = open end), zero-filled over the
        query x range grid like range_agg.  Bounds convert to exact
        integer epoch-microseconds — the comparison is the oracle's
        ``ts >= TIMESTAMP lo AND ts < TIMESTAMP hi`` bit-for-bit."""
        if not ranges:
            raise ValueError("ranges must be non-empty")
        def _us(iso: str | None) -> float | None:
            if iso is None:
                return None
            return float(np.datetime64(iso, "us").astype(np.int64))
        rr = [(str(rk), _us(lo), _us(hi)) for rk, lo, hi in ranges]
        if len({rk for rk, _, _ in rr}) != len(rr):
            raise ValueError("range keys must be unique")
        df = self._agg_fanout(queries, {"kind": "range", "col": ts_col,
                                        "ranges": rr},
                              min_score, None, concurrency)
        return _key_grid_counts(queries, df, "range_key",
                                [rk for rk, _, _ in rr])

    def bucket_metric_agg(self, queries: dict[str, str], ts_col: str,
                          calendar_interval: str, metric: str,
                          min_score: float,
                          concurrency: int | None = None) -> pd.DataFrame:
        """Sibling pipeline aggregations over the date_histogram buckets
        [OpenSearch sum_bucket / avg_bucket / min_bucket / max_bucket /
        stats_bucket public semantics]: ONE row per query reducing the
        bucket doc_counts.

        fp rules (shared with the generated SQL): sums/extremes are
        exact int64; avg is the single division sum/bucket_count.
        min/max_bucket also report ``bucket_key`` — OpenSearch returns
        the keys array of ALL extreme buckets; the pinned cross-side
        rule here is the SMALLEST bucket timestamp among them
        (row_number over (doc_count extreme-first, bucket asc))."""
        if calendar_interval not in ("month", "day", "hour"):
            raise ValueError("calendar_interval must be month|day|hour")
        if metric not in ("sum_bucket", "avg_bucket", "min_bucket",
                          "max_bucket", "stats_bucket"):
            raise ValueError("metric must be sum_bucket|avg_bucket|"
                             "min_bucket|max_bucket|stats_bucket")
        df = self._agg_fanout(queries,
                              {"kind": "date_hist", "col": ts_col,
                               "interval": calendar_interval},
                              min_score, None, concurrency)
        if metric == "stats_bucket":
            cols = ["query_id", "bucket_count", "v_min", "v_max",
                    "v_sum", "v_avg"]
        elif metric in ("min_bucket", "max_bucket"):
            cols = ["query_id", "value", "bucket_key"]
        else:
            cols = ["query_id", "value"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        b = (df.groupby(["query_id", "bucket"], sort=True)["doc_count"]
               .sum().reset_index())
        if metric == "sum_bucket":
            g = b.groupby("query_id", sort=True)["doc_count"].sum() \
                 .rename("value").reset_index()
            g["value"] = g["value"].astype(np.int64)
            return g[cols]
        if metric == "avg_bucket":
            g = b.groupby("query_id", sort=True)["doc_count"].agg(
                ["sum", "count"]).reset_index()
            g["value"] = (g["sum"].astype(np.float64)
                          / g["count"].astype(np.float64))
            return g[cols]
        if metric == "stats_bucket":
            g = b.groupby("query_id", sort=True)["doc_count"].agg(
                bucket_count="count", v_min="min", v_max="max",
                v_sum="sum").reset_index()
            for c in ("bucket_count", "v_min", "v_max", "v_sum"):
                g[c] = g[c].astype(np.int64)
            g["v_avg"] = (g["v_sum"].astype(np.float64)
                          / g["bucket_count"].astype(np.float64))
            return g[cols]
        asc = metric == "min_bucket"
        b = b.sort_values(["query_id", "doc_count", "bucket"],
                          ascending=[True, asc, True], kind="mergesort")
        g = b.groupby("query_id", sort=False).head(1).reset_index(drop=True)
        g = g.rename(columns={"doc_count": "value",
                              "bucket": "bucket_key"})
        g["value"] = g["value"].astype(np.int64)
        return g.sort_values("query_id").reset_index(drop=True)[cols]

    def composite_agg(self, queries: dict[str, str], field: str,
                      size: int, min_score: float,
                      after: Any | None = None,
                      concurrency: int | None = None) -> pd.DataFrame:
        """Composite aggregation [OpenSearch composite-agg public
        semantics, one terms source]: pages through ALL buckets of the
        match set in ascending bucket-key order, ``size`` per page;
        ``after`` is the previous page's last bucket key and is pushed
        into every segment task (buckets <= after never leave the task —
        the search_after rule applied to bucket keys)."""
        if size < 1:
            raise ValueError("size must be >= 1")
        agg: dict[str, Any] = {"kind": "terms", "col": field}
        if after is not None:
            agg["after"] = after
        df = self._agg_fanout(queries, agg, min_score, None, concurrency)
        cols = ["query_id", field, "doc_count"]
        if df.empty:
            return pd.DataFrame(columns=cols)
        out = (df.groupby(["query_id", field], sort=False)["doc_count"]
                 .sum().reset_index())
        out = out.sort_values(["query_id", field],
                              ascending=[True, True], kind="mergesort")
        out = out.groupby("query_id", sort=False).head(size)
        return out.reset_index(drop=True)[cols]

    def _field_value_counts(self, field: str) -> pd.DataFrame:
        """Corpus-wide value counts of a stored doc column: one task per
        segment reads ONLY that column from the docs sidecar (no
        postings touched) and ships value-count partials."""
        frames = [f for f in self._fan_segments(_docs_value_counts_task,
                                                field=field)
                  if not f.empty]
        if not frames:
            return pd.DataFrame(columns=[field, "bg_count"])
        df = pd.concat(frames, ignore_index=True)
        # dropna=False: the NULL bucket must survive the cross-segment
        # merge so bg_tot stays the TRUE corpus row count (the oracle's
        # count(*)); pandas' default dropna would silently shrink
        # bg_tot on a nullable field (latent JLH drift)
        return (df.groupby(field, sort=True, dropna=False)["bg_count"]
                  .sum().reset_index())

    def _agg_fanout(self, queries: dict[str, str], agg: dict,
                    min_score: float,
                    term_weights: dict[str, list[tuple[str, float]]] | None,
                    concurrency: int | None) -> pd.DataFrame:
        """Shared aggregation fan-out: one task per segment computes the
        radial match set and reduces it to an aggregate PARTIAL (see
        ``_AGG_KINDS``); the driver merges aggregate-sized frames
        only."""
        if not self.seg_dirs:
            return pd.DataFrame()
        docs_schema = pq.read_schema(
            os.path.join(self.seg_dirs[0], DOCS_NAME))
        agg_schema = _agg_schema(agg, docs_schema)
        prepared, union = self._prepare(queries, self.cfg.default_k,
                                        term_weights=term_weights)
        payload = {
            "queries": prepared, "union_terms": union, "mode": "taat",
            "codec": self.cfg.codec, "block_size": self.cfg.block_size,
            "k1": self.cfg.k1, "b": self.cfg.b,
            "avgdl": float(self.stats["avgdl"] or 1.0),
            "filter": None, "rescore_oversample": None,
            "key_types": [(kc, docs_schema.field(kc).type)
                          for kc in self.key_cols],
            "first_pass_k": self.cfg.first_pass_k,
            "min_score": float(min_score),
            "agg": agg, "agg_schema": agg_schema,
        }
        if not union:
            return pd.DataFrame()
        frames = [f for f in self._map_segments(payload, concurrency)
                  if not f.empty]
        if not frames:
            return pd.DataFrame()
        return pd.concat(frames, ignore_index=True)

    def _prepare(self, queries: dict[str, str], k: int,
                 phrase: bool = False,
                 boolean: bool = False,
                 term_weights: dict[str, list[tuple[str, float]]] | None = None,
                 ) -> tuple[list[dict], list[str]]:
        from opensearch_jvector_ray.analyze import (
            analyze_query, parse_boolean_query,
        )
        all_terms: set[str] = set()
        parsed = []
        for qid, text in queries.items():
            must: list[str] = []
            must_not: list[str] = []
            should: list[str] = []
            if term_weights is not None:
                # pre-expanded (term, weight) lists — the multi-term
                # query path (prefix / fuzzy expansion) supplies its own
                # analyzed terms
                tw = list(term_weights[qid])
            elif phrase:
                # ordered term sequence, duplicates kept (position matters)
                tw = [(t, 1) for t in analyze_query(text, self.cfg)]
            elif boolean:
                # Lucene BooleanQuery semantics: MUST clauses both filter
                # AND score; SHOULD clauses score; MUST_NOT only filters
                should, must, must_not = parse_boolean_query(text, self.cfg)
                counts: dict[str, int] = {}
                order_: list[str] = []
                for t in should + must:
                    if t not in counts:
                        order_.append(t)
                    counts[t] = counts.get(t, 0) + 1
                tw = [(t, counts[t]) for t in order_]
            else:
                tw = query_term_weights(text, self.cfg)
            parsed.append((qid, tw, must, must_not, should))
            all_terms.update(t for t, _ in tw)
            all_terms.update(must)
            all_terms.update(must_not)
        df_map = self.lookup_df(sorted(all_terms))
        n = float(self.stats["n_docs_indexed"])
        prepared = []
        union: set[str] = set()
        for qid, tw, must, must_not, should in parsed:
            terms = []
            for t, w in tw:
                df = df_map.get(t, 0)
                if df > 0:
                    terms.append((t, float(w), float(bm25_idf(n, df))))
                    union.add(t)
            if phrase and len(terms) != len(tw):
                terms = []     # phrase with an unknown term matches nothing
            if any(df_map.get(t, 0) == 0 for t in must):
                terms = []     # an impossible MUST clause matches nothing
            mn = [t for t in must_not if df_map.get(t, 0) > 0]
            union.update(mn)
            entry = {"query_id": qid, "terms": terms, "k": k}
            if must or mn:
                entry["must"] = must
                entry["must_not"] = mn
            if boolean:
                # distinct SHOULD terms in appearance order — the
                # minimum_should_match counting set (df=0 terms can never
                # match, so listing them changes nothing)
                seen_s: list[str] = []
                for t in should:
                    if t not in seen_s:
                        seen_s.append(t)
                entry["should"] = seen_s
            prepared.append(entry)
        return prepared, sorted(union)

    def matched_queries_search(self, queries: dict[str, dict[str, str]],
                               k: int | None = None) -> pd.DataFrame:
        """Named-queries attribution [OpenSearch matched_queries public
        semantics]: each query is a dict of NAMED should clauses; the
        executed query is the union of the clauses' DISTINCT analyzed
        terms (weight 1 each, sorted term order), and every hit carries
        ``matched_queries`` — the comma-joined sorted names of the
        clauses with >= 1 term occurring in the doc.

        Distribution shape: one standard bounded top-k search over the
        union text, then the highlight probe (result-sized pushed-down
        postings membership per segment) supplies each hit's matched
        term set — clause attribution is a driver-side set intersection
        over k x queries rows."""
        k = k or self.cfg.default_k
        from opensearch_jvector_ray.analyze import analyze_query
        texts: dict[str, str] = {}
        clause_terms: dict[str, dict[str, set]] = {}
        for qid, clauses in queries.items():
            if not clauses:
                raise ValueError(f"query {qid!r} needs >= 1 named "
                                 "clause")
            ct = {name: set(analyze_query(txt, self.cfg))
                  for name, txt in clauses.items()}
            clause_terms[qid] = ct
            terms = sorted({t for ts in ct.values() for t in ts})
            texts[qid] = " ".join(terms)
        hits = self.search(texts, k=k)
        cols = ["query_id", "rank", *self.key_cols, "score",
                "matched_queries"]
        if hits.empty:
            return pd.DataFrame(columns=cols)
        pos = self.matched_positions(texts, k=k, _hits=hits)
        mt = (pos.groupby(["query_id", *self.key_cols])["term"]
                 .agg(lambda s: set(s)))
        out = hits.copy()
        names = []
        for rec in out.itertuples(index=False):
            key = (rec.query_id, *(getattr(rec, kc)
                                   for kc in self.key_cols))
            terms_hit = mt.get(key, set())
            matched = sorted(n for n, ts in
                             clause_terms[rec.query_id].items()
                             if ts & terms_hit)
            names.append(",".join(matched))
        out["matched_queries"] = names
        return out[cols]

    def _prepare_span_or(self, queries: dict[str, str], k: int
                         ) -> tuple[list[dict], list[str]]:
        """Driver-side span_or parse: whitespace-separated clauses, '|'
        separated alternative members inside a clause; members analyze
        through the standard analyzer and df=0 members drop.  Clause
        idf = idf of the MAX member df (the SynonymQuery-BLENDED rule
        the synonym engine uses).  A query with any empty clause
        matches nothing (containment needs every clause)."""
        from opensearch_jvector_ray.analyze import analyze_query
        cfg = self.cfg
        all_members: set[str] = set()
        parsed: list[tuple[str, list[list[str]]]] = []
        for qid, text in queries.items():
            clauses = []
            for clause in text.split():
                members: list[str] = []
                for m in clause.split("|"):
                    members.extend(analyze_query(m, cfg))
                members = sorted(set(members))
                clauses.append(members)
                all_members.update(members)
            parsed.append((qid, clauses))
        df_map = self.lookup_df(sorted(all_members))
        n = float(self.stats["n_docs_indexed"])
        prepared, union = [], set()
        for qid, clauses in parsed:
            groups = []
            ok = bool(clauses)
            for members in clauses:
                live = [t for t in members if df_map.get(t, 0) > 0]
                if not live:
                    ok = False
                    break
                max_df = max(df_map[t] for t in live)
                groups.append({"terms": live,
                               "idf": float(bm25_idf(n, float(max_df)))})
            if ok:
                prepared.append({"query_id": qid, "groups": groups,
                                 "k": k})
                for g in groups:
                    union.update(g["terms"])
        return prepared, sorted(union)

    def _prepare_span_not(self, queries: dict[str, str], k: int
                          ) -> tuple[list[dict], list[str]]:
        """Driver-side span_not parse: the query text analyzes to
        exactly (include, exclude); the exclude term joins the postings
        union but contributes nothing to the score."""
        from opensearch_jvector_ray.analyze import analyze_query
        cfg = self.cfg
        pairs = {}
        for qid, text in queries.items():
            toks = analyze_query(text, cfg)
            if len(toks) != 2:
                raise ValueError(f"span_not query {qid!r} must analyze "
                                 f"to exactly (include, exclude); got "
                                 f"{toks}")
            pairs[qid] = (toks[0], toks[1])
        df_map = self.lookup_df(sorted({t for p in pairs.values()
                                        for t in p}))
        n = float(self.stats["n_docs_indexed"])
        prepared, union = [], set()
        for qid, (inc, exc) in pairs.items():
            if df_map.get(inc, 0) <= 0:
                continue
            union.add(inc)
            entry = {"query_id": qid, "k": k,
                     "terms": [(inc, 1.0,
                                float(bm25_idf(n, float(df_map[inc]))))],
                     "span_not_exc": exc}
            if df_map.get(exc, 0) > 0:
                union.add(exc)
            prepared.append(entry)
        return prepared, sorted(union)

    def _prepare_span_wc(self, queries: dict[str, str], k: int
                         ) -> tuple[list[dict], list[str]]:
        """Driver-side span_within/span_containing parse: the query
        text analyzes to (little, big1[, big2 ...]) — first token the
        little term, the rest the big span_near terms (distinct,
        appearance order).  A query with a zero-df little or big
        member matches nothing (containment needs every member)."""
        from opensearch_jvector_ray.analyze import analyze_query
        cfg = self.cfg
        parsed = {}
        for qid, text in queries.items():
            toks = analyze_query(text, cfg)
            if len(toks) < 2:
                raise ValueError(f"span_within/containing query {qid!r} "
                                 f"must analyze to (little, big...); "
                                 f"got {toks}")
            little, big = toks[0], []
            for t in toks[1:]:
                if t not in big:
                    big.append(t)
            parsed[qid] = (little, big)
        df_map = self.lookup_df(sorted({t for lt, bg in parsed.values()
                                        for t in [lt, *bg]}))
        n = float(self.stats["n_docs_indexed"])
        prepared, union = [], set()
        for qid, (little, big) in sorted(parsed.items()):
            if df_map.get(little, 0) <= 0 \
                    or any(df_map.get(t, 0) <= 0 for t in big):
                continue
            union.update([little, *big])
            prepared.append({
                "query_id": qid, "k": k,
                "terms": [(t, 1.0, float(bm25_idf(n, float(df_map[t]))))
                          for t in big],
                "span_little": (little, 1.0,
                                float(bm25_idf(n,
                                               float(df_map[little])))),
            })
        return prepared, sorted(union)

    def search_with_udf(self, queries: dict[str, str], k: int,
                        score_udf, oversample: float = 3.0,
                        **search_kwargs) -> pd.DataFrame:
        """Two-phase scoring with a user-supplied scoring function — the
        script-score surface (§2.8/§2.10: `KNNScoreScript`,
        `plugin/script/KNNScoringScriptEngine.java:22-38` — a compiled
        per-request script re-scores candidates).

        Phase 1 fetches k' = clamp(k*oversample, 100, 10000) BM25
        candidates; phase 2 calls ``score_udf(hits_df, docs_df)`` — where
        ``docs_df`` carries the candidates' stored columns — and must
        return a float array of new scores.  Final ranking: (udf score
        desc, key asc).
        """
        k1 = self.cfg.first_pass_k(k, oversample)
        hits = self.search(queries, k=k1, **search_kwargs)
        if hits.empty:
            return hits
        docs = self._fetch_doc_fields(hits)
        new_scores = np.asarray(score_udf(hits, docs), dtype=np.float64)
        hits = hits.assign(score=new_scores)
        hits = (hits.sort_values(["query_id", "score", *self.key_cols],
                                 ascending=[True, False] + [True] * len(self.key_cols),
                                 kind="mergesort")
                    .groupby("query_id", sort=False).head(k))
        hits["rank"] = hits.groupby("query_id", sort=False).cumcount() + 1
        return hits.reset_index(drop=True)

    def _fetch_doc_fields(self, hits: pd.DataFrame) -> pd.DataFrame:
        """Stored fields for a (small) hit set: the first key column's
        value set is pushed into the parquet read (row-group/page pruning
        — never a full docs-table scan), then the composite key is matched
        exactly — the hit -> _source fetch (J4)."""
        frames = []
        keyset = hits[self.key_cols].drop_duplicates()
        first_key = self.key_cols[0]
        key_vals = keyset[first_key].unique().tolist()
        for d in self.seg_dirs:
            tbl = pq.read_table(os.path.join(d, DOCS_NAME),
                                filters=[(first_key, "in", key_vals)]
                                ).to_pandas()
            frames.append(tbl.merge(keyset, on=self.key_cols))
        return pd.concat(frames, ignore_index=True)

    @staticmethod
    def terms_lookup(table_path: str, key_col: str, key_value,
                     value_col: str) -> list:
        """terms lookup [OpenSearch terms-query lookup public
        semantics]: fetch the DISTINCT values of ``value_col`` from the
        lookup document(s) with ``key_col == key_value`` via ONE
        pushed-down parquet read (row-group pruning on the key), for
        use as a filter-context terms list:
        ``compile_filter({"terms": {field: values}})``.  NULLs are
        dropped (a NULL lookup value matches nothing)."""
        tbl = pq.read_table(table_path, columns=[value_col],
                            filters=[(key_col, "==", key_value)])
        return sorted({v for v in tbl[value_col].to_pylist()
                       if v is not None})

    def script_fields(self, hits: pd.DataFrame,
                      specs: "dict[str, dict]") -> pd.DataFrame:
        """script_fields [OpenSearch search script_fields public
        semantics, the arithmetic-over-doc-values subset]: per-hit
        computed columns from STORED fields (doc_len included),
        evaluated vectorized AFTER the J4 pushed-down fetch — fetch
        cost is hit-set-sized and the ranking path is untouched.

        Each spec is ``{"op": add|sub|mul|div, "left": x, "right": y}``
        where an operand is a stored column name (str) or a numeric
        constant.  ``div`` emits float64 via ONE division (the repo fp
        rule); the other ops stay exact int64 when both operands are
        integral.  Returns ``hits`` with the computed columns appended
        in spec order."""
        ops = {"add": np.add, "sub": np.subtract,
               "mul": np.multiply, "div": np.divide}
        for name, spec in specs.items():
            if spec.get("op") not in ops:
                raise ValueError(f"[{name}] op must be one of "
                                 f"{sorted(ops)}")
        if hits.empty:
            out = hits.copy()
            for name in specs:
                out[name] = pd.Series(dtype=np.float64)
            return out
        fields = self._fetch_doc_fields(hits).drop_duplicates(
            subset=list(self.key_cols), keep="first")
        # dedup on key first: a re-appended doc (add-without-delete)
        # appears in several segments; an un-deduped merge would expand
        # the frame past len(hits) and crash the column assignment
        m = hits.merge(fields, on=list(self.key_cols), how="left",
                       suffixes=("", "__src"))

        def operand(x):
            if isinstance(x, str):
                if x not in m.columns:
                    raise ValueError(f"script field operand {x!r} is "
                                     f"not a stored column")
                return m[x].to_numpy()
            return x

        out = hits.copy()
        for name, spec in specs.items():
            l, r = operand(spec["left"]), operand(spec["right"])
            v = ops[spec["op"]](l, r)
            if spec["op"] == "div":
                v = np.asarray(v, dtype=np.float64)
            elif np.issubdtype(np.asarray(v).dtype, np.integer):
                v = np.asarray(v, dtype=np.int64)   # width-stable
            out[name] = v
        return out

    def search(self, queries: dict[str, str], k: int | None = None,
               mode: str = "taat", filter: Any = None,
               rescore_oversample: float | None = None,
               concurrency: int | None = None,
               collapse_col: str | None = None,
               min_score: float | None = None,
               term_weights: dict[str, list[tuple[str, float]]] | None = None,
               search_after: dict[str, tuple] | None = None,
               minimum_should_match: int | None = None,
               score_fn: dict | None = None,
               sort: tuple[str, str] | None = None,
               slop: int = 0,
               span_end: int | None = None,
               negative: dict[str, str] | None = None,
               negative_boost: float = 0.5,
               const_score: float | None = None,
               rank_feature: dict | None = None,
               terms_set: dict | None = None,
               span_not_pre: int = 0,
               span_not_post: int = 0,
               score_mode: str = "bm25") -> pd.DataFrame:
        """Top-k BM25 for a batch of queries.

        ``minimum_should_match`` (boolean mode only) [Lucene BooleanQuery
        public semantics]: a doc qualifies only if it matches at least
        that many DISTINCT should terms (must/must_not clauses are
        unaffected); a query with fewer should terms than the threshold
        matches nothing.

        Returns a DataFrame (query_id, rank, *key_cols, score) with global
        (score desc, key asc) ordering and rank starting at 1.

        ``collapse_col`` keeps at most one hit per value of that key column
        (the parent-diversification analog J3/D4: one best child per
        parent, `ExpandNestedDocsQuery` / `GroupedNestedDocIdSetIterator`);
        like Lucene's collapse it over-fetches k*over_query_factor
        candidates per segment before collapsing.

        ``term_weights`` (qid -> [(term, weight)]) bypasses query-text
        analysis — the multi-term expansion path (prefix_search /
        fuzzy_search supply pre-expanded weighted terms).

        ``search_after`` (qid -> (score, *key)) is deep pagination
        [Lucene/OpenSearch search_after public semantics]: only docs
        sorting strictly AFTER the boundary in the (score desc, key asc)
        total order are returned; the boundary tuple must carry the RAW
        float64 score from a previous page of this same engine.  The
        boundary is pushed into every segment task, so page N never
        re-ships pages 1..N-1 — each segment still returns <= k rows.
        Ranks restart at 1 per page.  Queries missing from the dict
        return no rows (the resume token is required).  taat only.
        """
        cfg = self.cfg
        if mode not in ("taat", "wand", "phrase", "boolean", "span",
                        "span_or", "span_first", "span_not",
                        "span_within", "span_containing",
                        "span_ordered"):
            # a typo'd mode used to fall through the per-segment
            # dispatch into plain scoring — silently wrong semantics,
            # the empty-index-build bug's sibling
            raise ValueError(f"unknown search mode {mode!r}")
        if score_mode not in ("bm25", "linear_tf"):
            raise ValueError(f"score_mode must be bm25|linear_tf, got "
                             f"{score_mode!r}")
        if score_mode == "linear_tf" and (
                mode != "taat" or rescore_oversample is not None
                or score_fn is not None or sort is not None
                or const_score is not None or negative is not None
                or rank_feature is not None or terms_set is not None):
            raise ValueError("score_mode='linear_tf' requires plain taat "
                             "mode (no rescore/score_fn/sort/const/"
                             "negative/rank_feature/terms_set)")
        if const_score is not None:
            # constant_score [OpenSearch public semantics]: filter
            # context — every match scores exactly const_score
            if mode != "taat" or rescore_oversample is not None \
                    or score_fn is not None or sort is not None:
                raise ValueError("const_score requires plain taat mode")
            if negative is not None:
                # scores[candidates] = const runs after the negative
                # multiply — the demotion would be silently overwritten
                raise ValueError("const_score cannot combine with a "
                                 "boosting (negative) clause")
            if const_score <= 0:
                raise ValueError("const_score must be > 0")
        if negative is not None:
            # boosting query [OpenSearch public semantics]: ``queries``
            # is the positive clause; docs also matching the negative
            # clause are demoted by negative_boost
            if mode != "taat" or rescore_oversample is not None:
                raise ValueError("negative (boosting) requires plain "
                                 "taat mode")
            if not (0.0 < negative_boost <= 1.0):
                raise ValueError("negative_boost must be in (0, 1]")
        if slop < 0:
            raise ValueError("slop must be >= 0")
        if slop and mode not in ("span", "span_or", "span_ordered",
                                 "span_within", "span_containing"):
            raise ValueError("slop applies to mode='span'/'span_or'/"
                             "'span_ordered'/'span_within'/"
                             "'span_containing' only")
        if (span_not_pre or span_not_post) and mode != "span_not":
            raise ValueError("span_not_pre/post apply to "
                             "mode='span_not' only")
        if span_not_pre < 0 or span_not_post < 0:
            raise ValueError("span_not_pre/post must be >= 0")
        if (span_end is None) != (mode != "span_first"):
            raise ValueError("span_end is required by (and only by) "
                             "mode='span_first'")
        if span_end is not None and span_end < 1:
            raise ValueError("span_end must be >= 1")
        if score_fn is not None and (mode != "taat"
                                     or rescore_oversample is not None):
            raise ValueError("score_fn (function_score) requires plain "
                             "taat mode (no rescore)")
        if rank_feature is not None:
            # additive feature score: conflicts with multiplicative /
            # constant / field-order scoring are rejected strictly (the
            # 'forward everything, engine validates conflicts' contract)
            if mode != "taat" or rescore_oversample is not None \
                    or const_score is not None or sort is not None \
                    or score_fn is not None:
                raise ValueError("rank_feature requires plain taat mode "
                                 "(no rescore/const_score/sort/"
                                 "score_fn)")
        if terms_set is not None:
            if mode != "taat" or rescore_oversample is not None:
                raise ValueError("terms_set requires plain taat mode "
                                 "(no rescore)")
            if not isinstance(terms_set.get("field"), str) \
                    or not terms_set["field"]:
                raise ValueError("terms_set needs a 'field' column name")
        if sort is not None:
            if mode != "taat" or rescore_oversample is not None \
                    or min_score is not None or collapse_col is not None \
                    or search_after is not None or score_fn is not None:
                raise ValueError("sort requires plain taat mode (no "
                                 "rescore/min_score/collapse/"
                                 "search_after/score_fn)")
            sfield, sorder = sort
            if sorder not in ("asc", "desc"):
                raise ValueError(f"sort order must be asc|desc, got "
                                 f"{sorder!r}")
            if sfield in self.key_cols:
                raise ValueError("sort field must be a stored non-key "
                                 "column (keys are already the tiebreak)")
        if minimum_should_match is not None:
            if mode != "boolean":
                raise ValueError("minimum_should_match requires "
                                 "mode='boolean'")
            if minimum_should_match < 0:
                raise ValueError("minimum_should_match must be >= 0")
        if search_after is not None:
            if mode != "taat" or rescore_oversample is not None \
                    or min_score is not None or collapse_col is not None:
                raise ValueError("search_after requires plain taat mode "
                                 "(no rescore/min_score/collapse)")
        if min_score is not None:
            # radial is an UNCAPPED score>=theta predicate (O5), streamed
            # per segment — k and the K_MAX guard do not apply
            if mode not in ("taat",) or rescore_oversample is not None:
                # rescore flips mode AFTER this check and its branch
                # returns before the radial filter — min_score would be
                # SILENTLY ignored, the one conflicting option that
                # wasn't rejected
                raise ValueError("min_score radial search requires "
                                 "mode='taat' (no rescore)")
            k = k or cfg.default_k
        else:
            k = k or cfg.default_k
            if k > cfg.max_k:
                raise ValueError(f"k={k} exceeds max_k={cfg.max_k}")   # K_MAX guard
        if rescore_oversample is not None:
            mode = "rescore"
        k_fetch = k
        if collapse_col is not None:
            if collapse_col not in self.key_cols:
                raise ValueError(f"collapse_col must be a key column "
                                 f"({self.key_cols}), got {collapse_col!r}")
            k_fetch = min(cfg.max_k, k * cfg.over_query_factor)
        from opensearch_jvector_ray.state import metrics
        metrics.incr({metrics.QUERY_REQUESTS: len(queries)})
        if search_after is not None:
            queries = {qid: t for qid, t in queries.items()
                       if qid in search_after}
        if mode == "span_or":
            prepared, union = self._prepare_span_or(queries, k_fetch)
        elif mode == "span_not":
            prepared, union = self._prepare_span_not(queries, k_fetch)
        elif mode in ("span_within", "span_containing"):
            prepared, union = self._prepare_span_wc(queries, k_fetch)
        else:
            prepared, union = self._prepare(queries, k_fetch,
                                            phrase=(mode in ("phrase",
                                                             "span",
                                                             "span_ordered")),
                                            boolean=(mode == "boolean"),
                                            term_weights=term_weights)
        neg_terms = None
        if negative is not None:
            neg_terms = {qid: sorted({t for t, _ in
                                      query_term_weights(txt, cfg)})
                         for qid, txt in negative.items()}
            union = sorted(set(union)
                           | {t for ts in neg_terms.values() for t in ts})
        key_types = []
        if self.seg_dirs:
            docs_schema = pq.read_schema(os.path.join(self.seg_dirs[0], DOCS_NAME))
            key_types = [(kc, docs_schema.field(kc).type) for kc in self.key_cols]
        cfg_obj = cfg
        payload = {
            "queries": prepared, "union_terms": union, "mode": mode,
            "codec": cfg.codec, "block_size": cfg.block_size,
            "k1": cfg.k1, "b": cfg.b, "avgdl": float(self.stats["avgdl"] or 1.0),
            "filter": filter, "rescore_oversample": rescore_oversample,
            "key_types": key_types,
            "first_pass_k": cfg_obj.first_pass_k,
            "min_score": min_score,
            "msm": minimum_should_match,
            "slop": int(slop),
            "span_end": (int(span_end) if span_end is not None
                         else None),
            "span_pre": int(span_not_pre),
            "span_post": int(span_not_post),
            "neg": neg_terms,
            "negative_boost": float(negative_boost),
            "const": (float(const_score) if const_score is not None
                      else None),
            "score_fn": score_fn,
            "sort": ({"field": sort[0], "desc": sort[1] == "desc"}
                     if sort is not None else None),
            "rank_feature": rank_feature,
            "linear_tf": score_mode == "linear_tf",
        }
        if terms_set is not None:
            # n_query_terms is the count of DISTINCT ANALYZED terms
            # (including df=0 ones — the OpenSearch num_terms the
            # canonical min(num_terms, field) script sees); the oracle
            # generator computes the same number from the same analyzer
            payload["terms_set"] = {
                "field": terms_set["field"],
                "n_terms": {qid: len({t for t, _ in
                                      query_term_weights(txt, cfg)})
                            for qid, txt in queries.items()},
            }
        if sort is not None and self.seg_dirs:
            if sort[0] not in docs_schema.names:
                raise ValueError(f"sort field {sort[0]!r} is not a "
                                 f"stored column (have "
                                 f"{docs_schema.names})")
            payload["sort_type"] = docs_schema.field(sort[0]).type
        if score_fn is not None and self.seg_dirs:
            # dry-run the boost on a zero-row table: spec/field errors
            # surface here as ValueError, not inside a Ray task
            _doc_boost(docs_schema.empty_table(), score_fn)
        if rank_feature is not None and self.seg_dirs:
            _doc_addend(docs_schema.empty_table(), rank_feature)
        if terms_set is not None and self.seg_dirs \
                and terms_set["field"] not in docs_schema.names:
            raise ValueError(f"terms_set field {terms_set['field']!r} is "
                             f"not a stored column ({docs_schema.names})")
        if search_after is not None:
            payload["search_after"] = {
                qid: {"score": float(t[0]), "key": list(t[1:])}
                for qid, t in search_after.items() if qid in queries}
        if not self.seg_dirs:
            frames = []
        elif not union:
            # no query term is in the dictionary: the kernel's typed
            # empty partial, so the dtypes match a no-hit result's
            frames = [SegmentSearcher(payload)._empty().to_pandas()]
        else:
            frames = self._map_segments(payload, concurrency)
        if sort is not None:
            df = pd.concat(frames, ignore_index=True) if frames else \
                pd.DataFrame(columns=["query_id", *self.key_cols, sort[0],
                                      "score"])
            return self._finalize_sorted(df, k, sort[0], sort[1] == "desc")
        df = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            columns=["query_id", *self.key_cols, "score"])
        return self._finalize(df, k, collapse_col, cap_k=min_score is None)

    def pinned_search(self, queries: dict[str, str],
                      pinned: dict[str, list], k: int | None = None,
                      concurrency: int | None = None) -> pd.DataFrame:
        """Pinned query [OpenSearch pinned-query public semantics]: per
        query, the given doc ids are promoted to the top in their GIVEN
        order (ids absent from the corpus are skipped); organic BM25
        hits follow, excluding the pinned ids, until ``k`` total rows.
        Pinned hits carry the -1.0 sentinel score — OpenSearch's huge
        descending sentinel scores are an implementation detail,
        position is the contract; organic hits keep their ROUND-6 BM25
        score.  A float sentinel (not NaN/NULL) keeps the engine and
        the SQL oracle hash-identical at the Arrow level (NaN payload
        vs null mask differ even when a pandas compare passes).
        Single-key-column indexes only.

        Distribution shape: organic ranking is the standard per-segment
        bounded top-(k + n_pinned); the existence check is ONE
        pushed-down (key IN pins) docs-sidecar probe per segment —
        id-list-sized rows ship, never the corpus."""
        if len(self.key_cols) != 1:
            raise ValueError("pinned_search needs a single-key index")
        kc = self.key_cols[0]
        k = k or self.cfg.default_k
        for qid, ids in pinned.items():
            if len(set(ids)) != len(ids):
                raise ValueError(f"pinned ids for {qid!r} must be unique")
        max_p = max((len(v) for v in pinned.values()), default=0)
        if k + max_p > self.cfg.max_k:
            raise ValueError(f"k + n_pinned = {k + max_p} exceeds "
                             f"max_k={self.cfg.max_k}")
        organic = self.search(queries, k=k + max_p,
                              concurrency=concurrency)
        all_ids = sorted({i for v in pinned.values() for i in v})
        present = self._keys_present(all_ids) if all_ids else set()
        frames = []
        for qid in sorted(queries):
            pins = [i for i in pinned.get(qid, ()) if i in present]
            org = organic[organic["query_id"] == qid]
            org = org[~org[kc].isin(pins)]
            of = org[["query_id", kc, "score"]].copy()
            of["score"] = np.round(of["score"].astype(np.float64), 6)
            # dtypes from the organic frame: a pin-less query's empty
            # list-built frame is float64, and concat would upcast the
            # int64 key column with it
            pf = pd.DataFrame({"query_id": [qid] * len(pins),
                               kc: pins,
                               "score": [-1.0] * len(pins)}
                              ).astype(of.dtypes.to_dict())
            outq = pd.concat([pf, of], ignore_index=True).head(k)
            outq["rank"] = np.arange(1, len(outq) + 1, dtype=np.int64)
            frames.append(outq)
        cols = ["query_id", "rank", kc, "score"]
        if not frames:
            return pd.DataFrame(columns=cols)
        out = pd.concat(frames, ignore_index=True)
        out["score"] = out["score"].astype(np.float64)
        return out[cols]

    def _keys_present(self, ids: list) -> set:
        """Which of the given single-column key values exist in the
        index (per-segment pushed-down IN probe)."""
        kc = self.key_cols[0]
        return {v for t in _fan_out(_keys_present_task,
                                    [{"seg_dir": d} for d in self.seg_dirs],
                                    field=kc, ids=list(ids))
                for v in t[kc].to_pylist()}

    def explain(self, queries: dict[str, str], k: int | None = None,
                **search_kwargs) -> pd.DataFrame:
        """Score explanation [Lucene Explanation / OpenSearch _explain
        API public semantics]: for every top-k hit, the per-term BM25
        breakdown — (tf, df, idf, contribution) with contribution =
        w * idf * tf/(tf + k1*(1-b+b*dl/avgdl)); the contributions sum
        (in analyzed term order) to the hit's score.

        Derived from result-sized surfaces only: tf = matched-position
        counts (the highlight fetch), df from the global dictionary,
        dl via a pushed-down docs-sidecar read over the hit keys."""
        k = k or self.cfg.default_k
        pos = self.matched_positions(queries, k=k, **search_kwargs)
        cols = ["query_id", *self.key_cols, "term", "tf", "df", "idf",
                "contribution"]
        if pos.empty:
            return pd.DataFrame(columns=cols)
        tf = (pos.groupby(["query_id", *self.key_cols, "term"],
                          sort=True).size().rename("tf").reset_index())
        df_map = self.lookup_df(sorted(set(tf["term"])))
        n = float(self.stats["n_docs_indexed"])
        avgdl = float(self.stats["avgdl"] or 1.0)
        w_map = {(qid, t): float(w) for qid, text in queries.items()
                 for t, w in query_term_weights(text, self.cfg)}
        # doc_len per hit key: pushed-down sidecar read over hit keys
        keys = tf[list(self.key_cols)].drop_duplicates()
        key0 = self.key_cols[0]
        flt = [(key0, "in", sorted(set(keys[key0])))]
        dls = []
        for d in self.seg_dirs:
            t = pq.read_table(os.path.join(d, DOCS_NAME),
                              columns=[*self.key_cols, "doc_len"],
                              filters=flt)
            if t.num_rows:
                dls.append(t.to_pandas())
        dl_df = pd.concat(dls, ignore_index=True).drop_duplicates(
            subset=list(self.key_cols))
        m = tf.merge(dl_df, on=list(self.key_cols))
        m["df"] = m["term"].map(df_map).astype(np.int64)
        m["idf"] = np.array([float(bm25_idf(n, d)) for d in m["df"]])
        w = np.array([w_map.get((qid, t), 0.0)
                      for qid, t in zip(m["query_id"], m["term"])])
        tfv = m["tf"].to_numpy(np.float64)
        dlv = m["doc_len"].to_numpy(np.float64)
        m["contribution"] = np.round(
            w * m["idf"].to_numpy() * bm25_tf_part(
                tfv, dlv, avgdl, self.cfg.k1, self.cfg.b), 6)
        m["idf"] = np.round(m["idf"].astype(np.float64), 6)
        m["tf"] = m["tf"].astype(np.int64)
        return (m[cols].sort_values(["query_id", *self.key_cols,
                                     "term"]).reset_index(drop=True))

    def rank_eval(self, queries: dict[str, str],
                  ratings: dict[str, dict], k: int | None = None,
                  metric: str = "precision",
                  **search_kwargs) -> pd.DataFrame:
        """Ranking evaluation [OpenSearch _rank_eval API public
        semantics]: score each query's top-k against rated documents.

          precision  P@k = relevant-in-top-k / k   (rating > 0 counts)
          mrr        1 / rank of the first relevant hit (0 if none)
          ndcg       DCG@k / IDCG@k with DCG = sum rel_i / log2(i + 1)

        ``ratings``: qid -> {doc key (first key col value): rating int}.
        precision and mrr are single integer divisions (bit-exact vs the
        SQL oracle); ndcg's log2 is libm-dependent (pytest-gated)."""
        if metric not in ("precision", "mrr", "ndcg"):
            raise ValueError("metric must be precision|mrr|ndcg")
        k = k or self.cfg.default_k
        hits = self.search(queries, k=k, **search_kwargs)
        key0 = self.key_cols[0]
        rows = []
        for qid in sorted(queries):
            rated = ratings.get(qid, {})
            g = hits[hits["query_id"] == qid]
            rels = [int(rated.get(d, 0)) for d in g[key0]]
            if metric == "precision":
                score = float(sum(1 for r in rels if r > 0)) / k
            elif metric == "mrr":
                score = 0.0
                for i, r in enumerate(rels, start=1):
                    if r > 0:
                        score = 1.0 / i
                        break
            else:
                dcg = float(np.sum(np.asarray(rels, dtype=np.float64)
                                   / np.log2(np.arange(2, len(rels) + 2))))
                ideal = sorted((int(r) for r in rated.values()),
                               reverse=True)[:k]
                idcg = float(np.sum(np.asarray(ideal, dtype=np.float64)
                                    / np.log2(np.arange(2, len(ideal) + 2)))
                             ) if ideal else 0.0
                score = dcg / idcg if idcg > 0 else 0.0
            rows.append((qid, round(score, 6)))
        return pd.DataFrame(rows, columns=["query_id", "metric_score"])

    def highlight_fragments(self, queries: dict[str, str],
                            texts_for, k: int | None = None,
                            window: int = 5,
                            **search_kwargs) -> pd.DataFrame:
        """Highlight snippets [OpenSearch highlighter public semantics,
        token-window form]: for each top-k hit, the +-``window``-token
        excerpt around the FIRST matched query-term position, on the
        lowered pre-stopword token axis (the same axis the positions
        sidecar stores).

        ``texts_for(keys_df) -> DataFrame(key_cols + text)`` fetches the
        source text for the hit keys (the J4 pushed-down read — the
        index never duplicates text, S9).  Per-row work is bounded by
        the RESULT size (k x queries rows)."""
        import re as _re
        pos = self.matched_positions(queries, k=k, **search_kwargs)
        cols = ["query_id", *self.key_cols, "first_pos", "fragment"]
        if pos.empty:
            return pd.DataFrame(columns=cols)
        first = (pos.groupby(["query_id", *self.key_cols], sort=True)
                    ["pos"].min().rename("first_pos").reset_index())
        keys = first[list(self.key_cols)].drop_duplicates()
        texts = texts_for(keys)
        m = first.merge(texts, on=list(self.key_cols))
        rx = _re.compile(self.cfg.split_pattern)
        frags = []
        for r in m.itertuples():
            t = r.text.lower() if self.cfg.lowercase else r.text
            toks = [x for x in rx.split(t) if x != ""]
            p = int(r.first_pos)
            frags.append(" ".join(toks[max(0, p - window):
                                       p + window + 1]))
        m["fragment"] = frags
        m["first_pos"] = m["first_pos"].astype(np.int64)
        return (m[cols].sort_values(["query_id", *self.key_cols])
                 .reset_index(drop=True))

    def has_child_search(self, queries: dict[str, str],
                         k: int | None = None,
                         score_mode: str = "max",
                         parent_col: str | None = None) -> pd.DataFrame:
        """Parent-join query [OpenSearch has_child / join-field public
        semantics]: parents ranked by an aggregate of their matching
        children's BM25 scores — score_mode in max | sum | avg | count.

        Children are the index's docs; the parent is a key column
        (default: the first key column, e.g. conv_id over a transcript
        index).  ALL four modes ride the combiner-first agg fan-out —
        each segment ships per-parent (max, count, integer-micro sum)
        partials and the hit set never leaves the tasks (scale-safe at
        any match-set size).  Cross-side fp rule: sum/avg quantize each
        child score to floor(score * 1e6) int64 inside the segment
        (integer sums are associative, so the segment grouping is
        invisible) and emit the EXACT double sum_micro / 1e6 (avg:
        / (count * 1e6)) UNROUNDED — round(,6) of the avg ratio lands
        on decimal half-ties whenever count divides sum_micro, the
        lm.py hazard.  max/count stay round-6 (the vector-entry rule;
        parents span segments).  Ties (score desc, parent asc)."""
        if score_mode not in ("max", "sum", "avg", "count"):
            raise ValueError("score_mode must be max|sum|avg|count")
        k = k or self.cfg.default_k
        parent_col = parent_col or self.key_cols[0]
        if parent_col not in self.key_cols:
            raise ValueError(f"parent_col must be a key column "
                             f"({self.key_cols})")
        cols = ["query_id", "rank", parent_col, "score"]
        df = self._agg_fanout(queries,
                              {"kind": "parent_max",
                               "col": parent_col}, 1e-300, None,
                              None)
        if df.empty:
            out = pd.DataFrame(columns=["query_id", parent_col,
                                        "score"])
            out["rank"] = pd.Series(dtype="int64")
            return out[cols]
        g = df.groupby(["query_id", parent_col], sort=True).agg(
            v_max=("v_max", "max"),
            doc_count=("doc_count", "sum"),
            v_micro=("v_micro", "sum")).reset_index()
        if score_mode == "max":
            sc = np.round(g["v_max"].to_numpy(np.float64), 6)
        elif score_mode == "count":
            sc = np.round(g["doc_count"].to_numpy(np.float64), 6)
        elif score_mode == "sum":
            sc = g["v_micro"].to_numpy(np.int64) / 1e6
        else:  # avg
            sc = (g["v_micro"].to_numpy(np.int64)
                  / (g["doc_count"].to_numpy(np.int64) * 1e6))
        out = pd.DataFrame({"query_id": g["query_id"],
                            parent_col: g[parent_col],
                            "score": sc})
        out = out.sort_values(["query_id", "score", parent_col],
                              ascending=[True, False, True],
                              kind="mergesort")
        out = out.groupby("query_id", sort=False).head(k)
        out["rank"] = (out.groupby("query_id", sort=False)
                          .cumcount() + 1)
        return out[cols].reset_index(drop=True)

    def scan(self, queries: dict[str, str], page_size: int = 100):
        """Scroll analog [OpenSearch scroll / search_after public
        semantics]: a generator of consecutive ranking pages, resumed
        with the raw (score, key) boundary of each page — pages tile
        the full ranking without re-shipping earlier pages (the
        search_after pushdown).  Queries drop out as they exhaust."""
        after: dict[str, tuple] | None = None
        while True:
            if after is None:
                page = self.search(queries, k=page_size)
            else:
                if not after:
                    return
                # search() itself drops queries absent from the
                # search_after map (the resume token is required), so
                # exhausted queries never re-run — pass the full dict
                page = self.search(queries, k=page_size,
                                   search_after=after)
            if page.empty:
                return
            yield page
            after = {}
            for qid, g in page.groupby("query_id", sort=False):
                if len(g) < page_size:
                    # short page == ranking exhausted; dropping the
                    # query here avoids a full fan-out per remaining
                    # page just to learn it returns nothing
                    continue
                last = g.iloc[-1]
                after[qid] = (float(last["score"]),
                              *[last[kc] for kc in self.key_cols])

    def more_like_this(self, seed_texts: dict[str, str],
                       k: int | None = None,
                       max_query_terms: int = 10,
                       **search_kwargs) -> pd.DataFrame:
        """Lucene MoreLikeThis analog: for each seed TEXT, select its top
        ``max_query_terms`` post-stopword terms by tf*idf (ties broken
        term-ascending; idf from the index's global df/N) and run a
        standard BM25 search with them (each term weight 1).

        Takes seed texts, not keys: the index deliberately does NOT
        duplicate the raw text (the S9 derived-source rule), so callers
        fetch seed text from the source table (a pushed-down key read —
        the J4 pattern) or pass arbitrary free text.  The seed doc may
        appear in the results (Lucene include=true).

        Term selection is deterministic and corpus-derived, so the
        DuckDB oracle (`oracles.mlt_sql`) reproduces it
        symbol-for-symbol."""
        from collections import Counter

        from opensearch_jvector_ray.analyze import tokenize
        k = k or self.cfg.default_k
        n = float(self.stats["n_docs_indexed"])
        term_tfs: dict[str, Counter] = {}
        all_terms: set[str] = set()
        for qid, text in seed_texts.items():
            stream = tokenize(pa.array([text], type=pa.string()), self.cfg)
            tf = Counter(stream.terms.to_pylist())
            term_tfs[qid] = tf
            all_terms.update(tf)
        df_map = self.lookup_df(sorted(all_terms))
        queries: dict[str, str] = {}
        for qid, tf in term_tfs.items():
            scored = sorted(
                (-(float(cnt) * float(bm25_idf(n, df_map[t]))), t)
                for t, cnt in tf.items() if df_map.get(t, 0) > 0)
            queries[qid] = " ".join(t for _, t in
                                    scored[:max_query_terms])
        return self.search(queries, k=k, **search_kwargs)

    def span_multi_search(self, queries: dict[str, str],
                          k: int | None = None, slop: int = 0,
                          max_expansions: int = 50,
                          **search_kwargs) -> pd.DataFrame:
        """span_multi query [Lucene SpanMultiTermQueryWrapper over a
        PrefixQuery inside SpanNearQuery, top-terms scoring rewrite]:
        clauses are whitespace-separated; a trailing-``*`` clause
        expands against the dictionary — (df DESC, term ASC), capped at
        ``max_expansions``, the phrase_prefix cap rule — into a span_or
        alternative set; everything then scores EXACTLY like
        mode='span_or' (width-W containment, SynonymQuery-blended
        clause idf from the max-df member).

        Expansion happens ONCE on the driver off the range-pruned
        dictionary read (never a vocab scan); the segment fan-out is
        the unchanged span_or path.  Re-analysis of expanded members is
        an identity for this analyzer family: dictionary terms are
        already lowered, contain no split chars, are post-stopword, and
        the minimal-english s-stemmer is idempotent."""
        from opensearch_jvector_ray.analyze import analyze_query
        expanded: dict[str, str] = {}
        for qid, text in queries.items():
            clauses_out = []
            for clause in text.split():
                if clause.endswith("*") and len(clause) > 1:
                    toks = analyze_query(clause[:-1], self.cfg)
                    if len(toks) != 1:
                        raise ValueError(
                            f"span_multi prefix clause {clause!r} must "
                            f"analyze to exactly one token; got {toks}")
                    members = self.expand_prefix(toks[0], max_expansions)
                    if not members:
                        # a dead prefix clause: the query matches
                        # nothing (span containment needs every clause)
                        clauses_out = None
                        break
                    clauses_out.append("|".join(members))
                else:
                    clauses_out.append(clause)
            if clauses_out is not None:
                expanded[qid] = " ".join(clauses_out)
        return self.search(expanded, k=k, mode="span_or", slop=slop,
                           **search_kwargs)

    def term_vectors(self, docs: dict[str, str]) -> pd.DataFrame:
        """Term-vectors API [OpenSearch _termvectors public semantics,
        term_statistics=true]: one row per (doc_id, term) with the
        term's frequency in the given text plus the GLOBAL doc_freq
        and ttf (collection frequency) from the index dictionary.

        Takes texts keyed by caller doc id, not index keys: the index
        never duplicates raw text (the S9 derived-source rule), so
        callers fetch text from the source table — the more_like_this
        pattern.  Work is request-sized: ONE vectorized analyze over
        the given texts and ONE pushed-down dictionary read for the
        union of their terms (term-sorted parquet, row-group pruned —
        never a vocab scan).  Terms absent from the dictionary report
        doc_freq=0 / ttf=0 (the OpenSearch realtime-doc rule).  Rows
        ordered (doc_id, term)."""
        from opensearch_jvector_ray.analyze import tokenize
        cols = ["doc_id", "term", "term_freq", "doc_freq", "ttf"]
        ids = sorted(docs)
        if not ids:
            return pd.DataFrame(columns=cols)
        stream = tokenize(pa.array([docs[i] for i in ids],
                                   type=pa.string()), self.cfg)
        terms = stream.terms.to_numpy(zero_copy_only=False)
        if not len(terms):
            return pd.DataFrame(columns=cols)
        tf = (pd.DataFrame({"doc_id": np.asarray(ids)[stream.doc_idx],
                            "term": terms})
              .groupby(["doc_id", "term"], sort=True).size()
              .rename("term_freq").reset_index())
        tf["term_freq"] = tf["term_freq"].astype(np.int64)
        dict_dir = self.dict_dir
        uniq = sorted(set(tf["term"]))
        if os.path.isdir(dict_dir) and os.listdir(dict_dir):
            from opensearch_jvector_ray.state.manifest import (
                dict_read_paths)
            gt = pq.read_table(dict_read_paths(dict_dir),
                               columns=["term", "df", "cf"],
                               filters=[("term", "in", uniq)]).to_pandas()
        else:
            gt = pd.DataFrame(columns=["term", "df", "cf"])
        out = tf.merge(gt, on="term", how="left")
        out["doc_freq"] = out["df"].fillna(0).astype(np.int64)
        out["ttf"] = out["cf"].fillna(0).astype(np.int64)
        return out[cols]

    def matched_positions(self, queries: dict[str, str],
                          k: int | None = None,
                          _hits: pd.DataFrame | None = None,
                          **search_kwargs) -> pd.DataFrame:
        """Highlight surface: the positions of every matched query term
        in each top-k hit — one row per (query_id, *key_cols, term,
        pos).  Positions are on the PRE-stopword axis of the non-empty
        token stream (the StopFilter gap rule the index stores), the
        same numbers the phrase scorer consumes.

        The analog of OpenSearch/Lucene highlighting: the hit set is
        result-sized, so the fetch fans one task per segment (exactly
        the search fan-out) and each task touches only the hit docs."""
        if search_kwargs.get("mode") == "boolean":
            # boolean queries analyze through a different path (+must /
            # -must_not clause parsing); the term-prep below would
            # diverge from the hit set's analysis
            raise ValueError("matched_positions supports modes "
                             "taat/wand/rescore/phrase, not boolean")
        if search_kwargs.get("term_weights") is not None:
            # same divergence class as boolean: hits would come from
            # the pre-expanded weighted terms while the term-prep below
            # re-analyzes the raw TEXT — expansion terms would be
            # missing from positions/explain (and sparse_vector's empty
            # texts would silently return nothing)
            raise ValueError("matched_positions does not support "
                             "term_weights (expanded-term searches "
                             "analyze differently than the raw text)")
        hits = _hits if _hits is not None \
            else self.search(queries, k=k, **search_kwargs)
        cols = ["query_id", *self.key_cols, "term", "pos"]
        if hits.empty:
            return pd.DataFrame(columns=cols)
        prepared, union = self._prepare(queries, k or self.cfg.default_k)
        qterms = {e["query_id"]: sorted({t for (t, _, _) in e["terms"]})
                  for e in prepared}
        docs_schema = pq.read_schema(
            os.path.join(self.seg_dirs[0], DOCS_NAME))
        payload = {
            "hits": hits[["query_id", *self.key_cols]].to_dict("list"),
            "qterms": qterms, "union": union, "key_cols": self.key_cols,
            "codec": self.cfg.codec, "block_size": self.cfg.block_size,
            "key_types": [(kc, docs_schema.field(kc).type)
                          for kc in self.key_cols],
        }
        frames = [f for f in self._fan_segments(_positions_task,
                                                payload=payload)
                  if not f.empty]
        if not frames:
            return pd.DataFrame(columns=cols)
        df = pd.concat(frames, ignore_index=True)
        return df.sort_values(cols).reset_index(drop=True)[cols]

    def _finalize_sorted(self, df: pd.DataFrame, k: int, field: str,
                         desc: bool) -> pd.DataFrame:
        """Global reduce for sort-by-field: merge per-segment k-lists on
        (field dir, key asc) — the same A1 shape, different order key."""
        out_cols = ["query_id", "rank", *self.key_cols, field, "score"]
        if df.empty:
            df["rank"] = pd.Series(dtype="int64")
            return df[out_cols]
        df = df.sort_values(
            ["query_id", field, *self.key_cols],
            ascending=[True, not desc] + [True] * len(self.key_cols),
            kind="mergesort")
        df = df.groupby("query_id", sort=False).head(k)
        df["rank"] = df.groupby("query_id", sort=False).cumcount() + 1
        return df[out_cols].reset_index(drop=True)

    def _finalize(self, df: pd.DataFrame, k: int,
                  collapse_col: str | None = None,
                  cap_k: bool = True) -> pd.DataFrame:
        """Global reduce: merge per-segment k-lists (A1); optional collapse
        to one hit per parent group (D4)."""
        if df.empty:
            df["rank"] = pd.Series(dtype="int64")
            return df[["query_id", "rank", *self.key_cols, "score"]]
        df = df.sort_values(
            ["query_id", "score", *self.key_cols],
            ascending=[True, False] + [True] * len(self.key_cols),
            kind="mergesort")
        if collapse_col is not None:
            df = df.drop_duplicates(subset=["query_id", collapse_col],
                                    keep="first")
        if cap_k:
            df = df.groupby("query_id", sort=False).head(k)
        df["rank"] = df.groupby("query_id", sort=False).cumcount() + 1
        return df[["query_id", "rank", *self.key_cols, "score"]].reset_index(drop=True)


def _mm_combine(m: pd.DataFrame, fields: list[str], match_type: str,
                tie_breaker: float, key_cols: list[str]) -> pd.DataFrame:
    """Cross-field score combine (ONE implementation shared by the fused
    segment tasks and the driver-join fallback, so both paths are
    bit-identical).  ``m`` is indexed by (query_id, *key_cols) with one
    float column per field (NaN where the field didn't match)."""
    m = m.fillna(0.0)
    arr = m[fields].to_numpy(dtype=np.float64)
    total = arr[:, 0].copy()
    for j in range(1, arr.shape[1]):      # sorted-field-order fp chain
        total = total + arr[:, j]
    if match_type == "most_fields":
        score = total
    else:
        best = arr.max(axis=1)
        score = best + tie_breaker * (total - best)
    out = m.reset_index()[["query_id", *key_cols]]
    out["score"] = score
    return out


def _mm_topk(df: pd.DataFrame, k: int, key_cols: list[str],
             rank: bool = False) -> pd.DataFrame:
    """(score desc, key asc) per-query top-k — the A1 order, applied
    per segment slot (local partial) and once globally (final)."""
    df = df.sort_values(["query_id", "score", *key_cols],
                        ascending=[True, False] + [True] * len(key_cols),
                        kind="mergesort")
    df = df.groupby("query_id", sort=False).head(k)
    if rank:
        df["rank"] = df.groupby("query_id", sort=False).cumcount() + 1
        return df[["query_id", "rank", *key_cols,
                   "score"]].reset_index(drop=True)
    return df.reset_index(drop=True)


_MM_SLOTS_CACHE: dict[tuple, list | None] = {}


def _mm_slots(searchers: dict[str, "IndexSearcher"],
              fields: list[str]) -> list[dict[str, str]] | None:
    """Memoized wrapper: segment manifests are immutable per seg_dir,
    so the co-location plan (or the None verdict — which would
    otherwise re-read fields x segments JSON files on EVERY call) is
    computed once per distinct (field -> seg_dirs) set."""
    key = tuple((f, tuple(searchers[f].seg_dirs)) for f in sorted(fields))
    if key not in _MM_SLOTS_CACHE:
        if len(_MM_SLOTS_CACHE) > 256:
            _MM_SLOTS_CACHE.clear()
        _MM_SLOTS_CACHE[key] = _mm_slots_uncached(searchers, fields)
    return _MM_SLOTS_CACHE[key]


def _mm_slots_uncached(searchers: dict[str, "IndexSearcher"],
                       fields: list[str]) -> list[dict[str, str]] | None:
    """Co-location plan for the fused multi_match fan-out: group the
    per-field indexes' segments by FRAGMENT LINEAGE (source file +
    row-group range from the build manifest).  Fragment-built indexes
    over the same source cover identical rows per fragment, so every
    doc's postings for ALL fields live in the same slot — the combine
    can run inside the segment task.  Hash-partitioned primary builds
    (staged/shuffle, ``partition`` lineage marker) pair by segment
    NUMBER instead: the same total ``stable_hash(key) % P`` assignment
    puts a key in the same numbered segment of every index.  Returns
    None (caller falls back to the driver join) when neither pairing
    verifies (e.g. bulk-merged or appended indexes, differing plans)."""
    from opensearch_jvector_ray.state.manifest import SegmentManifest
    mans: dict[str, list[SegmentManifest]] = {}
    for f in fields:
        try:
            mans[f] = [SegmentManifest.read(d)
                       for d in searchers[f].seg_dirs]
        except Exception:
            return None

    # pairing 1: fragment lineage (file-partitioned builds)
    per_field: dict[str, dict[tuple, str]] = {}
    ok = True
    for f in fields:
        frag: dict[tuple, str] = {}
        for d, man in zip(searchers[f].seg_dirs, mans[f]):
            fr = (man.lineage or {}).get("fragment")
            if not isinstance(fr, dict) or "file" not in fr:
                ok = False
                break
            key = (fr.get("file"), fr.get("rg_lo"), fr.get("rg_hi"))
            if key in frag:
                ok = False           # duplicate fragment => ambiguous
                break
            frag[key] = d
        if not ok:
            break
        per_field[f] = frag
    if ok:
        base = set(per_field[fields[0]])
        if all(set(per_field[f]) == base for f in fields[1:]):
            return [{f: per_field[f][key] for f in fields}
                    for key in sorted(base)]

    # pairing 2: total hash partitioning (primary staged/shuffle builds)
    marker = None
    by_seg: dict[str, dict[int, str]] = {}
    for f in fields:
        segs: dict[int, str] = {}
        for d, man in zip(searchers[f].seg_dirs, mans[f]):
            pt = (man.lineage or {}).get("partition")
            if not isinstance(pt, dict) or pt.get("mode") != "hash":
                return None
            if marker is None:
                marker = pt
            elif pt != marker:
                return None          # different P or key => no pairing
            if man.seg in segs:
                return None
            segs[man.seg] = d
        by_seg[f] = segs
    base_segs = set(by_seg[fields[0]])
    for f in fields[1:]:
        if set(by_seg[f]) != base_segs:
            return None
    return [{f: by_seg[f][s] for f in fields} for s in sorted(base_segs)]


def _mm_fused_task(batch: pa.Table, payloads: dict[str, dict],
                   fields: list[str], match_type: str, tie_breaker: float,
                   k: int, key_cols: list[str]) -> pa.Table:
    """Fused multi_match partial: for one co-located segment slot, run
    every field's radial match over ITS segment, combine per doc in
    sorted field order, and ship only the local top-k — the has_child
    max/count combiner-first pattern applied to DisMax.  Exact because
    fragment co-location puts each doc's postings for all fields in
    this slot (see ``_mm_slots``)."""
    key_types = payloads[fields[0]]["key_types"]
    searchers = {f: SegmentSearcher(payloads[f]) for f in fields}
    frames = []
    for i in range(batch.num_rows):
        per_field = []
        for f in fields:
            t = searchers[f](pa.table({"seg_dir": [batch[f][i].as_py()]}))
            per_field.append(t.to_pandas()
                             .set_index(["query_id", *key_cols])["score"]
                             .rename(f))
        m = pd.concat(per_field, axis=1)
        if m.empty:
            continue
        out = _mm_combine(m, fields, match_type, tie_breaker, key_cols)
        frames.append(_mm_topk(out, k, key_cols))
    if not frames:
        cols: dict[str, Any] = {"query_id": pa.array([], type=pa.string())}
        for kc, kt in key_types:
            cols[kc] = pa.array([], type=kt)
        cols["score"] = pa.array([], type=pa.float64())
        return pa.table(cols)
    df = pd.concat(frames, ignore_index=True)
    cols = {"query_id": pa.array(df["query_id"], type=pa.string())}
    for kc, kt in key_types:
        cols[kc] = pa.array(df[kc], type=kt)
    cols["score"] = pa.array(df["score"].to_numpy(np.float64),
                             type=pa.float64())
    return pa.table(cols)


def indices_boost_search(searchers: dict[str, "IndexSearcher"],
                         queries: dict[str, str],
                         boosts: dict[str, float],
                         k: int = 10,
                         concurrency: int | None = None) -> pd.DataFrame:
    """Multi-index search with per-index boosts [OpenSearch
    indices_boost public semantics]: the same query batch runs over
    every named index (each a single-key-column engine), each hit's
    score multiplies by its index's boost (ONE multiply), and the
    merged ranking is (ROUND-6 boosted score desc, index name asc,
    stringified key asc) — rounded because hits from DIFFERENT corpora
    carry unrelated fp sums, so the vector-entry round-6 rule governs
    cross-index ties.  Global top-k is exact: it is contained in the
    union of the per-index top-k sets.

    Output: (query_id, rank, index, doc_key, score)."""
    if not searchers:
        raise ValueError("indices_boost needs >= 1 index")
    for name, s in searchers.items():
        if len(s.key_cols) != 1:
            raise ValueError(f"index {name!r} must have a single key "
                             "column")
    for name, b in boosts.items():
        if name not in searchers:
            raise ValueError(f"boost for unknown index {name!r}")
        if float(b) <= 0:
            raise ValueError("boosts must be > 0")
    frames = []
    for name in sorted(searchers):
        s = searchers[name]
        h = s.search(queries, k=k, concurrency=concurrency)
        if h.empty:
            continue
        b = float(boosts.get(name, 1.0))
        kc = s.key_cols[0]
        out = pd.DataFrame({
            "query_id": h["query_id"],
            "index": name,
            "doc_key": h[kc].astype(str),
            "score": np.round(h["score"].astype(np.float64) * b, 6),
        })
        frames.append(out)
    cols = ["query_id", "rank", "index", "doc_key", "score"]
    if not frames:
        return pd.DataFrame(columns=cols)
    df = pd.concat(frames, ignore_index=True)
    df = df.sort_values(["query_id", "score", "index", "doc_key"],
                        ascending=[True, False, True, True],
                        kind="mergesort")
    df = df.groupby("query_id", sort=False).head(int(k))
    df["rank"] = (df.groupby("query_id", sort=False).cumcount() + 1) \
        .astype(np.int64)
    return df.reset_index(drop=True)[cols]


def _cf_stats_task(batch: pa.Table, fields: list[str],
                   weights: dict[str, int], union_terms: list[str],
                   fmt: dict[str, dict]) -> pa.Table:
    """combined_fields pass 1 (stats partial): for one co-located slot,
    the UNION document frequency of each query term across all fields
    plus the slot's total combined doc length Σ_d Σ_f w_f * len_f(d)
    and doc count — term-count + 1 rows ship per slot."""
    tables = []
    for i in range(batch.num_rows):
        n_docs: int | None = None
        dl_c: np.ndarray | None = None
        masks: dict[str, np.ndarray] = {}
        for f in fields:
            reader = SegmentReader(batch[f][i].as_py(), **fmt[f])
            _, dl, _ = reader.docs()
            if n_docs is None:
                n_docs = len(dl)
                dl_c = np.zeros(n_docs, dtype=np.int64)
            elif len(dl) != n_docs:
                raise ValueError("combined_fields slot misaligned: "
                                 f"{len(dl)} vs {n_docs} docs")
            dl_c += weights[f] * dl
            for t, (ords, _) in reader.decoded(union_terms).items():
                m = masks.setdefault(t, np.zeros(n_docs, dtype=bool))
                m[ords] = True
        if n_docs is None:
            continue
        terms = sorted(masks)
        tables.append(pa.table({
            "term": pa.array(terms + ["\x00stats"], type=pa.string()),
            "df": pa.array([int(masks[t].sum()) for t in terms] + [0],
                           type=pa.int64()),
            "dl_sum": pa.array([0] * len(terms) + [int(dl_c.sum())],
                               type=pa.int64()),
            "n_docs": pa.array([0] * len(terms) + [int(n_docs)],
                               type=pa.int64()),
        }))
    if not tables:
        return pa.table({"term": pa.array([], type=pa.string()),
                         "df": pa.array([], type=pa.int64()),
                         "dl_sum": pa.array([], type=pa.int64()),
                         "n_docs": pa.array([], type=pa.int64())})
    return pa.concat_tables(tables)


def _cf_score_task(batch: pa.Table, payload: dict) -> pa.Table:
    """combined_fields pass 2 (score partial): per slot, dense combined
    tf per term (Σ_f w_f * tf_f) and combined doc length, BM25 over the
    GLOBAL combined df/N/avgdl from pass 1, local bounded top-k — <= k
    rows per query per slot ship."""
    fields = payload["fields"]
    weights = payload["weights"]
    fmt = payload["fmt"]
    key_types = payload["key_types"]
    out_tables = []
    for i in range(batch.num_rows):
        n_docs: int | None = None
        dl_c: np.ndarray | None = None
        tfc: dict[str, np.ndarray] = {}
        docs0 = tie = None
        for f in fields:
            reader = SegmentReader(batch[f][i].as_py(), **fmt[f])
            docs, dl, tie_f = reader.docs()
            if docs0 is None:
                docs0, tie = docs, tie_f
            if n_docs is None:
                n_docs = len(dl)
                dl_c = np.zeros(n_docs, dtype=np.int64)
            elif len(dl) != n_docs:
                raise ValueError("combined_fields slot misaligned")
            dl_c += weights[f] * dl
            for t, (ords, tfs) in reader.decoded(
                    payload["union_terms"]).items():
                a = tfc.setdefault(t, np.zeros(n_docs, dtype=np.int64))
                a[ords] += weights[f] * tfs
        if n_docs is None or n_docs == 0:
            continue
        for q in payload["queries"]:
            scores = np.zeros(n_docs, dtype=np.float64)
            for (t, w, idf) in q["terms"]:   # sorted term order (both sides)
                if t not in tfc:
                    continue
                o2 = np.flatnonzero(tfc[t])
                scores[o2] += w * idf * bm25_tf_part(
                    tfc[t][o2], dl_c[o2], payload["avgdl"],
                    payload["k1"], payload["b"])
            cand = np.flatnonzero(scores > 0.0)
            ords_k, sc_k = _topk_from_scores(scores, cand, q["k"], tie)
            if not len(ords_k):
                continue
            take = pa.array(ords_k)
            cols: dict[str, Any] = {
                "query_id": pa.array([q["query_id"]] * len(ords_k),
                                     type=pa.string()),
            }
            for kc, _ in key_types:
                cols[kc] = docs0[kc].take(take)
            cols["score"] = pa.array(sc_k, type=pa.float64())
            out_tables.append(pa.table(cols))
    if not out_tables:
        cols = {"query_id": pa.array([], type=pa.string())}
        for kc, kt in key_types:
            cols[kc] = pa.array([], type=kt)
        cols["score"] = pa.array([], type=pa.float64())
        return pa.table(cols)
    return pa.concat_tables(out_tables)


def combined_fields(searchers: dict[str, "IndexSearcher"],
                    queries: dict[str, str], k: int = 10,
                    weights: dict[str, int] | None = None,
                    concurrency: int | None = None) -> pd.DataFrame:
    """Combined-fields search over co-located PER-FIELD indexes
    [Lucene CombinedFieldQuery / OpenSearch combined_fields public
    semantics — term-centric BM25F with shared statistics].

    Unlike multi_match (field-centric: per-field BM25 then dis-max /
    sum), the fields are scored as ONE synthetic field:
      tf(d, t)   = Σ_f w_f * tf_f(d, t)
      dl(d)      = Σ_f w_f * len_f(d)
      df(t)      = |{d : t in ANY field}|        (union df)
      avgdl      = Σ_d dl(d) / N                  (ONE division)
      score(d,q) = Σ_t qw_t * idf(df, N) * tf/(tf + k1*(1-b+b*dl/avgdl))
    Weights must be integers >= 1 (the Lucene floor), so tf and dl stay
    EXACT int64 and the only floats are the shared BM25 chain — the
    generated oracle is bit-identical.  The per-term sum runs in SORTED
    term order on both sides.

    Distribution shape: pass 1 ships term-count-sized (union df, Σdl, N)
    partials per co-located slot; pass 2 ships <= k rows per query per
    slot scored against the GLOBAL stats — nothing corpus-sized leaves
    the tasks.  Requires the multi_match co-location pairing
    (fragment lineage or hash-partition marker); raises otherwise."""
    fields = sorted(searchers)
    if len(fields) < 2:
        raise ValueError("combined_fields needs >= 2 fields")
    w = {f: 1 for f in fields}
    if weights:
        for f, v in weights.items():
            if f not in searchers:
                raise ValueError(f"weight for unknown field {f!r}")
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError("combined_fields weights must be "
                                 "integers >= 1 (the Lucene floor)")
            w[f] = v
    s0 = searchers[fields[0]]
    key_cols = list(s0.key_cols)
    for f in fields[1:]:
        if list(searchers[f].key_cols) != key_cols:
            raise ValueError("all field indexes must share key columns")
    slots = _mm_slots(searchers, fields)
    if slots is None:
        raise ValueError("combined_fields requires co-located "
                         "per-field indexes (fragment lineage or "
                         "hash-partition pairing)")
    cfg = s0.cfg
    analyzed = {qid: query_term_weights(txt, cfg)
                for qid, txt in queries.items()}
    union = sorted({t for tw in analyzed.values() for t, _ in tw})
    empty = pd.DataFrame(columns=["query_id", "rank", *key_cols,
                                  "score"])
    if not union or not slots:
        return s0._finalize(pd.DataFrame(
            columns=["query_id", *key_cols, "score"]), k, None)
    fmt = {f: {"codec": searchers[f].cfg.codec,
               "block_size": searchers[f].cfg.block_size}
           for f in fields}
    sframes = [t.to_pandas() for t in _fan_out(
        _cf_stats_task, slots, concurrency, fields=fields, weights=w,
        union_terms=union, fmt=fmt)]
    sframes = [x for x in sframes if not x.empty]
    if not sframes:
        return empty
    sdf = pd.concat(sframes, ignore_index=True)
    st = sdf[sdf["term"] == "\x00stats"]
    n = int(st["n_docs"].sum())
    dlsum = int(st["dl_sum"].sum())
    if n == 0:
        return empty
    avgdl = float(dlsum) / float(n)
    df_map = (sdf[sdf["term"] != "\x00stats"]
              .groupby("term")["df"].sum().to_dict())
    qp = []
    for qid in sorted(queries):
        terms = [(t, float(qw), float(bm25_idf(float(n),
                                               float(df_map[t]))))
                 for t, qw in sorted(analyzed[qid])
                 if df_map.get(t, 0) > 0]
        if terms:
            qp.append({"query_id": qid, "terms": terms, "k": int(k)})
    if not qp:
        return empty
    docs_schema = pq.read_schema(os.path.join(slots[0][fields[0]],
                                              DOCS_NAME))
    payload = {
        "queries": qp, "fields": fields, "weights": w, "fmt": fmt,
        "union_terms": union, "avgdl": avgdl,
        "k1": cfg.k1, "b": cfg.b,
        "key_types": [(kc, docs_schema.field(kc).type)
                      for kc in key_cols],
    }
    frames = [t.to_pandas() for t in _fan_out(
        _cf_score_task, slots, concurrency, payload=payload)]
    frames = [x for x in frames if not x.empty]
    df = pd.concat(frames, ignore_index=True) if frames else \
        pd.DataFrame(columns=["query_id", *key_cols, "score"])
    return s0._finalize(df, k, None)


def multi_match(searchers: dict[str, "IndexSearcher"],
                queries: dict[str, str], k: int = 10,
                match_type: str = "best_fields",
                tie_breaker: float = 0.0,
                fused: bool | None = None,
                concurrency: int | None = None) -> pd.DataFrame:
    """Multi-field search over PER-FIELD indexes [OpenSearch multi_match
    / Lucene DisjunctionMaxQuery public semantics].

    Each field is its own index (own postings, own df/N/avgdl — exactly
    Lucene's per-field term spaces); ``searchers`` maps field name ->
    IndexSearcher over that field's index.  All indexes must share the
    same key columns.

      best_fields  score = max_f s_f + tie_breaker * (sum_f s_f - max_f)
                   (DisMax; tie_breaker=0 is pure dis_max)
      most_fields  score = sum_f s_f

    Per-field scores come from the uncapped radial match set (score > 0
    == matches), so absent fields contribute exactly 0.  The cross-field
    sum accumulates in SORTED FIELD ORDER on both paths (and in the
    oracle's left-to-right chain), keeping the combine bit-exact.

    Distribution shape: when the per-field indexes are fragment-built
    from the same source (``_mm_slots`` verifies it from manifest
    lineage), the combine is FUSED into the segment tasks — each slot
    scores all fields over its own rows and ships <= k rows per query,
    so nothing corpus-sized ever reaches the driver.  ``fused=None``
    auto-detects; ``fused=True`` requires co-location (raises
    otherwise); ``fused=False`` forces the driver join (result-sized
    match sets — the small-corpus / non-co-located fallback).  Both
    paths share ``_mm_combine`` and are frame-identical (pytest-gated).
    """
    if match_type not in ("best_fields", "most_fields"):
        raise ValueError("match_type must be best_fields | most_fields")
    if not searchers:
        raise ValueError("searchers must be non-empty")
    if not (0.0 <= tie_breaker <= 1.0):
        raise ValueError("tie_breaker must be in [0, 1]")
    fields = sorted(searchers)
    key_cols = searchers[fields[0]].key_cols
    for f in fields:
        if searchers[f].key_cols != key_cols:
            raise ValueError("all field indexes must share key columns")
    empty = pd.DataFrame(columns=["query_id", *key_cols, "score"])

    slots = _mm_slots(searchers, fields) if fused is not False else None
    if fused is True and slots is None:
        raise ValueError("fused=True requires fragment-co-located "
                         "per-field indexes (matching manifest lineage)")
    if slots is not None:
        if not slots:
            out = empty.copy()
            out["rank"] = pd.Series(dtype="int64")
            return out[["query_id", "rank", *key_cols, "score"]]
        payloads: dict[str, dict] = {}
        for f in fields:
            s = searchers[f]
            prepared, union = s._prepare(queries, k)
            docs_schema = pq.read_schema(
                os.path.join(s.seg_dirs[0], DOCS_NAME))
            payloads[f] = {
                "queries": prepared, "union_terms": union, "mode": "taat",
                "codec": s.cfg.codec, "block_size": s.cfg.block_size,
                "k1": s.cfg.k1, "b": s.cfg.b,
                "avgdl": float(s.stats["avgdl"] or 1.0),
                "filter": None, "rescore_oversample": None,
                "key_types": [(kc, docs_schema.field(kc).type)
                              for kc in key_cols],
                "first_pass_k": s.cfg.first_pass_k,
                "min_score": 1e-300,
            }
        frames = [t.to_pandas() for t in _fan_out(
            _mm_fused_task, slots, concurrency, payloads=payloads,
            fields=fields, match_type=match_type, tie_breaker=tie_breaker,
            k=k, key_cols=list(key_cols))]
        df = pd.concat(frames, ignore_index=True) if frames else empty
        if df.empty:
            out = empty.copy()
            out["rank"] = pd.Series(dtype="int64")
            return out[["query_id", "rank", *key_cols, "score"]]
        return _mm_topk(df, k, key_cols, rank=True)

    # fallback: driver join of the per-field radial match sets
    # (result-sized — bounded by matching docs, never the corpus)
    frames = []
    for f in fields:
        df = searchers[f].search(queries, min_score=1e-300)
        frames.append(df.set_index(["query_id", *key_cols])["score"]
                        .rename(f))
    m = pd.concat(frames, axis=1)
    if m.empty:
        out = empty.copy()
        out["rank"] = pd.Series(dtype="int64")
        return out[["query_id", "rank", *key_cols, "score"]]
    out = _mm_combine(m, fields, match_type, tie_breaker, key_cols)
    return _mm_topk(out, k, key_cols, rank=True)
