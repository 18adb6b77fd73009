"""Round-4 sampler/missing/global/auto-interval aggregations:
brute-force containment oracles on a purpose-built corpus; the hard
DuckDB gates live in the driver entries (bm25_missing,
bm25_global_stats, bm25_sampler, bm25_div_sampler,
bm25_auto_date_histogram)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.query_dsl import execute_query, parse_query
from opensearch_jvector_ray.stages.build import IndexSpec, build_index

TEXTS = ["alpha beta", "alpha gamma", "beta gamma", "alpha beta gamma",
         "gamma delta", "alpha", "beta", "delta eps", "alpha delta",
         "beta delta"] * 4
N = len(TEXTS)
LANGS = [("en", "de", "fr", None)[i % 4] for i in range(N)]
SOURCES = [f"s{i % 7}" for i in range(N)]
# tool-style column: '' on most rows (the string-sidecar absent
# sentinel), a real value on every 5th, NULL on every 11th
TOOLS = [None if i % 11 == 0 else (f"t{i % 3}" if i % 5 == 0 else "")
         for i in range(N)]
NCHARS = [len(t) * (1 + i % 3) for i, t in enumerate(TEXTS)]
REQ = [i % 4 for i in range(N)]       # per-doc required-match counts
# 3 days x 5 hour-slots with uneven multiplicity (exercises both the
# interval ladder and non-degenerate per-bucket counts)
TS = [(i % 3) * 86_400_000_000 + ((i * 7) % 5) * 3_600_000_000
      for i in range(N)]


def _corpus() -> pa.Table:
    return pa.table({
        "doc_id": pa.array(list(range(N)), type=pa.int64()),
        "text": pa.array(TEXTS, type=pa.string()),
        "lang": pa.array(LANGS, type=pa.string()),
        "source": pa.array(SOURCES, type=pa.string()),
        "tool": pa.array(TOOLS, type=pa.string()),
        "n_chars": pa.array(NCHARS, type=pa.int64()),
        "req": pa.array(REQ, type=pa.int64()),
        "ts": pa.array(TS, type=pa.timestamp("us")),
    })


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("r11") / "idx")
    build_index(rd.from_arrow(_corpus()), out,
                EngineConfig(num_segments=3),
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=("lang", "source", "tool",
                                      "n_chars", "req", "ts"),
                          ts_col=""))
    return out


MS = 1e-9
Q = {"q": "alpha delta"}


def _hits(s: IndexSearcher) -> pd.DataFrame:
    """Radial hits in the engine's global (score desc, key asc) order."""
    return s.search(Q, min_score=MS)


def _match_df(s: IndexSearcher) -> pd.DataFrame:
    hit = _hits(s)
    base = _corpus().to_pandas()
    m = base[base["doc_id"].isin(hit["doc_id"])]
    return m


def test_missing_agg_null_or_empty(idx):
    s = IndexSearcher(idx)
    out = s.missing_agg(Q, field="tool", min_score=MS)
    m = _match_df(s)
    want = int((m["tool"].isna() | (m["tool"] == "")).sum())
    assert list(out["query_id"]) == ["q"]
    assert int(out["doc_count"][0]) == want
    assert 0 < want < len(m)          # non-trivial on this corpus
    # zero-filled grid: a no-match query still emits its row
    out2 = s.missing_agg({"q": "alpha delta", "zz": "qqqzzz"},
                         field="tool", min_score=MS)
    assert list(out2["query_id"]) == ["q", "zz"]
    assert int(out2["doc_count"][1]) == 0


def test_span_multi_expands_to_span_or(idx):
    s = IndexSearcher(idx)
    # corpus prefixes: 'de*' -> {delta}, 'alpha' literal; uncapped
    # expansion of 'b*|g*'-ish sets checked via explicit span_or
    got = s.span_multi_search({"q": "alpha de*"}, k=20, slop=2)
    want = s.search({"q": "alpha delta"}, k=20, mode="span_or", slop=2)
    pd.testing.assert_frame_equal(got, want)
    # multi-expansion prefix: 'alpha|beta'-style union via a* + b* —
    # a* expands to alpha only, b* to beta only on this vocab; compare
    # against the hand-written span_or alternatives
    got2 = s.span_multi_search({"q": "alp* bet*"}, k=20, slop=3)
    want2 = s.search({"q": "alpha beta"}, k=20, mode="span_or", slop=3)
    pd.testing.assert_frame_equal(got2, want2)
    # cap rule: max_expansions=1 keeps only the top (df DESC, term ASC)
    # expansion of the prefix — derive the winner from the dictionary
    import pyarrow.parquet as _pq, os as _os
    d = _pq.read_table(_os.path.join(idx, "dictionary")).to_pandas()
    got3 = s.span_multi_search({"q": "alpha d*"}, k=20, slop=2,
                               max_expansions=1)
    dd = d[d["term"].str.startswith("d")].sort_values(
        ["df", "term"], ascending=[False, True])
    best = dd["term"].iloc[0]
    want3 = s.search({"q": f"alpha {best}"}, k=20, mode="span_or",
                     slop=2)
    pd.testing.assert_frame_equal(got3, want3)
    # dead prefix: query emits no rows
    got4 = s.span_multi_search({"q": "alpha zz*"}, k=20, slop=2)
    assert got4.empty
    # DSL dispatch
    via = execute_query({"span_multi": {"query": "alpha de*", "slop": 2,
                                        "k": 20}}, searcher=s,
                        query_id="q")
    pd.testing.assert_frame_equal(via, want)


def test_term_vectors_tf_and_global_stats(idx):
    from collections import Counter
    from opensearch_jvector_ray.analyze import tokenize
    s = IndexSearcher(idx)
    cfg = EngineConfig()
    req = {3: TEXTS[3], 7: TEXTS[7], 11: "alpha qqqnovel qqqnovel"}
    out = s.term_vectors(req)
    assert list(out.columns) == ["doc_id", "term", "term_freq",
                                 "doc_freq", "ttf"]
    # brute per-doc tf over the analyzer stream
    for did, text in req.items():
        st = tokenize(pa.array([text], type=pa.string()), cfg)
        want = Counter(st.terms.to_pylist())
        got = out[out["doc_id"] == did].set_index("term")["term_freq"]
        assert dict(got) == dict(want)
    # global df/ttf over the whole corpus stream
    allst = tokenize(pa.array(TEXTS, type=pa.string()), cfg)
    at = np.asarray(allst.terms.to_pylist())
    ad = allst.doc_idx
    for _, r in out.iterrows():
        m = at == r["term"]
        assert r["ttf"] == int(m.sum())
        assert r["doc_freq"] == len(np.unique(ad[m]))
    # a term absent from the dictionary reports zero stats
    nov = out[(out["doc_id"] == 11) & (out["term"] == "qqqnovel")]
    assert len(nov) == 1 and int(nov["term_freq"].iloc[0]) == 2
    assert int(nov["doc_freq"].iloc[0]) == 0
    assert int(nov["ttf"].iloc[0]) == 0


def test_value_count_complement_of_missing(idx):
    s = IndexSearcher(idx)
    out = s.value_count_agg(Q, field="tool", min_score=MS)
    m = _match_df(s)
    want = int((~(m["tool"].isna() | (m["tool"] == ""))).sum())
    assert list(out["query_id"]) == ["q"]
    assert int(out["value_count"][0]) == want
    assert 0 < want < len(m)          # non-trivial on this corpus
    # missing + value_count tile the match set exactly
    miss = s.missing_agg(Q, field="tool", min_score=MS)
    assert int(out["value_count"][0]) + int(miss["doc_count"][0]) == len(m)
    # zero-filled grid: a no-match query still emits its row
    out2 = s.value_count_agg({"q": "alpha delta", "zz": "qqqzzz"},
                             field="tool", min_score=MS)
    assert list(out2["query_id"]) == ["q", "zz"]
    assert int(out2["value_count"][1]) == 0
    # DSL clause dispatches to the same reduction
    via = execute_query({"value_count": {"query": Q["q"], "field": "tool",
                                         "min_score": MS}}, searcher=s)
    assert int(via["value_count"][0]) == want


def test_global_stats_ignores_query(idx):
    s = IndexSearcher(idx)
    out = s.global_stats_agg("n_chars")
    v = np.asarray(NCHARS, dtype=np.int64)
    assert int(out["doc_count"][0]) == N
    assert int(out["v_sum"][0]) == int(v.sum())
    assert int(out["v_min"][0]) == int(v.min())
    assert int(out["v_max"][0]) == int(v.max())
    assert out["v_avg"][0] == float(v.sum()) / float(N)


def test_sampler_head_of_global_order(idx):
    s = IndexSearcher(idx)
    shard = 7
    hits = _hits(s)
    assert len(hits) > shard          # the cap must actually truncate
    samp = hits.head(shard)
    base = _corpus().to_pandas().set_index("doc_id")
    want = (base.loc[samp["doc_id"], "source"].value_counts()
                .rename_axis("source").rename("doc_count").reset_index())
    out = s.sampler_agg(Q, field="source", shard_size=shard,
                        min_score=MS)
    got = out[["source", "doc_count"]].sort_values("source") \
        .reset_index(drop=True)
    want = want.sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # order: doc_count DESC, value ASC
    dc = list(out["doc_count"])
    assert dc == sorted(dc, reverse=True)
    with pytest.raises(ValueError, match="shard_size"):
        s.sampler_agg(Q, field="source", shard_size=0, min_score=MS)


def test_diversified_sampler_walk(idx):
    s = IndexSearcher(idx)
    max_per, shard = 2, 6
    hits = _hits(s)
    base = _corpus().to_pandas().set_index("doc_id")
    seen: dict = {}
    kept = []
    for did in hits["doc_id"]:
        dv = base.loc[did, "lang"]
        if dv is None or (isinstance(dv, float) and np.isnan(dv)):
            continue          # NULL div value: excluded from the sample
        if seen.get(dv, 0) >= max_per:
            continue
        seen[dv] = seen.get(dv, 0) + 1
        kept.append(did)
        if len(kept) == shard:
            break
    want = (base.loc[kept, "source"].value_counts()
                .rename_axis("source").rename("doc_count").reset_index()
                .sort_values("source").reset_index(drop=True))
    out = s.diversified_sampler_agg(
        Q, field="source", div_field="lang",
        max_docs_per_value=max_per, shard_size=shard, min_score=MS)
    got = out[["source", "doc_count"]].sort_values("source") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    with pytest.raises(ValueError, match="differ"):
        s.diversified_sampler_agg(Q, field="lang", div_field="lang",
                                  max_docs_per_value=1, shard_size=1,
                                  min_score=MS)


def test_auto_date_histogram_ladder(idx):
    s = IndexSearcher(idx)
    m = _match_df(s)
    hour = m["ts"].dt.floor("h")
    day = m["ts"].dt.floor("D")
    n_hour, n_day = hour.nunique(), day.nunique()
    assert n_hour > n_day > 1         # the ladder is non-trivial here
    # target below the hour count -> day (or month) must be chosen
    out = s.auto_date_histogram_agg(Q, ts_col="ts",
                                    target_buckets=n_day,
                                    min_score=MS)
    assert set(out["cal_interval"]) == {"day"}
    want = day.value_counts().sort_index()
    got = out.set_index("bucket")["doc_count"]
    assert list(got.index) == list(want.index)
    assert list(got) == list(want)
    # target at/above the hour count -> hour is chosen
    out2 = s.auto_date_histogram_agg(Q, ts_col="ts",
                                     target_buckets=n_hour,
                                     min_score=MS)
    assert set(out2["cal_interval"]) == {"hour"}
    assert int(out2["doc_count"].sum()) == len(m)
    # impossible target falls back to month
    out3 = s.auto_date_histogram_agg(Q, ts_col="ts", target_buckets=1,
                                     min_score=MS)
    assert set(out3["cal_interval"]) <= {"month"}


def test_moving_fn_and_normalize_pipelines(idx):
    s = IndexSearcher(idx)
    base = s.date_histogram_agg(Q, ts_col="ts", calendar_interval="hour",
                                min_score=MS)
    dc = base["doc_count"].to_numpy(np.int64)
    for pl, fn in (("moving_max", max), ("moving_min", min),
                   ("moving_sum", sum)):
        out = s.date_histogram_agg(Q, ts_col="ts",
                                   calendar_interval="hour",
                                   min_score=MS, pipeline=pl,
                                   pipeline_window=3)
        want = [fn(dc[max(0, i - 2):i + 1].tolist())
                for i in range(len(dc))]
        assert list(out[pl]) == want
        assert out[pl].dtype == np.int64
    out = s.date_histogram_agg(Q, ts_col="ts", calendar_interval="hour",
                               min_score=MS, pipeline="normalize")
    lo, hi = int(dc.min()), int(dc.max())
    assert hi > lo
    want = [(float(v - lo)) / float(hi - lo) for v in dc]
    assert list(out["normalize"]) == want
    # degenerate single-bucket query: rescale emits 0.0, not NaN
    one = s.date_histogram_agg(Q, ts_col="ts", calendar_interval="month",
                               min_score=MS, pipeline="normalize")
    if len(one) == 1:
        assert one["normalize"][0] == 0.0


def test_cumulative_cardinality_first_seen(idx):
    s = IndexSearcher(idx)
    m = _match_df(s).copy()
    m["bucket"] = m["ts"].dt.floor("h")
    out = s.cumulative_cardinality_agg(Q, ts_col="ts",
                                       calendar_interval="hour",
                                       field="lang", min_score=MS)
    buckets = sorted(m["bucket"].unique())
    assert list(out["bucket"]) == buckets
    assert list(out["doc_count"]) == \
        [int((m["bucket"] == b).sum()) for b in buckets]
    want = [m.loc[m["bucket"] <= b, "lang"].dropna().nunique()
            for b in buckets]
    assert list(out["cumulative_cardinality"]) == want
    # the running count must actually grow somewhere on this corpus
    assert want[-1] > want[0]
    # warm facade serves it frame-identically
    from opensearch_jvector_ray.serve import SearchService
    svc = SearchService(idx, num_shards=2)
    try:
        pd.testing.assert_frame_equal(
            svc.agg.cumulative_cardinality_agg(
                Q, ts_col="ts", calendar_interval="hour", field="lang",
                min_score=MS),
            out)
    finally:
        svc.shutdown()
    via = execute_query(
        {"cumulative_cardinality": {"query": Q["q"], "field": "ts",
                                    "value_field": "lang",
                                    "calendar_interval": "hour",
                                    "min_score": MS}}, searcher=s)
    assert list(via["cumulative_cardinality"]) == want


def test_dsl_round11_clauses(idx):
    s = IndexSearcher(idx)
    direct = s.sampler_agg(Q, field="source", shard_size=5, min_score=MS)
    via = execute_query({"sampler": {"query": Q["q"], "field": "source",
                                     "shard_size": 5, "min_score": MS}},
                        searcher=s)
    pd.testing.assert_frame_equal(
        via.drop(columns=["query_id"]).reset_index(drop=True),
        direct.drop(columns=["query_id"]).reset_index(drop=True))
    via_missing = execute_query(
        {"missing_agg": {"query": Q["q"], "field": "tool",
                         "min_score": MS}}, searcher=s)
    assert int(via_missing["doc_count"][0]) == \
        int(s.missing_agg(Q, field="tool", min_score=MS)["doc_count"][0])
    g = execute_query({"global_stats": {"field": "n_chars"}}, searcher=s)
    assert int(g["doc_count"][0]) == N
    adh = execute_query(
        {"auto_date_histogram": {"query": Q["q"], "field": "ts",
                                 "target_buckets": 3,
                                 "min_score": MS}}, searcher=s)
    assert set(adh.columns) == {"query_id", "cal_interval", "bucket",
                                "doc_count"}
    ds = execute_query(
        {"diversified_sampler": {"query": Q["q"], "field": "source",
                                 "div_field": "lang",
                                 "max_docs_per_value": 2,
                                 "shard_size": 6, "min_score": MS}},
        searcher=s)
    assert int(ds["doc_count"].sum()) <= 6
    with pytest.raises(ValueError, match="does not support"):
        parse_query({"sampler": {"query": "x", "field": "source",
                                 "shard_size": 5, "min_score": MS,
                                 "bogus": 1}})
    with pytest.raises(ValueError, match="target_buckets"):
        parse_query({"auto_date_histogram": {"query": "x", "field": "ts",
                                             "target_buckets": 0,
                                             "min_score": MS}})


def test_rank_feature_additive(idx):
    s = IndexSearcher(idx)
    base = _hits(s).set_index("doc_id")["score"]
    spec = {"kind": "saturation", "field": "n_chars", "pivot": 15.0,
            "boost": 2.0}
    out = s.search(Q, k=N, rank_feature=spec).set_index("doc_id")
    assert set(out.index) == set(base.index)     # same match set
    nc = {d: c for d, c in zip(range(N), NCHARS)}
    for did, sc in out["score"].items():
        x = float(nc[did])
        assert sc == base[did] + 2.0 * (x / (x + 15.0))
    # the feature actually reorders at least one pair on this corpus
    assert list(out.index) != list(base.index)
    dspec = {"kind": "distance", "field": "n_chars", "origin": 30.0,
             "pivot": 5.0, "boost": 3.0}
    out2 = s.search(Q, k=N, rank_feature=dspec).set_index("doc_id")
    for did, sc in out2["score"].items():
        dist = abs(float(nc[did]) - 30.0)
        assert sc == base[did] + 3.0 * (5.0 / (5.0 + dist))
    with pytest.raises(ValueError, match="pivot"):
        s.search(Q, k=5, rank_feature={"kind": "saturation",
                                       "field": "n_chars",
                                       "pivot": 0.0})
    with pytest.raises(ValueError, match="plain taat"):
        s.search(Q, k=5, rank_feature=spec, const_score=1.0)


def test_terms_set_per_doc_threshold(idx):
    s = IndexSearcher(idx)
    base = _hits(s)
    qterms = {"alpha", "delta"}
    matched = {i: len(qterms & set(TEXTS[i].split())) for i in range(N)}
    need = {i: max(1, min(len(qterms), REQ[i])) for i in range(N)}
    want = [d for d in base["doc_id"] if matched[d] >= need[d]]
    out = s.search(Q, k=N, terms_set={"field": "req"})
    assert list(out["doc_id"]) == want           # same global order
    assert len(want) < len(base)                 # threshold non-trivial
    # scores are the plain BM25 sums, unchanged by the predicate
    b = base.set_index("doc_id")["score"]
    for did, sc in zip(out["doc_id"], out["score"]):
        assert sc == b[did]
    with pytest.raises(ValueError, match="stored column"):
        s.search(Q, k=5, terms_set={"field": "nope"})


def test_pinned_search_order(idx):
    s = IndexSearcher(idx)
    base = _hits(s)
    pins = [int(base["doc_id"].iloc[3]), 999_999, 2]
    out = s.pinned_search(Q, {"q": pins}, k=8)
    kept_pins = [p for p in pins if p < N]
    assert list(out["doc_id"][:len(kept_pins)]) == kept_pins
    # pinned rows carry the -1.0 sentinel (not NaN/NULL): keeps the
    # engine and the SQL oracle hash-identical at the Arrow level
    assert (out["score"][:len(kept_pins)] == -1.0).all()
    organic = [d for d in base["doc_id"] if d not in kept_pins]
    assert list(out["doc_id"][len(kept_pins):]) == \
        organic[:8 - len(kept_pins)]
    assert list(out["rank"]) == list(range(1, len(out) + 1))
    with pytest.raises(ValueError, match="unique"):
        s.pinned_search(Q, {"q": [1, 1]}, k=5)


def test_pinned_search_key_dtype_with_a_pinless_query(idx):
    # a query with no pins must not upcast the int64 key column
    s = IndexSearcher(idx)
    out = s.pinned_search({"q": "alpha delta", "r": "beta gamma"},
                          {"q": [2, 5]}, k=6)
    assert set(out["query_id"]) == {"q", "r"}
    assert out["doc_id"].dtype == np.int64
    assert out["rank"].dtype == np.int64
    assert out["score"].dtype == np.float64


def test_dsl_round11_query_clauses(idx):
    s = IndexSearcher(idx)
    spec = {"kind": "saturation", "field": "n_chars", "pivot": 15.0,
            "boost": 2.0}
    direct = s.search(Q, k=10, rank_feature=spec)
    via = execute_query({"rank_feature": {"query": Q["q"],
                                          "field": "n_chars",
                                          "pivot": 15.0, "boost": 2.0,
                                          "k": 10}}, searcher=s)
    assert list(via["doc_id"]) == list(direct["doc_id"])
    assert list(via["score"]) == list(direct["score"])
    via_d = execute_query({"distance_feature": {"query": Q["q"],
                                                "field": "n_chars",
                                                "origin": 30.0,
                                                "pivot": 5.0,
                                                "boost": 3.0, "k": 10}},
                          searcher=s)
    direct_d = s.search(Q, k=10, rank_feature={"kind": "distance",
                                               "field": "n_chars",
                                               "origin": 30.0,
                                               "pivot": 5.0,
                                               "boost": 3.0})
    assert list(via_d["doc_id"]) == list(direct_d["doc_id"])
    via_p = execute_query({"pinned": {"query": Q["q"], "ids": [2, 5],
                                      "k": 6}}, searcher=s)
    direct_p = s.pinned_search(Q, {"q": [2, 5]}, k=6)
    assert list(via_p["doc_id"]) == list(direct_p["doc_id"])
    via_t = execute_query({"terms_set": {"query": Q["q"],
                                         "required_field": "req",
                                         "k": 10}}, searcher=s)
    direct_t = s.search(Q, k=10, terms_set={"field": "req"})
    assert list(via_t["doc_id"]) == list(direct_t["doc_id"])
    with pytest.raises(ValueError, match="origin"):
        parse_query({"distance_feature": {"query": "x",
                                          "field": "n_chars",
                                          "pivot": 1.0}})


def test_span_or_union_positions(idx):
    s = IndexSearcher(idx)
    # clause 1: alpha OR eps (union positions); clause 2: delta
    out = s.search({"q": "alpha|eps delta"}, k=N, mode="span_or",
                   slop=1)
    # brute: W = 2 clauses + 1 slop = 3; valid start s iff window
    # [s, s+2] holds (alpha or eps) and delta
    W = 3
    want = {}
    for i, txt in enumerate(TEXTS):
        toks = txt.split()
        tf = 0
        for st in range(2 - W, len(toks)):
            win = toks[max(st, 0):st + W]
            if (("alpha" in win) or ("eps" in win)) and "delta" in win:
                tf += 1
        if tf:
            want[i] = tf
    assert set(out["doc_id"]) == set(want)
    # docs matching via 'eps' only (no alpha) must be present
    assert any("eps" in TEXTS[d] and "alpha" not in TEXTS[d]
               for d in out["doc_id"])
    via = execute_query({"span_or": {"query": "alpha|eps delta",
                                     "slop": 1, "k": 10}}, searcher=s)
    assert list(via["doc_id"]) == list(out["doc_id"][:10])


def test_span_not_exclusion_window(idx):
    s = IndexSearcher(idx)
    # include=beta, exclude=gamma, pre=1, post=0: a beta at p dies iff
    # some gamma at q has q-1 <= p <= q
    out = s.search({"q": "beta gamma"}, k=N, mode="span_not",
                   span_not_pre=1, span_not_post=0)
    want = {}
    for i, txt in enumerate(TEXTS):
        toks = txt.split()
        gpos = [j for j, t in enumerate(toks) if t == "gamma"]
        tf = sum(1 for j, t in enumerate(toks) if t == "beta"
                 and not any(q - 1 <= j <= q for q in gpos))
        if tf:
            want[i] = tf
    assert set(out["doc_id"]) == set(want)
    # exclusion is non-trivial: some beta docs are fully excluded
    beta_docs = {i for i, t in enumerate(TEXTS) if "beta" in t.split()}
    assert set(want) < beta_docs
    via = execute_query({"span_not": {"query": "beta gamma", "pre": 1,
                                      "post": 0, "k": 10}}, searcher=s)
    assert list(via["doc_id"]) == list(out["doc_id"][:10])
    with pytest.raises(ValueError, match="exactly"):
        s.search({"q": "beta"}, k=5, mode="span_not")


def test_matched_queries_attribution(idx):
    s = IndexSearcher(idx)
    specs = {"q": {"alph": "alpha", "delt": "delta", "both": "eps"}}
    out = s.matched_queries_search(specs, k=N)
    for rec in out.itertuples(index=False):
        toks = set(TEXTS[rec.doc_id].split())
        want = sorted(n for n, t in (("alph", "alpha"),
                                     ("delt", "delta"),
                                     ("both", "eps")) if t in toks)
        assert rec.matched_queries == ",".join(want)
    # attribution varies across hits on this corpus
    assert out["matched_queries"].nunique() > 1
    with pytest.raises(ValueError, match="named"):
        s.matched_queries_search({"q": {}}, k=5)


def test_scripted_metric_udf(idx):
    s = IndexSearcher(idx)

    def map_fn(docs, ords, scores):
        import pyarrow as _pa
        v = docs["n_chars"].take(_pa.array(ords)) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return (int(v.sum()), int(np.dot(v, v)))

    def reduce_fn(parts):
        return (sum(p[0] for p in parts), sum(p[1] for p in parts))

    out = s.scripted_metric_agg(Q, map_fn, reduce_fn, min_score=MS)
    m = _match_df(s)["n_chars"].to_numpy(np.int64)
    assert out["value"][0] == (int(m.sum()), int(np.dot(m, m)))
    # warm facade serves the same script
    from opensearch_jvector_ray.serve import SearchService
    svc = SearchService(idx, num_shards=2)
    try:
        warm = svc.agg.scripted_metric_agg(Q, map_fn, reduce_fn,
                                           min_score=MS)
        assert warm["value"][0] == out["value"][0]
    finally:
        svc.shutdown()
    with pytest.raises(ValueError, match="callable"):
        s.scripted_metric_agg(Q, 1, reduce_fn, min_score=MS)


@pytest.fixture(scope="module")
def cf_indexes(tmp_path_factory):
    """Per-field indexes over the same corpus + config: the staged
    build's hash-partition marker makes them co-located (pairing 2)."""
    root = tmp_path_factory.mktemp("r11cf")
    out = {}
    for f in ("text", "lang"):
        d = str(root / f"idx_{f}")
        build_index(rd.from_arrow(_corpus()), d,
                    EngineConfig(num_segments=3),
                    IndexSpec(text_col=f, key_cols=("doc_id",),
                              store_cols=(), ts_col=""))
        out[f] = d
    return out


def test_combined_fields_bm25f(cf_indexes):
    from opensearch_jvector_ray.query import combined_fields
    searchers = {f: IndexSearcher(d) for f, d in cf_indexes.items()}
    w = {"text": 1, "lang": 2}
    q = {"q": "alpha de"}          # 'de' matches the lang field
    out = combined_fields(searchers, q, k=N, weights=w)
    # brute-force BM25F with shared statistics over the raw corpus
    toks = {i: TEXTS[i].split() for i in range(N)}
    ltoks = {i: ([LANGS[i]] if LANGS[i] else []) for i in range(N)}
    qterms = sorted({"alpha", "de"})
    tf = {i: {t: w["text"] * toks[i].count(t)
              + w["lang"] * ltoks[i].count(t) for t in qterms}
          for i in range(N)}
    dl = {i: w["text"] * len(toks[i]) + w["lang"] * len(ltoks[i])
          for i in range(N)}
    avgdl = float(sum(dl.values())) / float(N)
    df = {t: sum(1 for i in range(N)
                 if t in toks[i] or t in ltoks[i]) for t in qterms}
    k1, b = 1.2, 0.75
    want = {}
    for i in range(N):
        s = 0.0
        for t in qterms:
            if tf[i][t] == 0 or df[t] == 0:
                continue
            idf = np.log(1.0 + (N - df[t] + 0.5) / (df[t] + 0.5))
            x = float(tf[i][t])
            s += idf * (x / (x + k1 * (1.0 - b + b * dl[i] / avgdl)))
        if s > 0:
            want[i] = s
    got = out.set_index("doc_id")["score"]
    assert set(got.index) == set(want)
    for did, sc in got.items():
        assert sc == pytest.approx(want[did], abs=0, rel=1e-12)
    order = sorted(want, key=lambda d: (-want[d], d))
    assert list(out["doc_id"]) == order
    with pytest.raises(ValueError, match="integers >= 1"):
        combined_fields(searchers, q, k=5, weights={"text": 0})
    # DSL path
    via = execute_query({"combined_fields": {"query": q["q"],
                                             "fields": ["text", "lang"],
                                             "weights": w, "k": 10}},
                        field_searchers=searchers)
    assert list(via["doc_id"]) == list(out["doc_id"][:10])


def test_render_template_typed_substitution():
    from opensearch_jvector_ray.query_dsl import render_template
    tpl = {"match": {"query": "{{q}} extra {{q}}", "k": "{{k}}"},
           "list": ["{{q}}", 3]}
    out = render_template(tpl, {"q": "alpha", "k": 7})
    assert out["match"]["k"] == 7               # typed whole-leaf
    assert out["match"]["query"] == "alpha extra alpha"
    assert out["list"] == ["alpha", 3]
    with pytest.raises(ValueError, match="missing"):
        render_template({"x": "{{nope}}"}, {})


def test_indices_boost_merged_ranking(idx, cf_indexes):
    from opensearch_jvector_ray.query import indices_boost_search
    searchers = {"a": IndexSearcher(idx),
                 "b": IndexSearcher(cf_indexes["text"])}
    # same corpus in both indexes: with boost 1.0 each doc appears
    # twice at the same rounded score, tie-broken (index asc, key asc)
    out = indices_boost_search(searchers, Q, {"a": 1.0, "b": 1.0},
                               k=2 * N)
    a = out[out["index"] == "a"].set_index("doc_key")["score"]
    b = out[out["index"] == "b"].set_index("doc_key")["score"]
    assert set(a.index) == set(b.index)
    for dk in a.index:
        assert a[dk] == b[dk]
    # within an equal-score group the index-asc tie puts 'a' first
    for dk in a.index:
        pair = out[out["doc_key"] == dk]
        ra, rb = (int(pair[pair["index"] == "a"]["rank"].iloc[0]),
                  int(pair[pair["index"] == "b"]["rank"].iloc[0]))
        assert rb > ra
    # boosting one index reorders: all 'b' hits outrank their 'a' twin
    out2 = indices_boost_search(searchers, Q, {"a": 1.0, "b": 10.0},
                                k=2 * N)
    for dk in a.index:
        pair = out2[out2["doc_key"] == dk]
        assert (int(pair[pair["index"] == "b"]["rank"].iloc[0])
                < int(pair[pair["index"] == "a"]["rank"].iloc[0]))
    with pytest.raises(ValueError, match="> 0"):
        indices_boost_search(searchers, Q, {"a": 0.0}, k=5)


def test_warm_facade_round11_frame_identity(idx):
    ray = pytest.importorskip("ray")
    from opensearch_jvector_ray.serve import SearchService
    svc = SearchService(idx, num_shards=2)
    try:
        a = svc.agg
        pd.testing.assert_frame_equal(
            a.missing_agg(Q, field="tool", min_score=MS),
            IndexSearcher(idx).missing_agg(Q, field="tool", min_score=MS))
        pd.testing.assert_frame_equal(
            a.sampler_agg(Q, field="source", shard_size=7, min_score=MS),
            IndexSearcher(idx).sampler_agg(Q, field="source",
                                           shard_size=7, min_score=MS))
        pd.testing.assert_frame_equal(
            a.diversified_sampler_agg(
                Q, field="source", div_field="lang",
                max_docs_per_value=2, shard_size=6, min_score=MS),
            IndexSearcher(idx).diversified_sampler_agg(
                Q, field="source", div_field="lang",
                max_docs_per_value=2, shard_size=6, min_score=MS))
        pd.testing.assert_frame_equal(
            a.auto_date_histogram_agg(Q, ts_col="ts", target_buckets=3,
                                      min_score=MS),
            IndexSearcher(idx).auto_date_histogram_agg(
                Q, ts_col="ts", target_buckets=3, min_score=MS))
    finally:
        svc.shutdown()


def test_variable_width_histogram_largest_gaps(idx):
    s = IndexSearcher(idx)
    B = 3
    out = s.variable_width_histogram_agg(Q, value_col="n_chars",
                                         buckets=B, min_score=MS)
    m = _match_df(s)
    vc = m.groupby("n_chars").size().sort_index()
    vals = vc.index.to_numpy(np.int64)
    cnts = vc.to_numpy(np.int64)
    # brute largest-gaps split
    gaps = vals[1:] - vals[:-1]
    order = np.lexsort((vals[1:], -gaps))
    chosen = np.sort(order[:B - 1] + 1)
    bid = np.zeros(len(vals), dtype=int)
    bid[chosen] = 1
    bid = np.cumsum(bid)
    want = []
    for b in np.unique(bid):
        v, c = vals[bid == b], cnts[bid == b]
        want.append((float(v[0]), float(v[-1]), int(c.sum()),
                     float(np.dot(v, c)) / float(c.sum())))
    got = [(r.v_min, r.v_max, int(r.doc_count), r.centroid)
           for r in out.itertuples()]
    assert got == want
    assert len(out) == B            # non-degenerate on this corpus
    # buckets >= distinct values: one bucket per value
    out1 = s.variable_width_histogram_agg(Q, value_col="n_chars",
                                          buckets=10_000, min_score=MS)
    assert len(out1) == len(vals)
    assert (out1["v_min"] == out1["v_max"]).all()
    # DSL dispatch
    via = execute_query(
        {"variable_width_histogram": {"query": Q["q"], "field": "n_chars",
                                      "buckets": B, "min_score": MS}},
        searcher=s)
    pd.testing.assert_frame_equal(via, out)
    with pytest.raises(ValueError, match="buckets"):
        s.variable_width_histogram_agg(Q, value_col="n_chars",
                                       buckets=0, min_score=MS)


def test_delete_by_query_equals_fresh_build(idx, tmp_path):
    from opensearch_jvector_ray.stages.merge import delete_by_query
    s = IndexSearcher(idx)
    dq = {"del": "gamma"}
    victims = set(s.search(dq, min_score=MS)["doc_id"])
    assert 0 < len(victims) < N          # non-trivial delete set
    dst = str(tmp_path / "dbq")
    n_del = delete_by_query(idx, dst, dq, min_score=MS)
    assert n_del == len(victims)
    out = IndexSearcher(dst).search(Q, k=N)
    assert not (set(out["doc_id"]) & victims)
    # rank-identical to a FRESH build over the survivors (stats and
    # dictionary recompute on the delete merge)
    base = _corpus().to_pandas()
    surv = base[~base["doc_id"].isin(victims)]
    fresh = str(tmp_path / "fresh")
    build_index(rd.from_arrow(pa.Table.from_pandas(
        surv, preserve_index=False)), fresh,
        EngineConfig(num_segments=3),
        IndexSpec(text_col="text", key_cols=("doc_id",),
                  store_cols=("lang", "source", "tool", "n_chars",
                              "req", "ts"), ts_col=""))
    want = IndexSearcher(fresh).search(Q, k=N)
    pd.testing.assert_frame_equal(out.round({"score": 9}),
                                  want.round({"score": 9}))
    # the source index is untouched: victims still searchable there
    assert victims == set(s.search(dq, min_score=MS)["doc_id"])


def test_analyze_api_positions_and_stem():
    from opensearch_jvector_ray.analyze import analyze_api
    cfg = EngineConfig()
    # 'the' is a stopword: dropped but still occupies position 1
    out = analyze_api({1: "alpha the beta", 2: ""}, cfg)
    assert [(r.doc_id, r.pos, r.token) for r in out.itertuples()] == \
        [(1, 0, "alpha"), (1, 2, "beta")]
    # stemmed analyzer emits post-stem tokens on the same axis
    cfg_s = EngineConfig(stemmer="minimal_english")
    out_s = analyze_api({1: "merges the sorts"}, cfg_s)
    assert list(out_s["token"]) == ["merge", "sort"]
    assert list(out_s["pos"]) == [0, 2]
    assert analyze_api({}, cfg).empty


def test_update_by_query_equals_fresh_build(idx, tmp_path):
    from opensearch_jvector_ray.stages.merge import update_by_query
    s = IndexSearcher(idx)
    dq = {"del": "gamma"}
    victims = sorted(set(s.search(dq, min_score=MS)["doc_id"]))
    assert victims
    base = _corpus().to_pandas()
    upd = base[base["doc_id"].isin(victims)].copy()
    upd["text"] = upd["text"] + " freshterm"
    dst = str(tmp_path / "ubq")
    n = update_by_query(idx, dst, dq, min_score=MS,
                        updates=rd.from_arrow(
                            pa.Table.from_pandas(upd,
                                                 preserve_index=False)))
    assert n == len(victims)
    s2 = IndexSearcher(dst)
    # the new token is searchable and hits exactly the updated docs
    hit = s2.search({"q": "freshterm"}, min_score=MS)
    assert sorted(set(hit["doc_id"])) == victims
    # rank-identical to a fresh build over the modified corpus
    mod = base.copy()
    mask = mod["doc_id"].isin(victims)
    mod.loc[mask, "text"] = mod.loc[mask, "text"] + " freshterm"
    fresh = str(tmp_path / "fresh2")
    build_index(rd.from_arrow(pa.Table.from_pandas(
        mod, preserve_index=False)), fresh,
        EngineConfig(num_segments=3),
        IndexSpec(text_col="text", key_cols=("doc_id",),
                  store_cols=("lang", "source", "tool", "n_chars",
                              "req", "ts"), ts_col=""))
    want = IndexSearcher(fresh).search(Q, k=N)
    got = s2.search(Q, k=N)
    pd.testing.assert_frame_equal(got.round({"score": 9}),
                                  want.round({"score": 9}))
