"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init`` / ``ray.shutdown``.

``queries()`` exposes the engine's operator surface (SURVEY.md §2 + the
training-data pipeline operators); ``oracle_sql()`` returns, for every
SQL-expressible entry, DuckDB SQL generated from the SAME analyzer
config and query strings (see opensearch_jvector_ray/oracles.py), so
tokenization, BM25 math, rounding and tie-breaks are symbol-identical.
Entries without an oracle (approximate / stateful / non-SQL ops) get the
driver's rows-only check and are covered by pytest oracles instead.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from opensearch_jvector_ray.oracles import (
    bm25_sql, boolean_sql, collection_stats_sql, events_asof_orders_sql, events_lww_sql,
    filter_spec_sql, function_score_mul_sql,
    cardinality_sql, percentiles_sql, significant_terms_sql,
    significant_text_sql,
    filters_agg_sql, terms_stats_sql, composite_sql, multi_match_sql,
    dis_max_sql, span_first_sql, keyword_sql, chunk_sql,
    top_metrics_sql, percentile_ranks_sql,
    mad_sql, boxplot_sql, t_test_sql, vw_histogram_sql,
    global_stats_sql, sampler_sql, diversified_sampler_sql,
    rank_feature_add_sql, pinned_sql, combined_fields_sql,
    span_or_near_sql, span_not_sql, matched_queries_sql,
    span_multi_sql,
    span_within_sql, span_containing_sql, span_ordered_sql,
    multi_terms_sql, rare_terms_sql, extended_stats_sql,
    weighted_avg_sql, bucket_metric_sql, adjacency_matrix_sql,
    string_stats_sql, matrix_stats_sql, date_range_sql,
    span_near_sql, constant_score_sql, boosting_query_sql,
    percolate_sql, percolate_filtered_sql, semdedup_sql,
    events_sessionize_sql, events_window_sql, exact_dedup_sql,
    byte_knn_sql, corpus_clean_sql, embedding_dups_sql, ivf_fixed_sql, revenue_by_nation_sql, simhash_sql,
    revenue_by_region_brand_sql, top_order_revenue_sql, transcripts_bm25_sql,
    fingerprint_sql, grouped_best_sql, grouped_expand_sql, knn_sql,
    highlight_sql, highlight_frag_sql, rank_eval_sql, explain_sql,
    mlt_sql,
    term_vectors_sql,
    analyze_api_sql,
    prefix_sql, fuzzy_sql, facet_sql, page_sql,
    simple_query_string_sql,
    boosted_sql, synonym_sql, stats_agg_sql, histogram_sql,
    range_agg_sql, top_hits_sql,
    suggest_sql, fuzzy_suggest_sql, phrase_suggest_sql, regexp_sql,
    phrase_prefix_sql,
    hybrid_rrf_sql,
    hybrid_linear_sql,
    hash_sample_sql, hash_split_sql, lang_id_sql, minhash_exact_sql,
    mix_sources_sql, bpe_count_sql, bpe_merges_sql, gopher_filter_sql,
    tool_usage_sql,
    ngram_exact_sql, pii_scrub_sql, pii_filter_sql, decontaminate_sql, self_overlap_sql,
    quantile_sql, range_join_sql,
    pack_chunks_sql, phrase_sql,
    pricing_summary_sql, quality_sql, repetition_sql, term_stats_sql,
    token_count_sql, conversation_sql, turn_dedup_sql, lm_xent_sql,
    context_pairs_sql, validate_conversations_sql,
    response_latency_sql,
    tool_transitions_sql,
    lm_xent_transfer_sql,
    dsir_weights_sql,
    sparse_vector_sql,
    geo_distance_sql,
    geo_bbox_sql,
    geo_polygon_sql,
    geotile_grid_sql,
    geohash_grid_sql,
    geo_centroid_sql,
)
from opensearch_jvector_ray.pipelines import dedup as dedup_pl
from opensearch_jvector_ray.pipelines import knn as knn_pl
from opensearch_jvector_ray.pipelines import lm as lm_pl
from opensearch_jvector_ray.pipelines import transcripts as tr_pl
from opensearch_jvector_ray.pipelines import multimodal as mm_pl
from opensearch_jvector_ray.pipelines import relational as rel_pl
from opensearch_jvector_ray.pipelines import textstats as ts_pl
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.sources.tables import (
    DOCUMENTS_CFG, documents_index, query_embeddings, read_table,
    transcripts_index,
)

CFG = DOCUMENTS_CFG
from opensearch_jvector_ray.sources.tables import (          # noqa: E402
    DOCUMENTS_STEM_CFG as _STEM_CFG,
)

# fixed reference query set over the documents corpus (vocabulary drawn
# from the corpus itself; q3 mixes stopwords to exercise the stop filter)
BM25_QUERIES = {
    "q1": "fast merge sort",
    "q2": "query data filter join",
    "q3": "the spark window batch",
    "q4": "customer value row scan",
}
BM25_K = 10
FILTER_LANG = "en"
RADIAL_QUERY = {"qr": "fast merge sort"}
RADIAL_MIN_SCORE = 0.55
GROUP_QUERY = "query data filter join"
EXPAND_GROUPS = 5
PHRASE_QUERIES = {"p1": "fast merge", "p2": "data row", "p3": "customer join"}
BOOLEAN_QUERIES = {
    "b1": "fast +merge -sort",
    "b2": "+data query -window",
    "b3": "customer +value scan",
    "b4": "-the spark batch",
}
TERM_STATS_TERMS = ["customer", "data", "fast", "merge", "query", "window"]
# structured filter-context spec: ONE object drives both the engine's
# pyarrow pre-filter (query_dsl.compile_filter) and the SQL predicate
# (oracles.filter_spec_sql)
DSL_FILTER_SPEC = {"bool": {"must": [
    {"terms": {"lang": ["en", "de"]}},
    {"range": {"n_chars": {"gte": 200, "lt": 1200}}},
]}}
SORT_FIELD, SORT_ORDER = "n_chars", "desc"
# function_score specs: sqrt / linear forms are IEEE-bit-exact across
# numpy and DuckDB (no libm), so these carry hard oracles
FVF_SPEC = {"kind": "field_value_factor", "field": "n_chars",
            "factor": 0.1, "modifier": "sqrt"}
DECAY_SPEC = {"kind": "decay", "decay_fn": "linear", "field": "ts",
              "origin": 1.7e15, "scale": 1.0e10, "decay": 0.5}
KNN_QUERY_IDS = [0, 1, 2]
KNN_K = 10
KNN_FILTER_LABEL = 3          # pre-filter: embeddings.label == 3
KNN_RADIAL_MIN_SCORE = 0.62   # cosine score (1+cos)/2 threshold
KNN_RADIAL_MAX_DIST = 0.75    # cosine distance (1-cos); (2-d)/2 = 0.625 exact
BYTE_SCALE = 64               # int8 quantization: floor(x * 64) in [-128,127]
IVF_CENTROID_IDS = list(range(8))   # fixed data-row coarse centers
IVF_N_PROBE = 3
TRANSCRIPT_QUERIES = {
    "t1": "zebra quantum nebula",
    "t2": "data model search index",
    "t3": "checkpoint lineage metric",
}


def _round_hits(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["score"] = np.round(df["score"].astype(np.float64), 6)
    df["rank"] = df["rank"].astype(np.int64)
    return df


# ---------------------------------------------------------------------------
# query implementations (each callable: sf_dir -> DataFrame)
# ---------------------------------------------------------------------------

def _q_bm25(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K))


def _q_bm25_wand(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K, mode="wand"))


def _q_bm25_rescore(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K, rescore_oversample=3.0))


def _q_bm25_filtered(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                filter=pc.field("lang") == FILTER_LANG))


def _q_bm25_dsl_filter(sf_dir: str) -> pd.DataFrame:
    # structured filter-context clause compiled to a pyarrow pre-filter
    # (the same spec object generates the oracle's SQL predicate)
    from opensearch_jvector_ray.query_dsl import compile_filter
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                filter=compile_filter(DSL_FILTER_SPEC)))


def _q_bm25_sorted(sf_dir: str) -> pd.DataFrame:
    # sort-by-field: hits are the match set ranked (n_chars desc,
    # doc_id asc); BM25 scores still reported
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                sort=(SORT_FIELD, SORT_ORDER)))


def _q_bm25_function_score(sf_dir: str) -> pd.DataFrame:
    # function_score field_value_factor: score * 0.1*sqrt(n_chars)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                score_fn=FVF_SPEC))


N_PARENTS = 5
PERC_QUERIES = {"r1": "fast merge sort", "r2": "customer value",
                "r3": "window batch scan"}


def _q_percolate(sf_dir: str) -> pd.DataFrame:
    # percolator (reverse search): which registered queries match each
    # doc — AND semantics over the analyzed distinct term sets
    from opensearch_jvector_ray.pipelines.percolate import percolate
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = percolate(ds, PERC_QUERIES, CFG, match_mode="all").to_pandas()
    return (out.sort_values(["doc_id", "query_id"])
               .reset_index(drop=True))


PERC_PHRASES = {"pp1": "stream column", "pp2": "window join",
                "pp3": "order sort"}

# filter-context percolation: text + metadata predicate per registered
# query; pfq3 is a pure-filter query body (text analyzes to nothing)
PERC_FILTERED_Q = {"pfq1": "window batch", "pfq2": "customer scan",
                   "pfq3": "the and of"}
PERC_FILTERED_F = {
    "pfq1": {"terms": {"lang": ["en"]}},
    "pfq2": {"range": {"n_chars": {"gte": 400}}},
    "pfq3": {"bool": {"must": [{"terms": {"source": ["src3"]}},
                               {"range": {"n_chars": {"lt": 600}}}]}},
}


def _q_percolate_filtered(sf_dir: str) -> pd.DataFrame:
    # percolator with filter-context clauses (the full query-body
    # shape): text EXISTS ANDed with the M7 structured filter; pfq3 is
    # a pure-filter body
    from opensearch_jvector_ray.pipelines.percolate import percolate
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "lang", "source",
                             "n_chars"])
    out = percolate(ds, PERC_FILTERED_Q, CFG, match_mode="any",
                    filters=PERC_FILTERED_F).to_pandas()
    return (out.sort_values(["doc_id", "query_id"])
               .reset_index(drop=True))


def _q_percolate_phrase(sf_dir: str) -> pd.DataFrame:
    # phrase percolation: registered PHRASE queries match docs only at
    # adjacent pre-stopword positions (the engine-wide phrase rule)
    from opensearch_jvector_ray.pipelines.percolate import percolate
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = percolate(ds, PERC_PHRASES, CFG,
                    match_mode="phrase").to_pandas()
    return (out.sort_values(["doc_id", "query_id"])
               .reset_index(drop=True))


def _q_has_parent(sf_dir: str) -> pd.DataFrame:
    # has_parent join [OpenSearch public semantics, score=true]: the
    # turns (children) of the top-matching conversations (parents),
    # every child carrying its parent's score; children fetched with a
    # pushed-down parquet read over the parent id set (the J4 pattern)
    from opensearch_jvector_ray.sources.tables import (
        conversations_index, transcripts_path,
    )
    s = IndexSearcher(conversations_index(sf_dir))
    parents = _round_hits(s.search(CONV_QUERIES, k=N_PARENTS))
    cols = ["query_id", "rank", "conv_id", "turn_idx", "score"]
    if parents.empty:
        return pd.DataFrame(columns=cols)
    convs = sorted(set(parents["conv_id"]))
    turns = pq.read_table(
        transcripts_path(sf_dir), columns=["conv_id", "turn_idx"],
        filters=[("conv_id", "in", convs)]).to_pandas()
    m = parents[["query_id", "conv_id", "score"]].merge(turns,
                                                        on="conv_id")
    m = m.sort_values(["query_id", "score", "conv_id", "turn_idx"],
                      ascending=[True, False, True, True],
                      kind="mergesort")
    m["rank"] = m.groupby("query_id", sort=False).cumcount() + 1
    m["turn_idx"] = m["turn_idx"].astype(np.int64)
    return m[cols].reset_index(drop=True)


def _q_has_child_max(sf_dir: str) -> pd.DataFrame:
    # has_child join: conversations ranked by their best matching
    # turn's BM25 score (score_mode=max)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.has_child_search(TRANSCRIPT_QUERIES, k=10,
                              score_mode="max")


def _q_has_child_sum(sf_dir: str) -> pd.DataFrame:
    # has_child score_mode=sum: integer-micro child-score sum shipped
    # as order-free per-parent segment partials (combiner-first)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.has_child_search(TRANSCRIPT_QUERIES, k=10,
                              score_mode="sum")


def _q_has_child_avg(sf_dir: str) -> pd.DataFrame:
    # has_child score_mode=avg: micro-sum / count, exact double both
    # sides (unrounded — the lm.py half-tie rule)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.has_child_search(TRANSCRIPT_QUERIES, k=10,
                              score_mode="avg")


def _q_bm25_decay_recency(sf_dir: str) -> pd.DataFrame:
    # function_score linear time-decay on the stored ts column — the
    # recency-boost classic; docs past the decay reach (boost 0) drop
    s = IndexSearcher(transcripts_index(sf_dir))
    out = _round_hits(s.search(TRANSCRIPT_QUERIES, k=10,
                               score_fn=DECAY_SPEC))
    out["doc_id"] = (out["conv_id"] + ":" +
                     out["turn_idx"].astype(int).astype(str).str.zfill(10))
    return out[["query_id", "rank", "doc_id", "score"]]


def _q_bm25_phrase(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(PHRASE_QUERIES, k=BM25_K, mode="phrase"))


def _q_bm25_constant_score(sf_dir: str) -> pd.DataFrame:
    # constant_score: filter context — every match scores exactly the
    # boost, ranking degenerates to the key-asc tie order
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                const_score=CONST_SCORE))


def _q_bm25_boosting(sf_dir: str) -> pd.DataFrame:
    # boosting query: positive BM25 with negative-clause demotion
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                negative=BOOSTING_NEG,
                                negative_boost=NEGATIVE_BOOST))


SPAN_OR_QUERIES = {"so1": "fast|quick merge",
                   "so2": "data|row query",
                   "so3": "customer|supplier scan|stream"}
SPAN_OR_SLOP = 3
# span_not: first analyzed term = include, second = exclude
SPAN_NOT_QUERIES = {"sn1": "data query", "sn2": "merge sort",
                    "sn3": "customer value"}
SPAN_NOT_PRE, SPAN_NOT_POST = 1, 2
# span_within/span_containing: first analyzed term = little, rest = big
SPAN_WC_QUERIES = {"sw1": "merge fast sort", "sw2": "query data join",
                   "sw3": "scan customer"}
SPAN_WC_SLOP = 3
# span_multi: trailing-'*' clause expands (df DESC, term ASC, capped);
# cap 4 < the 6 's*' expansions so the cap rule is NON-trivial
SPAN_MULTI_QUERIES = {"sm1": "s* merge", "sm2": "data b*",
                      "sm3": "c* scan|stream"}
SPAN_MULTI_SLOP = 3
SPAN_MULTI_MAXEXP = 4
SPAN_ORD_QUERIES = {"sq1": "fast sort", "sq2": "data join",
                    "sq3": "customer scan"}
SPAN_ORD_SLOP = 3
# queries whose terms actually stem (plural forms) so the stemmed gate
# is non-trivial: "merges" matches docs saying "merge"/"merges" etc.
STEM_QUERIES = {"st1": "merges sorts", "st2": "queries data",
                "st3": "customers values"}


def _q_bm25_stemmed(sf_dir: str) -> pd.DataFrame:
    # minimal-english s-stemmer analyzer (Lucene EnglishMinimalStemFilter
    # shape): plural query forms match singular docs and vice versa;
    # BOTH sides run the stop->stem chain (oracle stems inside toks_cte)
    from opensearch_jvector_ray.sources.tables import (
        documents_index_stemmed,
    )
    s = IndexSearcher(documents_index_stemmed(sf_dir))
    return _round_hits(s.search(STEM_QUERIES, k=BM25_K))


def _q_bm25_span_ordered(sf_dir: str) -> pd.DataFrame:
    # span_near in_order=true: a strictly increasing chain of the query
    # sequence inside a width (n_terms + slop) window (sloppy phrase)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(SPAN_ORD_QUERIES, k=BM25_K,
                                mode="span_ordered",
                                slop=SPAN_ORD_SLOP))


def _q_bm25_span_within(sf_dir: str) -> pd.DataFrame:
    # span_within: little occurrences covered by a valid big span_near
    # window score (Lucene SpanWithinQuery shape)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(SPAN_WC_QUERIES, k=BM25_K,
                                mode="span_within", slop=SPAN_WC_SLOP))


def _q_bm25_span_containing(sf_dir: str) -> pd.DataFrame:
    # span_containing: big windows that also hold a little occurrence;
    # scored on the BIG terms' idf (Lucene SpanContainingQuery shape)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(SPAN_WC_QUERIES, k=BM25_K,
                                mode="span_containing",
                                slop=SPAN_WC_SLOP))


def _sm_map(docs, ords, scores):
    # scripted_metric map+combine: Σ n_chars * doc_id over the segment's
    # qualifying docs — exact int64, so the driver gate can be HARD even
    # though the mechanism is a user script
    import numpy as _np
    import pyarrow as _pa
    take = _pa.array(ords)
    nc = docs["n_chars"].take(take).to_numpy(zero_copy_only=False) \
        .astype(_np.int64)
    di = docs["doc_id"].take(take).to_numpy(zero_copy_only=False) \
        .astype(_np.int64)
    return int(_np.dot(nc, di))


def _sm_reduce(parts):
    return int(sum(parts))


# indices_boost: shared-vocabulary queries (both the documents corpus
# and the transcript conversations contain these terms)
IB_QUERIES = {"i1": "merge sort", "i2": "table row scan",
              "i3": "batch window"}
IB_BOOSTS = {"documents": 1.0, "conversations": 2.0}


def _q_bm25_indices_boost(sf_dir: str) -> pd.DataFrame:
    # indices_boost: one query batch over two engines, per-index score
    # multipliers, merged (round-6 boosted score, index, key) ranking
    from opensearch_jvector_ray.query import indices_boost_search
    from opensearch_jvector_ray.sources.tables import conversations_index
    searchers = {"documents": IndexSearcher(documents_index(sf_dir)),
                 "conversations": IndexSearcher(conversations_index(sf_dir))}
    return indices_boost_search(searchers, IB_QUERIES, IB_BOOSTS,
                                k=BM25_K)


def _q_bm25_template(sf_dir: str) -> pd.DataFrame:
    # search template: mustache-subset substitution feeding the DSL —
    # the rendered query is a plain match, so the oracle is bm25_sql
    from opensearch_jvector_ray.query_dsl import (
        execute_query, render_template,
    )
    s = IndexSearcher(documents_index(sf_dir))
    tpl = {"match": {"query": "{{q}}", "k": "{{k}}"}}
    frames = []
    for qid in sorted(BM25_QUERIES):
        body = render_template(tpl, {"q": BM25_QUERIES[qid],
                                     "k": BM25_K})
        frames.append(execute_query(body, searcher=s, query_id=qid))
    out = pd.concat(frames, ignore_index=True)
    return _round_hits(out)


def _q_bm25_scripted_metric(sf_dir: str) -> pd.DataFrame:
    # scripted_metric agg: user map/combine per segment (pickled
    # partials), user reduce on the driver; this script is integer
    # arithmetic so the DuckDB oracle is exact
    s = IndexSearcher(documents_index(sf_dir))
    out = s.scripted_metric_agg(BM25_QUERIES, _sm_map, _sm_reduce,
                                min_score=FACET_MIN_SCORE)
    out["value"] = out["value"].astype(np.int64)
    return out


MATCHED_Q_SPECS = {
    "q1": {"fastish": "fast merge", "sorty": "sort"},
    "q2": {"datalike": "data query", "rowcol": "row column"},
    "q3": {"cust": "customer", "valscan": "value scan"},
}


def _q_bm25_matched_queries(sf_dir: str) -> pd.DataFrame:
    # matched_queries: named should clauses; every top-k hit of the
    # union query carries the sorted names of the clauses it matches
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.matched_queries_search(MATCHED_Q_SPECS,
                                                k=BM25_K))


def _q_bm25_span_or(sf_dir: str) -> pd.DataFrame:
    # span_near over span_or clauses: '|'-alternatives unioned per
    # clause, windowed containment, SynonymQuery-blended clause idf
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(SPAN_OR_QUERIES, k=BM25_K,
                                mode="span_or", slop=SPAN_OR_SLOP))


def _q_bm25_span_multi(sf_dir: str) -> pd.DataFrame:
    # span_multi: prefix clause expands against the dictionary into a
    # span_or alternative set (capped top-terms rewrite), then the
    # unchanged span_or windowed-containment path
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.span_multi_search(
        SPAN_MULTI_QUERIES, k=BM25_K, slop=SPAN_MULTI_SLOP,
        max_expansions=SPAN_MULTI_MAXEXP))


def _q_bm25_span_not(sf_dir: str) -> pd.DataFrame:
    # span_not: include occurrences survive unless an exclude
    # occurrence sits within [p-pre, p+post] on the position axis
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(SPAN_NOT_QUERIES, k=BM25_K,
                                mode="span_not",
                                span_not_pre=SPAN_NOT_PRE,
                                span_not_post=SPAN_NOT_POST))


def _q_bm25_span_near(sf_dir: str) -> pd.DataFrame:
    # unordered proximity: all terms within a width (n_terms + slop)
    # window on the pre-stopword position axis; tf = valid window starts
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(SPAN_QUERIES, k=BM25_K, mode="span",
                                slop=SPAN_SLOP))


def _q_bm25_boolean(sf_dir: str) -> pd.DataFrame:
    # Lucene BooleanQuery semantics: +must filters AND scores, -must_not
    # filters, bare should scores
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BOOLEAN_QUERIES, k=BM25_K, mode="boolean"))


MSM_QUERIES = {
    "ms1": "fast merge sort scan",          # pure should, msm=2
    "ms2": "+data query filter window",     # must + should, msm=2
    "ms3": "customer value row -batch",     # should + must_not, msm=2
    "ms4": "spark",                         # 1 should term < msm: no hits
}
MSM_N = 2


def _q_bm25_min_should_match(sf_dir: str) -> pd.DataFrame:
    # Lucene minimum_should_match: doc qualifies only with >= N distinct
    # should terms matched (must/must_not unaffected); fewer should terms
    # than N in the query matches nothing
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(MSM_QUERIES, k=BM25_K, mode="boolean",
                                minimum_should_match=MSM_N))


def _q_bm25_radial(sf_dir: str) -> pd.DataFrame:
    # UNCAPPED score>=theta predicate path (O5) — no max_k truncation
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(RADIAL_QUERY, min_score=RADIAL_MIN_SCORE))


MLT_SEEDS = {"m1": 7, "m2": 123, "m3": 321}


def _q_bm25_mlt(sf_dir: str) -> pd.DataFrame:
    # more-like-this: seed doc -> top tf*idf terms -> BM25 (Lucene MLT).
    # Seed texts come from the SOURCE table by pushed-down key read (the
    # index never duplicates text — S9)
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in",
                                  list(MLT_SEEDS.values()))])
    by_id = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    seed_texts = {qid: by_id[sid] for qid, sid in MLT_SEEDS.items()}
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.more_like_this(seed_texts, k=BM25_K))


TERM_VECTOR_DOCS = [7, 123, 321]


def _q_analyze_api(sf_dir: str) -> pd.DataFrame:
    # _analyze API: the analyzer chain's surviving tokens with their
    # pre-stopword positions for source docs (no index access)
    from opensearch_jvector_ray.analyze import analyze_api
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in", TERM_VECTOR_DOCS)])
    texts = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    out = analyze_api(texts, CFG)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


def _q_term_vectors(sf_dir: str) -> pd.DataFrame:
    # _termvectors API: per-(doc, term) tf of the selected docs plus
    # global df/ttf from the dictionary; texts come from the SOURCE
    # table by pushed-down key read (S9 — the index never stores text)
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in", TERM_VECTOR_DOCS)])
    texts = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    s = IndexSearcher(documents_index(sf_dir))
    out = s.term_vectors(texts)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


def _q_bm25_highlight(sf_dir: str) -> pd.DataFrame:
    # highlight surface: matched-term positions per top-k hit (the
    # positions sidecar consumed as a user feature, not just by phrase)
    s = IndexSearcher(documents_index(sf_dir))
    out = s.matched_positions(BM25_QUERIES, k=BM25_K)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["pos"] = out["pos"].astype(np.int64)
    return out.reset_index(drop=True)


PHRASE_SUGGEST = {"sp1": "fasst merge sirt", "sp2": "custmer valwe scan",
                  "sp3": "the quary windoe"}


def _q_suggest_phrase(sf_dir: str) -> pd.DataFrame:
    # phrase suggester: per-token keep-or-correct over the vocabulary
    s = IndexSearcher(documents_index(sf_dir))
    return s.suggest_phrase(PHRASE_SUGGEST, max_edits=2)


def _q_bm25_cumulative_sum(sf_dir: str) -> pd.DataFrame:
    # pipeline aggregation: running doc_count over date buckets
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="cumulative_sum")


def _q_bm25_derivative(sf_dir: str) -> pd.DataFrame:
    # pipeline aggregation: bucket-to-bucket delta (first bucket null)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="derivative")


def _q_bm25_moving_avg(sf_dir: str) -> pd.DataFrame:
    # pipeline aggregation: trailing-3-bucket mean (partial windows
    # averaged over what exists — moving_fn/unweightedAvg shape)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="moving_avg", pipeline_window=3)


def _q_bm25_serial_diff(sf_dir: str) -> pd.DataFrame:
    # pipeline aggregation: lag-2 delta (first two buckets null)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="serial_diff", pipeline_lag=2)


def _q_bm25_bucket_selector(sf_dir: str) -> pd.DataFrame:
    # pipeline aggregation: HAVING-style bucket filter (doc_count >= 2)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="bucket_selector",
                                selector_op="gte", selector_value=5)


def _q_bm25_moving_max(sf_dir: str) -> pd.DataFrame:
    # pipeline aggregation: trailing-3-bucket max (pure int window fn)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="moving_max", pipeline_window=3)


def _q_bm25_normalize(sf_dir: str) -> pd.DataFrame:
    # pipeline aggregation: rescale_0_1 of each bucket's doc_count over
    # the query's present buckets (integer diffs, one division)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="normalize")


BUCKET_SORT_FROM, BUCKET_SORT_SIZE = 1, 4
MOVING_PCT_WINDOW, MOVING_PCT_Q = 4, 0.5
RATE_UNIT = "minute"
T_TEST_FILTER_A = {"term": {"lang": "en"}}
T_TEST_FILTER_B = {"terms": {"lang": ["fr", "es"]}}


def _q_bm25_bucket_sort(sf_dir: str) -> pd.DataFrame:
    # bucket_sort pipeline: buckets re-ranked (doc_count desc, bucket
    # asc), ranks 2..5 kept — from=1 drops the top bucket so the
    # truncation is non-trivial at every scale
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="bucket_sort",
                                sort_from=BUCKET_SORT_FROM,
                                sort_size=BUCKET_SORT_SIZE)


def _q_bm25_moving_percentiles(sf_dir: str) -> pd.DataFrame:
    # moving_percentiles pipeline, EXACT: trailing-4-bucket discrete
    # median of doc_count (quantile_disc rule on both sides)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="moving_percentiles",
                                pipeline_window=MOVING_PCT_WINDOW,
                                pipeline_percent=MOVING_PCT_Q)


def _q_bm25_rate(sf_dir: str) -> pd.DataFrame:
    # rate agg: hour buckets rescaled to per-minute rates (exact int
    # count, ONE division by 60)
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                calendar_interval=DATE_HIST_INTERVAL,
                                min_score=FACET_MIN_SCORE,
                                pipeline="rate", rate_unit=RATE_UNIT)


def _q_bm25_mad(sf_dir: str) -> pd.DataFrame:
    # median_absolute_deviation agg, EXACT: median(|x - median(x)|)
    # of n_chars over the match set (nested quantile_disc rule)
    s = IndexSearcher(documents_index(sf_dir))
    return s.mad_agg(BM25_QUERIES, value_col=STATS_COL,
                     min_score=FACET_MIN_SCORE)


def _q_bm25_boxplot(sf_dir: str) -> pd.DataFrame:
    # boxplot agg, EXACT: min/q1/q2/q3/max of n_chars over the match
    # set (quantile_disc quartiles)
    s = IndexSearcher(documents_index(sf_dir))
    return s.boxplot_agg(BM25_QUERIES, value_col=STATS_COL,
                         min_score=FACET_MIN_SCORE)


def _q_bm25_t_test(sf_dir: str) -> pd.DataFrame:
    # t_test agg (Welch unpaired): n_chars of matched en docs vs
    # matched fr/es docs — six integer sums, pinned float chain
    s = IndexSearcher(documents_index(sf_dir))
    return s.t_test_agg(BM25_QUERIES, value_col=STATS_COL,
                        filter_a=T_TEST_FILTER_A,
                        filter_b=T_TEST_FILTER_B,
                        min_score=FACET_MIN_SCORE)


def _q_bm25_cumulative_cardinality(sf_dir: str) -> pd.DataFrame:
    # cumulative_cardinality pipeline agg, EXACT: running distinct
    # conversations per date bucket via the min-first-bucket rule
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.cumulative_cardinality_agg(
        TRANSCRIPT_QUERIES, ts_col="ts",
        calendar_interval=DATE_HIST_INTERVAL, field="conv_id",
        min_score=FACET_MIN_SCORE)


def _q_bm25_explain(sf_dir: str) -> pd.DataFrame:
    # _explain API: per-(hit, term) BM25 breakdown; contributions sum
    # to the hit score
    s = IndexSearcher(documents_index(sf_dir))
    out = s.explain(BM25_QUERIES, k=BM25_K)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


RATING_MOD = 3     # ONE rule, both sides: doc_id % RATING_MOD == 0 -> 1


def _rank_eval_ratings(sf_dir: str) -> dict[str, dict[int, int]]:
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    rated = {d: 1 for d in range(0, n_docs, RATING_MOD)}
    return {qid: rated for qid in BM25_QUERIES}


def _q_rank_eval_precision(sf_dir: str) -> pd.DataFrame:
    # _rank_eval API: precision@k of the top-k against rule-rated docs
    s = IndexSearcher(documents_index(sf_dir))
    return s.rank_eval(BM25_QUERIES, _rank_eval_ratings(sf_dir),
                       k=BM25_K, metric="precision")


def _q_rank_eval_mrr(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(documents_index(sf_dir))
    return s.rank_eval(BM25_QUERIES, _rank_eval_ratings(sf_dir),
                       k=BM25_K, metric="mrr")


HL_WINDOW = 4


def _q_bm25_highlight_frag(sf_dir: str) -> pd.DataFrame:
    # highlight snippets: +-window tokens around the first matched
    # position; source text via the J4 pushed-down read
    s = IndexSearcher(documents_index(sf_dir))

    def texts_for(keys: pd.DataFrame) -> pd.DataFrame:
        return pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
            filters=[("doc_id", "in", sorted(keys["doc_id"]))]
        ).to_pandas()

    out = s.highlight_fragments(BM25_QUERIES, texts_for, k=BM25_K,
                                window=HL_WINDOW)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


PREFIX_QUERIES = {
    "x1": "s* merge",        # s* -> scan sort slow stream spark small ...
    "x2": "c* data row",     # c* -> column customer
    "x3": "qu* filter",
    "x4": "b* w*",
}
FUZZY_QUERIES = {
    "f1": "qury merg",       # query / merge at distance 1
    "f2": "scam dat",        # scan / data
    "f3": "valu window",     # value / window
}
FUZZY_MAX_EDITS = 1
# adjacent-transposition typos: Damerau distance 1, plain Levenshtein 2
# — the transpositions=true arm finds what the default arm cannot
FUZZY_DL_QUERIES = {
    "f1": "uqery mrege",     # query / merge, transposed
    "f2": "scna dtaa",       # scan / data
    "f3": "vlaue wnidow",    # value / window
}
FACET_COL = "lang"
FACET_MIN_SCORE = 0.3
BOOSTED_QUERIES = {
    "bb1": "fast^2 merge",
    "bb2": "data^0.5 query row^3",
    "bb3": "customer value^2.5 scan",
}
SYN_QUERIES = {"s1": "fast merge", "s2": "sort data", "s3": "query scan"}
SYNONYMS = {
    "merge": ["join"],
    "sort": ["order"],
    "fast": ["quick"],      # df-0 synonym: group falls back to 'fast'
    "scan": ["stream", "batch"],
}


STATS_COL = "n_chars"
HIST_INTERVAL = 80.0
REGEXP_QUERIES = {"r1": "s.*t", "r2": "(data|query)", "r3": "c[ou].*"}
PHRASE_PREFIX_QUERIES = {"pp1": "fast mer", "pp2": "data ro", "pp3": "cus"}
MBP_QUERIES = {"mb1": "fast mer", "mb2": "query data ro", "mb3": "cus"}
DIS_MAX_QUERIES = {"d1": ["fast merge", "data query"],
                   "d2": ["customer scan", "sort window", "filter"],
                   "d3": ["row column"]}
DIS_MAX_TIE = 0.3
HYBRID_QUERIES = {"h1": ("fast merge sort", 0),
                  "h2": ("query data filter join", 1),
                  "h3": ("customer value row scan", 2)}
HYBRID_WINDOW = 20
HYBRID_K0 = 60.0


# rank_feature / distance_feature: division-multiply chains (no libm)
# => hard oracles; specs shared with the generated SQL expressions
RANK_FEATURE_SPEC = {"kind": "saturation", "field": "n_chars",
                     "pivot": 500.0, "boost": 0.8}
DIST_FEATURE_SPEC = {"kind": "distance", "field": "n_chars",
                     "origin": 600.0, "pivot": 150.0, "boost": 1.5}
# rank_features (plural): contributions summed in LIST order on both
# sides (engine sequential accumulation == SQL left-assoc '+')
RANK_FEATURES_SPEC = {"kind": "sum", "features": [
    {"kind": "saturation", "field": "n_chars", "pivot": 500.0,
     "boost": 0.5},
    {"kind": "distance", "field": "n_chars", "origin": 800.0,
     "pivot": 100.0, "boost": 0.3},
]}


def _q_bm25_rank_features(sf_dir: str) -> pd.DataFrame:
    # rank_features (multi-feature additive): two per-doc feature
    # contributions summed in list order, added to the BM25 sum
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                rank_feature=RANK_FEATURES_SPEC))
# pinned ids: 999999 exists at no scale (exercises the existence
# probe); 7/123 exist at every scale; q4 reorders q1's pins
PINNED_IDS = {"q1": [7, 123, 999999], "q2": [42], "q4": [123, 7]}


def _q_bm25_rank_feature(sf_dir: str) -> pd.DataFrame:
    # rank_feature (saturation): boost * x/(x+pivot) ADDED to the BM25
    # sum of matching docs — one division, one multiply, one add
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                rank_feature=RANK_FEATURE_SPEC))


def _q_bm25_distance_feature(sf_dir: str) -> pd.DataFrame:
    # distance_feature: boost * pivot/(pivot+|x-origin|) added per doc
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                rank_feature=DIST_FEATURE_SPEC))


def _q_bm25_pinned(sf_dir: str) -> pd.DataFrame:
    # pinned query: existing pins first in given order (-1.0 score),
    # organic hits excluding pins after
    s = IndexSearcher(documents_index(sf_dir))
    return s.pinned_search(BM25_QUERIES, PINNED_IDS, k=BM25_K)


def _q_bm25_terms_set(sf_dir: str) -> pd.DataFrame:
    # terms_set query: per-doc required matches = max(1, min(n_terms,
    # turn_idx)) — the canonical minimum_should_match_script rule
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    out = _round_hits(s.search(TRANSCRIPT_QUERIES, k=10,
                               terms_set={"field": "turn_idx"}))
    out["doc_id"] = (out["conv_id"] + ":" +
                     out["turn_idx"].astype(int).astype(str).str.zfill(10))
    return out[["query_id", "rank", "doc_id", "score"]]


def _q_hybrid_rrf(sf_dir: str) -> pd.DataFrame:
    # hybrid lexical+vector search fused by RRF: both retrievers are the
    # repo's hash-matched engines; fusion is driver-side over two
    # window-sized frames (vec_id == doc_id in the fixtures)
    from opensearch_jvector_ray.pipelines import hybrid as hy_pl
    s = IndexSearcher(documents_index(sf_dir))
    qe = query_embeddings(sf_dir, [vid for _, vid in HYBRID_QUERIES.values()])
    queries = {qid: (text, qe[f"vq{vid}"])
               for qid, (text, vid) in HYBRID_QUERIES.items()}
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = hy_pl.hybrid_search(s, emb, queries, k=BM25_K,
                              window=HYBRID_WINDOW, k0=HYBRID_K0)
    return _round_hits(out)


HYBRID_LIN_WEIGHTS = (0.7, 1.3)


def _q_hybrid_linear(sf_dir: str) -> pd.DataFrame:
    # hybrid fusion, linear flavor: min-max normalization per retriever
    # over ROUND-6 scores + weighted sum (the OpenSearch
    # normalization-processor arithmetic path); weights non-equal so
    # the weighting itself is gated
    from opensearch_jvector_ray.pipelines import hybrid as hy_pl
    s = IndexSearcher(documents_index(sf_dir))
    qe = query_embeddings(sf_dir, [vid for _, vid in HYBRID_QUERIES.values()])
    queries = {qid: (text, qe[f"vq{vid}"])
               for qid, (text, vid) in HYBRID_QUERIES.items()}
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = hy_pl.hybrid_linear_search(s, emb, queries, k=BM25_K,
                                     window=HYBRID_WINDOW,
                                     weights=HYBRID_LIN_WEIGHTS)
    return _round_hits(out)


def _q_bm25_phrase_prefix(sf_dir: str) -> pd.DataFrame:
    # match_phrase_prefix: exact phrase, last analyzed token expanded
    # against the dictionary; the CAPPED expansion set matches (Lucene
    # MultiPhraseQuery), idf_sum = literals + expansions
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.phrase_prefix_search(PHRASE_PREFIX_QUERIES,
                                              k=BM25_K))
WILDCARD_QUERIES = {"w1": "s*t", "w2": "?ata", "w3": "cust*"}
SUGGEST_PREFIXES = {"g1": "s", "g2": "cu", "g3": "w"}
SUGGEST_TYPOS = {"z1": "qury", "z2": "merg", "z3": "windoe",
                 "z4": "vale", "z5": "sot"}
SUGGEST_N = 5
SUGGEST_MAX_EDITS = 2


def _q_bm25_regexp(sf_dir: str) -> pd.DataFrame:
    # Lucene RegexpQuery: anchored RE2 over the dictionary (pyarrow and
    # DuckDB both run RE2 — the pattern string is shared verbatim)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.regexp_search(REGEXP_QUERIES, k=BM25_K))


def _q_bm25_wildcard(sf_dir: str) -> pd.DataFrame:
    # Lucene WildcardQuery: * / ? translated by the engine's own
    # wildcard_to_regex on both sides
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.wildcard_search(WILDCARD_QUERIES, k=BM25_K))


def _q_term_suggest(sf_dir: str) -> pd.DataFrame:
    # completion suggester: popularity-ranked prefix autocomplete off
    # the term-sorted dictionary (range-pruned read)
    s = IndexSearcher(documents_index(sf_dir))
    frames = []
    for sid, pfx in SUGGEST_PREFIXES.items():
        f = s.suggest_prefix(pfx, n=SUGGEST_N)
        f.insert(0, "suggest_id", sid)
        frames.append(f)
    out = pd.concat(frames, ignore_index=True)
    out["df"] = out["df"].astype(np.int64)
    return out


def _q_term_suggest_fuzzy(sf_dir: str) -> pd.DataFrame:
    # spell-correction suggester ('did you mean'): dist/df-ranked fuzzy
    # neighborhood of each typo
    s = IndexSearcher(documents_index(sf_dir))
    frames = []
    for sid, t in SUGGEST_TYPOS.items():
        f = s.suggest_fuzzy(t, n=SUGGEST_N, max_edits=SUGGEST_MAX_EDITS)
        f.insert(0, "suggest_id", sid)
        frames.append(f)
    out = pd.concat(frames, ignore_index=True)
    out["df"] = out["df"].astype(np.int64)
    out["dist"] = out["dist"].astype(np.int64)
    return out


def _q_bm25_stats_agg(sf_dir: str) -> pd.DataFrame:
    # stats aggregation (count/sum/min/max/avg of n_chars) over the
    # radial match set — integer partials per segment, one avg division
    s = IndexSearcher(documents_index(sf_dir))
    out = s.stats_agg(BM25_QUERIES, value_col=STATS_COL,
                      min_score=FACET_MIN_SCORE)
    for c in ("doc_count", "v_sum", "v_min", "v_max"):
        out[c] = out[c].astype(np.int64)
    return out


def _q_bm25_histogram(sf_dir: str) -> pd.DataFrame:
    # histogram aggregation: doc counts per floor(n_chars/80)*80 bucket
    s = IndexSearcher(documents_index(sf_dir))
    out = s.histogram_agg(BM25_QUERIES, value_col=STATS_COL,
                          interval=HIST_INTERVAL,
                          min_score=FACET_MIN_SCORE)
    out["bucket"] = out["bucket"].astype(np.int64)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


RANGE_RANGES = [("short", None, 150.0), ("mid", 150.0, 320.0),
                ("long", 320.0, None), ("huge", 5000.0, None)]
TOP_HITS_N = 3
DATE_HIST_INTERVAL = "hour"
PERCENTS = (0.25, 0.5, 0.75, 0.9, 0.99)
SIG_TERMS_SIZE = 4
FILTERS_AGG = {
    "short_en": {"bool": {"must": [
        {"term": {"lang": "en"}},
        {"range": {"n_chars": {"lt": 300}}}]}},
    "src_low": {"terms": {"source": ["src1", "src2", "src3"]}},
    "long": {"range": {"n_chars": {"gte": 600}}},
}
COMPOSITE_SIZE = 2
COMPOSITE_AFTER = "en"    # page 2 of the lang buckets
# multi_match over per-field indexes (text + lang): queries mix corpus
# vocabulary with language-code tokens so both fields contribute
MULTI_MATCH_FIELDS = ["text", "lang"]
MULTI_MATCH_QUERIES = {
    "m1": "fast merge en",
    "m2": "data query de",
    "m3": "customer scan zh",
}
MULTI_MATCH_TIE = 0.3
SPAN_QUERIES = {"s1": "fast sort", "s2": "data join",
                "s3": "customer scan"}
SPAN_SLOP = 3
SPAN_FIRST_END = 5
SPAN_FIRST_QUERIES = {"sf1": "fast merge", "sf2": "data query",
                      "sf3": "customer"}
CONST_SCORE = 1.7
BOOSTING_NEG = {"q1": "data window", "q2": "sort", "q3": "merge",
                "q4": "query"}
NEGATIVE_BOOST = 0.4


def _q_bm25_range_agg(sf_dir: str) -> pd.DataFrame:
    # range aggregation: zero-filled query x range grid of doc counts
    # over the radial match set (half-open [lo, hi), caller-keyed ranges)
    s = IndexSearcher(documents_index(sf_dir))
    out = s.range_agg(BM25_QUERIES, value_col=STATS_COL,
                      ranges=RANGE_RANGES, min_score=FACET_MIN_SCORE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _multi_searchers(sf_dir: str) -> dict[str, IndexSearcher]:
    from opensearch_jvector_ray.sources.tables import (
        documents_field_index,
    )
    out = {}
    for f in MULTI_MATCH_FIELDS:
        idx = documents_index(sf_dir) if f == "text" else \
            documents_field_index(sf_dir, f)
        out[f] = IndexSearcher(idx)
    return out


def _q_multi_match_best(sf_dir: str) -> pd.DataFrame:
    # multi_match best_fields == DisjunctionMaxQuery with tie_breaker:
    # per-field indexes (own df/N/avgdl), max + tie * rest
    from opensearch_jvector_ray.query import multi_match
    return _round_hits(multi_match(_multi_searchers(sf_dir),
                                   MULTI_MATCH_QUERIES, k=BM25_K,
                                   match_type="best_fields",
                                   tie_breaker=MULTI_MATCH_TIE))


def _q_multi_match_most(sf_dir: str) -> pd.DataFrame:
    # multi_match most_fields: cross-field score sum
    from opensearch_jvector_ray.query import multi_match
    return _round_hits(multi_match(_multi_searchers(sf_dir),
                                   MULTI_MATCH_QUERIES, k=BM25_K,
                                   match_type="most_fields"))


CF_WEIGHTS = {"text": 1, "lang": 2}


def _q_bm25_combined_fields(sf_dir: str) -> pd.DataFrame:
    # combined_fields (BM25F, term-centric shared stats): integer
    # weighted tf/dl sums across co-located per-field indexes, union
    # df, one avgdl division — Lucene CombinedFieldQuery semantics
    from opensearch_jvector_ray.query import combined_fields
    return _round_hits(combined_fields(_multi_searchers(sf_dir),
                                       MULTI_MATCH_QUERIES, k=BM25_K,
                                       weights=CF_WEIGHTS))


def _q_bm25_cardinality(sf_dir: str) -> pd.DataFrame:
    # cardinality agg: EXACT distinct count (stronger than OpenSearch's
    # HLL approximation), zero-filled per query
    s = IndexSearcher(documents_index(sf_dir))
    return s.cardinality_agg(BM25_QUERIES, field=FACET_COL,
                             min_score=FACET_MIN_SCORE)


def _q_bm25_percentiles(sf_dir: str) -> pd.DataFrame:
    # percentiles agg: EXACT discrete quantiles from merged value
    # counts (quantile_disc selection rule)
    s = IndexSearcher(documents_index(sf_dir))
    return s.percentiles_agg(BM25_QUERIES, value_col=STATS_COL,
                             percents=PERCENTS,
                             min_score=FACET_MIN_SCORE)


SIG_TEXT_SIZE = 8


def _q_bm25_significant_text(sf_dir: str) -> pd.DataFrame:
    # significant_text agg: JLH-scored over-representation of ANALYZED
    # INDEX TERMS in the match set vs the corpus (free-text sibling of
    # significant_terms; fg from a per-segment postings scan)
    s = IndexSearcher(documents_index(sf_dir))
    out = s.significant_text_agg(BM25_QUERIES,
                                 min_score=FACET_MIN_SCORE,
                                 size=SIG_TEXT_SIZE)
    for c in ("doc_count", "bg_count"):
        out[c] = out[c].astype(np.int64)
    return out


def _q_bm25_sig_terms(sf_dir: str) -> pd.DataFrame:
    # significant_terms agg: JLH-scored over-representation of source
    # values in the match set vs the corpus background
    s = IndexSearcher(documents_index(sf_dir))
    out = s.significant_terms_agg(BM25_QUERIES, field="source",
                                  min_score=FACET_MIN_SCORE,
                                  size=SIG_TERMS_SIZE)
    for c in ("doc_count", "bg_count"):
        out[c] = out[c].astype(np.int64)
    return out


def _q_bm25_filters_agg(sf_dir: str) -> pd.DataFrame:
    # filters agg: named structured-filter buckets over the match set
    s = IndexSearcher(documents_index(sf_dir))
    return s.filters_agg(BM25_QUERIES, FILTERS_AGG,
                         min_score=FACET_MIN_SCORE)


def _q_bm25_terms_stats(sf_dir: str) -> pd.DataFrame:
    # terms bucket + stats sub-agg: per-lang integer stats of n_chars
    s = IndexSearcher(documents_index(sf_dir))
    out = s.terms_stats_agg(BM25_QUERIES, group_col=FACET_COL,
                            value_col=STATS_COL,
                            min_score=FACET_MIN_SCORE)
    for c in ("doc_count", "v_sum", "v_min", "v_max"):
        out[c] = out[c].astype(np.int64)
    return out


def _q_bm25_composite(sf_dir: str) -> pd.DataFrame:
    # composite agg page 2: lang buckets strictly after 'en', asc order
    s = IndexSearcher(documents_index(sf_dir))
    return s.composite_agg(BM25_QUERIES, field=FACET_COL,
                           size=COMPOSITE_SIZE,
                           min_score=FACET_MIN_SCORE,
                           after=COMPOSITE_AFTER)


MULTI_TERMS_FIELDS = ["lang", "source"]
MULTI_TERMS_SIZE = 15
RARE_TERMS_DIV = 25       # max_doc_count = total_docs // 25 (both sides)
EXT_STATS_SIGMA = 2.0
WAVG_VALUE_COL = "n_chars"
WAVG_WEIGHT_COL = "doc_id"


def _q_bm25_multi_terms(sf_dir: str) -> pd.DataFrame:
    # multi_terms agg: doc counts per composite (lang, source) bucket,
    # (doc_count DESC, values ASC) order, top-15 per query — partials
    # are composite-cardinality-sized, combiner-first
    s = IndexSearcher(documents_index(sf_dir))
    out = s.multi_terms_agg(BM25_QUERIES, fields=MULTI_TERMS_FIELDS,
                            min_score=FACET_MIN_SCORE,
                            size=MULTI_TERMS_SIZE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_rare_terms(sf_dir: str) -> pd.DataFrame:
    # rare_terms agg: long-tail source buckets whose GLOBAL match-set
    # count is <= total_docs // 25 — the corpus-relative rule keeps the
    # filter non-trivial at every sf (absolute counts scale ~10x/tier);
    # the oracle embeds the identical rule as a scalar subquery
    s = IndexSearcher(documents_index(sf_dir))
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    out = s.rare_terms_agg(BM25_QUERIES, field="source",
                           max_doc_count=n_docs // RARE_TERMS_DIV,
                           min_score=FACET_MIN_SCORE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_extended_stats(sf_dir: str) -> pd.DataFrame:
    # extended_stats agg: integer count/sum/min/max/sum-of-squares
    # partials + the pinned float chain (avg, population variance, std,
    # +/- sigma bounds) — every float op appears once, same order as
    # the generated SQL
    s = IndexSearcher(documents_index(sf_dir))
    out = s.extended_stats_agg(BM25_QUERIES, value_col=STATS_COL,
                               min_score=FACET_MIN_SCORE,
                               sigma=EXT_STATS_SIGMA)
    for c in ("doc_count", "v_sum", "v_min", "v_max", "v_sos"):
        out[c] = out[c].astype(np.int64)
    return out


def _q_bm25_weighted_avg(sf_dir: str) -> pd.DataFrame:
    # weighted_avg agg: sum(n_chars x doc_id) / sum(doc_id) over the
    # match set — two exact int64 partial sums per segment, ONE division
    s = IndexSearcher(documents_index(sf_dir))
    out = s.weighted_avg_agg(BM25_QUERIES, value_col=WAVG_VALUE_COL,
                             weight_col=WAVG_WEIGHT_COL,
                             min_score=FACET_MIN_SCORE)
    out["w_sum"] = out["w_sum"].astype(np.int64)
    return out


DATE_RANGES = [("first", None, "2023-11-14T22:20:00"),
               ("mid", "2023-11-14T22:20:00", "2023-11-14T22:40:00"),
               ("rest", "2023-11-14T22:40:00", None)]
MATRIX_X, MATRIX_Y = "n_chars", "doc_id"
STRING_STATS_FIELD = "source"


TOP_METRICS_SIZE = 3
PCT_RANK_VALUES = [120.0, 250.0, 480.0, 900.0]


def _q_bm25_top_metrics(sf_dir: str) -> pd.DataFrame:
    # top_metrics agg: metric values of the 3 longest matched docs
    # (sort n_chars desc, doc key asc tie); <= size rows per segment
    s = IndexSearcher(documents_index(sf_dir))
    out = s.top_metrics_agg(BM25_QUERIES, sort_col="n_chars",
                            metric_cols=["lang", "source"],
                            min_score=FACET_MIN_SCORE,
                            size=TOP_METRICS_SIZE, sort_order="desc")
    for c in ("rank", "doc_id", "n_chars"):
        out[c] = out[c].astype(np.int64)
    return out


def _q_bm25_percentile_ranks(sf_dir: str) -> pd.DataFrame:
    # percentile_ranks agg: EXACT fraction of matched docs with
    # n_chars <= v for each probe value (two ints, one division)
    s = IndexSearcher(documents_index(sf_dir))
    return s.percentile_ranks_agg(BM25_QUERIES, value_col=STATS_COL,
                                  values=PCT_RANK_VALUES,
                                  min_score=FACET_MIN_SCORE)


SAMPLER_SHARD_SIZE = 25
SAMPLER_FIELD = "source"
DIV_SAMPLER_MAX_PER_VALUE = 4
DIV_SAMPLER_SHARD_SIZE = 15
AUTO_DH_TARGET = 8


def _q_bm25_missing(sf_dir: str) -> pd.DataFrame:
    # missing agg: match-set turns with no tool call (tool absent =
    # NULL or '' — the string sidecar's absent sentinel), zero-filled
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.missing_agg(TRANSCRIPT_QUERIES, field="tool",
                         min_score=FACET_MIN_SCORE)


VW_HIST_BUCKETS = 5


def _q_bm25_vw_histogram(sf_dir: str) -> pd.DataFrame:
    # variable_width_histogram (deterministic largest-gaps rule):
    # n_chars distinct values split at the 4 widest adjacent gaps
    s = IndexSearcher(documents_index(sf_dir))
    return s.variable_width_histogram_agg(
        BM25_QUERIES, value_col=STATS_COL, buckets=VW_HIST_BUCKETS,
        min_score=FACET_MIN_SCORE)


DBQ_QUERIES = {"del": "window batch"}
DBQ_MIN_SCORE = 0.3


def _q_delete_by_query(sf_dir: str) -> pd.DataFrame:
    # _delete_by_query lifecycle: tombstone the delete query's radial
    # match set, merge-rebuild into a fresh dir (stats/dictionary
    # recompute), then rank BM25 on the survivor index — rank-identical
    # to a fresh build over the survivors (the oracle's surv CTE)
    import tempfile

    from opensearch_jvector_ray.stages.merge import delete_by_query
    src = documents_index(sf_dir)
    dst = tempfile.mkdtemp(prefix="ojr_dbq_")
    delete_by_query(src, dst, DBQ_QUERIES, min_score=DBQ_MIN_SCORE)
    out = _round_hits(IndexSearcher(dst).search(BM25_QUERIES, k=BM25_K))
    import shutil
    shutil.rmtree(dst, ignore_errors=True)
    return out


UBQ_SEARCH = {"u1": "updated merge", "u2": "window data",
              "u3": "updated customer"}


def _q_update_by_query(sf_dir: str) -> pd.DataFrame:
    # _update_by_query lifecycle: matched docs re-ingest with " updated"
    # appended to their text (delete-merge + journalled append, both
    # stats-recomputing); searches then hit the NEW token — ranking is
    # identical to a fresh build over the modified corpus (oracle's upd
    # CTE)
    import shutil
    import tempfile

    import pyarrow as pa

    from opensearch_jvector_ray.stages.merge import update_by_query
    src = documents_index(sf_dir)
    s = IndexSearcher(src)
    hits = s.search(DBQ_QUERIES, min_score=DBQ_MIN_SCORE)
    keys = sorted(set(hits["doc_id"].astype(int)))
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text", "lang", "source",
                                 "n_chars"],
                        filters=[("doc_id", "in", keys)])
    import pyarrow.compute as _pc
    text = tbl["text"]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    new_text = _pc.binary_join_element_wise(
        text, pa.array(["updated"] * tbl.num_rows, type=pa.string()),
        " ")
    tbl = tbl.set_column(tbl.column_names.index("text"), "text",
                         new_text)
    dst = tempfile.mkdtemp(prefix="ojr_ubq_")
    update_by_query(src, dst, DBQ_QUERIES, min_score=DBQ_MIN_SCORE,
                    updates=rd.from_arrow(tbl))
    out = _round_hits(IndexSearcher(dst).search(UBQ_SEARCH, k=BM25_K))
    shutil.rmtree(dst, ignore_errors=True)
    return out


PIT_QUERIES = {"pq1": "fast merge sort", "pq2": "window batch data"}

# reindex selection (radial on the SOURCE index's stats) + search set
# whose plural forms only match through the DESTINATION's stem analyzer
REINDEX_SEL = {"sel": "query data filter"}
REINDEX_MIN_SCORE = 0.3
REINDEX_QUERIES = {"rx1": "queries data", "rx2": "filters rows"}

# _mget: mixed order, one key absent from the index (found=false row);
# gate frames avoid NULLs (COALESCE sentinels on BOTH sides) so the
# driver's value hash never sees NaN-representation drift
MGET_KEYS = [205, 3, 100000001, 499, 77]
FIELD_STATS_FIELDS = ["lang", "source", "n_chars"]

# sparse_vector (neural_sparse analog): literal post-analysis tokens
# with integer weights — per-doc sums are exact on both sides
SPARSE_QUERIES = {
    "sv1": [("merge", 3.0), ("sort", 2.0), ("fast", 1.0)],
    "sv2": [("customer", 2.0), ("data", 1.0)],
}


ROLL_MAX_DOCS = 250
ROLL_CHUNK = 125


def _q_rollover_search(sf_dir: str) -> pd.DataFrame:
    # _rollover lifecycle: append documents in doc_id order in chunks
    # of 125; the alias rolls at 250 docs -> two 250-doc generations.
    # Search spans both with PER-INDEX stats (the OpenSearch per-shard
    # scoring rule), merged on (round-6 score, index, key)
    import shutil
    import tempfile

    import pyarrow as pa

    from opensearch_jvector_ray.aliases import RolloverWriter
    from opensearch_jvector_ray.sources.tables import (
        DOCUMENTS_CFG, DOCUMENTS_SPEC,
    )
    full = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    full = full.take(pc.sort_indices(full["doc_id"]))
    root = tempfile.mkdtemp(prefix="ojr_roll_")
    w = RolloverWriter(root, DOCUMENTS_CFG, DOCUMENTS_SPEC,
                       max_docs=ROLL_MAX_DOCS)
    for lo in range(0, 500, ROLL_CHUNK):
        w.append(rd.from_arrow(full.slice(lo, ROLL_CHUNK)),
                 lineage={"chunk": lo})
    out = w.search(BM25_QUERIES, k=BM25_K)
    shutil.rmtree(root, ignore_errors=True)
    return out


def _rollover_oracle() -> str:
    arms = []
    for gi, (lo, hi) in enumerate([(0, ROLL_MAX_DOCS),
                                   (ROLL_MAX_DOCS, 2 * ROLL_MAX_DOCS)],
                                  start=1):
        cte = (f"part{gi} AS (SELECT doc_id, text FROM documents "
               f"WHERE doc_id >= {lo} AND doc_id < {hi})")
        arms.append((f"idx-{gi:06d}",
                     bm25_sql(BM25_QUERIES, BM25_K, CFG,
                              table=f"part{gi}", prefix_cte=cte,
                              emit_raw=True)))
    unions = "\n  UNION ALL\n".join(
        f"  SELECT query_id, '{name}' AS \"index\", "
        f"CAST(doc_id AS VARCHAR) AS doc_key, "
        f"round(score__raw, 6) AS score FROM a{i}"
        for i, (name, _) in enumerate(arms, start=1))
    withs = ", ".join(f"a{i} AS ({sql})"
                      for i, (_, sql) in enumerate(arms, start=1))
    return f"""
WITH {withs},
u AS (
{unions}
),
r AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, "index" ASC,
                                     doc_key ASC) AS rank,
         "index", doc_key, score
  FROM u
)
SELECT query_id, rank, "index", doc_key, score
FROM r WHERE rank <= {BM25_K}
ORDER BY query_id, rank
"""


INC_DEDUP_SPLIT = 250    # prior snapshot = doc_id < split
INC_DEDUP_PLANT = 100    # planted re-crawls: docs < this, id + 1000


def _q_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    # cross-snapshot incremental dedup: the new snapshot carries 100
    # PLANTED re-crawls of prior docs (same text, new ids) — survivors
    # are exactly the genuinely-new rows (no natural cross-split dups
    # in the fixture, verified; the planted copies make the gate bite)
    import pyarrow as pa

    from opensearch_jvector_ray.pipelines.dedup import dedup_against
    from opensearch_jvector_ray.pipelines.textstats import (
        fingerprint_stage,
    )
    full = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"])
    prior = full.filter(pc.less(full["doc_id"], INC_DEDUP_SPLIT))
    prior_fps = fingerprint_stage(CFG, "doc_id", "text")(prior)[
        "fingerprint"].to_pylist()
    new_part = full.filter(
        pc.greater_equal(full["doc_id"], INC_DEDUP_SPLIT))
    plant = full.filter(pc.less(full["doc_id"], INC_DEDUP_PLANT))
    plant = plant.set_column(plant.column_names.index("doc_id"),
                             "doc_id", pc.add(plant["doc_id"], 1000))
    snapshot = pa.concat_tables([new_part, plant])
    out = dedup_against(rd.from_arrow(snapshot), prior_fps, CFG,
                        "doc_id", "text").to_pandas()
    out = out[["doc_id", "lang"]].sort_values("doc_id") \
        .reset_index(drop=True)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


def _incremental_dedup_oracle() -> str:
    from opensearch_jvector_ray.oracles import norm_text_expr
    fp = f"md5({norm_text_expr(CFG)})"
    return f"""
WITH snap AS (
  SELECT doc_id, text, lang FROM documents
  WHERE doc_id >= {INC_DEDUP_SPLIT}
  UNION ALL
  SELECT doc_id + 1000, text, lang FROM documents
  WHERE doc_id < {INC_DEDUP_PLANT}
),
prior AS (
  SELECT DISTINCT {fp} AS f FROM documents
  WHERE doc_id < {INC_DEDUP_SPLIT}
)
SELECT doc_id, lang FROM snap
WHERE {fp} NOT IN (SELECT f FROM prior)
ORDER BY doc_id
"""


SEARCH_PIPELINE_SPEC = {
    "request": [
        {"filter_query": {"filter": {"terms": {"lang": ["en", "fr"]}}}},
        {"oversample": {"factor": 2.0}},
    ],
    "response": [
        {"truncate_hits": {"size": 5}},
        {"rename_field": {"field": "doc_id", "target_field": "id"}},
    ],
}


def _q_search_pipeline(sf_dir: str) -> pd.DataFrame:
    # search pipeline (OpenSearch search-pipeline processors): request
    # side ANDs a filter + oversamples k, response side truncates and
    # renames — oracle = filtered BM25 top-5 with the renamed id column
    from opensearch_jvector_ray.search_pipeline import (
        compile_search_pipeline, run_search,
    )
    s = IndexSearcher(documents_index(sf_dir))
    out = run_search(s, BM25_QUERIES, BM25_K,
                     compile_search_pipeline(SEARCH_PIPELINE_SPEC))
    return _round_hits(out)


def _search_pipeline_oracle() -> str:
    inner = bm25_sql(BM25_QUERIES, 5, CFG,
                     filter_sql=filter_spec_sql(
                         {"terms": {"lang": ["en", "fr"]}}))
    return (f"SELECT query_id, rank, doc_id AS id, score "
            f"FROM ({inner}) ORDER BY query_id, rank")


TL_DOC_ID = 7            # terms-lookup source document


def _q_terms_lookup(sf_dir: str) -> pd.DataFrame:
    # terms-lookup query: the filter terms come from ANOTHER document's
    # field (one pushed-down read), then ride the ordinary pre-filter
    from opensearch_jvector_ray.query_dsl import compile_filter
    s = IndexSearcher(documents_index(sf_dir))
    langs = IndexSearcher.terms_lookup(
        os.path.join(sf_dir, "documents.parquet"),
        "doc_id", TL_DOC_ID, "lang")
    flt = compile_filter({"terms": {"lang": langs}})
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K, filter=flt))


def _terms_lookup_oracle() -> str:
    flt = (f"__f.lang IN (SELECT lang FROM documents "
           f"WHERE doc_id = {TL_DOC_ID} AND lang IS NOT NULL)")
    return bm25_sql(BM25_QUERIES, BM25_K, CFG, filter_sql=flt)


SCRIPT_FIELDS = {
    "chars_per_token": {"op": "div", "left": "n_chars",
                        "right": "doc_len"},
    "n_chars_x2": {"op": "mul", "left": "n_chars", "right": 2},
}


def _q_script_fields(sf_dir: str) -> pd.DataFrame:
    # script_fields: arithmetic over stored doc values computed AFTER
    # the pushed-down hit fetch (matched docs have doc_len >= 1, so the
    # division is total); int mul stays exact int64
    s = IndexSearcher(documents_index(sf_dir))
    hits = s.search(BM25_QUERIES, k=BM25_K)
    out = s.script_fields(hits, SCRIPT_FIELDS)
    out["score"] = np.round(out["score"].astype(np.float64), 6)
    out["n_chars_x2"] = out["n_chars_x2"].astype(np.int64)
    return out


def _script_fields_oracle() -> str:
    from opensearch_jvector_ray.oracles import toks_cte
    inner = bm25_sql(BM25_QUERIES, BM25_K, CFG)
    return f"""
WITH {toks_cte(CFG)},
dl AS (SELECT doc_id, count(*) AS doc_len FROM toks GROUP BY doc_id),
hits AS ({inner})
SELECT h.query_id, h.rank, h.doc_id, h.score,
       CAST(d.n_chars AS DOUBLE) / dl.doc_len AS chars_per_token,
       d.n_chars * 2 AS n_chars_x2
FROM hits h
JOIN documents d ON d.doc_id = h.doc_id
JOIN dl ON dl.doc_id = h.doc_id
ORDER BY h.query_id, h.rank
"""


def _q_approx_terms(sf_dir: str) -> pd.DataFrame:
    # approximate terms agg (Misra-Gries heavy hitters, the
    # high-cardinality scale path): rows-only — the summary depends on
    # partitioning; exactness of guaranteed buckets and the error
    # bound are pytest-gated (test_round15), facet_counts carries the
    # hard SQL gate
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.approx_terms_agg(TRANSCRIPT_QUERIES, field="tool",
                              min_score=FACET_MIN_SCORE, size=8,
                              capacity=256)


def _q_tdigest_percentiles(sf_dir: str) -> pd.DataFrame:
    # approximate percentiles (t-digest, the high-cardinality scale
    # path): rows-only — the sketch depends on partitioning; accuracy
    # vs the exact quantiles is pytest-gated (test_round15), the exact
    # percentiles_agg carries the hard SQL gate
    s = IndexSearcher(documents_index(sf_dir))
    return s.tdigest_percentiles_agg(BM25_QUERIES, "n_chars",
                                     [0.25, 0.5, 0.9, 0.99],
                                     min_score=0.0)


ALIAS_FILTER_SPEC = {"bool": {"must": [
    {"terms": {"source": ["src3", "src7", "src11", "src15"]}},
    {"range": {"n_chars": {"gte": 300}}},
]}}


def _q_alias_search(sf_dir: str) -> pd.DataFrame:
    # filtered alias: put_alias validates + persists the ONE structured
    # filter spec; search through the alias applies it as the ordinary
    # pre-filter (candidates restricted, global stats untouched)
    from opensearch_jvector_ray.aliases import put_alias, search_alias
    idx = documents_index(sf_dir)
    put_alias(idx, "filtered_view", ALIAS_FILTER_SPEC)
    return _round_hits(search_alias(idx, "filtered_view", BM25_QUERIES,
                                    k=BM25_K))


def _q_count_api(sf_dir: str) -> pd.DataFrame:
    # _count API: match-set sizes (score > 0) as one int64 partial per
    # (segment, query) — nothing match-set-sized ships
    s = IndexSearcher(documents_index(sf_dir))
    return s.count(BM25_QUERIES)


def _count_api_oracle() -> str:
    inner = bm25_sql(BM25_QUERIES, 0, CFG, min_score=0.0)
    qv = ", ".join(f"('{qid}')" for qid in sorted(BM25_QUERIES))
    return f"""
WITH m AS ({inner}), q(query_id) AS (VALUES {qv})
SELECT q.query_id, CAST(COALESCE(c.n, 0) AS BIGINT) AS doc_count
FROM q LEFT JOIN (SELECT query_id, count(*) AS n FROM m
                  GROUP BY query_id) c USING (query_id)
"""


def _q_bpe_train(sf_dir: str) -> pd.DataFrame:
    # full BPE training loop (Sennrich word-frequency-dict form): one
    # distributed pre-token count pass, then a vocab-sized driver merge
    # loop — iterative, not SQL-expressible (rows-only driver check;
    # the merge sequence is pinned by tests/test_round15.py against an
    # independent per-occurrence reference implementation)
    from opensearch_jvector_ray.pipelines.corpus import bpe_train
    ds = read_table(sf_dir, "documents", columns=["text"])
    return bpe_train(ds, num_merges=25, text_col="text")


def _q_bpe_encode(sf_dir: str) -> pd.DataFrame:
    # tokenizer-apply: encode the corpus with the merges bpe_train fit
    # on it (rank-greedy application; distinct-token-bounded work) —
    # rows-only: iterative like bpe_train; the reference-pinned pytest
    # covers the application rule
    from opensearch_jvector_ray.pipelines.corpus import (
        bpe_encode, bpe_train,
    )
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    merges = bpe_train(ds, num_merges=25, text_col="text")
    out = bpe_encode(ds, merges).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


INGEST_PIPELINE = [
    {"gsub": {"field": "text", "pattern": "[0-9]+",
              "replacement": "#"}},
    {"uppercase": {"field": "lang"}},
    {"rename": {"field": "source", "target_field": "origin"}},
    {"convert": {"field": "n_chars", "type": "double"}},
    {"set": {"field": "pipeline", "value": "v1"}},
]


def _q_ingest_simulate(sf_dir: str):
    # _ingest/pipeline/_simulate: the processor chain compiled into ONE
    # vectorized map_batches pass; returns the streaming Dataset
    from opensearch_jvector_ray.pipelines.ingest import simulate
    ds = read_table(sf_dir, "documents")
    return simulate(ds, INGEST_PIPELINE)


def _q_ingest_transform(sf_dir: str):
    # script (painless-arithmetic subset) + conditional drop ingest
    # processors: drop zh docs, derive n3 = n_chars*3 (int64) and
    # ratio = n3/n_chars (ONE division -> float64)
    from opensearch_jvector_ray.pipelines.ingest import simulate
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "lang", "n_chars"])
    return simulate(ds, [
        {"drop": {"field": "lang", "equals": "zh"}},
        {"script": {"op": "mul", "left": "n_chars", "right": 3,
                    "target_field": "n3"}},
        {"script": {"op": "div", "left": "n3", "right": "n_chars",
                    "target_field": "ratio"}},
    ])


def _ingest_transform_oracle() -> str:
    return ("SELECT doc_id, lang, n_chars, "
            "CAST(n_chars * 3 AS BIGINT) AS n3, "
            "CAST(n_chars * 3 AS DOUBLE) / n_chars AS ratio "
            "FROM documents "
            "WHERE NOT coalesce(lang = 'zh', false) ORDER BY doc_id")


def _q_ingest_json(sf_dir: str):
    # json_extract ingest processor (flat-object subset): ONE shared
    # RE2 pattern extracts props.k, then convert -> int64; oracle uses
    # the SAME pattern string via regexp_extract (named group = group 1)
    from opensearch_jvector_ray.pipelines.ingest import simulate
    ds = read_table(sf_dir, "events", columns=["event_id", "props"])
    out = simulate(ds, [
        {"json_extract": {"field": "props", "key": "k",
                          "target_field": "k_val"}},
        {"convert": {"field": "k_val", "type": "integer"}},
        {"remove": {"field": "props"}},
    ])
    return out


def _ingest_json_oracle() -> str:
    from opensearch_jvector_ray.oracles import sql_quote
    from opensearch_jvector_ray.pipelines.ingest import json_key_pattern
    pat = sql_quote(json_key_pattern("k"))
    return (f"SELECT event_id, CAST(NULLIF(trim(trim("
            f"regexp_extract(props, {pat}, 1)), '\"') , '') AS BIGINT)"
            f" AS k_val FROM events ORDER BY event_id")


def _q_children_agg(sf_dir: str) -> pd.DataFrame:
    # children aggregation: parents = top conversations per query;
    # terms counts over the child turns' tool field (missing = NULL or
    # '' excluded — the value_count rule), (count desc, value asc)
    from opensearch_jvector_ray.sources.tables import (
        conversations_index, transcripts_index,
    )
    sc = IndexSearcher(conversations_index(sf_dir))
    parents = sc.search(CONV_QUERIES, k=N_PARENTS)
    psets = {qid: sorted(set(g["conv_id"]))
             for qid, g in parents.groupby("query_id")}
    st = IndexSearcher(transcripts_index(sf_dir))
    return st.children_terms_agg(psets, field="tool", size=10)


# geo_distance over events with coordinates DERIVED from the integer id
# (exact on both sides: int ops, one /100.0, one subtraction); radius
# keeps the filter non-trivial at every scale
GEO_QUERIES = {"geo1": (12.5, 40.25), "geo2": (-33.0, 151.0)}
GEO_K = 10
GEO_RADIUS_KM = 3000.0
GEO_LAT_SQL = "CAST((event_id * 9973) % 18000 AS DOUBLE) / 100.0 - 90.0"
GEO_LON_SQL = "CAST((event_id * 7919) % 36000 AS DOUBLE) / 100.0 - 180.0"


def _q_geo_distance(sf_dir: str) -> pd.DataFrame:
    # geo_distance query + distance sort: haversine round-6 ranking
    # (the vector-entry fp rule), radius filter, (dist asc, id asc)
    from opensearch_jvector_ray.pipelines.geo import geo_distance_topk

    def coords(batch):
        import pyarrow as pa
        ev = batch["event_id"].to_numpy(zero_copy_only=False)
        lat = ((ev * 9973) % 18000).astype(np.float64) / 100.0 - 90.0
        lon = ((ev * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        return batch.append_column("lat", pa.array(lat)) \
                    .append_column("lon", pa.array(lon))

    ds = read_table(sf_dir, "events", columns=["event_id"]) \
        .map_batches(coords, batch_format="pyarrow")
    return geo_distance_topk(ds, GEO_QUERIES, GEO_K,
                             radius_km=GEO_RADIUS_KM)


# geo_bounding_box boxes over the same derived coordinates; geo4
# crosses the dateline (left > right) to pin the antimeridian OR-rule
GEO_BOXES = {"geo3": (60.0, -30.0, 20.0, 45.0),
             "geo4": (10.0, 160.0, -25.0, -150.0)}


def _q_geo_bbox(sf_dir: str) -> pd.DataFrame:
    # geo_bounding_box filter: inclusive edges, dateline-crossing OR
    # rule, (query_id, id asc) — exact comparisons on derived coords
    from opensearch_jvector_ray.pipelines.geo import geo_bounding_box

    def coords(batch):
        import pyarrow as pa
        ev = batch["event_id"].to_numpy(zero_copy_only=False)
        lat = ((ev * 9973) % 18000).astype(np.float64) / 100.0 - 90.0
        lon = ((ev * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        return batch.append_column("lat", pa.array(lat)) \
                    .append_column("lon", pa.array(lon))

    ds = read_table(sf_dir, "events", columns=["event_id"]) \
        .map_batches(coords, batch_format="pyarrow")
    return geo_bounding_box(ds, GEO_BOXES)


# geo_polygon vertices over the derived coordinates: a triangle and a
# non-convex quad (concavity exercises the parity rule, not just a
# bounding test)
GEO_POLYGONS = {
    "pg1": [(50.0, -20.0), (70.0, 10.0), (30.0, 30.0)],
    "pg2": [(-10.0, 100.0), (20.0, 120.0), (-5.0, 110.0),
            (25.0, 160.0), (-30.0, 150.0)],
}


def _q_geo_polygon(sf_dir: str) -> pd.DataFrame:
    # geo_polygon query: division-free crossing parity, bit-identical
    # arithmetic on both sides
    from opensearch_jvector_ray.pipelines.geo import geo_polygon

    def coords(batch):
        import pyarrow as pa
        ev = batch["event_id"].to_numpy(zero_copy_only=False)
        lat = ((ev * 9973) % 18000).astype(np.float64) / 100.0 - 90.0
        lon = ((ev * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        return batch.append_column("lat", pa.array(lat)) \
                    .append_column("lon", pa.array(lon))

    ds = read_table(sf_dir, "events", columns=["event_id"]) \
        .map_batches(coords, batch_format="pyarrow")
    return geo_polygon(ds, GEO_POLYGONS)


GEOTILE_ZOOM = 4
GEOTILE_SIZE = 60


def _q_geotile_grid(sf_dir: str) -> pd.DataFrame:
    # geotile_grid aggregation: slippy-tile bucketing with the pinned
    # deg->rad constant; combiner-first partials, one tiny groupby
    from opensearch_jvector_ray.pipelines.geo import geotile_grid

    def coords(batch):
        import pyarrow as pa
        ev = batch["event_id"].to_numpy(zero_copy_only=False)
        lat = ((ev * 9973) % 18000).astype(np.float64) / 100.0 - 90.0
        lon = ((ev * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        return batch.append_column("lat", pa.array(lat)) \
                    .append_column("lon", pa.array(lon))

    ds = read_table(sf_dir, "events", columns=["event_id"]) \
        .map_batches(coords, batch_format="pyarrow")
    return geotile_grid(ds, GEOTILE_ZOOM, size=GEOTILE_SIZE)


GEOHASH_PRECISION = 2
GEOHASH_SIZE = 60


def _q_geohash_grid(sf_dir: str) -> pd.DataFrame:
    # geohash_grid aggregation: integer bit-interleave bucketing
    from opensearch_jvector_ray.pipelines.geo import geohash_grid

    def coords(batch):
        import pyarrow as pa
        ev = batch["event_id"].to_numpy(zero_copy_only=False)
        lat = ((ev * 9973) % 18000).astype(np.float64) / 100.0 - 90.0
        lon = ((ev * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        return batch.append_column("lat", pa.array(lat)) \
                    .append_column("lon", pa.array(lon))

    ds = read_table(sf_dir, "events", columns=["event_id"]) \
        .map_batches(coords, batch_format="pyarrow")
    return geohash_grid(ds, GEOHASH_PRECISION, size=GEOHASH_SIZE)


def _q_geo_centroid(sf_dir: str) -> pd.DataFrame:
    # geo_centroid aggregation: scaled-int64 exact summation (order-
    # free), one division at the end — the derived coords are 2-decimal
    from opensearch_jvector_ray.pipelines.geo import geo_centroid

    def coords(batch):
        import pyarrow as pa
        ev = batch["event_id"].to_numpy(zero_copy_only=False)
        lat = ((ev * 9973) % 18000).astype(np.float64) / 100.0 - 90.0
        lon = ((ev * 7919) % 36000).astype(np.float64) / 100.0 - 180.0
        return batch.append_column("lat", pa.array(lat)) \
                    .append_column("lon", pa.array(lon))

    ds = read_table(sf_dir, "events", columns=["event_id"]) \
        .map_batches(coords, batch_format="pyarrow")
    out = geo_centroid(ds, decimals=2)
    out["count"] = out["count"].astype(np.int64)
    return out


def _q_sparse_vector(sf_dir: str) -> pd.DataFrame:
    # neural-sparse-style query: sum(weight * tf) over (token, weight)
    # pairs — the linear_tf kernel over the ordinary segment fan-out
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.sparse_vector_search(SPARSE_QUERIES, k=BM25_K))


def _q_mget(sf_dir: str) -> pd.DataFrame:
    # _mget API: stored fields of requested keys in requested order via
    # the J4 pushed-down sidecar read; doc_len is the engine's
    # post-stopword token count (the oracle recomputes it from toks)
    s = IndexSearcher(documents_index(sf_dir))
    out = s.mget(MGET_KEYS)
    out = out[["doc_id", "found", "lang", "source", "n_chars",
               "doc_len"]].copy()
    for c in ("lang", "source"):
        out[c] = out[c].fillna("")
    for c in ("n_chars", "doc_len"):
        out[c] = out[c].astype(np.float64).fillna(-1.0)
    return out


def _q_field_stats(sf_dir: str) -> pd.DataFrame:
    # _field_stats API: per stored field type/count/min/max from
    # per-segment sidecar partials (numeric combine, string render)
    s = IndexSearcher(documents_index(sf_dir))
    return s.field_stats(FIELD_STATS_FIELDS)


def _q_reindex_search(sf_dir: str) -> pd.DataFrame:
    # _reindex lifecycle: the radial match set of the source index is
    # re-analyzed into a NEW index under the minimal-english stemmer
    # config (the mapping/analyzer-change migration _reindex exists
    # for); ranking on the new index is rank-identical to a fresh
    # stemmed build over the filtered corpus (the oracle's sel CTE +
    # stemmed toks rule)
    import shutil
    import tempfile

    from opensearch_jvector_ray.sources.tables import DOCUMENTS_STEM_CFG
    from opensearch_jvector_ray.stages.merge import reindex
    src = documents_index(sf_dir)
    dst = tempfile.mkdtemp(prefix="ojr_reindex_")
    reindex(src, dst, os.path.join(sf_dir, "documents.parquet"),
            dst_cfg=DOCUMENTS_STEM_CFG, queries=REINDEX_SEL,
            min_score=REINDEX_MIN_SCORE)
    out = _round_hits(IndexSearcher(dst).search(REINDEX_QUERIES,
                                                k=BM25_K))
    shutil.rmtree(dst, ignore_errors=True)
    return out


def _q_pit_search(sf_dir: str) -> pd.DataFrame:
    # point-in-time search (_pit API): snapshot segments+stats+dictionary
    # generation, then APPEND doctored docs stuffed with the query
    # vocabulary (which would crack every ranking); the PIT search still
    # returns rankings identical to the pre-append corpus — the oracle is
    # plain BM25 over the ORIGINAL documents table.  Dictionary refreshes
    # publish new generations instead of rewriting files, so the pinned
    # generation stays readable (Lucene commit-point liveness).
    import shutil
    import tempfile

    from opensearch_jvector_ray.stages.build import add_segments
    src = documents_index(sf_dir)
    dst = tempfile.mkdtemp(prefix="ojr_pit_")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    s = IndexSearcher(dst)
    pit = s.open_pit()
    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text", "lang", "source",
                                 "n_chars"]).slice(0, 64)
    import pyarrow as pa
    stuffed = pc.binary_join_element_wise(
        tbl["text"].combine_chunks() if isinstance(tbl["text"], pa.ChunkedArray)
        else tbl["text"],
        pa.array(["fast merge sort window batch data"] * tbl.num_rows,
                 type=pa.string()), " ")
    tbl = tbl.set_column(tbl.column_names.index("text"), "text", stuffed)
    tbl = tbl.set_column(tbl.column_names.index("doc_id"), "doc_id",
                         pc.add(tbl["doc_id"], 10_000_000))
    add_segments(dst, rd.from_arrow(tbl))
    out = _round_hits(IndexSearcher(dst, pit=pit).search(PIT_QUERIES,
                                                         k=BM25_K))
    shutil.rmtree(dst, ignore_errors=True)
    return out


def _q_bm25_value_count(sf_dir: str) -> pd.DataFrame:
    # value_count agg: match-set turns WITH a tool call (field present
    # = not NULL and not '' — the missing-agg rule's complement)
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.value_count_agg(TRANSCRIPT_QUERIES, field="tool",
                             min_score=FACET_MIN_SCORE)


def _q_bm25_global_stats(sf_dir: str) -> pd.DataFrame:
    # global agg + stats sub-agg: integer stats over ALL docs ignoring
    # any query (one docs-sidecar partial row per segment)
    s = IndexSearcher(documents_index(sf_dir))
    return s.global_stats_agg(STATS_COL)


def _q_bm25_sampler(sf_dir: str) -> pd.DataFrame:
    # sampler agg: terms counts over the best shard_size radial hits by
    # (raw score desc, key asc); per-segment head partials re-merged
    s = IndexSearcher(documents_index(sf_dir))
    return s.sampler_agg(BM25_QUERIES, field=SAMPLER_FIELD,
                         shard_size=SAMPLER_SHARD_SIZE,
                         min_score=FACET_MIN_SCORE)


def _q_bm25_div_sampler(sf_dir: str) -> pd.DataFrame:
    # diversified_sampler agg: global score-order walk keeping at most
    # max_docs_per_value per lang, first shard_size kept, then source
    # counts — per-segment per-value head partials bound the shipped rows
    s = IndexSearcher(documents_index(sf_dir))
    return s.diversified_sampler_agg(
        BM25_QUERIES, field=SAMPLER_FIELD, div_field=FACET_COL,
        max_docs_per_value=DIV_SAMPLER_MAX_PER_VALUE,
        shard_size=DIV_SAMPLER_SHARD_SIZE, min_score=FACET_MIN_SCORE)


def _q_bm25_auto_date_histogram(sf_dir: str) -> pd.DataFrame:
    # auto_date_histogram: smallest (hour, day, month) interval with
    # <= target present buckets per query — the choice flips from hour
    # to day as the corpus timespan grows with sf, so the gate checks
    # the chooser at every scale
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    return s.auto_date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                     target_buckets=AUTO_DH_TARGET,
                                     min_score=FACET_MIN_SCORE)


def _q_bm25_adjacency_matrix(sf_dir: str) -> pd.DataFrame:
    # adjacency_matrix agg: named-filter counts + pairwise
    # intersections (key "a&b"), empty buckets omitted
    s = IndexSearcher(documents_index(sf_dir))
    out = s.adjacency_matrix_agg(BM25_QUERIES, FILTERS_AGG,
                                 min_score=FACET_MIN_SCORE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_string_stats(sf_dir: str) -> pd.DataFrame:
    # string_stats agg (SQL-safe columns): count/min/max/sum of unicode
    # lengths + the single avg division; the libm entropy column is
    # pytest-gated and dropped here
    s = IndexSearcher(documents_index(sf_dir))
    out = s.string_stats_agg(BM25_QUERIES, field=STRING_STATS_FIELD,
                             min_score=FACET_MIN_SCORE)
    for c in ("doc_count", "len_min", "len_max", "len_sum"):
        out[c] = out[c].astype(np.int64)
    return out.drop(columns=["entropy"])


def _q_bm25_matrix_stats(sf_dir: str) -> pd.DataFrame:
    # matrix_stats agg: integer moment partials + the pinned float
    # chain (means, population variances, covariance, correlation)
    s = IndexSearcher(documents_index(sf_dir))
    out = s.matrix_stats_agg(BM25_QUERIES, x_col=MATRIX_X,
                             y_col=MATRIX_Y, min_score=FACET_MIN_SCORE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_date_range(sf_dir: str) -> pd.DataFrame:
    # date_range agg over the ts-bearing transcripts index: zero-filled
    # query x range grid on exact TIMESTAMP bounds
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    out = s.date_range_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                           ranges=DATE_RANGES,
                           min_score=FACET_MIN_SCORE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bucket_metric(metric: str):
    # ONE factory for all five sibling bucket metrics; each metric is
    # its own hard gate (CLAUDE.md: every SQL-expressible operator)
    def fn(sf_dir: str) -> pd.DataFrame:
        from opensearch_jvector_ray.sources.tables import transcripts_index
        s = IndexSearcher(transcripts_index(sf_dir))
        return s.bucket_metric_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                                   calendar_interval=DATE_HIST_INTERVAL,
                                   metric=metric,
                                   min_score=FACET_MIN_SCORE)
    return fn


def _q_bm25_bucket_script(sf_dir: str) -> pd.DataFrame:
    # bucket_script pipeline agg (percent-of-total): each bucket's
    # doc_count / the query total — two exact ints, ONE division
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    out = s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                               calendar_interval=DATE_HIST_INTERVAL,
                               min_score=FACET_MIN_SCORE,
                               pipeline="bucket_script")
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_top_hits(sf_dir: str) -> pd.DataFrame:
    # top_hits aggregation: per (query, lang bucket) best-n hit rows by
    # the global (raw score desc, key asc) rule — collapse generalized
    # from 1 to n per bucket; each segment ships <= n x buckets rows
    s = IndexSearcher(documents_index(sf_dir))
    out = s.top_hits_agg(BM25_QUERIES, group_col=FACET_COL, n=TOP_HITS_N,
                         min_score=FACET_MIN_SCORE)
    out["bucket_rank"] = out["bucket_rank"].astype(np.int64)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out


def _q_bm25_date_histogram(sf_dir: str) -> pd.DataFrame:
    # calendar date_histogram over the ts-bearing transcripts index:
    # per-hour bucket starts via exact integer datetime64 truncation
    from opensearch_jvector_ray.sources.tables import transcripts_index
    s = IndexSearcher(transcripts_index(sf_dir))
    out = s.date_histogram_agg(TRANSCRIPT_QUERIES, ts_col="ts",
                               calendar_interval=DATE_HIST_INTERVAL,
                               min_score=FACET_MIN_SCORE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_boosted(sf_dir: str) -> pd.DataFrame:
    # query-string boosts (term^2.5): parsed weights ride the standard
    # weighted-term BM25 path
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.boosted_search(BOOSTED_QUERIES, k=BM25_K))


def _q_bm25_synonyms(sf_dir: str) -> pd.DataFrame:
    # Lucene SynonymQuery semantics: group tf = sum of member tfs,
    # df = max of member dfs — saturation, not disjunction stacking
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.synonym_search(SYN_QUERIES, SYNONYMS, k=BM25_K))


def _q_bm25_span_first(sf_dir: str) -> pd.DataFrame:
    # span_first: occurrences count only inside the doc's first
    # SPAN_FIRST_END pre-stopword tokens (Lucene SpanFirstQuery shape)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.search(SPAN_FIRST_QUERIES, k=BM25_K,
                                mode="span_first",
                                span_end=SPAN_FIRST_END))


def _q_bm25_match_bool_prefix(sf_dir: str) -> pd.DataFrame:
    # match_bool_prefix: last chunk matches as a prefix, earlier chunks
    # as regular terms (the shared mbp_rewrite drives BOTH sides)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.match_bool_prefix(MBP_QUERIES, k=BM25_K))


def _q_bm25_dis_max(sf_dir: str) -> pd.DataFrame:
    # generic DisjunctionMaxQuery: per-doc best subquery score +
    # tie * rest, combined inside each segment task (doc-local formula)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.dis_max(DIS_MAX_QUERIES, k=BM25_K,
                                 tie_breaker=DIS_MAX_TIE))


def _q_bm25_prefix(sf_dir: str) -> pd.DataFrame:
    # trailing-wildcard multi-term queries: dictionary-expanded prefix
    # clauses (df DESC, term ASC cap) + literal terms, weights additive
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.prefix_search(PREFIX_QUERIES, k=BM25_K))


def _q_bm25_fuzzy(sf_dir: str) -> pd.DataFrame:
    # fuzzy match queries: each analyzed term expands to its levenshtein<=1
    # vocabulary neighborhood (dist ASC, df DESC, term ASC cap)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.fuzzy_search(FUZZY_QUERIES, k=BM25_K,
                                      max_edits=FUZZY_MAX_EDITS))


# simple_query_string flag subset: +MUST, -MUST_NOT, "phrase", prefix*
SQS_QUERIES = {
    "s1": '+data -filter "sort merge"',
    "s2": 'quer* +join "table scan"',
    "s3": '+"merge part" stream',
    "s4": 'window batch -"slow join"',
}


def _q_bm25_simple_query_string(sf_dir: str) -> pd.DataFrame:
    # simple_query_string: per-clause dense scores combined in the
    # segment task (sum over positives in clause order; must/must_not
    # masks); the oracle composes per-clause radial CTEs from the SAME
    # parse (analyze.parse_simple_query_string)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.simple_query_string(SQS_QUERIES, k=BM25_K))


def _q_bm25_fuzzy_dl(sf_dir: str) -> pd.DataFrame:
    # fuzzy with transpositions=true (the OpenSearch match default):
    # TRUE Damerau-Levenshtein <= 1 expansion — adjacent-swap typos
    # reach their targets at distance 1 (plain levenshtein reads 2)
    s = IndexSearcher(documents_index(sf_dir))
    return _round_hits(s.fuzzy_search(FUZZY_DL_QUERIES, k=BM25_K,
                                      max_edits=FUZZY_MAX_EDITS,
                                      transpositions=True))


FACET_INCLUDE = r"src1[0-9]"       # srcs 10-19
FACET_EXCLUDE = r"src1[35]"        # minus src13/src15
FACET_DC_DIV = 25                  # min_doc_count = n_docs // 25 — the
                                   # rare_terms corpus-relative rule, so
                                   # the threshold trims at EVERY scale


def _q_bm25_facets_filtered(sf_dir: str) -> pd.DataFrame:
    # terms agg with include/exclude RE2 bucket filters (anchored, the
    # same pattern string both sides) + the GLOBAL min_doc_count rule
    s = IndexSearcher(documents_index(sf_dir))
    out = s.facet_counts(BM25_QUERIES, facet_col="source",
                         min_score=FACET_MIN_SCORE,
                         include=FACET_INCLUDE, exclude=FACET_EXCLUDE,
                         min_doc_count=max(
                             2, int(s.stats["n_docs_indexed"])
                             // FACET_DC_DIV))
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_facets(sf_dir: str) -> pd.DataFrame:
    # terms aggregation over the radial match set: per-segment
    # facet-count partials -> driver sum (combiner-first; the hit set
    # never leaves the tasks)
    s = IndexSearcher(documents_index(sf_dir))
    out = s.facet_counts(BM25_QUERIES, facet_col=FACET_COL,
                         min_score=FACET_MIN_SCORE)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _q_bm25_search_after(sf_dir: str) -> pd.DataFrame:
    # deep pagination: page 2 via a search_after boundary pushed into
    # every segment task (page 1 rows are never re-shipped); must equal
    # global ranks k+1..2k of the full ranking, re-ranked 1..k
    s = IndexSearcher(documents_index(sf_dir))
    p1 = s.search(BM25_QUERIES, k=BM25_K)    # RAW scores feed the boundary
    boundary = {}
    for qid, g in p1.groupby("query_id"):
        last = g.loc[g["rank"].idxmax()]
        boundary[qid] = (float(last["score"]), int(last["doc_id"]))
    return _round_hits(s.search(BM25_QUERIES, k=BM25_K,
                                search_after=boundary))


def _q_grouped_best(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(documents_index(sf_dir))
    # min_score=0.0 returns EVERY matching doc (scores are strictly
    # positive), so the per-group winner can never fall beyond a k cap —
    # rank-identical to the oracle's unbounded ranking
    hits = s.search({"q": GROUP_QUERY}, min_score=0.0)
    src = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "source"]).to_pandas()
    m = hits.merge(src, on="doc_id")
    best = (m.sort_values("rank").groupby("source", sort=True).head(1))
    best = best.sort_values("source").reset_index(drop=True)
    best["score"] = np.round(best["score"].astype(np.float64), 6)
    return best[["source", "doc_id", "score"]]


def _q_grouped_expand(sf_dir: str) -> pd.DataFrame:
    """Expand-nested (ExpandNestedDocsQuery analog, J3's other half):
    collapse finds the winning parents; expand re-attaches ALL their
    matching children with scores.  One uncapped search serves both
    phases; the group filter is a driver-side mask over the (small)
    hit->group map."""
    s = IndexSearcher(documents_index(sf_dir))
    hits = s.search({"q": GROUP_QUERY}, min_score=0.0)
    src = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "source"]).to_pandas()
    m = hits.merge(src, on="doc_id")
    best = (m.groupby("source", sort=False)["rank"].min()
             .reset_index().sort_values(["rank", "source"]))
    winners = set(best.head(EXPAND_GROUPS)["source"])
    out = m[m["source"].isin(winners)].sort_values("rank")
    out = out.assign(group_rank=(out.groupby("source", sort=False)
                                    .cumcount() + 1),
                     score=np.round(out["score"].astype(np.float64), 6))
    out = out.sort_values(["source", "group_rank"]).reset_index(drop=True)
    out["group_rank"] = out["group_rank"].astype(np.int64)
    return out[["source", "doc_id", "score", "group_rank"]]


def _q_term_stats(sf_dir: str) -> pd.DataFrame:
    idx = documents_index(sf_dir)
    from opensearch_jvector_ray.state.manifest import (
        dict_read_paths, resolve_dict_dir)
    tbl = pq.read_table(dict_read_paths(resolve_dict_dir(idx)),
                        filters=[("term", "in", TERM_STATS_TERMS)])
    df = tbl.to_pandas().sort_values("term").reset_index(drop=True)
    df["df"] = df["df"].astype(np.int64)
    df["cf"] = df["cf"].astype(np.int64)
    return df[["term", "df", "cf"]]


def _q_collection_stats(sf_dir: str) -> pd.DataFrame:
    from opensearch_jvector_ray.state.manifest import read_json
    idx = documents_index(sf_dir)
    st = read_json(os.path.join(idx, "stats.json"))
    from opensearch_jvector_ray.state.manifest import (
        dict_read_paths, resolve_dict_dir)
    n_terms = pq.read_table(dict_read_paths(resolve_dict_dir(idx)),
                            columns=["term"]).num_rows
    return pd.DataFrame([{
        "n_docs": np.int64(st["n_docs"]),
        "n_docs_indexed": np.int64(st["n_docs_indexed"]),
        "total_tokens": np.int64(st["sum_doc_len"]),
        "avgdl": round(float(st["avgdl"]), 6),
        "n_terms": np.int64(n_terms),
    }])


def _q_token_count(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(ts_pl.token_count_stage(CFG, "doc_id", "text"),
                          batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_token_count_bpe(sf_dir: str) -> pd.DataFrame:
    # whitespace + BPE-ish regex token counts (the LLM token-budget proxy)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(ts_pl.bpe_count_stage("doc_id", "text"),
                          batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


BPE_MERGE_TOPK = 30


def _q_bpe_merges(sf_dir: str) -> pd.DataFrame:
    # BPE tokenizer-training step: corpus-wide adjacent char-pair
    # counts inside pre-tokens, top-k merge candidates
    from opensearch_jvector_ray.pipelines.corpus import (
        bpe_merge_candidates,
    )
    ds = read_table(sf_dir, "documents", columns=["text"])
    return bpe_merge_candidates(ds, "text", top_k=BPE_MERGE_TOPK)


def _q_fingerprint(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(ts_pl.fingerprint_stage(CFG, "doc_id", "text"),
                          batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_exact_dedup(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_pl.exact_dedup(ds, CFG, "doc_id", "text").to_pandas()
    out["canonical_id"] = out["canonical_id"].astype(np.int64)
    out["n_dups"] = out["n_dups"].astype(np.int64)
    return out.sort_values("text_hash").reset_index(drop=True)


def _q_quality(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(ts_pl.quality_stage(CFG, "doc_id", "text"),
                          batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_repetition(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(ts_pl.repetition_stage(CFG, "doc_id", "text"),
                          batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_corpus_clean(sf_dir: str) -> pd.DataFrame:
    # composite LLM-data chain: quality -> language -> exact-dedup
    # canonical, ONE fused text pass + one narrow hash groupby
    from opensearch_jvector_ray.pipelines.corpus import clean_corpus
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = clean_corpus(ds, CFG, "doc_id", "text",
                       min_tokens=5, stop_threshold=0.1).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["n_tokens"] = out["n_tokens"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


SAMPLE_RATE, SAMPLE_SALT = 0.25, "s1"
SPLITS = {"train": 0.8, "val": 0.1, "test": 0.1}
# mixture weights: one full-keep source, graded downsampling, and a
# default rate exercised by every unlisted source
MIX_RATES = {"src0": 1.0, "src1": 0.75, "src2": 0.5, "src3": 0.25,
             "src4": 0.1}
MIX_DEFAULT, MIX_SALT = 0.05, "mix1"
PACK_BUDGET = 512
N_PLANT_MH, MH_PLANT_OFFSET = 10, 1000000


def _q_corpus_sample(sf_dir: str) -> pd.DataFrame:
    # deterministic Bernoulli sample by md5(salt || id) — the
    # reproducible dataset-mixing primitive; membership depends only on
    # (id, salt), so the sample is stable across reruns and shards
    from opensearch_jvector_ray.pipelines.corpus import hash_sample
    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    out = hash_sample(ds, "doc_id", SAMPLE_RATE,
                      salt=SAMPLE_SALT).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_corpus_mix(sf_dir: str) -> pd.DataFrame:
    # dataset mixing: per-source deterministic Bernoulli sampling to a
    # target mixture (the Pile/CCNet mixture-weights step)
    from opensearch_jvector_ray.pipelines.corpus import mix_sources
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    out = mix_sources(ds, "doc_id", "source", MIX_RATES, salt=MIX_SALT,
                      default_rate=MIX_DEFAULT).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_corpus_split(sf_dir: str) -> pd.DataFrame:
    # deterministic train/val/test assignment by md5 hash range — no RNG
    # state, no leakage across reruns or cluster sizes
    from opensearch_jvector_ray.pipelines.corpus import hash_split
    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    out = hash_split(ds, "doc_id", SPLITS, salt=SAMPLE_SALT).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


CHUNK_TOKENS, CHUNK_OVERLAP = 32, 8
KEYWORD_K = 3


def _q_corpus_chunk(sf_dir: str) -> pd.DataFrame:
    # overlapping document chunking (RAG / context-window prep): pure
    # per-batch flat-map, text never shuffles; chunk text byte-identical
    # to the oracle's space-joined token slice
    from opensearch_jvector_ray.pipelines.corpus import chunk_documents
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = chunk_documents(ds, "doc_id", "text",
                          chunk_tokens=CHUNK_TOKENS,
                          overlap=CHUNK_OVERLAP).to_pandas()
    for c in ("doc_id", "chunk_idx", "n_tokens"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


def _q_keyword_extract(sf_dir: str) -> pd.DataFrame:
    # per-doc tf*idf keyword tagging (the MLT term-selection rule
    # corpus-wide); idf broadcast once from the index dictionary
    from opensearch_jvector_ray.pipelines.textstats import extract_keywords
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = extract_keywords(ds, documents_index(sf_dir), CFG,
                           "doc_id", "text", k=KEYWORD_K).to_pandas()
    for c in ("doc_id", "kw_rank"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values(["doc_id", "kw_rank"]).reset_index(drop=True)


def _q_corpus_pack(sf_dir: str) -> pd.DataFrame:
    # concat-and-chunk sequence packing at a token budget — the
    # distributed prefix-scan primitive (per-block sums -> bounded
    # driver prefix -> per-block global offsets)
    from opensearch_jvector_ray.pipelines.corpus import pack_chunks
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = pack_chunks(ds, CFG, "doc_id", "text",
                      budget=PACK_BUDGET).to_pandas()
    for c in ("doc_id", "n_tokens", "pack_id", "pack_offset"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


N_PLANT_PII = 40
DECON_MODULUS, DECON_RESIDUE = 101, 7


def _q_pii_scrub(sf_dir: str) -> pd.DataFrame:
    # PII redaction (emails / IPv4 / phones -> typed placeholders), one
    # vectorized RE2 pass per pattern; the first N_PLANT_PII docs get
    # deterministic PII appended (mirrored in pii_aug_expr — the natural
    # corpus has none, so without planting the gate would check an
    # all-zero frame)
    import pyarrow as pa

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        suff = pc.binary_join_element_wise(
            " contact user", pc.cast(ids, pa.string()),
            "@example.com node 10.20.30.40 call +1 415 555 ",
            pc.cast(pc.add(ids, 1000), pa.string()), "")
        aug = pc.if_else(pc.less(ids, N_PLANT_PII),
                         pc.binary_join_element_wise(txt, suff, ""), txt)
        return batch.set_column(batch.column_names.index("text"),
                                "text", aug)

    out = (ds.map_batches(plant, batch_format="pyarrow")
             .map_batches(ts_pl.pii_scrub_stage("doc_id", "text"),
                          batch_format="pyarrow")
             .to_pandas())
    for c in ("doc_id", "n_email", "n_ip", "n_phone"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_pii_filter(sf_dir: str) -> pd.DataFrame:
    # strict-curation sibling: survivors of max_pii=0 over the SAME
    # planted augmentation (the first N_PLANT_PII docs carry planted
    # PII and must be dropped; the natural corpus survives) — the
    # filter counts under the same sequential rule as the scrubber
    import pyarrow as pa

    from opensearch_jvector_ray.pipelines.textstats import pii_filter

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch: "pa.Table") -> "pa.Table":
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        suff = pc.binary_join_element_wise(
            " contact user", pc.cast(ids, pa.string()),
            "@example.com node 10.20.30.40 call +1 415 555 ",
            pc.cast(pc.add(ids, 1000), pa.string()), "")
        aug = pc.if_else(pc.less(ids, N_PLANT_PII),
                         pc.binary_join_element_wise(txt, suff, ""), txt)
        return batch.set_column(batch.column_names.index("text"),
                                "text", aug)

    out = (pii_filter(ds.map_batches(plant, batch_format="pyarrow"),
                      text_col="text", max_pii=0)
           .select_columns(["doc_id"]).to_pandas())
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_corpus_decontaminate(sf_dir: str) -> pd.DataFrame:
    # benchmark decontamination: docs sharing any word 3-gram with the
    # held-out set (doc_id % 101 == 7) are flagged; broadcast benchmark
    # shingle-hash set + zero-shuffle corpus scan
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_pl.decontaminate(ds, CFG, "doc_id", "text",
                                 modulus=DECON_MODULUS,
                                 residue=DECON_RESIDUE).to_pandas()
    for c in ("doc_id", "n_shingles", "n_hits", "is_benchmark",
              "contaminated"):
        out[c] = out[c].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_minhash_exact(sf_dir: str) -> pd.DataFrame:
    # DEGENERATE-EXACT minhash dedup (threshold=1.0): identical texts
    # have identical minhash signatures in EVERY band (candidate found
    # with probability 1) and the exact shingle-Jaccard verify keeps
    # only identical shingle SETS — so the full LSH machinery (sign ->
    # band -> bucket -> candidate -> attach -> verify -> union-find)
    # runs under a hard SQL oracle.  Planted copies of the N_PLANT_MH
    # lowest doc_ids guarantee >0 rows at every scale (the natural
    # corpus has no shingle-set dups below sf0.1 — verified).
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch):
        import pyarrow as pa
        import pyarrow.compute as pc
        keep = batch.filter(pc.field("doc_id") < N_PLANT_MH)
        if keep.num_rows == 0:
            return batch
        copies = keep.set_column(
            keep.column_names.index("doc_id"), "doc_id",
            pc.add(keep["doc_id"], MH_PLANT_OFFSET))
        return pa.concat_tables([batch, copies])

    aug = ds.map_batches(plant, batch_format="pyarrow")
    out = dedup_pl.minhash_lsh_dedup(aug, CFG, "doc_id", "text",
                                     threshold=1.0)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["cluster_id"] = out["cluster_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_ngram_exact(sf_dir: str) -> pd.DataFrame:
    # DEGENERATE-EXACT char-n-gram Jaccard pairs (threshold=1.0): only
    # identical char-5-gram SETS qualify.  Planted copies of the
    # N_PLANT_MH lowest doc_ids are word-shingle-identical too, so the
    # word-LSH blocker finds them in every band; the corpus's natural
    # identical-ngram-set pairs (one trailing repeated token apart,
    # word-shingle jaccard ~0.97) collide deterministically for the
    # fixed signer seed — engine == oracle verified at all three check
    # scales.  See oracles.ngram_exact_sql for the soundness argument.
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(batch):
        import pyarrow as pa
        keep = batch.filter(pc.field("doc_id") < N_PLANT_MH)
        if keep.num_rows == 0:
            return batch
        copies = keep.set_column(
            keep.column_names.index("doc_id"), "doc_id",
            pc.add(keep["doc_id"], MH_PLANT_OFFSET))
        return pa.concat_tables([batch, copies])

    aug = ds.map_batches(plant, batch_format="pyarrow")
    out = dedup_pl.ngram_jaccard_pairs(aug, CFG, "doc_id", "text",
                                       threshold=1.0)
    out["id_a"] = out["id_a"].astype(np.int64)
    out["id_b"] = out["id_b"].astype(np.int64)
    out["jaccard"] = out["jaccard"].astype(np.float64)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _q_lang_id(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(ts_pl.lang_id_stage(CFG, "doc_id", "text"),
                          batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_knn(metric: str, columns=("vec_id", "embedding"), **kw):
    def fn(sf_dir: str) -> pd.DataFrame:
        ds = read_table(sf_dir, "embeddings", columns=list(columns))
        queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
        out = knn_pl.brute_force_topk(ds, queries, KNN_K, metric=metric,
                                      round_decimals=6, **kw)
        return _round_hits(out)
    return fn


def _q_knn_filtered(sf_dir: str) -> pd.DataFrame:
    return _q_knn("cosine", columns=("vec_id", "embedding", "label"),
                  filter_expr=pc.field("label") == KNN_FILTER_LABEL)(sf_dir)


def _q_knn_radial(sf_dir: str) -> pd.DataFrame:
    return _q_knn("cosine", min_score=KNN_RADIAL_MIN_SCORE)(sf_dir)


def _q_knn_radial_dist(sf_dir: str) -> pd.DataFrame:
    # the reference's OTHER radial form (max_distance), translated
    # per-space into min_score (KNNEngine.distanceToRadialThreshold)
    return _q_knn("cosine", max_distance=KNN_RADIAL_MAX_DIST)(sf_dir)


def _q_knn_byte(sf_dir: str) -> pd.DataFrame:
    # byte (int8) vector data type (VectorDataType.java:31-84): the float
    # fixture is quantized with floor(x*64) clamped to [-128, 127] —
    # floor semantics are identical in numpy and DuckDB, so the byte
    # path gets a HARD SQL oracle
    import pyarrow as pa
    from opensearch_jvector_ray.pipelines.knn import _vecs_from_batch
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def quant(b):
        v = _vecs_from_batch(b, "embedding")
        qv = np.clip(np.floor(v * float(BYTE_SCALE)), -128, 127)
        n, d = qv.shape
        offs = pa.array(np.arange(0, (n + 1) * d, max(d, 1),
                                  dtype=np.int32)[: n + 1])
        lst = pa.ListArray.from_arrays(offs, pa.array(qv.ravel()))
        return b.set_column(b.column_names.index("embedding"),
                            "embedding", lst)

    qds = ds.map_batches(quant, batch_format="pyarrow")
    queries = {q: np.clip(np.floor(v.astype(np.float64) * BYTE_SCALE),
                          -128, 127)
               for q, v in query_embeddings(sf_dir, KNN_QUERY_IDS).items()}
    out = knn_pl.byte_topk(qds, queries, KNN_K, metric="l2",
                           round_decimals=6)
    return _round_hits(out)


def _q_knn_ivf_partitioned(sf_dir: str) -> pd.DataFrame:
    import os
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"ivffix_{key}_c{len(IVF_CENTROID_IDS)}")
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = knn_pl.fixed_centroids(ds, IVF_CENTROID_IDS)
    if not os.path.exists(os.path.join(idx, "_centroids.npy")):
        knn_pl.build_ivf_index(ds, idx, centroids=cent)
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = knn_pl.ivf_index_topk(idx, queries, KNN_K, n_probe=IVF_N_PROBE,
                                round_decimals=6)
    return _round_hits(out)


def _q_knn_ivf_filtered(sf_dir: str) -> pd.DataFrame:
    # FILTERED IVF search (J2 for the IVF engine): pre-filter allow-list
    # applied before scoring, at FULL probe (every cell read) — so the
    # result is exactly filtered brute force => hard SQL oracle.
    import os
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"ivffix_{key}_c{len(IVF_CENTROID_IDS)}")
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = knn_pl.fixed_centroids(ds, IVF_CENTROID_IDS)
    if not os.path.exists(os.path.join(idx, "_centroids.npy")):
        knn_pl.build_ivf_index(ds, idx, centroids=cent)
    allowed = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id"],
        filters=[("label", "=", KNN_FILTER_LABEL)],
    )["vec_id"].to_numpy(zero_copy_only=False)
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = knn_pl.ivf_index_topk(idx, queries, KNN_K,
                                n_probe=len(IVF_CENTROID_IDS),
                                round_decimals=6, filter_ids=allowed)
    return _round_hits(out)


def _q_knn_pq_rerank(sf_dir: str) -> pd.DataFrame:
    # PQ lifecycle entry: train-once codebook (cached index), ADC first
    # pass + exact rerank — at the DEGENERATE-EXACT driver setting:
    # oversample covers the whole table, so the ADC pass prunes nothing
    # and the exact rerank equals brute force, giving the full PQ
    # machinery (codes, LUT, rerank, merge) a HARD SQL oracle.  The
    # approximate setting (oversample=8) stays gated by the pytest
    # recall tests and timed by bench.py.
    import os
    from opensearch_jvector_ray.pipelines import pq as pq_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"pqidx_{key}_m8c16")
    if not os.path.exists(os.path.join(idx, pq_pl.CODEBOOK_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        pq_pl.build_pq_index(ds, idx, m_subspaces=8, n_codes=16)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = pq_pl.pq_rerank_topk(idx, queries, KNN_K,
                               oversample=max(1.0, n_rows / KNN_K),
                               round_decimals=6)
    return _round_hits(out)


def _q_knn_ivfpq(sf_dir: str) -> pd.DataFrame:
    # combined IVF-PQ scale path (cell routing prunes the READ, codes
    # prune the BYTES, exact rerank fixes the scores) at the degenerate-
    # exact setting: every cell probed AND oversample covering the whole
    # table => equals brute force — a hard SQL oracle over coarse train +
    # assign + encode + ADC pass + candidate merge + exact rerank.
    import os
    from opensearch_jvector_ray.pipelines import pq as pq_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    n_cent = 8
    idx = os.path.join(CACHE_ROOT, f"ivfpq_{key}_c{n_cent}_m8k16")
    if not os.path.exists(os.path.join(idx, pq_pl.IVFPQ_CENTROIDS)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        pq_pl.build_ivfpq_index(ds, idx, n_centroids=n_cent,
                                m_subspaces=8, n_codes=16)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = pq_pl.ivfpq_topk(idx, queries, KNN_K, n_probe=n_cent,
                           oversample=max(1.0, n_rows / KNN_K),
                           round_decimals=6)
    return _round_hits(out)


def _q_knn_ivfpq_filtered(sf_dir: str) -> pd.DataFrame:
    # IVF-PQ with the pre-filter allow-list, at the degenerate-exact
    # setting (full probe + full oversample) => filtered brute force
    # => the same hard SQL oracle as knn_cosine_filtered.
    import os
    from opensearch_jvector_ray.pipelines import pq as pq_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    n_cent = 8
    idx = os.path.join(CACHE_ROOT, f"ivfpq_{key}_c{n_cent}_m8k16")
    if not os.path.exists(os.path.join(idx, pq_pl.IVFPQ_CENTROIDS)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        pq_pl.build_ivfpq_index(ds, idx, n_centroids=n_cent,
                                m_subspaces=8, n_codes=16)
    allowed = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id"],
        filters=[("label", "=", KNN_FILTER_LABEL)],
    )["vec_id"].to_numpy(zero_copy_only=False)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = pq_pl.ivfpq_topk(idx, queries, KNN_K, n_probe=n_cent,
                           oversample=max(1.0, n_rows / KNN_K),
                           round_decimals=6, filter_ids=allowed)
    return _round_hits(out)


def _q_knn_graph(sf_dir: str) -> pd.DataFrame:
    # graph-ANN (jVector/DiskANN-class) entry at the DEGENERATE-EXACT
    # driver setting: ef_search = table size makes every partition's beam
    # exhaustive (the written Hamilton-cycle edge guarantees strong
    # connectivity), so the result equals brute force — a HARD SQL oracle
    # for build + persist + decode + beam + rescore + leaf merge.  The
    # approximate beam stays gated by pytest recall and timed by bench.py.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphidx_{key}_p4m16e64v4")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6)
    return _round_hits(out)


def _q_knn_graph_merged(sf_dir: str) -> pd.DataFrame:
    # the INCREMENTAL merge itself under a hard gate: merge the 4-part
    # graph index into 1 part via the leading-graph branch, then search
    # at full beam — exhaustive (Hamilton cycle) => equals brute force
    import os
    import shutil
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphidx_{key}_p4m16e64v4")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4)
    merged = os.path.join(CACHE_ROOT, f"graphmrg_{key}_v4")
    if not os.path.exists(os.path.join(merged, graph_pl.META_NAME)):
        shutil.rmtree(merged, ignore_errors=True)
        graph_pl.merge_graph_index(idx, merged, merge_factor=4,
                                   mode="incremental")
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(merged, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6)
    return _round_hits(out)


def _q_knn_graph_added(sf_dir: str) -> pd.DataFrame:
    # ADD lifecycle under a hard gate: build on the first half of the
    # table, add_to_graph_index the second half (hash-routed bulk_insert
    # into the frozen partition graphs), then full-beam search over the
    # union == brute force == SQL.  The cached index is keyed by a
    # lifecycle-specific suffix; the journal-free idempotence rule means
    # a cached index is simply reused.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphadd_{key}_p3m16e64v1")
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        half = n_rows // 2
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        first = ds.filter(expr=f"vec_id < {half}")
        rest = read_table(sf_dir, "embeddings",
                          columns=["vec_id", "embedding"]
                          ).filter(expr=f"vec_id >= {half}")
        graph_pl.build_graph_index(first, idx, num_parts=3)
        graph_pl.add_to_graph_index(rest, idx)
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6)
    return _round_hits(out)


def _q_knn_graph_filtered(sf_dir: str) -> pd.DataFrame:
    # FILTERED graph search (J2 for the graph engine — the reference's
    # pre-filter + over-query, `KNNQueryBuilder.java:534-539`): the
    # allow-list is the ids whose label == KNN_FILTER_LABEL (a pushed-
    # down parquet read), shipped once via ray.put; at full beam the
    # pre-filter + exact rescore equals FILTERED brute force => the same
    # hard SQL oracle as knn_cosine_filtered.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphidx_{key}_p4m16e64v4")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4)
    allowed = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id"],
        filters=[("label", "=", KNN_FILTER_LABEL)],
    )["vec_id"].to_numpy(zero_copy_only=False)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6, filter_ids=allowed)
    return _round_hits(out)


def _q_knn_graph_radial(sf_dir: str) -> pd.DataFrame:
    # RADIAL graph search (`KNNQueryBuilder.java:438-472` min_score path
    # on the graph engine): every node scoring >= threshold, unbounded.
    # At full beam the visited pool is the whole index (Hamilton-cycle
    # connectivity), so the result is exactly brute-force radial => the
    # same hard SQL oracle as knn_cosine_radial.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphidx_{key}_p4m16e64v4")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, None, ef_search=n_rows,
                              round_decimals=6,
                              min_score=KNN_RADIAL_MIN_SCORE)
    return _round_hits(out)


def _q_knn_graph_pq(sf_dir: str) -> pd.DataFrame:
    # QUANTIZED graph search (the reference's PQ mode: segment-local
    # codebook at flush, ADC lookup-sum traversal, exact rerank —
    # `JVectorWriter.java:381-414`, `JVectorReader.java:154-166`) at the
    # degenerate-exact setting: the codebook is DELIBERATELY coarse
    # (16 codes) so the walk order is visibly approximate, but full beam
    # still visits every node and the rescore is full-precision => equals
    # brute force — a hard SQL oracle over train+encode+ADC-beam+rerank.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphpq_{key}_p4m16e64c16v2")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4,
                                   pq_m_subspaces=8, pq_n_codes=16,
                                   pq_min_rows=2)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6, use_pq=True)
    return _round_hits(out)


def _q_knn_graph_bq(sf_dir: str) -> pd.DataFrame:
    # BINARY-quantized graph search (the 'BQ' of the reference's 'PQ and
    # BQ support', README.md:33): the beam walks on per-byte XOR-popcount
    # hamming lookup sums over packed sign bits (the same gather-sum ADC
    # as PQ, M=ceil(d/8), K=256) and hits are exact-rescored — at full
    # beam the result equals brute force => hard SQL oracle.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphbq_{key}_p4m16e64v2")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4, bq=True)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6, use_pq=True)
    return _round_hits(out)


def _q_knn_graph_mbq(sf_dir: str) -> pd.DataFrame:
    # 2-bit multi-bit scalar-quantized graph search (the reference's
    # MultiBitScalarQuantizer.java + BitPacker.java plane-major layout):
    # per-dimension thresholds at mean + iCoef*std, the beam walks
    # XOR-popcount hamming sums over the concatenated bit planes
    # (M = bits*ceil(d/8)) and hits are exact-rescored — at full beam
    # the result equals brute force => hard SQL oracle.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphmbq_{key}_p4m16e64b2v2")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4, mbq_bits=2)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6, use_pq=True)
    return _round_hits(out)


def _q_knn_graph_nvq(sf_dir: str) -> pd.DataFrame:
    # NVQ graph search (the reference's nonuniform vector quantization,
    # README.md:33): 8-bit companded scalar codes with per-vector affine
    # normalization; the beam walks on dequant-level lookup sums plus a
    # per-row affine correction and hits are exact-rescored — at full
    # beam the result equals brute force => hard SQL oracle.
    import os
    from opensearch_jvector_ray.pipelines import graph as graph_pl
    from opensearch_jvector_ray.sources.tables import CACHE_ROOT
    key = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(CACHE_ROOT, f"graphnvq_{key}_p4m16e64v2")
    if not os.path.exists(os.path.join(idx, graph_pl.META_NAME)):
        ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        graph_pl.build_graph_index(ds, idx, num_parts=4, nvq=True)
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")).num_rows
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = graph_pl.graph_topk(idx, queries, KNN_K, ef_search=n_rows,
                              round_decimals=6, use_pq=True)
    return _round_hits(out)


def _q_knn_hamming(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = knn_pl.hamming_topk(ds, queries, KNN_K, round_decimals=6)
    return _round_hits(out)


def _q_knn_ivf(sf_dir: str) -> pd.DataFrame:
    # fixed data-row coarse centers -> deterministic AND SQL-oracled; the
    # k-means-trained path is exercised by the pytest recall gate
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = knn_pl.fixed_centroids(ds, IVF_CENTROID_IDS)
    queries = query_embeddings(sf_dir, KNN_QUERY_IDS)
    out = knn_pl.ivf_topk(ds, queries, KNN_K, centroids=cent,
                          n_probe=IVF_N_PROBE, round_decimals=6)
    return _round_hits(out)


def _q_events_lww(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type", "value"])
    # operator returns a Dataset (table-sized at scale); the driver
    # contract wants a DataFrame — convert at the edge only
    out = rel_pl.events_last_write_wins(ds).to_pandas()
    return (out.sort_values("user_id").reset_index(drop=True)
            [["user_id", "ts", "event_type", "value"]])


def _q_events_window(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    return rel_pl.events_window_agg(ds)


def _q_events_asof(sf_dir: str) -> pd.DataFrame:
    ev = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    od = read_table(sf_dir, "orders",
                    columns=["o_orderkey", "o_custkey", "o_orderdate"])
    out = rel_pl.events_asof_orders(ev, od).to_pandas()
    if out.empty:
        return pd.DataFrame(columns=["event_id", "user_id", "ts",
                                     "o_orderkey", "o_orderdate"])
    return out.sort_values("event_id").reset_index(drop=True)


def _q_events_sessionize(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    out = rel_pl.events_sessionize(ds).to_pandas()
    return (out.sort_values(["user_id", "session_idx"])
               .reset_index(drop=True))


def _q_top_order_revenue(sf_dir: str) -> pd.DataFrame:
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderdate"])
    lineitem = read_table(sf_dir, "lineitem",
                          columns=["l_orderkey", "l_extendedprice", "l_discount"])
    return rel_pl.top_order_revenue(orders, lineitem, k=10)


def _q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    return rel_pl.revenue_by_nation(
        orders, os.path.join(sf_dir, "customer.parquet"),
        os.path.join(sf_dir, "nation.parquet"))


def _q_revenue_region_brand(sf_dir: str) -> pd.DataFrame:
    # star join: streamed lineitem fact x four broadcast dims
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_suppkey", "l_extendedprice",
                             "l_discount"])
    return rel_pl.revenue_by_region_brand(
        li, os.path.join(sf_dir, "part.parquet"),
        os.path.join(sf_dir, "supplier.parquet"),
        os.path.join(sf_dir, "nation.parquet"),
        os.path.join(sf_dir, "region.parquet"))


def _q_orders_range_join(sf_dir: str) -> pd.DataFrame:
    # interval join (the as-of join's unbounded sibling): every order x
    # all strictly-earlier orders of the same customer within 90 days
    od = read_table(sf_dir, "orders",
                    columns=["o_orderkey", "o_custkey", "o_orderdate"])
    out = rel_pl.orders_range_join(od, days=90).to_pandas()
    if out.empty:
        return pd.DataFrame(columns=["o_orderkey", "o_custkey",
                                     "o_orderdate", "prev_orderkey",
                                     "prev_orderdate", "day_gap"])
    return (out.sort_values(["o_orderkey", "prev_orderkey"])
               .reset_index(drop=True))


def _q_lineitem_quantiles(sf_dir: str) -> pd.DataFrame:
    # exact distributed quantiles from merged value counts (no full sort)
    ds = read_table(sf_dir, "lineitem", columns=["l_extendedprice"])
    return rel_pl.quantile_summary(ds, "l_extendedprice")


def _q_pricing(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount", "l_shipdate"])
    return rel_pl.pricing_summary(ds)


def _q_transcripts_bm25(sf_dir: str) -> pd.DataFrame:
    s = IndexSearcher(transcripts_index(sf_dir))
    out = _round_hits(s.search(TRANSCRIPT_QUERIES, k=10))
    # zero-padded composite key: lexicographic order == (conv_id, turn_idx)
    # order, so the oracle's string tie-break matches the engine's
    out["doc_id"] = (out["conv_id"] + ":" +
                     out["turn_idx"].astype(int).astype(str).str.zfill(10))
    return out[["query_id", "rank", "doc_id", "score"]]


def _q_gopher_filter(sf_dir: str) -> pd.DataFrame:
    # Gopher-rules quality filter: six public rules fused in one pass,
    # per-rule fail bitmask; thresholds sized so the fixture splits
    # non-trivially (token-count floor 50 vs median 56; >=2 stop hits;
    # dup-token cap 0.6 vs max 0.72)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = (ds.map_batches(
        ts_pl.gopher_filter_stage(CFG, "doc_id", "text"),
        batch_format="pyarrow").to_pandas())
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_lm_xent(sf_dir: str) -> pd.DataFrame:
    # unigram-LM cross-entropy quality scorer (train + score, one corpus)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = lm_pl.lm_xent(ds, CFG, "doc_id", "text").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


CONV_QUERIES = {
    "c1": "zebra quantum nebula",
    "c2": "data model search index",
    "c3": "checkpoint lineage metric",
}


def _q_conversations_bm25(sf_dir: str) -> pd.DataFrame:
    # assemble -> index -> query: conversation-level BM25 over the
    # assembled transcript docs (doc = conv_id)
    from opensearch_jvector_ray.sources.tables import conversations_index
    s = IndexSearcher(conversations_index(sf_dir))
    out = _round_hits(s.search(CONV_QUERIES, k=10))
    return out[["query_id", "rank", "conv_id", "score"]]


FUNNEL_STEPS = ["view", "click", "purchase"]


def _q_events_funnel(sf_dir: str) -> pd.DataFrame:
    # ordered funnel: per user the furthest step reached, each step
    # strictly after the previous step's first qualifying occurrence
    # (chained-min rule; integer microsecond comparisons)
    from opensearch_jvector_ray.pipelines.relational import (
        events_funnel,
    )
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "ts"])
    out = events_funnel(ds, FUNNEL_STEPS).to_pandas()
    out["user_id"] = out["user_id"].astype(np.int64)
    return out.sort_values("user_id").reset_index(drop=True)


def _events_funnel_oracle() -> str:
    s1, s2, s3 = FUNNEL_STEPS
    return f"""
WITH s1 AS (
  SELECT user_id, min(ts) AS t FROM events
  WHERE event_type = '{s1}' GROUP BY user_id
),
s2 AS (
  SELECT e.user_id, min(e.ts) AS t FROM events e
  JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t
  WHERE e.event_type = '{s2}' GROUP BY e.user_id
),
s3 AS (
  SELECT e.user_id, min(e.ts) AS t FROM events e
  JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t
  WHERE e.event_type = '{s3}' GROUP BY e.user_id
)
SELECT s1.user_id,
       CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
                 WHEN s2.user_id IS NOT NULL THEN 2
                 ELSE 1 END AS BIGINT) AS steps_completed
FROM s1 LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)
ORDER BY s1.user_id
"""


def _q_conversation_dedup(sf_dir: str) -> pd.DataFrame:
    # conversation-LEVEL exact dedup (assemble -> fingerprint group):
    # the turn-level dedup's sibling for whole-thread re-crawls; PLANTED
    # duplicates (convs whose id ends in '0' re-appended as dup-<id>)
    # make the gate bite — n_dups = 2 for those groups on both sides
    import pyarrow as pa

    from opensearch_jvector_ray.pipelines.dedup import exact_dedup
    from opensearch_jvector_ray.pipelines.transcripts import (
        assemble_conversations,
    )
    from opensearch_jvector_ray.sources.tables import (
        TRANSCRIPTS_CFG, transcripts_path,
    )
    ds = rd.read_parquet(transcripts_path(sf_dir))
    convs = assemble_conversations(ds).select_columns(
        ["conv_id", "conv_text"])

    def plant(batch: pa.Table) -> pa.Table:
        keep = pc.ends_with(batch["conv_id"], "0")
        dups = batch.filter(keep)
        if dups.num_rows:
            pref = pc.binary_join_element_wise(
                pa.array(["dup-"] * dups.num_rows), dups["conv_id"]
                .combine_chunks() if isinstance(dups["conv_id"],
                                                pa.ChunkedArray)
                else dups["conv_id"], "")
            dups = dups.set_column(0, "conv_id", pref)
            return pa.concat_tables([batch, dups])
        return batch

    planted = convs.map_batches(plant, batch_format="pyarrow")
    out = exact_dedup(planted, TRANSCRIPTS_CFG, "conv_id",
                      "conv_text").to_pandas()
    out["n_dups"] = out["n_dups"].astype(np.int64)
    return out.sort_values("text_hash").reset_index(drop=True)


def _conversation_dedup_oracle() -> str:
    from opensearch_jvector_ray.oracles import (
        exact_dedup_sql, transcripts_arms_cte,
    )
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    cte = transcripts_arms_cte(_transcript_arms(),
                               "conv_id, turn_idx, role, text")
    inner = exact_dedup_sql(TRANSCRIPTS_CFG, table="planted",
                            id_col="conv_id", text_col="conv_text",
                            id_cast=None)
    return f"""
WITH {cte},
conversations AS (
  SELECT conv_id,
         string_agg(role || ': ' || text, chr(10)
                    ORDER BY turn_idx) AS conv_text
  FROM transcripts GROUP BY conv_id
),
planted AS (
  SELECT conv_id, conv_text FROM conversations
  UNION ALL
  SELECT 'dup-' || conv_id, conv_text FROM conversations
  WHERE conv_id LIKE '%0'
)
{inner}
"""


def _q_conversation_assemble(sf_dir: str) -> pd.DataFrame:
    from opensearch_jvector_ray.sources.tables import transcripts_path
    ds = rd.read_parquet(transcripts_path(sf_dir))
    out = tr_pl.assemble_conversations(ds).to_pandas()
    return out.sort_values("conv_id").reset_index(drop=True)


CONTEXT_PAIR_TURNS = 4


def _q_context_pairs(sf_dir: str) -> pd.DataFrame:
    # SFT pair extraction: per assistant turn, the preceding-K-turns
    # context + the response (positional window, ONE conv_id shuffle)
    from opensearch_jvector_ray.sources.tables import transcripts_path
    ds = rd.read_parquet(transcripts_path(sf_dir))
    out = tr_pl.context_response_pairs(
        ds, max_context_turns=CONTEXT_PAIR_TURNS).to_pandas()
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _q_response_novelty(sf_dir: str) -> pd.DataFrame:
    # SFT pair-quality signal: distinct analyzed response tokens absent
    # from the preceding-K context token sets (one conv_id shuffle)
    from opensearch_jvector_ray.sources.tables import (
        TRANSCRIPTS_CFG, transcripts_path,
    )
    ds = rd.read_parquet(transcripts_path(sf_dir))
    out = tr_pl.response_novelty(
        ds, TRANSCRIPTS_CFG,
        max_context_turns=CONTEXT_PAIR_TURNS).to_pandas()
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _q_conversation_validate(sf_dir: str) -> pd.DataFrame:
    # conversation well-formedness: starts_user AND has_assistant AND
    # no consecutive same-role turns (tool turns break naive zig-zag)
    from opensearch_jvector_ray.sources.tables import transcripts_path
    ds = rd.read_parquet(transcripts_path(sf_dir))
    out = tr_pl.validate_conversations(ds).to_pandas()
    return out.sort_values("conv_id").reset_index(drop=True)


def _q_tool_transitions(sf_dir: str) -> pd.DataFrame:
    # tool-transition matrix: (prev_tool -> tool) counts over each
    # conversation's tool-bearing turn subsequence (skip rule shared
    # with the oracle's filtered lag window)
    from opensearch_jvector_ray.sources.tables import transcripts_path
    ds = rd.read_parquet(transcripts_path(sf_dir))
    out = tr_pl.tool_transitions(ds).to_pandas()
    out["n_transitions"] = out["n_transitions"].astype(np.int64)
    return out.sort_values(["prev_tool", "tool"])         .reset_index(drop=True)


def _q_response_latency(sf_dir: str) -> pd.DataFrame:
    # per-response latency: ts delta from the preceding user turn (one
    # conv_id shuffle + shifted diff; exact integer microseconds)
    from opensearch_jvector_ray.sources.tables import transcripts_path
    ds = rd.read_parquet(transcripts_path(sf_dir))
    out = tr_pl.response_latency(ds).to_pandas()
    out["turn_idx"] = out["turn_idx"].astype(np.int64)
    out["latency_us"] = out["latency_us"].astype(np.int64)
    return out.sort_values(["conv_id", "turn_idx"]) \
        .reset_index(drop=True)


def _q_dsir_weights(sf_dir: str) -> pd.DataFrame:
    # DSIR importance weights (unigram-feature variant): target LM =
    # documents corpus, source LM = the transcript turns themselves;
    # log_weight = integer-micro sum of per-token log-ratio deltas
    from opensearch_jvector_ray.sources.tables import transcripts_path
    import pyarrow as _pa
    target = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def key_stage(batch: _pa.Table) -> _pa.Table:
        conv = batch["conv_id"]
        if isinstance(conv, _pa.ChunkedArray):
            conv = conv.combine_chunks()
        return _pa.table({
            "doc_id": tr_pl._doc_key(conv, batch["turn_idx"]),
            "text": batch["text"],
        })

    turns = rd.read_parquet(transcripts_path(sf_dir),
                            columns=["conv_id", "turn_idx", "text"])               .map_batches(key_stage, batch_format="pyarrow")
    out = lm_pl.dsir_weights(turns, target, CFG, "doc_id",
                             "text").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_lm_xent_transfer(sf_dir: str) -> pd.DataFrame:
    # the train-on-A-score-B (OOV) path under a HARD gate: LM trained on
    # the documents corpus scores every transcript turn
    from opensearch_jvector_ray.sources.tables import transcripts_path
    import pyarrow as _pa
    train = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    lm = lm_pl.train_unigram_lm(train, CFG, "text")

    def key_stage(batch: _pa.Table) -> _pa.Table:
        conv = batch["conv_id"]
        if isinstance(conv, _pa.ChunkedArray):
            conv = conv.combine_chunks()
        # the engine-wide composite key rule, single source of truth
        return _pa.table({
            "doc_id": tr_pl._doc_key(conv, batch["turn_idx"]),
            "text": batch["text"],
        })

    turns = rd.read_parquet(transcripts_path(sf_dir),
                            columns=["conv_id", "turn_idx", "text"]) \
              .map_batches(key_stage, batch_format="pyarrow")
    out = lm_pl.lm_xent(turns, CFG, "doc_id", "text", lm=lm).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_tool_usage(sf_dir: str) -> pd.DataFrame:
    from opensearch_jvector_ray.sources.tables import transcripts_path
    ds = rd.read_parquet(transcripts_path(sf_dir))
    return tr_pl.tool_usage_stats(ds)


def _q_turn_dedup(sf_dir: str) -> pd.DataFrame:
    from opensearch_jvector_ray.sources.tables import (
        TRANSCRIPTS_CFG, transcripts_path,
    )
    ds = rd.read_parquet(transcripts_path(sf_dir),
                         columns=["conv_id", "turn_idx", "text"])
    aug = tr_pl.plant_duplicate_turns(ds)
    out = tr_pl.turn_dedup(aug, TRANSCRIPTS_CFG).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_minhash(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_pl.minhash_lsh_dedup(ds, CFG, "doc_id", "text",
                                      threshold=0.5)


def _q_ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_pl.ngram_jaccard_pairs(ds, CFG, "doc_id", "text",
                                        threshold=0.3, lsh_threshold=0.2)


def _q_self_overlap(sf_dir: str) -> pd.DataFrame:
    # corpus-internal n-gram overlap flagging (GPT-3 appx-C rule applied
    # to the training corpus itself)
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_pl.self_overlap(ds, CFG, "doc_id", "text").to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_simhash(sf_dir: str) -> pd.DataFrame:
    # max_hamming=3: the 4x16-bit chunk blocking is EXACT at this radius,
    # so the distributed result equals the O(n^2) DuckDB oracle
    return dedup_pl.simhash_near_dups(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        CFG, "doc_id", "text", max_hamming=3)


N_PLANTED_DUPS = 25
PLANT_ID_OFFSET = 1_000_000


def _q_embedding_dups(sf_dir: str) -> pd.DataFrame:
    # the fixture has no natural near-dups (max pairwise cosine ~0.60 at
    # every scale), so the entry PLANTS exact duplicates of the 25 lowest
    # vec_ids at id+1e6: identical vectors share every LSH band signature,
    # so the banded candidate generation finds them with probability 1 and
    # the output is the deterministic 25-pair set — a HARD SQL oracle over
    # the same augmented table (it was a 0-row dead check before).
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def plant(b):
        b = b.filter(pc.less(b["vec_id"], N_PLANTED_DUPS))
        return b.set_column(b.column_names.index("vec_id"), "vec_id",
                            pc.add(b["vec_id"], PLANT_ID_OFFSET))

    aug = ds.union(ds.map_batches(plant, batch_format="pyarrow"))
    return knn_pl.embedding_near_dups(aug, threshold=0.95)


def _q_semdedup(sf_dir: str) -> pd.DataFrame:
    # SemDeDup [Abbas et al. 2023]: fixed-row coarse clusters + within-
    # cluster cosine near-dup drop (min-id keep).  Planted exact
    # duplicates (the embedding_near_dups fixture trick) land in their
    # original's cell with cos = 1 >= threshold => keep = 0; the natural
    # corpus has no pairs near the threshold, so the oracle compare is
    # robust to cross-side cosine ulp.
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def plant(b):
        b = b.filter(pc.less(b["vec_id"], N_PLANTED_DUPS))
        return b.set_column(b.column_names.index("vec_id"), "vec_id",
                            pc.add(b["vec_id"], PLANT_ID_OFFSET))

    aug = ds.union(ds.map_batches(plant, batch_format="pyarrow"))
    cent = knn_pl.fixed_centroids(aug, IVF_CENTROID_IDS)
    out = knn_pl.semdedup(aug, cent, threshold=0.95).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def _q_multimodal_image(sf_dir: str) -> pd.DataFrame:
    # REAL PNG decode (stdlib zlib, RFC 2083 filters) + featurization
    tbl = mm_pl.synth_image_table(150)
    out = mm_pl.decode_features(rd.from_arrow(tbl), fake=False).to_pandas()
    feats = np.stack(out["feature"].to_numpy())
    out["width"] = feats[:, 0].astype(np.int64)
    out["height"] = feats[:, 1].astype(np.int64)
    out["mean_r"] = np.round(feats[:, 3].astype(np.float64), 6)
    return (out[["media_id", "width", "height", "mean_r"]]
            .sort_values("media_id").reset_index(drop=True))


def _q_multimodal_audio(sf_dir: str) -> pd.DataFrame:
    # REAL WAV decode (stdlib wave) + featurization over an audio table
    tbl = mm_pl.synth_audio_table(150)
    out = mm_pl.decode_features(rd.from_arrow(tbl), fake=False).to_pandas()
    feats = np.stack(out.sort_values("media_id").feature.to_numpy())
    res = out.sort_values("media_id").reset_index(drop=True)
    res["duration_sec"] = np.round(feats[:, 0].astype(np.float64), 4)
    res["rms"] = np.round(feats[:, 1].astype(np.float64), 4)
    return res[["media_id", "kind", "duration_sec", "rms"]]


def _q_multimodal_video(sf_dir: str) -> pd.DataFrame:
    # REAL frame-sampling video decode over the OJRV PNG-frame
    # container: n_frames / dims / motion features
    tbl = mm_pl.synth_video_table(120)
    out = mm_pl.decode_features(rd.from_arrow(tbl), fake=False).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    feats = np.stack(out["feature"].to_numpy())
    out["n_frames"] = feats[:, 0].astype(np.int64)
    out["width"] = feats[:, 1].astype(np.int64)
    out["height"] = feats[:, 2].astype(np.int64)
    out["motion"] = np.round(feats[:, 3].astype(np.float64), 4)
    return out[["media_id", "kind", "n_frames", "width", "height",
                "motion"]]


def _q_multimodal_mp4(sf_dir: str) -> pd.DataFrame:
    # REAL MP4/ISO-BMFF demux (pure-Python box walk + H.264 SPS parse,
    # pipelines/mp4.py): container-metadata features over a table of
    # genuine MP4 payloads; the returned dims/counts are cross-checked
    # against the synth table's own metadata struct so the entry
    # self-validates beyond the rows-only driver check
    from opensearch_jvector_ray.pipelines import mp4 as mp4_pl
    tbl = mp4_pl.synth_mp4_table(120)
    out = mm_pl.decode_features(rd.from_arrow(tbl), fake=False).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    feats = np.stack(out["feature"].to_numpy())
    meta = tbl["meta"].to_pylist()
    assert feats[:, 0].astype(np.int64).tolist() == \
        [m["n_frames"] for m in meta]
    assert feats[:, 1].astype(np.int64).tolist() == \
        [m["width"] for m in meta]
    assert feats[:, 2].astype(np.int64).tolist() == \
        [m["height"] for m in meta]
    out["n_frames"] = feats[:, 0].astype(np.int64)
    out["width"] = feats[:, 1].astype(np.int64)
    out["height"] = feats[:, 2].astype(np.int64)
    out["fps"] = np.round(feats[:, 4].astype(np.float64), 3)
    out["keyframe_ratio"] = np.round(feats[:, 5].astype(np.float64), 4)
    out["bitrate_mbps"] = np.round(feats[:, 8].astype(np.float64), 4)
    return out[["media_id", "kind", "n_frames", "width", "height",
                "fps", "keyframe_ratio", "bitrate_mbps"]]


def _q_multimodal(sf_dir: str) -> pd.DataFrame:
    # ALL kinds decode for REAL now: WAV via stdlib wave, PNG via the
    # stdlib-zlib decoder, video via the OJRV PNG-frame container
    tbl = mm_pl.synth_media_table(200)
    out = mm_pl.decode_features(rd.from_arrow(tbl), fake=False).to_pandas()
    out["n_features"] = out["feature"].map(len).astype(np.int64)
    return (out[["media_id", "kind", "n_features"]]
            .sort_values("media_id").reset_index(drop=True))


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: build the transcript BM25 index at sf0.001 scale and run
    the golden query set."""
    return _q_transcripts_bm25("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # core BM25 engine surface (S12/M6/A2/O1/O2/O5/J2/J3 analogs)
        "bm25_topk": _q_bm25,
        "bm25_topk_wand": _q_bm25_wand,
        "bm25_topk_rescore": _q_bm25_rescore,
        "bm25_topk_filtered": _q_bm25_filtered,
        "bm25_dsl_filter": _q_bm25_dsl_filter,
        "bm25_sorted": _q_bm25_sorted,
        "bm25_function_score": _q_bm25_function_score,
        "bm25_rank_feature": _q_bm25_rank_feature,
        "bm25_rank_features": _q_bm25_rank_features,
        "bm25_distance_feature": _q_bm25_distance_feature,
        "bm25_pinned": _q_bm25_pinned,
        "bm25_terms_set": _q_bm25_terms_set,
        "bm25_combined_fields": _q_bm25_combined_fields,
        "bm25_span_or": _q_bm25_span_or,
        "bm25_span_multi": _q_bm25_span_multi,
        "bm25_span_not": _q_bm25_span_not,
        "bm25_span_within": _q_bm25_span_within,
        "bm25_span_containing": _q_bm25_span_containing,
        "bm25_span_ordered": _q_bm25_span_ordered,
        "bm25_stemmed": _q_bm25_stemmed,
        "bm25_matched_queries": _q_bm25_matched_queries,
        "bm25_scripted_metric": _q_bm25_scripted_metric,
        "bm25_indices_boost": _q_bm25_indices_boost,
        "bm25_template": _q_bm25_template,
        "bm25_decay_recency": _q_bm25_decay_recency,
        "has_child_max": _q_has_child_max,
        "has_child_sum": _q_has_child_sum,
        "has_child_avg": _q_has_child_avg,
        "has_parent_expand": _q_has_parent,
        "percolate_all": _q_percolate,
        "percolate_phrase": _q_percolate_phrase,
        "semdedup": _q_semdedup,
        "bm25_radial": _q_bm25_radial,
        "bm25_phrase": _q_bm25_phrase,
        "bm25_span_near": _q_bm25_span_near,
        "bm25_constant_score": _q_bm25_constant_score,
        "bm25_boosting": _q_bm25_boosting,
        "bm25_boolean": _q_bm25_boolean,
        "bm25_min_should_match": _q_bm25_min_should_match,
        "bm25_highlight": _q_bm25_highlight,
        "bm25_highlight_frag": _q_bm25_highlight_frag,
        "bm25_explain": _q_bm25_explain,
        "bm25_cumulative_sum": _q_bm25_cumulative_sum,
        "bm25_derivative": _q_bm25_derivative,
        "bm25_moving_avg": _q_bm25_moving_avg,
        "bm25_bucket_sort": _q_bm25_bucket_sort,
        "bm25_moving_percentiles": _q_bm25_moving_percentiles,
        "bm25_rate": _q_bm25_rate,
        "bm25_mad": _q_bm25_mad,
        "bm25_boxplot": _q_bm25_boxplot,
        "bm25_t_test": _q_bm25_t_test,
        "bm25_serial_diff": _q_bm25_serial_diff,
        "bm25_bucket_selector": _q_bm25_bucket_selector,
        "bm25_moving_max": _q_bm25_moving_max,
        "bm25_normalize": _q_bm25_normalize,
        "bm25_cumulative_cardinality": _q_bm25_cumulative_cardinality,
        "bm25_bucket_script": _q_bm25_bucket_script,
        "bm25_max_bucket": _q_bucket_metric("max_bucket"),
        "bm25_min_bucket": _q_bucket_metric("min_bucket"),
        "bm25_sum_bucket": _q_bucket_metric("sum_bucket"),
        "bm25_avg_bucket": _q_bucket_metric("avg_bucket"),
        "bm25_stats_bucket": _q_bucket_metric("stats_bucket"),
        "bm25_multi_terms": _q_bm25_multi_terms,
        "bm25_rare_terms": _q_bm25_rare_terms,
        "bm25_extended_stats": _q_bm25_extended_stats,
        "bm25_weighted_avg": _q_bm25_weighted_avg,
        "bm25_top_metrics": _q_bm25_top_metrics,
        "bm25_percentile_ranks": _q_bm25_percentile_ranks,
        "bm25_missing": _q_bm25_missing,
        "bm25_value_count": _q_bm25_value_count,
        "delete_by_query": _q_delete_by_query,
        "update_by_query": _q_update_by_query,
        "pit_search": _q_pit_search,
        "reindex_search": _q_reindex_search,
        "mget": _q_mget,
        "field_stats": _q_field_stats,
        "sparse_vector": _q_sparse_vector,
        "geo_distance": _q_geo_distance,
        "geo_bbox": _q_geo_bbox,
        "geo_polygon": _q_geo_polygon,
        "geotile_grid": _q_geotile_grid,
        "geohash_grid": _q_geohash_grid,
        "geo_centroid": _q_geo_centroid,
        "children_agg": _q_children_agg,
        "ingest_simulate": _q_ingest_simulate,
        "ingest_json": _q_ingest_json,
        "ingest_transform": _q_ingest_transform,
        "bpe_train": _q_bpe_train,
        "bpe_encode": _q_bpe_encode,
        "count_api": _q_count_api,
        "alias_search": _q_alias_search,
        "tdigest_percentiles": _q_tdigest_percentiles,
        "approx_terms": _q_approx_terms,
        "script_fields": _q_script_fields,
        "terms_lookup": _q_terms_lookup,
        "incremental_dedup": _q_incremental_dedup,
        "rollover_search": _q_rollover_search,
        "bm25_vw_histogram": _q_bm25_vw_histogram,
        "bm25_global_stats": _q_bm25_global_stats,
        "bm25_sampler": _q_bm25_sampler,
        "bm25_div_sampler": _q_bm25_div_sampler,
        "bm25_auto_date_histogram": _q_bm25_auto_date_histogram,
        "bm25_adjacency_matrix": _q_bm25_adjacency_matrix,
        "bm25_string_stats": _q_bm25_string_stats,
        "bm25_matrix_stats": _q_bm25_matrix_stats,
        "bm25_date_range": _q_bm25_date_range,
        "rank_eval_precision": _q_rank_eval_precision,
        "rank_eval_mrr": _q_rank_eval_mrr,
        "bm25_more_like_this": _q_bm25_mlt,
        "term_vectors": _q_term_vectors,
        "analyze_api": _q_analyze_api,
        "bm25_prefix": _q_bm25_prefix,
        "bm25_span_first": _q_bm25_span_first,
        "bm25_match_bool_prefix": _q_bm25_match_bool_prefix,
        "bm25_dis_max": _q_bm25_dis_max,
        "bm25_fuzzy": _q_bm25_fuzzy,
        "bm25_fuzzy_dl": _q_bm25_fuzzy_dl,
        "bm25_simple_query_string": _q_bm25_simple_query_string,
        "bm25_boosted": _q_bm25_boosted,
        "bm25_synonyms": _q_bm25_synonyms,
        "bm25_facets": _q_bm25_facets,
        "bm25_facets_filtered": _q_bm25_facets_filtered,
        "bm25_stats_agg": _q_bm25_stats_agg,
        "bm25_histogram": _q_bm25_histogram,
        "bm25_range_agg": _q_bm25_range_agg,
        "bm25_top_hits": _q_bm25_top_hits,
        "bm25_multi_match_best": _q_multi_match_best,
        "bm25_multi_match_most": _q_multi_match_most,
        "bm25_cardinality": _q_bm25_cardinality,
        "bm25_percentiles": _q_bm25_percentiles,
        "bm25_sig_terms": _q_bm25_sig_terms,
        "bm25_significant_text": _q_bm25_significant_text,
        "bm25_filters_agg": _q_bm25_filters_agg,
        "bm25_terms_stats": _q_bm25_terms_stats,
        "bm25_composite": _q_bm25_composite,
        "bm25_date_histogram": _q_bm25_date_histogram,
        "bm25_search_after": _q_bm25_search_after,
        "bm25_phrase_prefix": _q_bm25_phrase_prefix,
        "hybrid_rrf": _q_hybrid_rrf,
        "hybrid_linear": _q_hybrid_linear,
        "bm25_regexp": _q_bm25_regexp,
        "bm25_wildcard": _q_bm25_wildcard,
        "term_suggest": _q_term_suggest,
        "term_suggest_fuzzy": _q_term_suggest_fuzzy,
        "suggest_phrase": _q_suggest_phrase,
        "grouped_best_doc": _q_grouped_best,
        "grouped_expand": _q_grouped_expand,
        "term_stats": _q_term_stats,
        "collection_stats": _q_collection_stats,
        # text-analysis pipeline operators
        "token_count": _q_token_count,
        "token_count_bpe": _q_token_count_bpe,
        "bpe_merges": _q_bpe_merges,
        "doc_fingerprint": _q_fingerprint,
        "exact_dedup": _q_exact_dedup,
        "quality_score": _q_quality,
        "doc_repetition": _q_repetition,
        "lang_id": _q_lang_id,
        "corpus_clean": _q_corpus_clean,
        "corpus_sample": _q_corpus_sample,
        "corpus_mix": _q_corpus_mix,
        "corpus_split": _q_corpus_split,
        "corpus_pack": _q_corpus_pack,
        "corpus_chunk": _q_corpus_chunk,
        "keyword_extract": _q_keyword_extract,
        "minhash_dedup_exact": _q_minhash_exact,
        "ngram_jaccard_exact": _q_ngram_exact,
        "pii_scrub": _q_pii_scrub,
        "pii_filter": _q_pii_filter,
        "corpus_decontaminate": _q_corpus_decontaminate,
        "ngram_self_overlap": _q_self_overlap,
        "gopher_filter": _q_gopher_filter,
        "lm_xent": _q_lm_xent,
        "lm_xent_transfer": _q_lm_xent_transfer,
        "dsir_weights": _q_dsir_weights,
        # transcript-corpus assembly / unit dedup (input_hint shape)
        "conversation_assemble": _q_conversation_assemble,
        "conversation_dedup": _q_conversation_dedup,
        "events_funnel": _q_events_funnel,
        "context_pairs": _q_context_pairs,
        "response_novelty": _q_response_novelty,
        "conversation_validate": _q_conversation_validate,
        "response_latency": _q_response_latency,
        "tool_transitions": _q_tool_transitions,
        "percolate_filtered": _q_percolate_filtered,
        "search_pipeline": _q_search_pipeline,
        "conversations_bm25": _q_conversations_bm25,
        "turn_dedup": _q_turn_dedup,
        "tool_usage_stats": _q_tool_usage,
        # vector scoring surface (§2.8 kernels)
        "knn_cosine_topk": _q_knn("cosine"),
        "knn_l2_topk": _q_knn("l2"),
        "knn_ip_topk": _q_knn("innerproduct"),
        "knn_l1_topk": _q_knn("l1"),
        "knn_linf_topk": _q_knn("linf"),
        "knn_cosine_filtered": _q_knn_filtered,
        "knn_cosine_radial": _q_knn_radial,
        "knn_cosine_radial_dist": _q_knn_radial_dist,
        "knn_byte_topk": _q_knn_byte,
        "knn_ivf_cosine": _q_knn_ivf,
        "knn_ivf_partitioned": _q_knn_ivf_partitioned,
        "knn_pq_rerank": _q_knn_pq_rerank,
        "knn_ivfpq_rerank": _q_knn_ivfpq,
        "knn_graph_topk": _q_knn_graph,
        "knn_graph_merged": _q_knn_graph_merged,
        "knn_graph_added": _q_knn_graph_added,
        "knn_graph_pq": _q_knn_graph_pq,
        "knn_graph_bq": _q_knn_graph_bq,
        "knn_graph_nvq": _q_knn_graph_nvq,
        "knn_graph_mbq": _q_knn_graph_mbq,
        "knn_graph_filtered": _q_knn_graph_filtered,
        "knn_graph_radial": _q_knn_graph_radial,
        "knn_ivf_filtered": _q_knn_ivf_filtered,
        "knn_ivfpq_filtered": _q_knn_ivfpq_filtered,
        "knn_hamming_topk": _q_knn_hamming,
        # relational / lifecycle operators
        "events_last_write_wins": _q_events_lww,
        "events_window_agg": _q_events_window,
        "events_sessionize": _q_events_sessionize,
        "events_asof_orders": _q_events_asof,
        "orders_range_join": _q_orders_range_join,
        "lineitem_quantiles": _q_lineitem_quantiles,
        "pricing_summary": _q_pricing,
        "revenue_by_nation": _q_revenue_by_nation,
        "revenue_by_region_brand": _q_revenue_region_brand,
        "top_order_revenue": _q_top_order_revenue,
        # flagship transcript engine (pytest-oracle'd; not SQL-registered)
        "transcripts_bm25": _q_transcripts_bm25,
        # near-dup family (approximate; pytest-oracle'd)
        "minhash_dedup": _q_minhash,
        "ngram_jaccard_pairs": _q_ngram_jaccard,
        "simhash_near_dups": _q_simhash,
        "embedding_near_dups": _q_embedding_dups,
        # multimodal plumbing (decode stubbed; rows-only)
        "multimodal_decode": _q_multimodal,
        "multimodal_audio_features": _q_multimodal_audio,
        "multimodal_image_features": _q_multimodal_image,
        "multimodal_video_features": _q_multimodal_video,
        "multimodal_mp4_features": _q_multimodal_mp4,
    }


def _transcript_arms() -> list[tuple[str, int]]:
    """One (cached synthetic parquet dir, lineitem rowcount) arm per known
    test scale; synthesis is deterministic and cached, so materializing
    the arms here keeps read_parquet bindable at every scale."""
    import pyarrow.parquet as _pq
    from opensearch_jvector_ray.sources.tables import transcripts_path
    arms = []
    for sf in ("sf0.001", "sf0.01", "sf0.1"):
        d = f"/root/testdata/{sf}"
        li = os.path.join(d, "lineitem.parquet")
        if not os.path.exists(li):
            continue
        arms.append((transcripts_path(d), _pq.read_metadata(li).num_rows))
    return arms


def _transcripts_oracle() -> str:
    """Multi-scale transcript BM25 oracle, selected at SQL runtime by the
    lineitem view's row count (unique per sf)."""
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return transcripts_bm25_sql(TRANSCRIPT_QUERIES, 10, TRANSCRIPTS_CFG,
                                _transcript_arms())


def _has_parent_oracle() -> str:
    """has_parent: the conversation-level BM25 oracle (k=N_PARENTS) as
    a subquery, expanded to turns via a transcripts join; children
    carry the parent's ROUNDED score, ordered (score desc, conv, turn)."""
    from opensearch_jvector_ray.oracles import transcripts_arms_cte
    inner = _conversations_bm25_oracle_k(N_PARENTS)
    cte = transcripts_arms_cte(_transcript_arms(),
                               "conv_id, turn_idx")
    return f"""
WITH {cte},
hits AS ({inner})
SELECT h.query_id,
       row_number() OVER (PARTITION BY h.query_id
                          ORDER BY h.score DESC, t.conv_id,
                                   t.turn_idx) AS rank,
       t.conv_id, t.turn_idx, h.score
FROM hits h JOIN transcripts t ON t.conv_id = h.conv_id
ORDER BY h.query_id, rank
"""


def _children_agg_oracle() -> str:
    """children agg: parents = conversation-level BM25 top-N; terms
    counts over the child turns' tool values ('' / NULL excluded),
    (doc_count desc, value asc), size cap."""
    from opensearch_jvector_ray.oracles import transcripts_arms_cte
    inner = _conversations_bm25_oracle_k(N_PARENTS)
    cte = transcripts_arms_cte(_transcript_arms(),
                               "conv_id, turn_idx, tool")
    return f"""
WITH {cte},
hits AS ({inner}),
counts AS (
  SELECT h.query_id, t.tool AS value, count(*) AS doc_count
  FROM (SELECT DISTINCT query_id, conv_id FROM hits) h
  JOIN transcripts t ON t.conv_id = h.conv_id
  WHERE t.tool IS NOT NULL AND t.tool <> ''
  GROUP BY h.query_id, t.tool
),
r AS (
  SELECT query_id, value, doc_count,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY doc_count DESC, value ASC) AS rn
  FROM counts
)
SELECT query_id, value, doc_count FROM r WHERE rn <= 10
ORDER BY query_id, doc_count DESC, value
"""


def _conversations_bm25_oracle_k(k: int) -> str:
    from opensearch_jvector_ray.oracles import transcripts_arms_cte
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    cte = transcripts_arms_cte(_transcript_arms(),
                               "conv_id, turn_idx, role, text")
    prefix = (f"{cte},\nconversations AS (\n"
              "  SELECT conv_id,\n"
              "         string_agg(role || ': ' || text, chr(10)"
              " ORDER BY turn_idx) AS conv_text\n"
              "  FROM transcripts GROUP BY conv_id\n)")
    return bm25_sql(CONV_QUERIES, k, TRANSCRIPTS_CFG,
                    table="conversations", id_col="conv_id",
                    text_col="conv_text", prefix_cte=prefix)


def _has_child_oracle(score_mode: str) -> str:
    from opensearch_jvector_ray.oracles import has_child_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return has_child_sql(TRANSCRIPT_QUERIES, 10, TRANSCRIPTS_CFG,
                         _transcript_arms(), score_mode=score_mode)


def _decay_recency_oracle() -> str:
    from opensearch_jvector_ray.oracles import transcripts_fscore_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return transcripts_fscore_sql(TRANSCRIPT_QUERIES, 10, TRANSCRIPTS_CFG,
                                  _transcript_arms(), DECAY_SPEC)


def _date_histogram_oracle_p(pipeline: str, window: int = 3,
                             lag: int = 1, sel_op: str = "gte",
                             sel_val: int = 1, s_from: int = 0,
                             s_size: int = 5, percent: float = 0.5,
                             unit: str = "hour") -> str:
    from opensearch_jvector_ray.oracles import date_histogram_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return date_histogram_sql(TRANSCRIPT_QUERIES, FACET_MIN_SCORE,
                              DATE_HIST_INTERVAL, TRANSCRIPTS_CFG,
                              _transcript_arms(), pipeline=pipeline,
                              pipeline_window=window, pipeline_lag=lag,
                              selector_op=sel_op, selector_value=sel_val,
                              sort_from=s_from, sort_size=s_size,
                              pipeline_percent=percent, rate_unit=unit)


def _cumulative_cardinality_oracle() -> str:
    from opensearch_jvector_ray.oracles import cumulative_cardinality_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return cumulative_cardinality_sql(
        TRANSCRIPT_QUERIES, FACET_MIN_SCORE, DATE_HIST_INTERVAL,
        "conv_id", TRANSCRIPTS_CFG, _transcript_arms())


def _response_novelty_oracle() -> str:
    from opensearch_jvector_ray.oracles import response_novelty_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return response_novelty_sql(_transcript_arms(), TRANSCRIPTS_CFG,
                                CONTEXT_PAIR_TURNS)


def _missing_oracle() -> str:
    from opensearch_jvector_ray.oracles import missing_agg_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return missing_agg_sql(TRANSCRIPT_QUERIES, FACET_MIN_SCORE, "tool",
                           TRANSCRIPTS_CFG, _transcript_arms())


def _delete_by_query_oracle() -> str:
    # survivors = docs NOT in the delete query's radial match set
    # (computed on ORIGINAL stats); the outer search computes BM25
    # from the SURVIVOR corpus stats — the rebuilt index's rule
    del_inner = bm25_sql(DBQ_QUERIES, 0, CFG, min_score=DBQ_MIN_SCORE)
    surv = (f"surv AS (SELECT doc_id, text FROM documents WHERE doc_id "
            f"NOT IN (SELECT doc_id FROM ({del_inner})))")
    return bm25_sql(BM25_QUERIES, BM25_K, CFG, table="surv",
                    prefix_cte=surv)


def _update_by_query_oracle() -> str:
    # modified corpus = matched docs' text || ' updated'; the outer
    # search recomputes BM25 stats over the WHOLE modified corpus —
    # the rebuilt+appended index's rule
    del_inner = bm25_sql(DBQ_QUERIES, 0, CFG, min_score=DBQ_MIN_SCORE)
    upd = (f"upd AS (SELECT doc_id, CASE WHEN doc_id IN "
           f"(SELECT doc_id FROM ({del_inner})) "
           f"THEN text || ' updated' ELSE text END AS text "
           f"FROM documents)")
    return bm25_sql(UBQ_SEARCH, BM25_K, CFG, table="upd",
                    prefix_cte=upd)


def _reindex_oracle() -> str:
    # selection runs on the SOURCE corpus stats (plain analyzer); the
    # outer search re-analyzes the selected docs under the stem config
    # and computes BM25 from the NEW corpus's own df/N/avgdl — the
    # rebuilt index's rule
    sel_inner = bm25_sql(REINDEX_SEL, 0, CFG, min_score=REINDEX_MIN_SCORE)
    sel = (f"sel AS (SELECT doc_id, text FROM documents WHERE doc_id IN "
           f"(SELECT doc_id FROM ({sel_inner})))")
    return bm25_sql(REINDEX_QUERIES, BM25_K, _STEM_CFG, table="sel",
                    prefix_cte=sel)


def _mget_oracle() -> str:
    from opensearch_jvector_ray.oracles import toks_cte
    req = ", ".join(f"({int(k)}, {i})" for i, k in enumerate(MGET_KEYS))
    return f"""
WITH {toks_cte(CFG)},
dl AS (SELECT doc_id, count(*) AS doc_len FROM toks GROUP BY doc_id),
req(doc_id, ord) AS (VALUES {req})
SELECT req.doc_id, d.doc_id IS NOT NULL AS found,
       COALESCE(d.lang, '') AS lang, COALESCE(d.source, '') AS source,
       CAST(COALESCE(d.n_chars, -1) AS DOUBLE) AS n_chars,
       CAST(CASE WHEN d.doc_id IS NULL THEN -1
                 ELSE COALESCE(dl.doc_len, 0) END AS DOUBLE) AS doc_len
FROM req LEFT JOIN documents d ON d.doc_id = req.doc_id
LEFT JOIN dl ON dl.doc_id = req.doc_id
"""


def _field_stats_oracle() -> str:
    # type literals are the Arrow type names of the stored columns (the
    # engine reports str(field.type) of the sidecar schema); count/min/
    # max carry the data signal
    arms = []
    for f, typ in [("lang", "string"), ("source", "string"),
                   ("n_chars", "int64")]:
        arms.append(
            f"SELECT '{f}' AS field, '{typ}' AS type, "
            f"count({f}) AS doc_count, "
            f"CAST(min({f}) AS VARCHAR) AS min_value, "
            f"CAST(max({f}) AS VARCHAR) AS max_value FROM documents")
    return "\nUNION ALL\n".join(arms)


def _value_count_oracle() -> str:
    from opensearch_jvector_ray.oracles import value_count_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return value_count_sql(TRANSCRIPT_QUERIES, FACET_MIN_SCORE, "tool",
                           TRANSCRIPTS_CFG, _transcript_arms())


def _indices_boost_oracle() -> str:
    from opensearch_jvector_ray.oracles import transcripts_arms_cte
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    arm_doc = bm25_sql(IB_QUERIES, BM25_K, CFG, emit_raw=True)
    cte = transcripts_arms_cte(_transcript_arms(),
                               "conv_id, turn_idx, role, text")
    prefix = (f"{cte},\nconversations AS (\n"
              "  SELECT conv_id,\n"
              "         string_agg(role || ': ' || text, chr(10)"
              " ORDER BY turn_idx) AS conv_text\n"
              "  FROM transcripts GROUP BY conv_id\n)")
    arm_conv = bm25_sql(IB_QUERIES, BM25_K, TRANSCRIPTS_CFG,
                        table="conversations", id_col="conv_id",
                        text_col="conv_text", prefix_cte=prefix,
                        emit_raw=True)
    bd = repr(float(IB_BOOSTS["documents"]))
    bc = repr(float(IB_BOOSTS["conversations"]))
    return f"""
WITH d AS ({arm_doc}), c AS ({arm_conv}),
u AS (
  SELECT query_id, 'documents' AS "index",
         CAST(doc_id AS VARCHAR) AS doc_key,
         round(score__raw * {bd}, 6) AS score
  FROM d
  UNION ALL
  SELECT query_id, 'conversations', conv_id,
         round(score__raw * {bc}, 6)
  FROM c
),
r AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, "index" ASC,
                                     doc_key ASC) AS rank,
         "index", doc_key, score
  FROM u
)
SELECT query_id, rank, "index", doc_key, score
FROM r WHERE rank <= {BM25_K}
ORDER BY query_id, rank
"""


def _scripted_metric_oracle() -> str:
    # the entry's script is Σ n_chars * doc_id over the radial match
    # set — exact integers, expressible as plain SQL
    inner = bm25_sql(BM25_QUERIES, 0, CFG, min_score=FACET_MIN_SCORE)
    return f"""
WITH hits AS ({inner})
SELECT h.query_id, sum(d.n_chars * d.doc_id)::BIGINT AS value
FROM hits h JOIN documents d USING (doc_id)
GROUP BY h.query_id ORDER BY h.query_id
"""


def _terms_set_oracle() -> str:
    from opensearch_jvector_ray.oracles import terms_set_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return terms_set_sql(TRANSCRIPT_QUERIES, 10, TRANSCRIPTS_CFG,
                         _transcript_arms(), required_field="turn_idx")


def _auto_date_histogram_oracle() -> str:
    from opensearch_jvector_ray.oracles import auto_date_histogram_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return auto_date_histogram_sql(TRANSCRIPT_QUERIES, FACET_MIN_SCORE,
                                   AUTO_DH_TARGET, TRANSCRIPTS_CFG,
                                   _transcript_arms())


def _date_histogram_oracle() -> str:
    from opensearch_jvector_ray.oracles import date_histogram_sql
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return date_histogram_sql(TRANSCRIPT_QUERIES, FACET_MIN_SCORE,
                              DATE_HIST_INTERVAL, TRANSCRIPTS_CFG,
                              _transcript_arms())


def _mbp(text: str) -> str:
    from opensearch_jvector_ray.analyze import mbp_rewrite
    return mbp_rewrite(text)


def _date_range_oracle() -> str:
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return date_range_sql(TRANSCRIPT_QUERIES, FACET_MIN_SCORE,
                          DATE_RANGES, TRANSCRIPTS_CFG,
                          _transcript_arms())


def _bucket_metric_oracle(metric: str) -> str:
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return bucket_metric_sql(TRANSCRIPT_QUERIES, FACET_MIN_SCORE,
                             DATE_HIST_INTERVAL, metric,
                             TRANSCRIPTS_CFG, _transcript_arms())


def _turn_dedup_oracle() -> str:
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    return turn_dedup_sql(_transcript_arms(), TRANSCRIPTS_CFG)


def _conversations_bm25_oracle() -> str:
    """Conversation-level BM25: the oracle assembles conversations with
    an ordered string_agg (sequential concat == the engine's lexsort +
    binary_join) and runs the shared BM25 CTE over them."""
    from opensearch_jvector_ray.oracles import transcripts_arms_cte
    from opensearch_jvector_ray.sources.tables import TRANSCRIPTS_CFG
    cte = transcripts_arms_cte(_transcript_arms(),
                               "conv_id, turn_idx, role, text")
    prefix = (f"{cte},\nconversations AS (\n"
              "  SELECT conv_id,\n"
              "         string_agg(role || ': ' || text, chr(10)"
              " ORDER BY turn_idx) AS conv_text\n"
              "  FROM transcripts GROUP BY conv_id\n)")
    return bm25_sql(CONV_QUERIES, 10, TRANSCRIPTS_CFG,
                    table="conversations", id_col="conv_id",
                    text_col="conv_text", prefix_cte=prefix)


def oracle_sql() -> dict[str, str]:
    exact_bm25 = bm25_sql(BM25_QUERIES, BM25_K, CFG)
    return {
        "bm25_topk": exact_bm25,
        "bm25_topk_wand": exact_bm25,
        "bm25_topk_rescore": exact_bm25,
        "bm25_topk_filtered": bm25_sql(BM25_QUERIES, BM25_K, CFG,
                                       filter_sql=f"__f.lang = '{FILTER_LANG}'"),
        "bm25_dsl_filter": bm25_sql(BM25_QUERIES, BM25_K, CFG,
                                    filter_sql=filter_spec_sql(
                                        DSL_FILTER_SPEC)),
        "bm25_sorted": bm25_sql(BM25_QUERIES, BM25_K, CFG,
                                sort_field=SORT_FIELD,
                                sort_order=SORT_ORDER),
        "bm25_function_score": bm25_sql(
            BM25_QUERIES, BM25_K, CFG,
            score_mul_sql=function_score_mul_sql(FVF_SPEC)),
        "bm25_rank_feature": bm25_sql(
            BM25_QUERIES, BM25_K, CFG,
            score_add_sql=rank_feature_add_sql(RANK_FEATURE_SPEC)),
        "bm25_rank_features": bm25_sql(
            BM25_QUERIES, BM25_K, CFG,
            score_add_sql=" + ".join(
                f"({rank_feature_add_sql(f)})"
                for f in RANK_FEATURES_SPEC["features"])),
        "bm25_distance_feature": bm25_sql(
            BM25_QUERIES, BM25_K, CFG,
            score_add_sql=rank_feature_add_sql(DIST_FEATURE_SPEC)),
        "bm25_pinned": pinned_sql(BM25_QUERIES, PINNED_IDS, BM25_K, CFG),
        "bm25_terms_set": _terms_set_oracle(),
        "bm25_combined_fields": combined_fields_sql(
            MULTI_MATCH_QUERIES, BM25_K, CFG, "text", "lang",
            w_a=CF_WEIGHTS["text"], w_b=CF_WEIGHTS["lang"]),
        "bm25_span_or": span_or_near_sql(SPAN_OR_QUERIES, BM25_K, CFG,
                                         slop=SPAN_OR_SLOP),
        "bm25_span_multi": span_multi_sql(
            SPAN_MULTI_QUERIES, BM25_K, CFG, slop=SPAN_MULTI_SLOP,
            max_expansions=SPAN_MULTI_MAXEXP),
        "bm25_span_not": span_not_sql(SPAN_NOT_QUERIES, BM25_K, CFG,
                                      pre=SPAN_NOT_PRE,
                                      post=SPAN_NOT_POST),
        "bm25_span_within": span_within_sql(SPAN_WC_QUERIES, BM25_K,
                                            CFG, slop=SPAN_WC_SLOP),
        "bm25_span_containing": span_containing_sql(
            SPAN_WC_QUERIES, BM25_K, CFG, slop=SPAN_WC_SLOP),
        "bm25_span_ordered": span_ordered_sql(SPAN_ORD_QUERIES, BM25_K,
                                              CFG, slop=SPAN_ORD_SLOP),
        "bm25_stemmed": bm25_sql(STEM_QUERIES, BM25_K,
                                 _STEM_CFG),
        "bm25_matched_queries": matched_queries_sql(
            MATCHED_Q_SPECS, BM25_K, CFG),
        "bm25_scripted_metric": _scripted_metric_oracle(),
        "bm25_indices_boost": _indices_boost_oracle(),
        "bm25_template": bm25_sql(BM25_QUERIES, BM25_K, CFG),
        "bm25_decay_recency": _decay_recency_oracle(),
        "has_child_max": _has_child_oracle("max"),
        "has_child_sum": _has_child_oracle("sum"),
        "has_child_avg": _has_child_oracle("avg"),
        "has_parent_expand": _has_parent_oracle(),
        "children_agg": _children_agg_oracle(),
        "count_api": _count_api_oracle(),
        "ingest_json": _ingest_json_oracle(),
        "ingest_transform": _ingest_transform_oracle(),
        "script_fields": _script_fields_oracle(),
        "terms_lookup": _terms_lookup_oracle(),
        "incremental_dedup": _incremental_dedup_oracle(),
        "rollover_search": _rollover_oracle(),
        "response_latency": response_latency_sql(_transcript_arms()),
        "tool_transitions": tool_transitions_sql(_transcript_arms()),
        "conversation_dedup": _conversation_dedup_oracle(),
        "events_funnel": _events_funnel_oracle(),
        "percolate_filtered": percolate_filtered_sql(
            PERC_FILTERED_Q, PERC_FILTERED_F, CFG),
        "search_pipeline": _search_pipeline_oracle(),
        "alias_search": bm25_sql(BM25_QUERIES, BM25_K, CFG,
                                 filter_sql=filter_spec_sql(
                                     ALIAS_FILTER_SPEC)),
        "ingest_simulate": (
            "SELECT doc_id, "
            "regexp_replace(text, '[0-9]+', '#', 'g') AS text, "
            "upper(lang) AS lang, source AS origin, "
            "CAST(n_chars AS DOUBLE) AS n_chars, 'v1' AS pipeline "
            "FROM documents"),
        "percolate_all": percolate_sql(PERC_QUERIES, CFG,
                                       match_mode="all"),
        "percolate_phrase": percolate_sql(PERC_PHRASES, CFG,
                                          match_mode="phrase"),
        "semdedup": semdedup_sql(IVF_CENTROID_IDS, 0.95,
                                 N_PLANTED_DUPS, PLANT_ID_OFFSET),
        "bm25_radial": bm25_sql(RADIAL_QUERY, CFG.max_k, CFG,
                                min_score=RADIAL_MIN_SCORE),
        "bm25_phrase": phrase_sql(PHRASE_QUERIES, BM25_K, CFG),
        "bm25_span_near": span_near_sql(SPAN_QUERIES, BM25_K, CFG,
                                        slop=SPAN_SLOP),
        "bm25_constant_score": constant_score_sql(BM25_QUERIES, BM25_K,
                                                  CONST_SCORE, CFG),
        "bm25_boosting": boosting_query_sql(BM25_QUERIES, BOOSTING_NEG,
                                            BM25_K, NEGATIVE_BOOST, CFG),
        "bm25_boolean": boolean_sql(BOOLEAN_QUERIES, BM25_K, CFG),
        "bm25_min_should_match": boolean_sql(MSM_QUERIES, BM25_K, CFG,
                                             msm=MSM_N),
        "bm25_highlight": highlight_sql(BM25_QUERIES, BM25_K, CFG),
        "bm25_highlight_frag": highlight_frag_sql(BM25_QUERIES, BM25_K,
                                                  CFG,
                                                  window=HL_WINDOW),
        "bm25_explain": explain_sql(BM25_QUERIES, BM25_K, CFG),
        "bm25_cumulative_sum": _date_histogram_oracle_p(
            "cumulative_sum"),
        "bm25_derivative": _date_histogram_oracle_p("derivative"),
        "bm25_moving_avg": _date_histogram_oracle_p("moving_avg",
                                                    window=3),
        "bm25_serial_diff": _date_histogram_oracle_p("serial_diff",
                                                     lag=2),
        "bm25_bucket_selector": _date_histogram_oracle_p(
            "bucket_selector", sel_op="gte", sel_val=5),
        "bm25_bucket_script": _date_histogram_oracle_p("bucket_script"),
        "bm25_moving_max": _date_histogram_oracle_p("moving_max",
                                                    window=3),
        "bm25_normalize": _date_histogram_oracle_p("normalize"),
        "bm25_bucket_sort": _date_histogram_oracle_p(
            "bucket_sort", s_from=BUCKET_SORT_FROM,
            s_size=BUCKET_SORT_SIZE),
        "bm25_moving_percentiles": _date_histogram_oracle_p(
            "moving_percentiles", window=MOVING_PCT_WINDOW,
            percent=MOVING_PCT_Q),
        "bm25_rate": _date_histogram_oracle_p("rate", unit=RATE_UNIT),
        "bm25_mad": mad_sql(BM25_QUERIES, FACET_MIN_SCORE, STATS_COL,
                            CFG),
        "bm25_boxplot": boxplot_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                    STATS_COL, CFG),
        "bm25_t_test": t_test_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                  STATS_COL, T_TEST_FILTER_A,
                                  T_TEST_FILTER_B, CFG),
        "bm25_cumulative_cardinality": _cumulative_cardinality_oracle(),
        "bm25_max_bucket": _bucket_metric_oracle("max_bucket"),
        "bm25_min_bucket": _bucket_metric_oracle("min_bucket"),
        "bm25_sum_bucket": _bucket_metric_oracle("sum_bucket"),
        "bm25_avg_bucket": _bucket_metric_oracle("avg_bucket"),
        "bm25_stats_bucket": _bucket_metric_oracle("stats_bucket"),
        "bm25_multi_terms": multi_terms_sql(
            BM25_QUERIES, FACET_MIN_SCORE, MULTI_TERMS_FIELDS, CFG,
            size=MULTI_TERMS_SIZE),
        "bm25_rare_terms": rare_terms_sql(
            BM25_QUERIES, FACET_MIN_SCORE, "source",
            f"SELECT count(*) // {RARE_TERMS_DIV} FROM documents", CFG),
        "bm25_extended_stats": extended_stats_sql(
            BM25_QUERIES, FACET_MIN_SCORE, STATS_COL, CFG,
            sigma=EXT_STATS_SIGMA),
        "bm25_weighted_avg": weighted_avg_sql(
            BM25_QUERIES, FACET_MIN_SCORE, WAVG_VALUE_COL,
            WAVG_WEIGHT_COL, CFG),
        "bm25_percentile_ranks": percentile_ranks_sql(
            BM25_QUERIES, FACET_MIN_SCORE, STATS_COL,
            PCT_RANK_VALUES, CFG),
        "bm25_top_metrics": top_metrics_sql(
            BM25_QUERIES, FACET_MIN_SCORE, "n_chars",
            ["lang", "source"], TOP_METRICS_SIZE, "desc", CFG),
        "bm25_missing": _missing_oracle(),
        "bm25_value_count": _value_count_oracle(),
        "delete_by_query": _delete_by_query_oracle(),
        "update_by_query": _update_by_query_oracle(),
        "pit_search": bm25_sql(PIT_QUERIES, BM25_K, CFG),
        "reindex_search": _reindex_oracle(),
        "mget": _mget_oracle(),
        "field_stats": _field_stats_oracle(),
        "sparse_vector": sparse_vector_sql(SPARSE_QUERIES, BM25_K, CFG),
        "geo_distance": geo_distance_sql(GEO_QUERIES, GEO_K,
                                         GEO_LAT_SQL, GEO_LON_SQL,
                                         radius_km=GEO_RADIUS_KM),
        "geo_bbox": geo_bbox_sql(GEO_BOXES, GEO_LAT_SQL, GEO_LON_SQL),
        "geo_polygon": geo_polygon_sql(GEO_POLYGONS, GEO_LAT_SQL,
                                       GEO_LON_SQL),
        "geotile_grid": geotile_grid_sql(GEOTILE_ZOOM, GEOTILE_SIZE,
                                         GEO_LAT_SQL, GEO_LON_SQL),
        "geohash_grid": geohash_grid_sql(GEOHASH_PRECISION, GEOHASH_SIZE,
                                         GEO_LAT_SQL, GEO_LON_SQL),
        "geo_centroid": geo_centroid_sql(GEO_LAT_SQL, GEO_LON_SQL,
                                         decimals=2),
        "bm25_vw_histogram": vw_histogram_sql(
            BM25_QUERIES, FACET_MIN_SCORE, STATS_COL, VW_HIST_BUCKETS,
            CFG),
        "bm25_global_stats": global_stats_sql(STATS_COL),
        "bm25_sampler": sampler_sql(
            BM25_QUERIES, FACET_MIN_SCORE, SAMPLER_FIELD,
            SAMPLER_SHARD_SIZE, CFG),
        "bm25_div_sampler": diversified_sampler_sql(
            BM25_QUERIES, FACET_MIN_SCORE, SAMPLER_FIELD, FACET_COL,
            DIV_SAMPLER_MAX_PER_VALUE, DIV_SAMPLER_SHARD_SIZE, CFG),
        "bm25_auto_date_histogram": _auto_date_histogram_oracle(),
        "bm25_adjacency_matrix": adjacency_matrix_sql(
            BM25_QUERIES, FACET_MIN_SCORE, FILTERS_AGG, CFG),
        "bm25_string_stats": string_stats_sql(
            BM25_QUERIES, FACET_MIN_SCORE, STRING_STATS_FIELD, CFG),
        "bm25_matrix_stats": matrix_stats_sql(
            BM25_QUERIES, FACET_MIN_SCORE, MATRIX_X, MATRIX_Y, CFG),
        "bm25_date_range": _date_range_oracle(),
        "rank_eval_precision": rank_eval_sql(
            BM25_QUERIES, {}, BM25_K, CFG, metric="precision",
            rating_rule_sql=f"d.doc_id % {RATING_MOD} = 0"),
        "rank_eval_mrr": rank_eval_sql(
            BM25_QUERIES, {}, BM25_K, CFG, metric="mrr",
            rating_rule_sql=f"d.doc_id % {RATING_MOD} = 0"),
        "bm25_more_like_this": mlt_sql(MLT_SEEDS, BM25_K, 10, CFG),
        "term_vectors": term_vectors_sql(TERM_VECTOR_DOCS, CFG),
        "analyze_api": analyze_api_sql(TERM_VECTOR_DOCS, CFG),
        "bm25_boosted": boosted_sql(BOOSTED_QUERIES, BM25_K, CFG),
        "bm25_synonyms": synonym_sql(SYN_QUERIES, SYNONYMS, BM25_K, CFG),
        "bm25_prefix": prefix_sql(PREFIX_QUERIES, BM25_K, CFG),
        "bm25_span_first": span_first_sql(SPAN_FIRST_QUERIES, BM25_K,
                                          CFG, end=SPAN_FIRST_END),
        "bm25_match_bool_prefix": prefix_sql(
            {q: _mbp(t) for q, t in MBP_QUERIES.items()}, BM25_K, CFG),
        "bm25_dis_max": dis_max_sql(DIS_MAX_QUERIES, BM25_K,
                                    DIS_MAX_TIE, CFG),
        "bm25_fuzzy": fuzzy_sql(FUZZY_QUERIES, BM25_K, CFG,
                                max_edits=FUZZY_MAX_EDITS),
        "bm25_fuzzy_dl": fuzzy_sql(FUZZY_DL_QUERIES, BM25_K, CFG,
                                   max_edits=FUZZY_MAX_EDITS,
                                   transpositions=True),
        "bm25_simple_query_string": simple_query_string_sql(
            SQS_QUERIES, BM25_K, CFG),
        "bm25_facets": facet_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                 FACET_COL, CFG),
        "bm25_facets_filtered": facet_sql(
            BM25_QUERIES, FACET_MIN_SCORE, "source", CFG,
            include=FACET_INCLUDE, exclude=FACET_EXCLUDE,
            min_doc_count_sql=("greatest(2, (SELECT count(*) FROM "
                               f"documents) // {FACET_DC_DIV})")),
        "bm25_stats_agg": stats_agg_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                        STATS_COL, CFG),
        "bm25_histogram": histogram_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                        STATS_COL, HIST_INTERVAL, CFG),
        "bm25_range_agg": range_agg_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                        STATS_COL, RANGE_RANGES, CFG),
        "bm25_top_hits": top_hits_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                      FACET_COL, TOP_HITS_N, CFG),
        "bm25_multi_match_best": multi_match_sql(
            MULTI_MATCH_QUERIES, BM25_K, CFG, MULTI_MATCH_FIELDS,
            match_type="best_fields", tie_breaker=MULTI_MATCH_TIE),
        "bm25_multi_match_most": multi_match_sql(
            MULTI_MATCH_QUERIES, BM25_K, CFG, MULTI_MATCH_FIELDS,
            match_type="most_fields"),
        "bm25_cardinality": cardinality_sql(BM25_QUERIES,
                                            FACET_MIN_SCORE, FACET_COL,
                                            CFG),
        "bm25_percentiles": percentiles_sql(BM25_QUERIES,
                                            FACET_MIN_SCORE, STATS_COL,
                                            PERCENTS, CFG),
        "bm25_sig_terms": significant_terms_sql(
            BM25_QUERIES, FACET_MIN_SCORE, "source", SIG_TERMS_SIZE, CFG),
        "bm25_significant_text": significant_text_sql(
            BM25_QUERIES, FACET_MIN_SCORE, SIG_TEXT_SIZE, CFG),
        "bm25_filters_agg": filters_agg_sql(BM25_QUERIES,
                                            FACET_MIN_SCORE,
                                            FILTERS_AGG, CFG),
        "bm25_terms_stats": terms_stats_sql(BM25_QUERIES,
                                            FACET_MIN_SCORE, FACET_COL,
                                            STATS_COL, CFG),
        "bm25_composite": composite_sql(BM25_QUERIES, FACET_MIN_SCORE,
                                        FACET_COL, COMPOSITE_SIZE, CFG,
                                        after=COMPOSITE_AFTER),
        "bm25_date_histogram": _date_histogram_oracle(),
        "bm25_search_after": page_sql(BM25_QUERIES, BM25_K, 2, CFG),
        "bm25_phrase_prefix": phrase_prefix_sql(PHRASE_PREFIX_QUERIES,
                                                BM25_K, CFG),
        "hybrid_rrf": hybrid_rrf_sql(HYBRID_QUERIES, BM25_K,
                                     HYBRID_WINDOW, HYBRID_K0, CFG),
        "hybrid_linear": hybrid_linear_sql(HYBRID_QUERIES, BM25_K,
                                           HYBRID_WINDOW,
                                           HYBRID_LIN_WEIGHTS, CFG),
        "bm25_regexp": regexp_sql(REGEXP_QUERIES, BM25_K, CFG),
        "bm25_wildcard": regexp_sql(WILDCARD_QUERIES, BM25_K, CFG,
                                    wildcard=True),
        "term_suggest": suggest_sql(SUGGEST_PREFIXES, SUGGEST_N, CFG),
        "term_suggest_fuzzy": fuzzy_suggest_sql(
            SUGGEST_TYPOS, SUGGEST_N, SUGGEST_MAX_EDITS, CFG),
        "suggest_phrase": phrase_suggest_sql(PHRASE_SUGGEST, 2, CFG),
        "grouped_best_doc": grouped_best_sql(GROUP_QUERY, CFG),
        "grouped_expand": grouped_expand_sql(GROUP_QUERY, EXPAND_GROUPS, CFG),
        "term_stats": term_stats_sql(TERM_STATS_TERMS, CFG),
        "collection_stats": collection_stats_sql(CFG),
        "token_count": token_count_sql(CFG),
        "token_count_bpe": bpe_count_sql(ts_pl.BPE_PATTERN),
        "bpe_merges": bpe_merges_sql(ts_pl.BPE_PATTERN, BPE_MERGE_TOPK),
        "doc_fingerprint": fingerprint_sql(CFG),
        "exact_dedup": exact_dedup_sql(CFG),
        "quality_score": quality_sql(CFG),
        "doc_repetition": repetition_sql(CFG),
        "corpus_clean": corpus_clean_sql(CFG, 5, 0.1),
        "corpus_sample": hash_sample_sql(SAMPLE_RATE, SAMPLE_SALT),
        "corpus_mix": mix_sources_sql(MIX_RATES, MIX_SALT, MIX_DEFAULT),
        "corpus_split": hash_split_sql(SPLITS, SAMPLE_SALT),
        "corpus_pack": pack_chunks_sql(CFG, PACK_BUDGET),
        "corpus_chunk": chunk_sql(CHUNK_TOKENS, CHUNK_OVERLAP),
        "keyword_extract": keyword_sql(KEYWORD_K, CFG),
        "minhash_dedup_exact": minhash_exact_sql(N_PLANT_MH, MH_PLANT_OFFSET),
        "ngram_jaccard_exact": ngram_exact_sql(N_PLANT_MH, MH_PLANT_OFFSET),
        "pii_scrub": pii_scrub_sql(ts_pl.PII_PATTERNS, N_PLANT_PII),
        "pii_filter": pii_filter_sql(ts_pl.PII_PATTERNS, N_PLANT_PII),
        "corpus_decontaminate": decontaminate_sql(
            CFG, DECON_MODULUS, DECON_RESIDUE),
        "ngram_self_overlap": self_overlap_sql(CFG),
        "lang_id": lang_id_sql(CFG),
        "gopher_filter": gopher_filter_sql(CFG),
        "lm_xent": lm_xent_sql(CFG),
        "lm_xent_transfer": lm_xent_transfer_sql(CFG, _transcript_arms()),
        "dsir_weights": dsir_weights_sql(CFG, _transcript_arms()),
        "conversation_assemble": conversation_sql(_transcript_arms()),
        "context_pairs": context_pairs_sql(_transcript_arms(),
                                           CONTEXT_PAIR_TURNS),
        "response_novelty": _response_novelty_oracle(),
        "conversation_validate": validate_conversations_sql(
            _transcript_arms()),
        "conversations_bm25": _conversations_bm25_oracle(),
        "tool_usage_stats": tool_usage_sql(_transcript_arms()),
        "turn_dedup": _turn_dedup_oracle(),
        "knn_cosine_topk": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_l2_topk": knn_sql("l2", KNN_QUERY_IDS, KNN_K),
        "knn_ip_topk": knn_sql("innerproduct", KNN_QUERY_IDS, KNN_K),
        "knn_l1_topk": knn_sql("l1", KNN_QUERY_IDS, KNN_K),
        "knn_linf_topk": knn_sql("linf", KNN_QUERY_IDS, KNN_K),
        "knn_hamming_topk": knn_sql("hamming", KNN_QUERY_IDS, KNN_K),
        "knn_cosine_filtered": knn_sql(
            "cosine", KNN_QUERY_IDS, KNN_K,
            filter_sql=f"e.label = {KNN_FILTER_LABEL}"),
        "knn_cosine_radial": knn_sql("cosine", KNN_QUERY_IDS, KNN_K,
                                     min_score=KNN_RADIAL_MIN_SCORE),
        "knn_cosine_radial_dist": knn_sql("cosine", KNN_QUERY_IDS, KNN_K,
                                          min_score=0.625),
        "knn_byte_topk": byte_knn_sql("l2", KNN_QUERY_IDS, KNN_K,
                                      scale=BYTE_SCALE),
        "knn_ivf_cosine": ivf_fixed_sql("cosine", KNN_QUERY_IDS, KNN_K,
                                        IVF_CENTROID_IDS, IVF_N_PROBE),
        "knn_ivf_partitioned": ivf_fixed_sql("cosine", KNN_QUERY_IDS, KNN_K,
                                             IVF_CENTROID_IDS, IVF_N_PROBE),
        # degenerate-exact settings: full oversample / full beam == brute
        # force, so the approximate engines get HARD oracles too
        "knn_pq_rerank": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_ivfpq_rerank": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_topk": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_merged": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_added": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_pq": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_bq": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_nvq": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_mbq": knn_sql("cosine", KNN_QUERY_IDS, KNN_K),
        "knn_graph_filtered": knn_sql(
            "cosine", KNN_QUERY_IDS, KNN_K,
            filter_sql=f"e.label = {KNN_FILTER_LABEL}"),
        "knn_graph_radial": knn_sql("cosine", KNN_QUERY_IDS, KNN_K,
                                    min_score=KNN_RADIAL_MIN_SCORE),
        "knn_ivf_filtered": knn_sql(
            "cosine", KNN_QUERY_IDS, KNN_K,
            filter_sql=f"e.label = {KNN_FILTER_LABEL}"),
        "knn_ivfpq_filtered": knn_sql(
            "cosine", KNN_QUERY_IDS, KNN_K,
            filter_sql=f"e.label = {KNN_FILTER_LABEL}"),
        "embedding_near_dups": embedding_dups_sql(
            0.95, N_PLANTED_DUPS, PLANT_ID_OFFSET),
        "simhash_near_dups": simhash_sql(CFG, max_hamming=3),
        "transcripts_bm25": _transcripts_oracle(),
        "events_last_write_wins": events_lww_sql(),
        "events_window_agg": events_window_sql(),
        "events_sessionize": events_sessionize_sql(),
        "events_asof_orders": events_asof_orders_sql(),
        "orders_range_join": range_join_sql(days=90),
        "lineitem_quantiles": quantile_sql(),
        "pricing_summary": pricing_summary_sql(),
        "revenue_by_nation": revenue_by_nation_sql(),
        "revenue_by_region_brand": revenue_by_region_brand_sql(),
        "top_order_revenue": top_order_revenue_sql(),
    }
