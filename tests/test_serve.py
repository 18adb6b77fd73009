"""SearchService (persistent actors): identity with IndexSearcher and
cache behavior."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.serve import SearchService
from opensearch_jvector_ray.stages.build import IndexSpec, build_index
from opensearch_jvector_ray.synth import generate_conversations

QUERIES = {"a": "zebra quantum nebula", "b": "data model search index",
           "c": "checkpoint lineage metric"}


def test_service_matches_index_searcher(tmp_path):
    corpus = generate_conversations(np.arange(150))
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(corpus), idx, EngineConfig(num_segments=6),
                IndexSpec())
    base = IndexSearcher(idx).search(QUERIES, k=12)
    svc = SearchService(idx, num_shards=3)
    try:
        out1 = svc.search(QUERIES, k=12)
        pd.testing.assert_frame_equal(base, out1, atol=1e-12)
        # an IDENTICAL request is now served by the request cache
        out2 = svc.search(QUERIES, k=12)
        pd.testing.assert_frame_equal(out1, out2)
        assert svc.request_cache_stats()["hits"] == 1
        # a different k misses the request cache but hits the actors'
        # decoded-postings cache (same terms)
        svc.search(QUERIES, k=5)
        stats = svc.cache_stats()
        assert sum(s["hits"] for s in stats) > 0
        assert sum(s["cached_terms"] for s in stats) > 0
    finally:
        svc.shutdown()


def test_service_unknown_terms(tmp_path):
    corpus = generate_conversations(np.arange(40))
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(corpus), idx, EngineConfig(num_segments=2),
                IndexSpec())
    svc = SearchService(idx, num_shards=2)
    try:
        out = svc.search({"q": "xyzzynotaword the of"}, k=5)
        assert out.empty
    finally:
        svc.shutdown()


def test_service_filtered_search(tmp_path):
    import pyarrow.compute as pc
    corpus = generate_conversations(np.arange(120))
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(corpus), idx, EngineConfig(num_segments=4),
                IndexSpec())
    f = pc.field("role") == "assistant"
    base = IndexSearcher(idx).search({"q": "data model search"}, k=10, filter=f)
    svc = SearchService(idx, num_shards=2)
    try:
        out = svc.search({"q": "data model search"}, k=10, filter=f)
        pd.testing.assert_frame_equal(base, out, atol=1e-12)
    finally:
        svc.shutdown()


@pytest.fixture(scope="module")
def merged(tmp_path_factory):
    """A bulk-merged index: its segments carry key_rank (the tie path)."""
    import pyarrow.parquet as pq
    from opensearch_jvector_ray.stages.merge import merge_index
    root = tmp_path_factory.mktemp("merged")
    idx, out = str(root / "idx"), str(root / "merged")
    build_index(rd.from_arrow(generate_conversations(np.arange(150))), idx,
                EngineConfig(num_segments=6), IndexSpec())
    merge_index(idx, out, merge_factor=2)
    seg_dirs = IndexSearcher(out).seg_dirs
    assert len(seg_dirs) == 3
    assert "key_rank" in pq.read_schema(f"{seg_dirs[0]}/docs.parquet").names
    return out


def same(warm, want):
    pd.testing.assert_frame_equal(warm, want, check_dtype=True)


def test_warm_cold_parity_on_bulk_merged_index(merged):
    """Warm and cold paths run the same segment kernel; frames agree
    exactly, dtypes included, on a bulk-merged index (key_rank ties)."""
    import pyarrow.compute as pc
    cold = IndexSearcher(merged)
    svc = SearchService(merged, num_shards=2, request_cache_size=0)
    f = pc.field("role") == "assistant"
    tw = {"a": [("data", 2.0), ("model", 1.0)], "b": [("search", 1.0)]}
    sv = {"a": [("data", 2.0), ("index", 1.0)]}
    ms = 1e-9
    try:
        same(svc.search(QUERIES, k=12), cold.search(QUERIES, k=12))
        # concurrency=1: all three segments in one task
        same(cold.search(QUERIES, k=12, concurrency=1),
             cold.search(QUERIES, k=12))
        with pytest.raises(ValueError, match="concurrency"):
            cold.search(QUERIES, k=12, concurrency=-1)
        same(svc.search(QUERIES, k=12, filter=f),
             cold.search(QUERIES, k=12, filter=f))
        texts = {q: "" for q in tw}
        same(svc.search(texts, k=12, term_weights=tw),
             cold.search(texts, k=12, term_weights=tw))
        same(svc.sparse_vector_search(sv, k=12),
             cold.sparse_vector_search(sv, k=12))
        a = svc.agg
        same(a.facet_counts(QUERIES, facet_col="role", min_score=ms),
             cold.facet_counts(QUERIES, facet_col="role", min_score=ms))
        flt = {"u": {"term": {"role": "user"}},
               "t": {"term": {"role": "assistant"}}}
        same(a.filters_agg(QUERIES, filters=flt, min_score=ms),
             cold.filters_agg(QUERIES, filters=flt, min_score=ms))
        same(a.significant_text_agg(QUERIES, min_score=ms, size=5),
             cold.significant_text_agg(QUERIES, min_score=ms, size=5))
        same(a.top_hits_agg(QUERIES, group_col="role", n=2, min_score=ms),
             cold.top_hits_agg(QUERIES, group_col="role", n=2,
                               min_score=ms))
        same(a.count(QUERIES), cold.count(QUERIES))
        for fn, kw in (("missing_agg", dict(field="tool")),
                       ("value_count_agg", dict(field="tool")),
                       ("stats_agg", dict(value_col="turn_idx")),
                       ("extended_stats_agg", dict(value_col="turn_idx")),
                       ("histogram_agg", dict(value_col="turn_idx",
                                              interval=3)),
                       ("date_histogram_agg", dict(ts_col="ts",
                                                   calendar_interval="hour")),
                       ("adjacency_matrix_agg", dict(filters=flt))):
            same(getattr(a, fn)(QUERIES, min_score=ms, **kw),
                 getattr(cold, fn)(QUERIES, min_score=ms, **kw))
    finally:
        svc.shutdown()


def test_every_search_mode_serves_warm(merged):
    """The warm facade reaches every kernel mode, frame-identical to the
    cold tasks: positional/WAND modes read raw rows, the others the
    actors' decoded-postings cache."""
    cold = IndexSearcher(merged)
    svc = SearchService(merged, num_shards=2, request_cache_size=0)
    phrase = {"p": "data model", "q": "model search"}
    try:
        warm = svc.agg
        for kw in (dict(mode="wand"), dict(mode="boolean"),
                   dict(mode="span", slop=2), dict(mode="span_first",
                                                   span_end=5),
                   dict(rescore_oversample=2.0)):
            got = cold.search(QUERIES, k=12, **kw)
            assert len(got), kw
            same(warm.search(QUERIES, k=12, **kw), got)
        same(warm.search(phrase, k=12, mode="phrase"),
             cold.search(phrase, k=12, mode="phrase"))
        same(warm.phrase_prefix_search({"p": "data mod"}, k=12),
             cold.phrase_prefix_search({"p": "data mod"}, k=12))
        sqs = {"s": '+data "model search" -zebra'}
        same(warm.simple_query_string(sqs, k=12),
             cold.simple_query_string(sqs, k=12))
        dm = {"d": ["data model", "search index"]}
        same(warm.dis_max(dm, k=12, tie_breaker=0.3),
             cold.dis_max(dm, k=12, tie_breaker=0.3))
        syn = {"data": ["index"]}
        same(warm.synonym_search(QUERIES, syn, k=12),
             cold.synonym_search(QUERIES, syn, k=12))
        # no hits in any segment: both terms are present, never adjacent
        # in this order (the planted phrase ends its turn)
        none = cold.search({"n": "nebula zebra"}, k=12, mode="phrase")
        assert none.empty
        same(warm.search({"n": "nebula zebra"}, k=12, mode="phrase"), none)
        # no query term in the dictionary: the same typed empty frame
        absent = {"x": "xyzzynotaword"}
        same(cold.search(absent, k=12), none)
        same(warm.search(absent, k=12), none)
    finally:
        svc.shutdown()


def test_warm_search_publishes_segment_counters(merged):
    """Warm requests run SegmentSearcher, so they show in the engine
    counters like cold ones: one segments_searched per segment."""
    import time
    from opensearch_jvector_ray.state import metrics
    n_segs = len(IndexSearcher(merged).seg_dirs)
    svc = SearchService(merged, num_shards=2, request_cache_size=0)
    try:
        before = metrics.snapshot().get(metrics.SEGMENTS_SEARCHED, 0)
        svc.search(QUERIES, k=5)
        grown = 0
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            grown = metrics.snapshot().get(metrics.SEGMENTS_SEARCHED,
                                           0) - before
            if grown >= n_segs:
                break
            time.sleep(0.05)
        assert grown == n_segs
    finally:
        svc.shutdown()
