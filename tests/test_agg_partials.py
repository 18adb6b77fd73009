"""Aggregation partials: every segment's partial table has the schema
its kind declares, whether or not the query matched in that segment."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import (
    _AGG_KINDS, IndexSearcher, _search_segments_task,
)
from opensearch_jvector_ray.stages.build import IndexSpec, build_index
from opensearch_jvector_ray.synth import generate_conversations

# "zebra" is planted in conversation 0 only (synth.PLANT_EVERY)
Q = {"z": "zebra"}
MS = 1e-9


class _PerSegmentSearcher(IndexSearcher):
    """Runs the segment kernel in-process, one segment per call, and
    records each agg fan-out's per-segment partial schemas."""

    def __init__(self, index_dir: str):
        super().__init__(index_dir)
        self.schemas: dict[str, list[pa.Schema]] = {}

    def _map_segments(self, payload, concurrency=None):
        tables = [_search_segments_task(pa.table({"seg_dir": [d]}), payload)
                  for d in self.seg_dirs]
        kind = payload["agg"]["kind"]
        self.schemas.setdefault(kind, []).extend(t.schema for t in tables)
        return [t.to_pandas() for t in tables]


@pytest.fixture(scope="module")
def one_segment_term(tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("aggp") / "idx")
    build_index(rd.from_arrow(generate_conversations(np.arange(40))), idx,
                EngineConfig(num_segments=4), IndexSpec())
    s = _PerSegmentSearcher(idx)
    holding = [d for d in s.seg_dirs
               if "zebra" in pq.read_table(f"{d}/postings.parquet",
                                           columns=["term"])["term"]
               .to_pylist()]
    assert len(s.seg_dirs) >= 3 and len(holding) == 1
    return s


def test_partial_schema_is_the_same_in_every_segment(one_segment_term):
    s = one_segment_term
    flt = {"u": {"term": {"role": "user"}},
           "t": {"term": {"role": "assistant"}}}
    s.facet_counts(Q, facet_col="role", min_score=MS)
    s.count(Q)
    s.missing_agg(Q, field="tool", min_score=MS)
    s.value_count_agg(Q, field="tool", min_score=MS)
    s.stats_agg(Q, value_col="turn_idx", min_score=MS)
    s.histogram_agg(Q, value_col="turn_idx", interval=2, min_score=MS)
    s.date_histogram_agg(Q, ts_col="ts", calendar_interval="day",
                         min_score=MS)
    s.range_agg(Q, value_col="turn_idx", ranges=[("lo", None, 2.0)],
                min_score=MS)
    s.filters_agg(Q, filters=flt, min_score=MS)
    s.adjacency_matrix_agg(Q, filters=flt, min_score=MS)
    s.top_hits_agg(Q, group_col="role", n=2, min_score=MS)
    s.sampler_agg(Q, field="role", shard_size=3, min_score=MS)
    s.top_metrics_agg(Q, sort_col="turn_idx", metric_cols=["role"],
                      min_score=MS)
    s.terms_stats_agg(Q, group_col="role", value_col="turn_idx",
                      min_score=MS)
    s.multi_terms_agg(Q, fields=["role", "tool"], min_score=MS)
    s.cumulative_cardinality_agg(Q, ts_col="ts", calendar_interval="day",
                                 field="role", min_score=MS)
    s.has_child_search(Q, k=3)
    s.cardinality_agg(Q, field="role", min_score=MS, approx=True)
    s.weighted_avg_agg(Q, value_col="turn_idx", weight_col="turn_idx",
                       min_score=MS)
    s.t_test_agg(Q, value_col="turn_idx", filter_a=flt["u"],
                 filter_b=flt["t"], min_score=MS)
    s.matrix_stats_agg(Q, x_col="turn_idx", y_col="turn_idx", min_score=MS)
    s.string_stats_agg(Q, field="role", min_score=MS)
    s.scripted_metric_agg(Q, lambda docs, ords, sc: len(ords), sum,
                          min_score=MS)
    s.tdigest_percentiles_agg(Q, value_col="turn_idx", percents=[0.5],
                              min_score=MS)
    s.approx_terms_agg(Q, field="role", min_score=MS)
    s.significant_text_agg(Q, min_score=MS)
    assert set(s.schemas) == set(_AGG_KINDS)
    for kind, schemas in s.schemas.items():
        assert all(sc.equals(schemas[0]) for sc in schemas), \
            (kind, [str(sc) for sc in schemas])
