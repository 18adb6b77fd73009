"""PFor (frame-of-reference bit-packing) codec: roundtrips, end-to-end
equality with the varint codec, merge compatibility, compression."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.postings import (
    for_pack_block, for_unpack_block, pfor_decode_run, pfor_encode_runs,
)
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.stages.build import IndexSpec, build_index
from opensearch_jvector_ray.stages.merge import merge_index
from opensearch_jvector_ray.synth import generate_conversations

QUERIES = {"a": "zebra quantum nebula", "b": "data model search index",
           "c": "checkpoint lineage"}


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=200))
@settings(max_examples=150, deadline=None)
def test_for_block_roundtrip(values):
    arr = np.array(values, dtype=np.uint64)
    packed = for_pack_block(arr)
    out = for_unpack_block(packed, len(arr))
    assert out.tolist() == values


def test_pfor_runs_roundtrip():
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 10000, size=5000).astype(np.uint64)
    run_starts = np.sort(rng.choice(np.arange(1, 5000), size=30, replace=False))
    run_starts = np.concatenate([[0], run_starts])
    data, run_off, blk_off = pfor_encode_runs(vals, run_starts, block_size=128)
    run_ends = np.append(run_starts[1:], len(vals))
    for r in range(len(run_starts)):
        blob = data[run_off[r]:run_off[r + 1]]
        n = int(run_ends[r] - run_starts[r])
        out = pfor_decode_run(blob.tobytes(), n, 128)
        assert out.tolist() == vals[run_starts[r]:run_ends[r]].tolist()


def test_pfor_index_equals_varint_index(tmp_path):
    corpus = generate_conversations(np.arange(150))
    results = {}
    sizes = {}
    for codec in ("varint", "pfor"):
        idx = str(tmp_path / codec)
        build_index(rd.from_arrow(corpus), idx,
                    EngineConfig(num_segments=4, codec=codec), IndexSpec())
        s = IndexSearcher(idx)
        results[codec] = {
            "taat": s.search(QUERIES, k=12),
            "wand": s.search(QUERIES, k=12, mode="wand"),
            "phrase": s.search({"p": "zebra quantum nebula"}, k=12, mode="phrase"),
        }
        sizes[codec] = sum(
            os.path.getsize(os.path.join(dp, f))
            for dp, _, fs in os.walk(idx) for f in fs if f == "postings.parquet")
    for key in results["varint"]:
        pd.testing.assert_frame_equal(results["varint"][key],
                                      results["pfor"][key], atol=1e-12)
    assert sizes["pfor"] > 0 and sizes["varint"] > 0


def test_pfor_merge(tmp_path):
    corpus = generate_conversations(np.arange(80))
    idx = str(tmp_path / "src")
    cfg = EngineConfig(num_segments=6, codec="pfor")
    build_index(rd.from_arrow(corpus), idx, cfg, IndexSpec())
    merged = str(tmp_path / "dst")
    merge_index(idx, merged, merge_factor=3)
    a = IndexSearcher(idx).search(QUERIES, k=10)
    b = IndexSearcher(merged).search(QUERIES, k=10)
    pd.testing.assert_frame_equal(a, b, atol=1e-12)


def test_pfor_bulk_merge_strategy_and_wand(tmp_path):
    """pfor merges take the byte-splice (bulk) path — one block re-packed
    per run, blk_n recording irregular boundaries — and the merged index
    answers WAND (block-skip) queries identically, including a second-
    level merge whose inputs already have irregular blocks."""
    from opensearch_jvector_ray.state.manifest import SegmentManifest, segment_dir
    import pyarrow.parquet as pq_
    corpus = generate_conversations(np.arange(120))
    idx = str(tmp_path / "src")
    cfg = EngineConfig(num_segments=8, codec="pfor", block_size=8)
    build_index(rd.from_arrow(corpus), idx, cfg, IndexSpec())
    m1 = str(tmp_path / "m1")
    merge_index(idx, m1, merge_factor=4)
    man = SegmentManifest.read(segment_dir(m1, 0))
    assert man.lineage.get("strategy") == "bulk"
    post = pq_.read_table(f"{segment_dir(m1, 0)}/postings.parquet")
    assert "blk_n" in post.column_names
    m2 = str(tmp_path / "m2")          # bulk-of-bulk: irregular inputs
    merge_index(m1, m2, merge_factor=4)
    for mode in ("taat", "wand"):
        a = IndexSearcher(idx).search(QUERIES, k=12, mode=mode)
        b = IndexSearcher(m1).search(QUERIES, k=12, mode=mode)
        c = IndexSearcher(m2).search(QUERIES, k=12, mode=mode)
        pd.testing.assert_frame_equal(a, b, atol=1e-12)
        pd.testing.assert_frame_equal(a, c, atol=1e-12)
    # wand is taat with some blocks never decoded: on every index
    # (bulk-merged blk_n blocks and key_rank ties included), with and
    # without a filter, the frames are bit-identical, dtypes included
    import pyarrow.compute as pc_
    for d in (idx, m1, m2):
        s = IndexSearcher(d)
        for f in (None, pc_.field("role") == "assistant"):
            pd.testing.assert_frame_equal(
                s.search(QUERIES, k=12, mode="wand", filter=f),
                s.search(QUERIES, k=12, mode="taat", filter=f),
                check_exact=True, check_dtype=True)
