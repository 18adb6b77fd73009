"""Phrase queries (positions load-bearing), collapse (D4), metrics (T7),
and the CLI surface (S10)."""

import subprocess
import sys

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

import __ray_entry__ as E
from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.oracles import phrase_sql
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.sources.tables import transcripts_index
from opensearch_jvector_ray.stages.build import IndexSpec, build_index
from opensearch_jvector_ray.state import metrics
from opensearch_jvector_ray.synth import generate_conversations

SF = "/root/testdata/sf0.001"


def test_phrase_matches_sql_oracle():
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    got = E.queries()["bm25_phrase"](SF)
    exp = con.sql(E.oracle_sql()["bm25_phrase"]).df()
    g = got[sorted(got.columns)].sort_values(sorted(got.columns)).reset_index(drop=True)
    e = exp[sorted(exp.columns)].sort_values(sorted(exp.columns)).reset_index(drop=True)
    assert len(g) > 0
    pd.testing.assert_frame_equal(g, e, check_dtype=False)


def test_phrase_planted_golden():
    """The planted phrase hits exactly its planted (conv, turn) slots, and
    a shuffled word order does NOT match (positions are load-bearing)."""
    idx = transcripts_index(SF)
    s = IndexSearcher(idx)
    hits = s.search({"p": "zebra quantum nebula"}, k=50, mode="phrase")
    assert len(hits) > 0 and all(hits.turn_idx == 1)
    none = s.search({"p": "nebula zebra quantum"}, k=50, mode="phrase")
    assert len(none) == 0
    # QUERY-side stopwords are dropped by the analyzer, so this phrase is
    # equivalent to "zebra quantum" (documented semantics; the SQL oracle
    # does the same because it analyzes queries with the same chain)
    sw = s.search({"p": "zebra the quantum"}, k=50, mode="phrase")
    eq = s.search({"p": "zebra quantum"}, k=50, mode="phrase")
    pd.testing.assert_frame_equal(sw, eq, atol=1e-12)


def test_phrase_stopword_gap_semantics(tmp_path):
    """'fast the merge' is NOT a phrase match for 'fast merge' (StopFilter
    position gaps, Lucene semantics)."""
    import pyarrow as pa
    tbl = pa.table({
        "conv_id": ["a", "b"],
        "turn_idx": pa.array([0, 0], type=pa.int32()),
        "role": ["user"] * 2,
        "text": ["fast merge wins", "fast the merge loses"],
        "tool": [""] * 2,
        "ts": pa.array([1, 2], type=pa.timestamp("us")),
    })
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(tbl), idx, EngineConfig(num_segments=1), IndexSpec())
    hits = IndexSearcher(idx).search({"p": "fast merge"}, k=10, mode="phrase")
    assert [(r.conv_id) for r in hits.itertuples()] == ["a"]


def test_collapse_one_hit_per_conv():
    idx = transcripts_index(SF)
    s = IndexSearcher(idx)
    plain = s.search({"q": "data model search"}, k=20)
    collapsed = s.search({"q": "data model search"}, k=20,
                         collapse_col="conv_id")
    assert collapsed.conv_id.is_unique
    assert len(set(plain.conv_id)) <= len(plain)
    # collapsed winners are each conv's best plain hit
    best = plain.sort_values("rank").drop_duplicates("conv_id")
    merged = collapsed.merge(best, on="conv_id", suffixes=("_c", "_p"))
    assert (merged.turn_idx_c == merged.turn_idx_p).all()


def test_collapse_requires_key_col():
    idx = transcripts_index(SF)
    with pytest.raises(ValueError):
        IndexSearcher(idx).search({"q": "data"}, k=5, collapse_col="role")


def test_metrics_counters():
    metrics.reset()
    idx = transcripts_index(SF)
    s = IndexSearcher(idx)
    s.search({"q": "data model"}, k=5)
    s.search({"q": "search index"}, k=5, mode="wand")
    snap = metrics.snapshot()
    assert snap.get("query_requests", 0) >= 2
    assert snap.get("segments_searched", 0) >= 1
    assert snap.get("candidates_scored", 0) > 0
    assert snap.get("wand_docs_evaluated", 0) > 0


def test_metrics_actor_lives_in_a_fixed_namespace():
    """The detached counters actor is created and found in one fixed
    namespace, so a driver whose session has an anonymous namespace
    (this test session's) shares it instead of starting its own."""
    import time

    import ray
    metrics.incr({"namespace_probe": 3})
    actor = ray.get_actor(metrics.METRICS_ACTOR_NAME,
                          namespace=metrics.METRICS_NAMESPACE)
    deadline = time.monotonic() + 30
    while ray.get(actor.snapshot.remote()).get("namespace_probe", 0) < 3:
        assert time.monotonic() < deadline, "counter update never landed"
        time.sleep(0.1)
    assert metrics.snapshot().get("namespace_probe", 0) >= 3


def test_engine_stats():
    idx = transcripts_index(SF)
    es = metrics.engine_stats(idx, include_timings=True)
    assert es["index"]["n_docs"] > 0
    assert len(es["segments"]) == es["index"]["num_segments"]
    assert (es["segments"]["num_docs"] > 0).all()


def test_cli_roundtrip(tmp_path):
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
           "HOME": "/root", "RAY_ADDRESS": "local"}
    import os
    env = {**os.environ, "PYTHONPATH": "/root/repo"}
    synth = subprocess.run(
        [sys.executable, "-m", "opensearch_jvector_ray", "synth",
         "--out", str(tmp_path), "--convs", "50"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300)
    assert synth.returncode == 0, synth.stderr[-2000:]
    corpus = synth.stdout.strip().splitlines()[-1]
    idx = str(tmp_path / "idx")
    built = subprocess.run(
        [sys.executable, "-m", "opensearch_jvector_ray", "build",
         "--input", corpus, "--index", idx, "--segments", "2"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300)
    assert built.returncode == 0, built.stderr[-2000:]
    import json
    info = json.loads(built.stdout.strip().splitlines()[-1])
    assert info["num_docs"] > 0
    found = subprocess.run(
        [sys.executable, "-m", "opensearch_jvector_ray", "search",
         "--index", idx, "--query", "data model", "--k", "3"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300)
    assert found.returncode == 0, found.stderr[-2000:]
    assert "conv-" in found.stdout
