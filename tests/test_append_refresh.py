"""Appends: path input runs as plain Ray tasks, and the dictionary refresh
reads the last generation plus the new segments when stats.json's
coverage record proves that generation current; every other case reads
every segment.  Either way the published generation must equal a full
re-aggregation over the live segments, Arrow for Arrow."""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.stages.build import (
    IndexSpec, add_segments, build_index,
)
from opensearch_jvector_ray.state.manifest import (
    POSTINGS_NAME, completed_segments, resolve_dict_dir, segment_dir,
)
from opensearch_jvector_ray.synth import generate_conversations

BWC = os.path.join(os.path.dirname(__file__), "fixtures", "bwc", "v1",
                   "index_varint")


def _latest_dictionary(idx: str) -> pa.Table:
    return pq.read_table(resolve_dict_dir(idx))


def _full_aggregate(idx: str) -> pa.Table:
    """df/cf summed over every live segment's postings, sorted by term."""
    tbl = pa.concat_tables([
        pq.read_table(os.path.join(segment_dir(idx, s), POSTINGS_NAME),
                      columns=["term", "df", "cf"])
        for s in sorted(completed_segments(idx))])
    agg = tbl.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
    agg = agg.rename_columns(["term", "df", "cf"])
    agg = agg.take(pc.sort_indices(agg["term"]))
    return pa.table({"term": agg["term"],
                     "df": pc.cast(agg["df"], pa.int64()),
                     "cf": pc.cast(agg["cf"], pa.int64())})


def _assert_dictionary_is_full_aggregate(idx: str) -> None:
    got, want = _latest_dictionary(idx), _full_aggregate(idx)
    assert got.schema == want.schema
    assert got.schema.field("df").type == pa.int64()
    assert got.equals(want)


def _batch(i: int) -> pa.Table:
    return generate_conversations(np.arange(1000 + 10 * i, 1010 + 10 * i))


@pytest.mark.parametrize("source", ["paths", "dataset"])
def test_each_append_refreshes_from_the_last_generation(tmp_path, source):
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(generate_conversations(np.arange(40))), idx,
                EngineConfig(num_segments=2), IndexSpec())
    _assert_dictionary_is_full_aggregate(idx)
    for i in range(5):
        tbl = _batch(i)
        if source == "paths":
            path = str(tmp_path / f"batch-{i}.parquet")
            pq.write_table(tbl, path)
            res = add_segments(idx, path)
        else:
            res = add_segments(idx, rd.from_arrow(tbl))
        assert res.segments_built >= 1
        # the previous generation plus the new segments, not every segment
        assert res.dictionary_inputs == 1 + res.segments_built
        assert res.segments_sec > 0 and res.dictionary_sec > 0
        _assert_dictionary_is_full_aggregate(idx)
    assert res.num_segments > res.dictionary_inputs


def test_resume_and_a_stale_record_read_every_segment(tmp_path):
    """A re-run after a crash mid-append rebuilds a segment the record
    covers, a crash between the dictionary publish and the stats.json
    write leaves a record naming an older generation, and a removed
    segment leaves the record covering a dead one: each refresh reads
    every live segment and publishes the full aggregate."""
    idx = str(tmp_path / "idx")
    cfg = EngineConfig(num_segments=2)
    build_index(rd.from_arrow(generate_conversations(np.arange(30))), idx,
                cfg, IndexSpec())
    extra = str(tmp_path / "extra.parquet")
    pq.write_table(_batch(0), extra)
    first = add_segments(idx, extra)
    assert first.dictionary_inputs == 1 + first.segments_built
    # the test_add_segments_resume_after_partial_append shape
    (jfile,) = os.listdir(os.path.join(idx, "_appends"))
    jpath = os.path.join(idx, "_appends", jfile)
    with open(jpath) as f:
        journal = json.load(f)
    with open(jpath, "w") as f:
        json.dump({**journal, "complete": False}, f)
    victim = max(completed_segments(idx))
    shutil.rmtree(segment_dir(idx, victim))
    res = add_segments(idx, extra)
    assert res.segments_built == 1
    assert res.dictionary_inputs == res.num_segments
    _assert_dictionary_is_full_aggregate(idx)

    stats_path = os.path.join(idx, "stats.json")
    with open(stats_path) as f:
        old_stats = f.read()
    second = str(tmp_path / "second.parquet")
    pq.write_table(_batch(1), second)
    res = add_segments(idx, second)
    assert res.dictionary_inputs == 1 + res.segments_built
    with open(stats_path, "w") as f:        # the stats.json write is lost
        f.write(old_stats)
    third = str(tmp_path / "third.parquet")
    pq.write_table(_batch(2), third)
    res = add_segments(idx, third)
    assert res.dictionary_inputs == res.num_segments
    _assert_dictionary_is_full_aggregate(idx)
    # the record is current again: the next append reads two tables
    fourth = str(tmp_path / "fourth.parquet")
    pq.write_table(_batch(3), fourth)
    res = add_segments(idx, fourth)
    assert res.dictionary_inputs == 1 + res.segments_built
    _assert_dictionary_is_full_aggregate(idx)
    # a covered segment no longer live (its manifest gone, its postings
    # file still there): the last generation over-counts it
    os.remove(os.path.join(segment_dir(idx, 0), "manifest.json"))
    fifth = str(tmp_path / "fifth.parquet")
    pq.write_table(_batch(4), fifth)
    res = add_segments(idx, fifth)
    assert res.dictionary_inputs == res.num_segments
    _assert_dictionary_is_full_aggregate(idx)


# the fixture's documents (scripts/make_bwc_fixture.py), doc_id 0..199
BWC_TEXTS = ["alpha beta sort merge", "alpha gamma merge sort",
             "beta gamma sort merge scan", "alpha beta gamma",
             "gamma delta sort", "alpha scan", "beta merge sort",
             "delta eps sort merge", "alpha delta merge", "beta delta"] * 20


def _bwc_corpus(lo: int, hi: int) -> pa.Table:
    more = ["alpha beta sort merge zeta", "gamma delta scan", "alpha eps",
            "merge sort delta", "beta zeta gamma"]
    text = [BWC_TEXTS[i] if i < len(BWC_TEXTS) else more[i % len(more)]
            for i in range(lo, hi)]
    return pa.table({
        "doc_id": pa.array(range(lo, hi), type=pa.int64()),
        "text": pa.array(text, type=pa.string()),
        "n_chars": pa.array([len(t) for t in text], type=pa.int64()),
    })


def test_append_to_a_copy_of_the_bwc_fixture(tmp_path):
    """The fixture has no coverage record, so its first append reads
    every segment, and the second reads two tables; the copy then ranks
    like a fresh build of the same documents.  The fixture itself is
    not touched."""
    def listing(root):
        return {os.path.relpath(os.path.join(r, f), root):
                os.stat(os.path.join(r, f)).st_mtime_ns
                for r, _, fs in os.walk(root) for f in fs}
    before = listing(BWC)
    idx = str(tmp_path / "bwc")
    shutil.copytree(BWC, idx)
    n = len(BWC_TEXTS)
    for i, (lo, hi) in enumerate([(n, n + 50), (n + 50, n + 80)]):
        path = str(tmp_path / f"extra-{i}.parquet")
        pq.write_table(_bwc_corpus(lo, hi), path)
        res = add_segments(idx, path)
        assert res.dictionary_inputs == (
            res.num_segments if i == 0 else 1 + res.segments_built)
        _assert_dictionary_is_full_aggregate(idx)
    assert listing(BWC) == before

    fresh = str(tmp_path / "fresh")
    build_index(rd.from_arrow(_bwc_corpus(0, n + 80)), fresh,
                EngineConfig(num_segments=3),
                IndexSpec(key_cols=("doc_id",), store_cols=("n_chars",),
                          ts_col=""))
    qs = {"q1": "alpha merge", "q2": "delta sort", "q3": "gamma zeta"}
    pd.testing.assert_frame_equal(IndexSearcher(idx).search(qs, k=60),
                                  IndexSearcher(fresh).search(qs, k=60))
    assert _latest_dictionary(idx).equals(_latest_dictionary(fresh))


def test_path_append_creates_no_dataset(tmp_path, monkeypatch):
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(generate_conversations(np.arange(20))), idx,
                EngineConfig(num_segments=2), IndexSpec())

    def no_dataset(*a, **k):
        raise AssertionError("a path append planned a Ray Data dataset")
    for name in ("from_items", "from_arrow", "read_parquet"):
        monkeypatch.setattr(ray.data, name, no_dataset)
    path = str(tmp_path / "extra.parquet")
    pq.write_table(_batch(0), path)
    res = add_segments(idx, path)
    assert res.segments_built == 1
    _assert_dictionary_is_full_aggregate(idx)


def test_a_failing_fragment_task_fails_the_append_and_resumes(tmp_path):
    """A build that raises inside its task surfaces from add_segments
    and leaves the journal incomplete; a re-run of the same append
    builds under the journalled base."""
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(generate_conversations(np.arange(20))), idx,
                EngineConfig(num_segments=2), IndexSpec())
    path = str(tmp_path / "extra.parquet")
    good = _batch(0)
    pq.write_table(good.drop_columns(["text"]), path)   # fails in the task
    with pytest.raises(ray.exceptions.RayTaskError):
        add_segments(idx, path)
    (jfile,) = os.listdir(os.path.join(idx, "_appends"))
    with open(os.path.join(idx, "_appends", jfile)) as f:
        journal = json.load(f)
    assert journal["complete"] is False
    pq.write_table(good, path)
    res = add_segments(idx, path)
    assert res.segments_built == 1
    assert max(completed_segments(idx)) == journal["base"]
    with open(os.path.join(idx, "_appends", jfile)) as f:
        assert json.load(f)["complete"] is True
    _assert_dictionary_is_full_aggregate(idx)
