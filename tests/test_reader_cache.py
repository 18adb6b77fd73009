"""The per-process segment reader cache (``query.SegmentReader``): what it
holds, its byte budget and counters, lazy position decode, and that a
rebuilt index is never served stale."""

import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from opensearch_jvector_ray import query
from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.postings import decode_positions
from opensearch_jvector_ray.query import IndexSearcher, SegmentReader
from opensearch_jvector_ray.serve import SearchService
from opensearch_jvector_ray.stages.build import IndexSpec, build_index
from opensearch_jvector_ray.synth import generate_conversations

from tests.oracle import BruteForceBM25


def _corpus(texts: list[str]) -> pa.Table:
    n = len(texts)
    return pa.table({
        "conv_id": [f"c{i:04d}" for i in range(n)],
        "turn_idx": pa.array([0] * n, type=pa.int32()),
        "role": ["user"] * n,
        "text": texts,
        "tool": [""] * n,
        "ts": pa.array(np.arange(n, dtype=np.int64) * 1000,
                       type=pa.timestamp("us")),
    })


def _in_process(monkeypatch) -> list[dict]:
    """Run every query fan-out in this process (so its reader cache is
    the one the test reads) and record each call's kwargs."""
    calls = []

    def fan_out(fn, items, concurrency=None, **kw):
        calls.append(kw)
        return [fn(pa.Table.from_pylist([it]), **kw) for it in items]
    monkeypatch.setattr(query, "_fan_out", fan_out)
    return calls


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = query._ReaderCache()
    monkeypatch.setattr(query, "_READERS", cache)
    return cache


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("reader") / "idx")
    build_index(rd.from_arrow(generate_conversations(np.arange(120))), d,
                EngineConfig(num_segments=4), IndexSpec())
    return d


QUERIES = {"a": "zebra quantum nebula", "b": "data model search index",
           "c": "checkpoint lineage metric", "d": "data model"}


def test_budget_bounds_bytes_and_counts_evictions(idx, fresh_cache,
                                                  monkeypatch):
    """Under a budget far below one segment's docs table, every search
    frame equals the uncached one, the cache never holds more than the
    budget, and the evictions are counted."""
    _in_process(monkeypatch)
    s = IndexSearcher(idx)
    modes = ("taat", "wand", "phrase", "span")
    want = {m: s.search(QUERIES, k=7, mode=m) for m in modes}
    st = query.reader_cache_stats()
    assert st["evictions"] == 0 and st["bytes"] <= query._READERS.budget
    assert st["misses"] > 0 and st["cached_terms"] > 0

    budget = 20_000
    monkeypatch.setattr(query, "_READERS", query._ReaderCache(budget))
    for _ in range(2):
        for m in modes:
            got = s.search(QUERIES, k=7, mode=m)
            pd.testing.assert_frame_equal(got, want[m], check_exact=True)
            assert query._READERS.bytes <= budget
    st = query.reader_cache_stats()
    assert st["bytes"] <= budget
    assert st["evictions"] > 0
    assert set(st) >= {"hits", "misses", "cached_terms", "bytes",
                       "evictions"}


def test_reader_entries_match_the_files(idx, fresh_cache):
    """A second read is served from the cache (a hit, the same arrays,
    read-only) and equals what the files hold; absent terms are cached
    as absent."""
    cfg = IndexSearcher(idx).cfg
    seg = IndexSearcher(idx).seg_dirs[0]
    r = SegmentReader(seg, cfg.codec, cfg.block_size)
    terms = ["data", "model", "nosuchterm"]
    dec = r.decoded(terms)
    assert "nosuchterm" not in dec and set(dec) == {"data", "model"}
    hits = fresh_cache.hits
    again = SegmentReader(seg, cfg.codec, cfg.block_size).decoded(terms)
    assert fresh_cache.hits == hits + 3          # the absent one too
    assert again["data"][0] is dec["data"][0]
    assert not dec["data"][0].flags.writeable
    import pyarrow.parquet as pq
    from opensearch_jvector_ray.postings import decode_posting_list
    row, = pq.read_table(r.path, filters=[("term", "==", "data")]
                         ).to_pylist()
    ords, tfs = decode_posting_list(
        row["ords_enc"], row["tfs_enc"], codec=cfg.codec, df=row["df"],
        block_size=cfg.block_size, blk_n=row.get("blk_n"))
    pe = row["pos_enc"]
    np.testing.assert_array_equal(dec["data"][0], ords)
    slot = r.slots(["data"])["data"]
    for a, b in zip(slot, (ords, *decode_positions(pe, tfs))):
        np.testing.assert_array_equal(a, b)
    docs, dl, _ = r.docs()
    assert docs.num_rows == len(dl) and r.docs()[0] is docs
    # hits and misses count per-term lookups only, not docs or row reads
    counts = (fresh_cache.hits, fresh_cache.misses)
    r.docs()
    r.rows(["data"], positions=True)
    assert (fresh_cache.hits, fresh_cache.misses) == counts
    with pytest.raises(TypeError):
        list(r.slots(["data", "model"]))


def test_positions_decode_only_when_a_kernel_asks(tmp_path, fresh_cache,
                                                  monkeypatch):
    """A phrase whose second member is absent from a segment decodes no
    positions there; the segment holding both decodes each member once
    however many queries of the batch use it."""
    texts = [f"nebula alpha beta {i}" for i in range(40)]
    texts[3] = "nebula zebra alpha"
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(_corpus(texts)), d,
                EngineConfig(num_segments=4), IndexSpec())
    calls = _in_process(monkeypatch)
    s = IndexSearcher(d)
    out = s.search({"q": "nebula zebra", "r": "nebula zebra alpha"}, k=5,
                   mode="phrase")
    assert out["conv_id"].tolist() == ["c0003", "c0003"]
    payload = calls[-1]["payload"]
    zebra_segs = 0
    for seg in s.seg_dirs:
        monkeypatch.setattr(query, "_READERS", query._ReaderCache())
        query.SegmentSearcher(payload)(pa.table({"seg_dir": [seg]}))
        present = SegmentReader(seg, s.cfg.codec,
                                s.cfg.block_size).slots(["zebra"])
        n = query._READERS.position_decodes
        if "zebra" in present:
            zebra_segs += 1
            assert n == 3                        # nebula, zebra, alpha
        else:
            assert n == 0
    assert zebra_segs == 1


def test_rebuilt_index_is_never_served_stale(tmp_path):
    """Search an index cold and warm, delete it and build a different
    corpus at the same path: cold and warm frames equal a fresh
    brute-force oracle of the new corpus, and the dictionary df comes
    from the new files."""
    d = str(tmp_path / "idx")
    cfg = EngineConfig(num_segments=3)
    qs = {"a": "zebra quantum nebula", "b": "data model search"}
    terms = ["data", "model", "nebula", "quantum", "search", "zebra"]
    for lo, hi in ((0, 60), (500, 590)):
        shutil.rmtree(d, ignore_errors=True)
        tbl = generate_conversations(np.arange(lo, hi))
        build_index(rd.from_arrow(tbl), d, cfg, IndexSpec())
        docs = {(tbl["conv_id"][i].as_py(), tbl["turn_idx"][i].as_py()):
                tbl["text"][i].as_py() for i in range(tbl.num_rows)}
        oracle = BruteForceBM25(docs, cfg.stopwords)
        s = IndexSearcher(d)
        assert s.lookup_df(terms) == {t: oracle.df[t] for t in terms
                                      if oracle.df[t]}
        svc = SearchService(d, num_shards=2, request_cache_size=0)
        try:
            for _ in range(2):                    # cold, then warm
                for out in (s.search(qs, k=8), IndexSearcher(d).search(
                        qs, k=8), svc.search(qs, k=8)):
                    for qid, text in qs.items():
                        got = out[out["query_id"] == qid]
                        gold = oracle.topk(text, 8)
                        assert [(r.conv_id, r.turn_idx)
                                for r in got.itertuples()] == \
                            [key for key, _ in gold]
                        np.testing.assert_allclose(
                            got["score"].to_numpy(),
                            [sc for _, sc in gold], rtol=1e-9)
        finally:
            svc.shutdown()


def test_cache_accounting_holds_under_threads(monkeypatch):
    """Threads sharing the process cache lose no update: the byte count
    equals the sum over the entries held and stays within budget."""
    import sys
    import threading

    cache = query._ReaderCache(50_000)

    def work(w):
        for i in range(2_000):
            cache.terms(("seg", "ords"), [f"t{(w * 7 + i) % 300}"],
                        lambda ts: {t: (t, 100 + i % 50) for t in ts})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert cache.bytes == sum(n for _, n in cache.entries.values())
    assert cache.bytes <= 50_000 and cache.evictions > 0
    assert cache.hits + cache.misses == 8 * 2_000


def test_an_entry_over_a_quarter_of_the_budget_is_not_admitted():
    """An entry that would flush most of the cache is handed back
    uncached, and nothing already held is evicted for it."""
    quarter = 2_000
    cache = query._ReaderCache(4 * quarter)
    cache.put(("a",), 1, quarter - query._ENTRY_BYTES)
    cache.put(("big",), 2, quarter - query._ENTRY_BYTES + 1)
    assert list(cache.entries) == [("a",)]
    assert cache.bytes == quarter and cache.evictions == 0


def test_budget_is_the_process_share_of_the_node_figure():
    """A Ray worker's budget is the node figure split over one process
    per CPU the node reports plus the driver."""
    import ray

    @ray.remote
    def budget():
        return query._ReaderCache().budget
    cpus = int(ray.cluster_resources()["CPU"])
    assert ray.get(budget.remote()) == \
        query.READER_CACHE_NODE_BYTES // (cpus + 1)


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """Two segments whose vocabularies each span several 4,096-term
    row groups: every doc holds 60 words of its own besides a few
    shared ones."""
    texts = []
    for i in range(160):
        own = " ".join(f"w{i * 60 + j:05d}" for j in range(60))
        shared = " ".join(["alpha"] * (1 + i % 3)
                          + (["beta gamma"] if i % 2 else ["gamma"]))
        texts.append(f"{shared} {own} alpha beta")
    tbl = _corpus(texts)
    d = str(tmp_path_factory.mktemp("wide") / "idx")
    build_index(rd.from_arrow(tbl), d, EngineConfig(num_segments=2),
                IndexSpec())
    return d, tbl


def test_a_miss_reads_only_the_row_group_holding_the_term(wide,
                                                          fresh_cache):
    """On a segment of several row groups, a term's first read reads the
    one row group whose footer bounds hold it; a term outside every
    row group's bounds reads none."""
    d, _ = wide
    s = IndexSearcher(d)
    for seg in s.seg_dirs:
        fresh_cache.entries.clear()
        r = SegmentReader(seg, s.cfg.codec, s.cfg.block_size)
        bounds = r._layout()[1]
        assert len(bounds) >= 2
        last = bounds[-1][1]
        assert set(r.decoded([last, "zzzz"])) == {last}
        assert {k[2] for k in fresh_cache.entries if k[1] == "rg"} == \
            {len(bounds) - 1}
        row, = r.rows([last]).values()
        np.testing.assert_array_equal(r.decode(row)[0],
                                      r.decoded([last])[last][0])


@pytest.mark.parametrize("budget", [None, 60_000])
def test_multi_row_group_search_equals_the_oracle(wide, monkeypatch,
                                                  budget):
    """taat, wand and phrase over multi-row-group segments equal the
    brute-force oracle, with the default budget and with one too small
    to admit a row group (every miss then re-reads its row group)."""
    d, tbl = wide
    _in_process(monkeypatch)
    monkeypatch.setattr(query, "_READERS", query._ReaderCache(budget))
    cfg = EngineConfig(num_segments=2)
    docs = {(tbl["conv_id"][i].as_py(), tbl["turn_idx"][i].as_py()):
            tbl["text"][i].as_py() for i in range(tbl.num_rows)}
    oracle = BruteForceBM25(docs, cfg.stopwords)
    qs = {"a": "alpha w00061 w09555", "b": "beta gamma w04100",
          "c": "w00000 w04799 w09599 alpha"}
    s = IndexSearcher(d)
    for _ in range(2):
        taat = s.search(qs, k=9)
        for qid, text in qs.items():
            got = taat[taat["query_id"] == qid]
            gold = oracle.topk(text, 9)
            assert [(r.conv_id, r.turn_idx) for r in got.itertuples()] \
                == [key for key, _ in gold]
            np.testing.assert_allclose(got["score"].to_numpy(),
                                       [sc for _, sc in gold], rtol=1e-9)
        pd.testing.assert_frame_equal(s.search(qs, k=9, mode="wand"), taat,
                                      check_exact=True)
        phrase = s.search({"p": "beta gamma"}, k=200, mode="phrase")
        assert sorted(phrase["conv_id"]) == [f"c{i:04d}"
                                             for i in range(1, 160, 2)]
    if budget is not None:
        st = query.reader_cache_stats()
        assert st["bytes"] <= budget
        assert not any(k[1] == "rg" for k in query._READERS.entries)
