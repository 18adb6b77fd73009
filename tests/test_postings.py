"""Posting codec tests: varint roundtrip (property-based), vectorized
builder vs a naive dict-of-lists reference, block-max invariants
(SURVEY §5: posting encode/decode roundtrip tests)."""

from collections import defaultdict

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from opensearch_jvector_ray.analyze import tokenize
from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.functions.scoring import bm25_tf_part
from opensearch_jvector_ray.postings import (
    build_postings_table, decode_blocks, decode_posting_list,
    decode_positions,
    groupwise_cumsum, groupwise_delta, varint_decode, varint_encode,
)


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip_property(values):
    arr = np.array(values, dtype=np.uint64)
    enc, lens = varint_encode(arr)
    assert int(lens.sum()) == len(enc)
    dec = varint_decode(enc)
    assert dec.tolist() == [int(v) for v in values]


def test_varint_known_bytes():
    enc, _ = varint_encode(np.array([0, 1, 127, 128, 300], dtype=np.uint64))
    assert enc.tolist() == [0x00, 0x01, 0x7F, 0x80, 0x01, 0xAC, 0x02]


def test_groupwise_delta_cumsum_roundtrip():
    vals = np.array([3, 7, 9, 2, 2, 5, 11], dtype=np.int64)
    starts_mask = np.array([1, 0, 0, 1, 0, 0, 0], dtype=bool)
    gaps = groupwise_delta(vals, starts_mask)
    assert gaps.tolist() == [3, 4, 2, 2, 0, 3, 6]
    back = groupwise_cumsum(gaps, np.flatnonzero(starts_mask))
    assert back.tolist() == vals.tolist()


def _naive_postings(docs: list[str], cfg: EngineConfig):
    """Independent dict-of-lists reference implementation."""
    import re
    tok = re.compile(r"[a-z0-9]+")
    stop = set(cfg.stopwords)
    post = defaultdict(lambda: defaultdict(list))  # term -> ord -> [pos]
    dl = []
    for ordn, text in enumerate(docs):
        toks = tok.findall((text or "").lower())
        kept = 0
        for pos, t in enumerate(toks):
            if t in stop:
                continue
            post[t][ordn].append(pos)
            kept += 1
        dl.append(kept)
    return post, dl


def build_from_texts(docs: list[str], cfg: EngineConfig):
    stream = tokenize(pa.array(docs, type=pa.string()), cfg)
    return build_postings_table(stream.doc_idx, stream.terms,
                                stream.positions, stream.doc_len, cfg), stream


def test_builder_matches_naive_reference():
    rng = np.random.default_rng(7)
    vocab = ["the", "fox", "dog", "cat", "runs", "fast", "a1"]
    docs = [" ".join(rng.choice(vocab, size=rng.integers(0, 30)))
            for _ in range(200)]
    cfg = EngineConfig(block_size=4)
    tbl, stream = build_from_texts(docs, cfg)
    naive, dl = _naive_postings(docs, cfg)
    assert stream.doc_len.tolist() == dl
    assert sorted(tbl["term"].to_pylist()) == tbl["term"].to_pylist()  # sorted by term
    assert set(tbl["term"].to_pylist()) == set(naive.keys())
    for i in range(tbl.num_rows):
        term = tbl["term"][i].as_py()
        ords, tfs = decode_posting_list(tbl["ords_enc"][i].as_py(),
                                        tbl["tfs_enc"][i].as_py())
        exp = naive[term]
        assert ords.tolist() == sorted(exp.keys())
        assert tfs.tolist() == [len(exp[o]) for o in sorted(exp)]
        assert tbl["df"][i].as_py() == len(exp)
        assert tbl["cf"][i].as_py() == sum(len(v) for v in exp.values())
        flat, offs = decode_positions(tbl["pos_enc"][i].as_py(), tfs)
        for j, o in enumerate(sorted(exp)):
            assert flat[offs[j]:offs[j + 1]].tolist() == exp[o]


def test_block_metadata_invariants():
    rng = np.random.default_rng(11)
    docs = [" ".join(rng.choice(["x", "y", "z"], size=rng.integers(1, 9)))
            for _ in range(500)]
    cfg = EngineConfig(block_size=128)
    tbl, stream = build_from_texts(docs, cfg)
    dl = stream.doc_len
    for i in range(tbl.num_rows):
        ords, tfs = decode_posting_list(tbl["ords_enc"][i].as_py(),
                                        tbl["tfs_enc"][i].as_py())
        last = np.asarray(tbl["blk_last_ord"][i].as_py())
        mx = np.asarray(tbl["blk_max_tf"][i].as_py())
        mn = np.asarray(tbl["blk_min_dl"][i].as_py())
        nb = (len(ords) + 127) // 128
        assert len(last) == nb
        for b in range(nb):
            lo, hi = b * 128, min((b + 1) * 128, len(ords))
            assert last[b] == ords[hi - 1]
            assert mx[b] == tfs[lo:hi].max()
            assert mn[b] == dl[ords[lo:hi]].min()
            # block-max bound dominates every true tf-part in the block
            ub = bm25_tf_part(np.array([mx[b]]), np.array([mn[b]]), 5.0)[0]
            true = bm25_tf_part(tfs[lo:hi], dl[ords[lo:hi]], 5.0)
            assert (true <= ub + 1e-12).all()


def test_block_independent_decode_offsets():
    """Blocks must be decodable independently via the byte offsets."""
    docs = ["w"] * 1000   # one term, df=1000, many blocks
    cfg = EngineConfig(block_size=128, stopwords=())
    tbl, _ = build_from_texts(docs, cfg)
    assert tbl.num_rows == 1
    ords, tfs = decode_posting_list(tbl["ords_enc"][0].as_py(),
                                    tbl["tfs_enc"][0].as_py())
    offs = tbl["blk_off_ord"][0].as_py()
    blob = tbl["ords_enc"][0].as_py()
    last = tbl["blk_last_ord"][0].as_py()
    for b in range(len(offs)):
        end = offs[b + 1] if b + 1 < len(offs) else len(blob)
        gaps = varint_decode(blob[offs[b]:end]).astype(np.int64)
        base = last[b - 1] if b > 0 else 0
        block_ords = base + np.cumsum(gaps)
        lo, hi = b * 128, min((b + 1) * 128, len(ords))
        assert block_ords.tolist() == ords[lo:hi].tolist()
    # decode_blocks: any block subset (contiguous runs or not) equals
    # those blocks cut out of the full decode, on both codecs
    docs = [" ".join(["w"] * (i % 4 + 1)) if i % 3 else "x"
            for i in range(1000)]
    for codec in ("varint", "pfor"):
        tbl, _ = build_from_texts(docs, EngineConfig(
            block_size=16, stopwords=(), codec=codec))
        row = tbl.to_pylist()[tbl["term"].to_pylist().index("w")]
        ords, tfs = decode_posting_list(row["ords_enc"], row["tfs_enc"],
                                        codec=codec, df=row["df"],
                                        block_size=16)
        n_blk = len(row["blk_last_ord"])
        for blocks in ([0], [n_blk - 1], list(range(n_blk)),
                       [1, 2, 5, 7, 8, n_blk - 1], []):
            want = np.array([i for b in blocks for i in
                             range(b * 16, min((b + 1) * 16, len(ords)))],
                            dtype=np.int64)
            got_o, got_t = decode_blocks(row, np.array(blocks), codec, 16)
            assert got_o.tolist() == ords[want].tolist()
            assert got_t.tolist() == tfs[want].tolist()


def test_empty_input():
    cfg = EngineConfig()
    tbl, _ = build_from_texts([], cfg)
    assert tbl.num_rows == 0


def test_pfor_irregular_blk_n_roundtrip():
    """Bulk-merged pfor runs have IRREGULAR block boundaries recorded in
    blk_n; decode must honor them (hypothesis-style randomized check)."""
    import numpy as np
    from opensearch_jvector_ray.postings import (
        for_pack_block, pfor_decode_run,
    )
    rng = np.random.default_rng(91)
    for trial in range(25):
        n_blocks = int(rng.integers(1, 8))
        blk_n = rng.integers(1, 40, size=n_blocks)
        values = rng.integers(0, 1 << int(rng.integers(1, 40)),
                              size=int(blk_n.sum())).astype(np.uint64)
        blob = b""
        pos = 0
        for bn in blk_n:
            blob += for_pack_block(values[pos:pos + bn])
            pos += bn
        out = pfor_decode_run(blob, len(values), block_size=128,
                              blk_n=blk_n.tolist())
        np.testing.assert_array_equal(out, values)
