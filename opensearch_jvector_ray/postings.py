"""Compressed posting lists: delta-gap varint + per-block block-max metadata.

This is our native re-implementation of the posting codec the reference
delegates to Lucene for (delegation point `KNN10010Codec.java:39-41`;
[Lucene public semantics]: 128-doc posting blocks, delta-gap docIDs,
bit-packed/varint compression, per-block impact (block-max) metadata).
The segment-artifact shape (per-field blobs + offset metadata records)
mirrors `JVectorWriter.writeGraph` / `VectorIndexFieldMetadata`
(`JVectorWriter.java:311-379,419-457`) — blobs with offset lists — but the
byte format is original.

Everything is numpy-vectorized: encoding the whole segment's gaps in ONE
varint pass, then slicing per-term blobs via Arrow binary-array offsets.
No Python loop runs per posting or per term.

Layout per term (one row of the postings table):
  term      : string        (table sorted by term — enables parquet
                             row-group pruning on term filters)
  df        : int32         postings (docs) for the term in this segment
  cf        : int64         total term frequency
  ords_enc  : large_binary  varint(delta-gapped doc ordinals; first value
                             is the absolute ordinal)
  tfs_enc   : large_binary  varint(term frequencies)
  pos_enc   : large_binary  varint(position deltas; per posting the first
                             value is absolute, lengths given by tf)
  blk_last_ord : list<int32> last ordinal of each 128-posting block
  blk_max_tf   : list<int32> max tf within the block       (impact upper bound)
  blk_min_dl   : list<int32> min doc length within block   (impact upper bound:
                  BM25 tf-part is increasing in tf, decreasing in dl, so
                  score(block) <= idf * S(max_tf, min_dl))
  blk_off_ord  : list<int64> byte offset of each block within ords_enc
  blk_off_tf   : list<int64> byte offset of each block within tfs_enc
  blk_n        : list<int32> values per block.  Build-time blocks are
                  uniform (block_size, short tail), but BULK-merged runs
                  concatenate input runs at their original block
                  boundaries, so counts become irregular — this column is
                  what lets the pfor codec byte-splice on merge instead of
                  decode+rebuild (varint is self-delimiting and only needs
                  it implicitly).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from opensearch_jvector_ray.config import EngineConfig

POSTINGS_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("df", pa.int32()),
    ("cf", pa.int64()),
    ("ords_enc", pa.large_binary()),
    ("tfs_enc", pa.large_binary()),
    ("pos_enc", pa.large_binary()),
    ("blk_last_ord", pa.list_(pa.int32())),
    ("blk_max_tf", pa.list_(pa.int32())),
    ("blk_min_dl", pa.list_(pa.int32())),
    ("blk_off_ord", pa.list_(pa.int64())),
    ("blk_off_tf", pa.list_(pa.int64())),
    ("blk_n", pa.list_(pa.int32())),
])


# ---------------------------------------------------------------------------
# varint codec (LEB128, low 7 bits per byte, high bit = continuation)
# ---------------------------------------------------------------------------

def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (vectorized)."""
    a = np.asarray(values, dtype=np.uint64)
    lens = np.ones(len(a), dtype=np.int64)
    for shift in (7, 14, 21, 28, 35, 42, 49, 56, 63):
        lens += (a >= (np.uint64(1) << np.uint64(shift)))
    return lens


def varint_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode an array of non-negative ints.

    Returns ``(bytes, lens)`` where ``bytes`` is a uint8 array holding the
    concatenated encodings and ``lens`` the per-value byte lengths (so
    callers can slice sub-ranges without re-scanning).
    """
    a = np.asarray(values, dtype=np.uint64)
    if len(a) == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    if a.max() < 128:
        # single-byte fast path: the common case for tf values, position
        # deltas and dense-posting ord gaps — one pass instead of ~10
        return a.astype(np.uint8), np.ones(len(a), dtype=np.int64)
    lens = varint_lengths(a)
    total = int(lens.sum())
    out = np.zeros(total, dtype=np.uint8)
    pos = np.zeros(len(a), dtype=np.int64)
    np.cumsum(lens[:-1], out=pos[1:])
    rem = a.copy()
    max_len = int(lens.max())
    for i in range(max_len):
        active = lens > i
        byte = (rem[active] & np.uint64(0x7F)).astype(np.uint8)
        more = (i + 1) < lens[active]
        out[pos[active] + i] = byte | (more.astype(np.uint8) << 7)
        rem >>= np.uint64(7)
    return out, lens


def varint_decode(buf: np.ndarray | bytes) -> np.ndarray:
    """Decode a varint byte stream into a uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8) if isinstance(buf, (bytes, memoryview)) else np.asarray(buf, dtype=np.uint8)
    if len(b) == 0:
        return np.zeros(0, dtype=np.uint64)
    if b.max() < 128:
        return b.astype(np.uint64)   # all single-byte values: one pass
    is_end = (b & 0x80) == 0
    n_values = int(is_end.sum())
    value_idx = np.zeros(len(b), dtype=np.int64)
    value_idx[1:] = np.cumsum(is_end[:-1])
    # byte index within each value
    ends = np.flatnonzero(is_end)
    starts = np.empty(n_values, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    byte_pos = np.arange(len(b), dtype=np.int64) - starts[value_idx]
    vals = np.zeros(n_values, dtype=np.uint64)
    np.add.at(vals, value_idx, (b & np.uint64(0x7F)).astype(np.uint64) << (np.uint64(7) * byte_pos.astype(np.uint64)))
    return vals


# ---------------------------------------------------------------------------
# FOR bit-packing codec ("pfor": the PForDelta analog — per-block frame-of-
# reference packing at the block's max bit width, 1-byte width header)
# [Lucene public semantics: 128-posting blocks, bit-packed deltas]
# ---------------------------------------------------------------------------

def for_pack_block(values: np.ndarray) -> bytes:
    """Pack one block: [width:1 byte][ceil(n*width/8) packed bytes]."""
    v = np.asarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b"\x00"
    mx = int(v.max())
    width = max(1, mx.bit_length())
    pos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    wi = (pos >> np.uint64(6)).astype(np.int64)
    sh = pos & np.uint64(63)
    words = np.zeros(int(wi[-1]) + 2, dtype=np.uint64)
    np.bitwise_or.at(words, wi, v << sh)
    spill = (sh + np.uint64(width)) > np.uint64(64)
    if spill.any():
        safe_shift = (np.uint64(64) - sh[spill])
        np.bitwise_or.at(words, wi[spill] + 1, v[spill] >> safe_shift)
    n_bytes = (n * width + 7) // 8
    return bytes([width]) + words.tobytes()[:n_bytes]


def for_unpack_block(buf: bytes | np.ndarray, n: int) -> np.ndarray:
    """Inverse of for_pack_block (n = number of values in the block)."""
    b = np.frombuffer(buf, dtype=np.uint8) if isinstance(buf, (bytes, memoryview)) else np.asarray(buf, dtype=np.uint8)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    width = int(b[0])
    payload = b[1:]
    words = np.zeros((len(payload) + 7) // 8 + 1, dtype=np.uint64)
    words[: len(payload) // 8] = np.frombuffer(
        payload[: (len(payload) // 8) * 8].tobytes(), dtype=np.uint64)
    tail = payload[(len(payload) // 8) * 8:]
    if len(tail):
        words[len(payload) // 8] = np.frombuffer(
            tail.tobytes() + b"\x00" * (8 - len(tail)), dtype=np.uint64)[0]
    pos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    wi = (pos >> np.uint64(6)).astype(np.int64)
    sh = pos & np.uint64(63)
    lo = words[wi] >> sh
    spill = (sh + np.uint64(width)) > np.uint64(64)
    hi = np.zeros(n, dtype=np.uint64)
    if spill.any():
        hi[spill] = words[wi[spill] + 1] << (np.uint64(64) - sh[spill])
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    return (lo | hi) & mask


def pfor_encode_runs(values: np.ndarray, run_starts: np.ndarray,
                     block_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode each run (= one term's posting values) as FOR-packed blocks.

    Returns ``(bytes, run_byte_offsets[n_runs+1], block_byte_offsets)``
    where block offsets are relative to the run start (for block-skip
    decode), concatenated in block order.
    """
    n = len(values)
    n_runs = len(run_starts)
    run_ends = np.append(run_starts[1:], n)
    chunks: list[bytes] = []
    run_off = np.zeros(n_runs + 1, dtype=np.int64)
    blk_off: list[int] = []
    total = 0
    for r in range(n_runs):
        rel = 0
        for s in range(int(run_starts[r]), int(run_ends[r]), block_size):
            e = min(s + block_size, int(run_ends[r]))
            blk = for_pack_block(values[s:e])
            chunks.append(blk)
            blk_off.append(rel)
            rel += len(blk)
            total += len(blk)
        run_off[r + 1] = total
    data = np.frombuffer(b"".join(chunks), dtype=np.uint8) if chunks else np.zeros(0, np.uint8)
    return data, run_off, np.array(blk_off, dtype=np.int64)


def pfor_decode_run(blob: bytes | np.ndarray, n_values: int,
                    block_size: int,
                    blk_n: "np.ndarray | list | None" = None) -> np.ndarray:
    """Decode one term's FOR-packed blob back to values.

    ``blk_n`` gives per-block value counts for IRREGULAR blocks (bulk-
    merged runs); without it blocks are the uniform build-time layout
    (block_size values, short tail)."""
    out = np.zeros(n_values, dtype=np.uint64)
    b = np.frombuffer(blob, dtype=np.uint8) if isinstance(blob, (bytes, memoryview)) else np.asarray(blob, dtype=np.uint8)
    off = 0
    done = 0
    bi = 0
    while done < n_values:
        cnt = int(blk_n[bi]) if blk_n is not None else \
            min(block_size, n_values - done)
        width = int(b[off])
        nbytes = 1 + (cnt * width + 7) // 8
        out[done:done + cnt] = for_unpack_block(b[off:off + nbytes], cnt)
        off += nbytes
        done += cnt
        bi += 1
    return out


# ---------------------------------------------------------------------------
# group-wise helpers
# ---------------------------------------------------------------------------

def groupwise_delta(values: np.ndarray, group_starts_mask: np.ndarray) -> np.ndarray:
    """values -> gaps, resetting at each group start (first = absolute value)."""
    v = np.asarray(values, dtype=np.int64)
    out = np.empty_like(v)
    out[0:1] = v[0:1]
    out[1:] = v[1:] - v[:-1]
    out[group_starts_mask] = v[group_starts_mask]
    return out


def groupwise_cumsum(gaps: np.ndarray, group_start_idx: np.ndarray) -> np.ndarray:
    """Inverse of groupwise_delta: reconstruct absolute values."""
    g = np.asarray(gaps, dtype=np.int64)
    if len(g) == 0:
        return g
    cum = np.cumsum(g)
    base = cum[group_start_idx] - g[group_start_idx]
    lens = np.diff(np.append(group_start_idx, len(g)))
    return cum - np.repeat(base, lens)


def _large_binary_from_slices(data: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_binary array: offsets (int64, len n+1) into data."""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int64).tobytes()),
         pa.py_buffer(data.tobytes())])


def binary_column_bytes(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Zero-copy concatenation of a (large_)binary column's bytes.

    Row payloads are contiguous in the values buffer in row order, so the
    whole column's bytes are one slice — no per-row Python bytes objects.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.zeros(0, dtype=np.uint8)
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offsets = np.frombuffer(col.buffers()[1], dtype=off_dtype)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    return data[offsets[col.offset]:offsets[col.offset + len(col)]]


def _list_array(offsets: np.ndarray, values: np.ndarray, typ) -> pa.Array:
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                    pa.array(values, type=typ))


# ---------------------------------------------------------------------------
# posting-list builder (per segment)
# ---------------------------------------------------------------------------

def build_postings_table(doc_ord: np.ndarray, terms: pa.Array,
                         positions: np.ndarray, doc_len: np.ndarray,
                         cfg: EngineConfig) -> pa.Table:
    """Build the segment's postings table from a flat token stream.

    ``doc_ord`` — int ordinal (0..n_docs-1) of each token's document;
    ``terms`` — parallel string array; ``positions`` — parallel in-doc
    positions; ``doc_len`` — per-ordinal post-stopword token count.

    The per-term single-value guard of the reference
    (`JVectorWriter.java:524-531` — same docID twice is an error) maps to
    ordinals being unique by construction (one row per (conv_id, turn_idx)
    after last-write-wins dedup).
    """
    n_tokens = len(doc_ord)
    if n_tokens == 0:
        return POSTINGS_SCHEMA.empty_table()

    # --- dictionary-encode terms, remap codes to sorted-term order -------
    import pyarrow.compute as pc
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    dict_arr = terms.dictionary_encode() if not isinstance(terms, pa.DictionaryArray) else terms
    vocab = dict_arr.dictionary
    # int32 end-to-end in the token-level hot path (lexsort + gathers are
    # memory-bandwidth-bound; 4-byte keys halve the traffic)
    codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int32)
    sort_idx = pc.sort_indices(vocab).to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty(len(sort_idx), dtype=np.int32)
    rank[sort_idx] = np.arange(len(sort_idx), dtype=np.int32)
    codes = rank[codes]
    vocab_sorted = vocab.take(pa.array(sort_idx))

    # --- sort tokens by (term, ord, pos) --------------------------------
    doc_ord32 = np.asarray(doc_ord, dtype=np.int32)
    pos32 = np.asarray(positions, dtype=np.int32)
    order = np.lexsort((pos32, doc_ord32, codes))
    t_code = codes[order]
    t_ord = doc_ord32[order]
    t_pos = pos32[order]

    # --- collapse to postings: boundaries where (term, ord) changes ------
    is_new_posting = np.ones(n_tokens, dtype=bool)
    is_new_posting[1:] = (t_code[1:] != t_code[:-1]) | (t_ord[1:] != t_ord[:-1])
    posting_start = np.flatnonzero(is_new_posting)              # token idx
    p_code = t_code[posting_start]
    p_ord = t_ord[posting_start]
    p_tf = np.diff(np.append(posting_start, n_tokens))          # tokens per posting
    return encode_posting_arrays(vocab_sorted, p_code, p_ord, p_tf, t_pos,
                                 doc_len, cfg)


def encode_posting_arrays(vocab_sorted: pa.Array, p_code: np.ndarray,
                          p_ord: np.ndarray, p_tf: np.ndarray,
                          t_pos: np.ndarray | None, doc_len: np.ndarray,
                          cfg: EngineConfig) -> pa.Table:
    """Encode posting-level arrays (sorted by (term code, ord)) into the
    compressed postings table.  Shared by the flush path (from a token
    stream) and the merge path (from decoded+remapped input postings —
    the analog of `JVectorWriter.merge` re-serializing the merged view,
    `JVectorWriter.java:850-969`).

    ``t_pos`` is token-level positions aligned with postings expanded by
    tf (ascending within each posting), or None when positions are off.
    """
    n_postings = len(p_code)
    if n_postings == 0:
        return POSTINGS_SCHEMA.empty_table()
    p_code = np.asarray(p_code, dtype=np.int64)
    p_ord = np.asarray(p_ord, dtype=np.int64)
    p_tf = np.asarray(p_tf, dtype=np.int64)
    n_tokens = int(p_tf.sum())
    # token-level posting-start mask (for position delta resets)
    posting_start = np.zeros(n_postings, dtype=np.int64)
    np.cumsum(p_tf[:-1], out=posting_start[1:])
    is_new_posting = np.zeros(n_tokens, dtype=bool)
    is_new_posting[posting_start] = True

    # --- per-term posting ranges ----------------------------------------
    is_new_term = np.ones(n_postings, dtype=bool)
    is_new_term[1:] = p_code[1:] != p_code[:-1]
    term_start = np.flatnonzero(is_new_term)                    # posting idx
    n_terms = len(term_start)
    term_df = np.diff(np.append(term_start, n_postings))
    term_cf = np.add.reduceat(p_tf, term_start)

    # --- encode ord gaps and tfs over the WHOLE segment at once ----------
    term_end = np.append(term_start[1:], n_postings)
    ord_gaps = groupwise_delta(p_ord, is_new_term)
    if cfg.codec == "pfor":
        ord_bytes_p, ord_run_off, blk_rel_ord = pfor_encode_runs(
            ord_gaps, term_start, cfg.block_size)
        tf_bytes_p, tf_run_off, blk_rel_tf = pfor_encode_runs(
            p_tf, term_start, cfg.block_size)
        ords_enc = _large_binary_from_slices(ord_bytes_p, ord_run_off)
        tfs_enc = _large_binary_from_slices(tf_bytes_p, tf_run_off)
        ord_cum = tf_cum = None
    else:
        ord_bytes, ord_lens = varint_encode(ord_gaps)
        tf_bytes, tf_lens = varint_encode(p_tf)
        ord_cum = np.zeros(n_postings + 1, dtype=np.int64)
        np.cumsum(ord_lens, out=ord_cum[1:])
        tf_cum = np.zeros(n_postings + 1, dtype=np.int64)
        np.cumsum(tf_lens, out=tf_cum[1:])
        ords_enc = _large_binary_from_slices(ord_bytes, ord_cum[np.append(term_start, n_postings)])
        tfs_enc = _large_binary_from_slices(tf_bytes, tf_cum[np.append(term_start, n_postings)])

    # --- positions: delta within each posting, sliced per term -----------
    if cfg.with_positions and t_pos is not None:
        pos_gaps = groupwise_delta(t_pos, is_new_posting)
        pos_bytes, pos_lens = varint_encode(pos_gaps)
        pos_cum = np.zeros(n_tokens + 1, dtype=np.int64)
        np.cumsum(pos_lens, out=pos_cum[1:])
        term_tok_start = posting_start[term_start]              # token idx of term start
        pos_enc = _large_binary_from_slices(
            pos_bytes, pos_cum[np.append(term_tok_start, n_tokens)])
    else:
        empty_off = np.zeros(n_terms + 1, dtype=np.int64)
        pos_enc = _large_binary_from_slices(np.zeros(0, dtype=np.uint8), empty_off)

    # --- block metadata (per cfg.block_size postings) --------------------
    B = cfg.block_size
    blocks_per_term = (term_df + B - 1) // B
    n_blocks = int(blocks_per_term.sum())
    term_of_block = np.repeat(np.arange(n_terms), blocks_per_term)
    first_block_of_term = np.zeros(n_terms, dtype=np.int64)
    np.cumsum(blocks_per_term[:-1], out=first_block_of_term[1:])
    blk_rank = np.arange(n_blocks) - first_block_of_term[term_of_block]
    blk_start = term_start[term_of_block] + blk_rank * B        # posting idx
    blk_end = np.minimum(blk_start + B, term_end[term_of_block])
    dl_per_posting = np.asarray(doc_len, dtype=np.int64)[p_ord]

    blk_last_ord = p_ord[blk_end - 1].astype(np.int32)
    blk_max_tf = np.maximum.reduceat(p_tf, blk_start).astype(np.int32)
    blk_min_dl = np.minimum.reduceat(dl_per_posting, blk_start).astype(np.int32)
    if cfg.codec == "pfor":
        blk_off_ord = blk_rel_ord
        blk_off_tf = blk_rel_tf
    else:
        blk_off_ord = ord_cum[blk_start] - ord_cum[term_start][term_of_block]
        blk_off_tf = tf_cum[blk_start] - tf_cum[term_start][term_of_block]

    blk_offsets = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(blocks_per_term, out=blk_offsets[1:])

    return pa.table({
        "term": vocab_sorted.take(pa.array(p_code[term_start])),
        "df": pa.array(term_df.astype(np.int32)),
        "cf": pa.array(term_cf.astype(np.int64)),
        "ords_enc": ords_enc,
        "tfs_enc": tfs_enc,
        "pos_enc": pos_enc,
        "blk_last_ord": _list_array(blk_offsets, blk_last_ord, pa.int32()),
        "blk_max_tf": _list_array(blk_offsets, blk_max_tf, pa.int32()),
        "blk_min_dl": _list_array(blk_offsets, blk_min_dl, pa.int32()),
        "blk_off_ord": _list_array(blk_offsets, blk_off_ord, pa.int64()),
        "blk_off_tf": _list_array(blk_offsets, blk_off_tf, pa.int64()),
        "blk_n": _list_array(blk_offsets,
                             (blk_end - blk_start).astype(np.int32),
                             pa.int32()),
    }, schema=POSTINGS_SCHEMA)


# ---------------------------------------------------------------------------
# decode (query side)
# ---------------------------------------------------------------------------

def decode_posting_list(ords_enc: bytes, tfs_enc: bytes,
                        codec: str = "varint", df: int | None = None,
                        block_size: int = 128,
                        blk_n=None) -> tuple[np.ndarray, np.ndarray]:
    """Decode one term's postings -> (ordinals int64 asc, tfs int64)."""
    if codec == "pfor":
        gaps = pfor_decode_run(ords_enc, int(df), block_size,
                               blk_n=blk_n).astype(np.int64)
        tfs = pfor_decode_run(tfs_enc, int(df), block_size,
                              blk_n=blk_n).astype(np.int64)
    else:
        gaps = varint_decode(ords_enc).astype(np.int64)
        tfs = varint_decode(tfs_enc).astype(np.int64)
    ords = np.cumsum(gaps)
    return ords, tfs


def decode_blocks(row: dict, blocks: np.ndarray, codec: str = "varint",
                  block_size: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Decode the given blocks of one term's postings -> (ordinals int64
    asc, tfs int64).  ``row`` is the term's postings row (column ->
    value): ``df``, ``ords_enc``/``tfs_enc``, ``blk_last_ord``,
    ``blk_off_ord``/``blk_off_tf`` and, when present, ``blk_n``;
    ``blocks`` are sorted unique block indexes.  Each run of contiguous
    blocks is one byte slice and one ``decode_posting_list`` call; a
    block's first gap is relative to the previous block's last
    ordinal."""
    last, off_o, off_t = (row["blk_last_ord"], row["blk_off_ord"],
                          row["blk_off_tf"])
    bn = row.get("blk_n")
    blocks = np.asarray(blocks, dtype=np.int64)
    if not len(blocks):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    cut = np.flatnonzero(np.diff(blocks) != 1) + 1
    parts = []
    for s, e in zip(blocks[np.r_[0, cut]].tolist(),
                    (blocks[np.r_[cut - 1, len(blocks) - 1]] + 1).tolist()):
        end = e < len(last)
        n = (sum(bn[s:e]) if bn is not None
             else min(e * block_size, row["df"]) - s * block_size)
        ords, tfs = decode_posting_list(
            row["ords_enc"][off_o[s]:off_o[e] if end else None],
            row["tfs_enc"][off_t[s]:off_t[e] if end else None],
            codec=codec, df=n, block_size=block_size,
            blk_n=bn[s:e] if bn is not None else None)
        parts.append((ords + (last[s - 1] if s else 0), tfs))
    return (np.concatenate([o for o, _ in parts]),
            np.concatenate([t for _, t in parts]))


def decode_segment_postings(post: "pa.Table", codec: str = "varint",
                            block_size: int = 128) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a whole postings table -> (term_start, p_ord, p_tf) flat
    arrays (used by the merge path)."""
    df = post["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    term_start = np.zeros(len(df), dtype=np.int64)
    np.cumsum(df[:-1], out=term_start[1:])
    if codec == "pfor":
        has_bn = "blk_n" in post.column_names
        gap_parts, tf_parts = [], []
        for i in range(post.num_rows):
            n = int(df[i])
            bn = post["blk_n"][i].as_py() if has_bn else None
            gap_parts.append(pfor_decode_run(post["ords_enc"][i].as_py(), n,
                                             block_size, blk_n=bn))
            tf_parts.append(pfor_decode_run(post["tfs_enc"][i].as_py(), n,
                                            block_size, blk_n=bn))
        gaps = np.concatenate(gap_parts).astype(np.int64) if gap_parts else np.zeros(0, np.int64)
        p_tf = np.concatenate(tf_parts).astype(np.int64) if tf_parts else np.zeros(0, np.int64)
    else:
        gaps = varint_decode(binary_column_bytes(post["ords_enc"])).astype(np.int64)
        p_tf = varint_decode(binary_column_bytes(post["tfs_enc"])).astype(np.int64)
    p_ord = groupwise_cumsum(gaps, term_start)
    return term_start, p_ord, p_tf


def decode_positions(pos_enc: bytes, tfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode one term's positions blob.

    Returns ``(flat_positions, posting_offsets)`` where posting i's
    positions are ``flat_positions[posting_offsets[i]:posting_offsets[i+1]]``.
    """
    gaps = varint_decode(pos_enc).astype(np.int64)
    offsets = np.zeros(len(tfs) + 1, dtype=np.int64)
    np.cumsum(np.asarray(tfs, dtype=np.int64), out=offsets[1:])
    flat = groupwise_cumsum(gaps, offsets[:-1]) if len(gaps) else gaps
    return flat, offsets
