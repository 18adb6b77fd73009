"""Index build pipeline: Parquet transcripts -> per-segment inverted index.

The Ray-Data-native analog of the reference's segment flush lifecycle
(`JVectorWriter.flush`, `JVectorWriter.java:198-250`: buffer field values ->
sort remap -> build per-segment structure -> write files + metadata) and of
the Lucene postings delegate it rides on (`KNN10010Codec.java:39-41`).

Three physical plans (streaming-executed):

    fragments (default, no LWW): segments = input file/row-group ranges;
      independent tasks read their own byte range — ZERO shuffle.
    staged (path input + LWW): map_batches assigns __seg =
      stable_hash(conv_id) % P and writes one parquet dir per segment (a
      disk-staged repartition, the external-shuffle shape), then each
      seg dir is fragment-built; 2.8x faster than the sort shuffle at
      4.8M turns and the staging dir checkpoints the exchange.
    shuffle (Dataset input): groupby(__seg).map_groups — Ray's in-memory
      sort-based exchange.
    All paths share build_segment: sort (conv_id, turn_idx[, ts]) -> LWW
      dedup -> tombstone anti-join -> ordinals -> tokenize -> vectorized
      posting build -> postings/docs parquet + manifest (atomic).
    Then: dictionary aggregation over per-segment (term, df, cf) partials
      (one Arrow group_by, or a two-phase salted groupby at scale) +
      global stats.json.  An append (``add_segments``) runs path input's
      fragments as plain Ray tasks, and its refresh sums the last
      dictionary generation with the new segments' partials when
      stats.json proves that generation current.

Scale/skew notes (explicit, per the north rule):
  - The shuffle is keyed on hash(conv_id): uniform by construction, and it
    moves each input row exactly once.  Head-TERM skew (Zipf) never hits
    this shuffle because postings are built term-grouped *locally* inside
    each doc-partition segment (numpy lexsort — no token ever crosses the
    wire).  This is the same doc-partitioned design OpenSearch shards use.
  - The one term-keyed groupby (dictionary aggregation) consumes only
    per-segment partials (<= 1 row per term per segment — a combiner), and
    is two-phase salted: groupby((term, salt)) -> groupby(term), so a head
    term's partials never collapse onto a single reducer even with 10^5
    segments.
  - Per-128-posting blocks bound the unit of work/memory for head terms
    inside a segment (a "the" posting list is processed block-wise).
  - Resume: completed segments (manifest present) are filtered out at the
    map stage, so a re-run re-reads but never re-shuffles/re-builds them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.aggregate import Sum

from opensearch_jvector_ray.analyze import tokenize
from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.fanout import fan_out
from opensearch_jvector_ray.postings import build_postings_table
from opensearch_jvector_ray.state.manifest import (
    CONFIG_NAME, DICT_GEN_PREFIX, DICTIONARY_NAME, DOCS_NAME, POSTINGS_NAME,
    STATS_NAME, SegmentManifest, StageTimer, completed_segments,
    dict_generations, file_id, segment_dir, write_json_atomic,
)

SEG_COL = "__seg"
DICT_ROW_GROUP = 16 * 1024
POSTINGS_ROW_GROUP = 4 * 1024
# below this many (term, df, cf) partial rows the dictionary aggregation
# runs in-process (one Arrow group_by beats five Ray stage latencies); at
# scale the salted two-phase Ray path takes over
DICT_LOCAL_MAX_PARTIALS = 4_000_000
# stats.json key of the record that says which segments the latest
# dictionary generation sums (``aggregate_dictionary``)
COVERAGE_KEY = "dictionary_coverage"


@dataclass(frozen=True)
class IndexSpec:
    """What to index: the analog of the field mapping
    (`KNNVectorFieldMapper.java:97-212` — explicit schema, validated up
    front, with defaulting)."""

    text_col: str = "text"
    key_cols: tuple[str, ...] = ("conv_id", "turn_idx")
    store_cols: tuple[str, ...] = ("role", "tool", "ts")  # filterable metadata
    ts_col: str = "ts"            # LWW tie-break column (D3: update = delete+insert)

    def all_cols(self) -> list[str]:
        cols = [*self.key_cols, self.text_col, *self.store_cols]
        seen: list[str] = []
        for c in cols:
            if c not in seen:
                seen.append(c)
        return seen


def stable_hash_strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Deterministic uint64 hash of a key column (stable across processes/
    runs — required for resumable partitioning; the analog of OpenSearch's
    deterministic doc-id -> shard routing)."""
    values = arr.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(values, categorize=False)


def _hash_partition_lineage(cfg: EngineConfig, spec: IndexSpec) -> dict:
    """Manifest marker for a TOTAL hash partitioning (primary staged/
    shuffle builds only — appends don't carry it): any two indexes built
    under the same marker put a given key in the same segment NUMBER, so
    co-located fan-outs (fused multi_match) can pair segments by number.
    ``stable_hash(key_cols[0]) % num_segments`` is the assignment
    (``_assign_segments``)."""
    return {"mode": "hash", "num_segments": cfg.num_segments,
            "key": list(spec.key_cols)[:1]}


def _assign_segments(batch: pa.Table, spec: IndexSpec, num_segments: int,
                     done: frozenset[int]) -> pa.Table:
    h = stable_hash_strings(batch[spec.key_cols[0]])
    seg = (h % np.uint64(num_segments)).astype(np.int32)
    batch = batch.append_column(SEG_COL, pa.array(seg))
    if done:
        keep = ~np.isin(seg, np.fromiter(done, dtype=np.int32))
        batch = batch.filter(pa.array(keep))
    return batch


def build_fingerprint(cfg: EngineConfig, spec: IndexSpec) -> str:
    """Segment-identity fingerprint: config AND spec.  Resume must
    invalidate when text_col/key_cols/store_cols/ts_col change, not
    just the analyzer/codec config — a spec change would otherwise
    silently reuse segments whose postings index a DIFFERENT column
    while config.json advertises the new spec."""
    import hashlib
    import json as _json
    spec_j = _json.dumps({"t": spec.text_col, "k": list(spec.key_cols),
                          "s": list(spec.store_cols),
                          "ts": spec.ts_col}, sort_keys=True)
    return (cfg.fingerprint() + "-s"
            + hashlib.md5(spec_j.encode()).hexdigest()[:10])


def _foreign_segments(manifests: dict[int, SegmentManifest],
                      cfg: EngineConfig, fingerprint: str) -> list[int]:
    """Segments built under another config or spec.  A manifest written
    before the spec joined the fingerprint (the v1 BWC fixtures) carries
    the bare ``cfg.fingerprint()``; the index's config.json is then the
    only record of its spec, and the segment counts as ours."""
    ours = (fingerprint, cfg.fingerprint())
    return sorted(s for s, m in manifests.items()
                  if m.config_fingerprint not in ours)


def _last_write_wins(group: pa.Table, spec: IndexSpec) -> pa.Table:
    """Keep the newest row per key (rows already sorted by key asc, ts asc).

    Reference: update = delete + insert, newest wins
    (`JVectorEngineIT.java:130` testUpdateDoc; `KNNRestTestCase.java:762-797`).
    """
    n = group.num_rows
    if n <= 1:
        return group
    # row i is kept iff some key col changes between i and i+1 (last of group)
    same = np.zeros(n, dtype=bool)
    same[:-1] = True
    for kc in spec.key_cols:
        col = group[kc].to_numpy(zero_copy_only=False)
        same[:-1] &= col[:-1] == col[1:]
    keep = ~same
    return group.filter(pa.array(keep))


def delete_key_strings(deletes: "Sequence[tuple]", tbl: pa.Table,
                       spec: IndexSpec) -> pa.Array:
    """Encode delete-key tuples with the SAME Arrow cast-to-string rule
    ``_composite_key`` applies to the table side — Python ``str()``
    formats floats ('1.0' vs Arrow '1'), bools ('True' vs 'true') and
    timestamps differently, so a str()-built set silently never matches
    non-string/int key columns (deletes reported but not applied)."""
    parts = []
    for pos, kc in enumerate(spec.key_cols):
        arr = pa.array([key[pos] for key in deletes], type=tbl[kc].type)
        parts.append(pc.cast(arr, pa.string()))
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "\x1f")


def _apply_tombstones(group: pa.Table, spec: IndexSpec,
                      deletes: Sequence[tuple] | None) -> pa.Table:
    """Anti-join against the (broadcast, small) tombstone key set (D2:
    deleted docs dropped at build/merge, `JVectorWriter.java:611-658`)."""
    if not deletes:
        return group
    key_strs = _composite_key(group, spec)
    del_set = delete_key_strings(deletes, group, spec)
    mask = pc.invert(pc.is_in(key_strs, value_set=del_set))
    return group.filter(mask)


def _composite_key(tbl: pa.Table, spec: IndexSpec) -> pa.Array:
    parts = []
    for kc in spec.key_cols:
        col = tbl[kc]
        if not pa.types.is_string(col.type):
            col = pc.cast(col, pa.string())
        parts.append(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "\x1f")


def make_segment_builder(index_dir: str, cfg: EngineConfig, spec: IndexSpec,
                         lineage: dict[str, Any] | None,
                         deletes: Sequence[tuple] | None = None):
    """Returns the map_groups fn that builds + persists ONE segment."""
    fingerprint = build_fingerprint(cfg, spec)

    def build_segment(group: pa.Table,
                      lineage_extra: dict[str, Any] | None = None) -> pa.Table:
        timer = StageTimer()
        seg = int(group[SEG_COL][0].as_py())
        rows_in = group.num_rows
        group = group.drop_columns([SEG_COL])
        out_dir = segment_dir(index_dir, seg)
        os.makedirs(out_dir, exist_ok=True)

        # -- stable ordering: the index-sort invariant (O3; reference sorts
        # segments and remaps ordinals via Sorter.DocMap,
        # `JVectorWriter.java:235-237`). Sorting by (key, ts) also makes the
        # LWW "last row per key" rule a pure vectorized mask.
        timer.start("sort")
        sort_keys = [(k, "ascending") for k in spec.key_cols]
        if cfg.last_write_wins and spec.ts_col in group.column_names:
            sort_keys.append((spec.ts_col, "ascending"))
        group = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        timer.stop()

        timer.start("dedup")
        if cfg.last_write_wins:
            group = _last_write_wins(group, spec)
        group = _apply_tombstones(group, spec, deletes)
        timer.stop()

        # -- analyze + posting build (all vectorized)
        timer.start("tokenize")
        stream = tokenize(group[spec.text_col], cfg)
        timer.stop()
        timer.start("postings")
        postings = build_postings_table(stream.doc_idx, stream.terms,
                                        stream.positions, stream.doc_len, cfg)
        timer.stop()

        # -- persist segment artifacts; manifest LAST (atomic checkpoint)
        timer.start("write")
        docs_cols = {k: group[k] for k in spec.all_cols() if k != spec.text_col}
        docs_cols["doc_len"] = pa.array(stream.doc_len, type=pa.int32())
        docs_tbl = pa.table(docs_cols)
        pq.write_table(docs_tbl, os.path.join(out_dir, DOCS_NAME))
        pq.write_table(postings, os.path.join(out_dir, POSTINGS_NAME),
                       row_group_size=POSTINGS_ROW_GROUP)
        timer.stop()

        manifest = SegmentManifest(
            seg=seg,
            num_docs=group.num_rows,
            num_docs_indexed=int((stream.doc_len > 0).sum()),
            sum_doc_len=int(stream.doc_len.sum()),
            num_terms=postings.num_rows,
            num_postings=int(pc.sum(postings["df"]).as_py() or 0),
            rows_in=rows_in,
            config_fingerprint=fingerprint,
            lineage={**(lineage or {}), **(lineage_extra or {})},
            timings_sec={k: round(v, 4) for k, v in timer.timings.items()},
        )
        manifest.write(out_dir)
        return pa.table({
            "seg": pa.array([seg], type=pa.int32()),
            "num_docs": pa.array([manifest.num_docs], type=pa.int64()),
            "num_terms": pa.array([manifest.num_terms], type=pa.int64()),
        })

    return build_segment


def _stamp(path: str) -> str:
    return "%d:%d:%d" % file_id(path)


def _dictionary_base(index_dir: str, gen: int,
                     live: set[int]) -> tuple[str, set[int]] | None:
    """Generation ``gen``'s dictionary file and the segments it sums,
    when the coverage record in stats.json proves both: the record names
    that generation and that file, and every segment it covers is live
    with the postings file it was read from.  None otherwise (no record,
    a crash between the publish and the stats.json write, a segment
    rebuilt or gone)."""
    from opensearch_jvector_ray.state.manifest import read_json
    path = os.path.join(index_dir, "dictionary",
                        f"{DICT_GEN_PREFIX}{gen:010d}", DICTIONARY_NAME)
    try:
        cov = read_json(os.path.join(index_dir, STATS_NAME))[COVERAGE_KEY]
        covered = {int(s): st for s, st in cov["segments"].items()}
        if (cov["gen"] != gen or cov["dictionary"] != _stamp(path)
                or not covered.keys() <= live
                or any(_stamp(os.path.join(segment_dir(index_dir, s),
                                           POSTINGS_NAME)) != st
                       for s, st in covered.items())):
            return None
    except (OSError, ValueError, LookupError):
        return None
    return path, set(covered)


def aggregate_dictionary(index_dir: str, cfg: EngineConfig,
                         segs: Sequence[int]) -> dict[str, Any]:
    """Global term dictionary: df/cf summed over per-segment partials.

    This is the true global aggregate BM25 needs (A2: df(term), N, avgdl —
    per-partition values would silently break score identity, SURVEY §7).

    The input list is every segment's (term, df, cf) partials, or, when
    stats.json's coverage record proves the latest generation current
    (``_dictionary_base``), that generation's table plus the partials of
    the live segments it does not cover: an append then reads the last
    generation and its new segments, not every segment again (term
    statistics kept over an append stream, as in *Top-K Frequent Term
    Queries on Streaming Data*, ICDE 2019).  Either list runs through the
    same Arrow group_by sum, sort and write.  Above
    ``DICT_LOCAL_MAX_PARTIALS`` input rows, every segment's partials go
    through the two-phase salted Ray Data aggregation instead (see the
    module docstring).

    Returns ``{"inputs": tables read, "coverage": record}``; the caller
    writes the record into stats.json after this publish.  The record is
    None for the salted path, whose output is not one file."""
    import shutil as _sh

    root = os.path.join(index_dir, "dictionary")
    paths = {s: os.path.join(segment_dir(index_dir, s), POSTINGS_NAME)
             for s in segs}
    paths = {s: p for s, p in paths.items() if os.path.exists(p)}
    os.makedirs(root, exist_ok=True)
    if not paths:
        return {"inputs": 0, "coverage": None}
    # publish-then-point: build the refreshed table in a hidden temp dir,
    # then atomically rename it to the next generation.  In-place rewrites
    # would yank the df/cf files out from under open readers / PIT handles.
    gens = dict_generations(index_dir)
    gen = (gens[-1] + 1) if gens else 1
    dict_dir = os.path.join(root, f".tmp-{DICT_GEN_PREFIX}{gen:010d}.{os.getpid()}")
    _sh.rmtree(dict_dir, ignore_errors=True)

    def _publish() -> str:
        nonlocal gen
        while True:
            final = os.path.join(root, f"{DICT_GEN_PREFIX}{gen:010d}")
            try:
                os.rename(dict_dir, final)
                return final
            except OSError:
                if not os.path.isdir(final):
                    raise
                gen += 1          # concurrent publisher took this gen

    # stamped BEFORE the reads: a file replaced mid-read then fails the
    # next append's check instead of passing it
    stamps = {str(s): _stamp(p) for s, p in paths.items()}
    base = _dictionary_base(index_dir, gens[-1], set(paths)) if gens else None
    inputs = list(paths.values()) if base is None else (
        [base[0]] + [paths[s] for s in sorted(paths.keys() - base[1])])
    # Adaptive: below ~4M partial rows the whole aggregation fits in one
    # process — do it with a single Arrow group_by instead of paying five
    # Ray stage latencies.  (The distributed path below is the 100 TB
    # shape; this is the same partial-rows input either way.)
    if sum(pq.read_metadata(p).num_rows for p in inputs) <= DICT_LOCAL_MAX_PARTIALS:
        schema = pa.schema([("term", pa.string()), ("df", pa.int64()),
                            ("cf", pa.int64())])
        tbl = pa.concat_tables([
            pq.read_table(p, columns=["term", "df", "cf"]).cast(schema)
            for p in inputs])
        agg = tbl.group_by("term").aggregate([("df", "sum"), ("cf", "sum")])
        agg = agg.rename_columns(["term", "df", "cf"])
        agg = agg.take(pc.sort_indices(agg["term"]))
        os.makedirs(dict_dir, exist_ok=True)
        pq.write_table(agg, os.path.join(dict_dir, DICTIONARY_NAME),
                       row_group_size=DICT_ROW_GROUP)
        final = _publish()
        return {"inputs": len(inputs), "coverage": {
            "gen": gen, "dictionary": _stamp(os.path.join(final, DICTIONARY_NAME)),
            "segments": stamps}}

    stats_ds = rd.read_parquet(list(paths.values()), columns=["term", "df", "cf"])

    def add_salt(batch: pa.Table) -> pa.Table:
        salt = (stable_hash_strings(batch["term"]) % np.uint64(16)).astype(np.int32)
        return batch.append_column("__salt", pa.array(salt))

    partial = (stats_ds
               .map_batches(add_salt, batch_format="pyarrow")
               .groupby(["term", "__salt"])
               .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf")))
    final = (partial
             .groupby("term")
             .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
             .sort("term"))
    os.makedirs(dict_dir, exist_ok=True)
    final.write_parquet(dict_dir)
    _publish()
    return {"inputs": len(paths), "coverage": None}


# ---------------------------------------------------------------------------
# file-partitioned build (zero-shuffle fast path)
# ---------------------------------------------------------------------------

def plan_file_segments(paths: list[str], target_docs: int) -> list[dict]:
    """Partition input parquet files into segments at row-group granularity.

    This is the Lucene-faithful segment model: a segment is "whatever this
    writer consumed", NOT a key-co-located partition (the reference's
    docIDs are arrival-scoped per segment; co-location is only needed for
    last-write-wins / delete folding, which route to the shuffle build).
    Zero data moves: each segment build task reads its own byte range
    straight from storage — at 100 TB this is the only shape that avoids
    an all-to-all of the full corpus.
    """
    plan: list[dict] = []
    seg = 0
    for f in sorted(paths):
        md = pq.read_metadata(f)
        rg_lo, rows = 0, 0
        for rg in range(md.num_row_groups):
            rows += md.row_group(rg).num_rows
            if rows >= target_docs:
                plan.append({"seg": seg, "file": f, "rg_lo": rg_lo, "rg_hi": rg + 1})
                seg += 1
                rg_lo, rows = rg + 1, 0
        if rows > 0 or (md.num_row_groups == 0 and md.num_rows > 0):
            plan.append({"seg": seg, "file": f, "rg_lo": rg_lo,
                         "rg_hi": md.num_row_groups})
            seg += 1
    return plan


def make_fragment_builder(index_dir: str, cfg: EngineConfig, spec: IndexSpec,
                          lineage: dict[str, Any] | None,
                          deletes: Sequence[tuple] | None = None):
    """map_batches fn: each row of the plan table -> one built segment."""
    builder = make_segment_builder(index_dir, cfg, spec, lineage, deletes)

    def build_from_fragment(batch: pa.Table) -> pa.Table:
        out = []
        for seg, f, rg_lo, rg_hi in zip(batch["seg"].to_pylist(),
                                        batch["file"].to_pylist(),
                                        batch["rg_lo"].to_pylist(),
                                        batch["rg_hi"].to_pylist()):
            pf = pq.ParquetFile(f)
            tbl = pf.read_row_groups(list(range(rg_lo, rg_hi)),
                                     columns=spec.all_cols())
            tbl = tbl.append_column(SEG_COL, pa.array(
                np.full(tbl.num_rows, seg, dtype=np.int32)))
            out.append(builder(tbl, lineage_extra={
                "fragment": {"file": f, "rg_lo": rg_lo, "rg_hi": rg_hi}}))
        return pa.concat_tables(out)

    return build_from_fragment


def resolve_parquet_paths(source: str | list[str]) -> list[str]:
    import glob as globmod
    if isinstance(source, str):
        if os.path.isdir(source):
            return sorted(globmod.glob(os.path.join(source, "*.parquet")))
        return [source]
    return sorted(source)


@dataclass
class BuildResult:
    index_dir: str
    num_docs: int
    num_docs_indexed: int
    sum_doc_len: int
    num_segments: int
    segments_built: int
    segments_skipped: int
    build_sec: float
    stats: dict[str, Any] = field(default_factory=dict)
    # the split of build_sec: building the segments, then refreshing the
    # dictionary, and how many tables that refresh read (every segment,
    # or the last generation plus the segments it does not cover)
    segments_sec: float = 0.0
    dictionary_sec: float = 0.0
    dictionary_inputs: int = 0


def build_index(source: "rd.Dataset | str | list[str]", index_dir: str,
                cfg: EngineConfig, spec: IndexSpec | None = None,
                lineage: dict[str, Any] | None = None,
                deletes: Sequence[tuple] | None = None,
                mode: str = "auto") -> BuildResult:
    """Build (or resume) the inverted index into ``index_dir``.

    ``source`` is either a Dataset or parquet path(s).  Two physical plans:

    - **fragments** (default for paths, no LWW): zero-shuffle — segments
      are row-group ranges of the input files, each built by an
      independent task that reads its own byte range.  The 100 TB shape.
    - **shuffle** (Dataset input, or ``last_write_wins``/key co-location
      required): hash(conv_id) -> groupby -> per-group build.  LWW and
      nested/parent operators need all rows of a key in one segment.
    """
    if mode not in ("auto", "fragments", "staged", "shuffle"):
        # an unknown mode must fail loudly: it used to fall through
        # every physical-plan branch and "finish" an EMPTY index
        raise ValueError(f"unknown build mode {mode!r} "
                         f"(auto|fragments|staged|shuffle)")
    spec = spec or IndexSpec()
    t0 = time.perf_counter()
    os.makedirs(index_dir, exist_ok=True)
    write_json_atomic(os.path.join(index_dir, CONFIG_NAME), {
        "config": cfg.to_json(),
        "spec": {"text_col": spec.text_col, "key_cols": list(spec.key_cols),
                 "store_cols": list(spec.store_cols), "ts_col": spec.ts_col},
        "num_segments": cfg.num_segments,
    })

    is_paths = not hasattr(source, "map_batches")
    if mode == "auto":
        if is_paths and not cfg.last_write_wins:
            mode = "fragments"
        elif is_paths:
            mode = "staged"      # key co-location via partitioned write
        else:
            mode = "shuffle"
    # Resume trusts a manifest ONLY if it was built under the CURRENT
    # config (analyzer/codec/layout changes invalidate it — otherwise a
    # re-run into an existing index_dir silently mixes segments built
    # under different analyzers); fragment-lineage is checked per-plan-item
    # below for the fragments path.
    fingerprint = build_fingerprint(cfg, spec)
    prior = completed_segments(index_dir)
    done = frozenset(s for s, m in prior.items()
                     if m.config_fingerprint == fingerprint)
    n_skipped = len(done)
    t_seg = time.perf_counter()

    if mode == "staged":
        # Disk-staged repartition (the external-shuffle shape used by
        # petabyte engines): map_batches assigns __seg = hash(conv_id)%P
        # and WRITES one parquet directory per segment; each seg dir is
        # then built independently by the fragment builder (which sorts,
        # LWW-dedups and tombstone-filters inside the segment — key
        # co-location holds because the hash assignment is total).  No
        # in-memory all-to-all: the exchange is a partitioned write +
        # partitioned read, and the staging dir doubles as a resume
        # checkpoint for the exchange itself.
        ds = source if not is_paths else rd.read_parquet(resolve_parquet_paths(source))
        ds = ds.select_columns(spec.all_cols())
        staging = os.path.join(index_dir, "_staging")
        done_path = os.path.join(staging, "_DONE")
        # _DONE is stamped with the fingerprint the staging was written
        # under: a crash-then-reconfigure rerun (different num_segments
        # or spec) must re-stage, not build from a stale P-way
        # partitioning while recording the new partition lineage
        stamp = {"ok": True, "fp": fingerprint,
                 "num_segments": cfg.num_segments}
        prior_stamp = None
        if os.path.exists(done_path):
            try:
                prior_stamp = read_json(done_path)
            except Exception:
                prior_stamp = None
        if (prior_stamp or {}).get("fp") != stamp["fp"]:
            # covers both crash-mid-write (no _DONE) and stale-config
            # staging — start clean either way
            if os.path.isdir(staging):
                import shutil as _sh
                _sh.rmtree(staging, ignore_errors=True)
            ds.map_batches(_assign_segments, batch_format="pyarrow",
                           fn_kwargs={"spec": spec,
                                      "num_segments": cfg.num_segments,
                                      "done": frozenset()}) \
              .write_parquet(staging, partition_cols=[SEG_COL])
            write_json_atomic(done_path, stamp)
        builder = make_segment_builder(
            index_dir, cfg, spec,
            {**(lineage or {}), "partition": _hash_partition_lineage(cfg, spec)},
            deletes)

        def build_staged(batch: pa.Table) -> pa.Table:
            import glob as globmod
            out = []
            for seg in batch["seg"].to_pylist():
                files = sorted(globmod.glob(
                    os.path.join(staging, f"{SEG_COL}={seg}", "*.parquet")))
                tbl = pa.concat_tables([
                    pq.read_table(f, columns=spec.all_cols()) for f in files])
                tbl = tbl.append_column(SEG_COL, pa.array(
                    np.full(tbl.num_rows, seg, dtype=np.int32)))
                out.append(builder(tbl))
            return pa.concat_tables(out)

        seg_ids = sorted(
            int(d.split("=")[1]) for d in os.listdir(staging)
            if d.startswith(f"{SEG_COL}="))
        todo = [{"seg": s} for s in seg_ids if s not in done]
        if todo:
            rd.from_items(todo).map_batches(
                build_staged, batch_format="pyarrow", batch_size=1).take_all()
        import shutil as _sh
        _sh.rmtree(staging, ignore_errors=True)   # exchange no longer needed
        mode = "__done__"

    if mode == "fragments":
        if not is_paths:
            raise ValueError("fragments mode needs parquet path(s), not a Dataset")
        paths = resolve_parquet_paths(source)
        total_rows = sum(pq.read_metadata(p).num_rows for p in paths)
        target = min(cfg.target_docs_per_segment,
                     max(1000, -(-total_rows // cfg.num_segments)))
        full_plan = plan_file_segments(paths, target)
        # a completed segment is reusable only if it covers the SAME byte
        # range of the SAME file as the current plan (input change => rebuild)
        def _plan_matches(it: dict) -> bool:
            m = prior.get(it["seg"])
            return (it["seg"] in done and m is not None
                    and m.lineage.get("fragment") == {
                        "file": it["file"], "rg_lo": it["rg_lo"],
                        "rg_hi": it["rg_hi"]})
        stale = set(done) - {it["seg"] for it in full_plan}
        if stale:
            raise ValueError(
                f"index dir {index_dir!r} contains completed segments "
                f"{sorted(stale)} not in the current fragment plan "
                f"(input files changed?) — refusing to mix; use a fresh "
                f"index_dir or delete the stale segments")
        plan = [it for it in full_plan if not _plan_matches(it)]
        n_skipped = len(full_plan) - len(plan)
        if plan:
            (rd.from_items(plan)
               .map_batches(make_fragment_builder(index_dir, cfg, spec,
                                                  lineage, deletes),
                            batch_format="pyarrow", batch_size=1)
               .take_all())
    elif mode == "shuffle":
        ds = source if not is_paths else rd.read_parquet(resolve_parquet_paths(source))
        ds = ds.select_columns(spec.all_cols())   # prune at the read
        if len(done) < cfg.num_segments:
            shuffled = (ds
                        .map_batches(_assign_segments, batch_format="pyarrow",
                                     fn_kwargs={"spec": spec,
                                                "num_segments": cfg.num_segments,
                                                "done": done})
                        .groupby(SEG_COL)
                        .map_groups(make_segment_builder(
                            index_dir, cfg, spec,
                            {**(lineage or {}),
                             "partition": _hash_partition_lineage(cfg, spec)},
                            deletes),
                                    batch_format="pyarrow"))
            # consume: per-segment one-row summaries (tiny)
            shuffled.take_all()

    return _finish_index(index_dir, cfg, spec, t0, n_skipped,
                         time.perf_counter() - t_seg)


def _append_journal_path(index_dir: str, fp: str) -> str:
    d = os.path.join(index_dir, "_appends")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"{fp}.json")


def _append_fingerprint(paths: list[str] | None,
                        lineage: dict[str, Any] | None) -> str:
    """Identity of one logical append.  For path input it is derived from
    the resolved file list (+ caller lineage), so an interrupted append
    re-run with the same files resumes under the SAME journal.  Dataset
    input has no stable content identity — the caller's ``lineage`` dict
    is the identity; without one each call is a fresh (non-resumable)
    append."""
    import hashlib
    import json as jsonmod
    import uuid
    if paths is None and not lineage:
        return "ds-" + uuid.uuid4().hex[:16]
    basis = {"paths": paths, "lineage": lineage or {}}
    return hashlib.sha1(jsonmod.dumps(
        basis, sort_keys=True, default=str).encode()).hexdigest()[:16]


def add_segments(index_dir: str, source: "rd.Dataset | str | list[str]",
                 lineage: dict[str, Any] | None = None) -> BuildResult:
    """Incremental ingest: append NEW data as NEW segments to an existing
    index, then refresh the dictionary and global stats.

    The reference's continuous-indexing lifecycle (a flush adds segments;
    IDF/dictionary refresh on commit — S2/T3): existing segments are
    untouched, new ones take the next ids, and the global df/N/avgdl are
    refreshed over ALL segments so BM25 scores stay exact.  Duplicate
    keys across old and new data follow the add-without-delete rule (both
    retrievable); route updates through merge-with-tombstones or an LWW
    rebuild.

    Path input builds its planned fragments as plain Ray tasks
    (``fanout.fan_out``), one per fragment; Dataset input goes through
    the Ray Data staged repartition.  The dictionary refresh reads the
    last generation plus the new segments when stats.json's coverage
    record proves that generation current, and every segment otherwise
    (``aggregate_dictionary``).  The result's ``segments_sec``,
    ``dictionary_sec`` and ``dictionary_inputs`` split the append's time.

    Resumable via an append JOURNAL: before building, the append's base
    segment id is recorded under ``_appends/<fingerprint>.json`` keyed by
    the source identity (resolved file list, or the caller ``lineage``
    for Dataset input).  A re-run of the same logical append reuses the
    journalled base, so already-built segments match by lineage and are
    skipped instead of being duplicated past a shifted base.  A COMPLETE
    journal makes the re-run a no-op (idempotent); to intentionally
    append the same files twice pass a distinct ``lineage``.
    """
    t0 = time.perf_counter()
    from opensearch_jvector_ray.state.manifest import read_json
    meta = read_json(os.path.join(index_dir, CONFIG_NAME))
    cfg = EngineConfig.from_json(meta["config"])
    spec = IndexSpec(text_col=meta["spec"]["text_col"],
                     key_cols=tuple(meta["spec"]["key_cols"]),
                     store_cols=tuple(meta["spec"]["store_cols"]),
                     ts_col=meta["spec"]["ts_col"])
    prior = completed_segments(index_dir)
    mixed = _foreign_segments(prior, cfg, build_fingerprint(cfg, spec))
    if mixed:
        raise ValueError(f"index dir {index_dir!r} has segments {mixed} "
                         f"with a foreign config fingerprint — refusing "
                         f"to append into a mixed index")

    is_paths = not hasattr(source, "map_batches")
    paths = resolve_parquet_paths(source) if is_paths else None
    fp = _append_fingerprint(paths, lineage)
    jpath = _append_journal_path(index_dir, fp)
    journal = read_json(jpath) if os.path.exists(jpath) else None
    if journal is not None:
        base = int(journal["base"])           # resume: the ORIGINAL base
    else:
        base = (max(prior) + 1) if prior else 0
        journal = {"base": base, "fingerprint": fp, "complete": False}
        write_json_atomic(jpath, journal)     # journal BEFORE building
    if journal.get("complete"):
        # idempotent re-append: everything already built; refresh only
        return _finish_index(index_dir, cfg, spec, t0, len(prior))

    t_seg = time.perf_counter()
    if is_paths:
        total_rows = sum(pq.read_metadata(p).num_rows for p in paths)
        target = min(cfg.target_docs_per_segment,
                     max(1000, -(-total_rows // cfg.num_segments)))
        plan = plan_file_segments(paths, target)
        for it in plan:
            it["seg"] += base
        todo = []
        collisions = []
        for it in plan:
            m = prior.get(it["seg"])
            if m is not None and m.lineage.get("fragment") == {
                    "file": it["file"], "rg_lo": it["rg_lo"],
                    "rg_hi": it["rg_hi"]}:
                continue                      # resume: already appended
            if m is not None:
                # a DIFFERENT append occupied this journalled id range
                # (interleaved appends after a crash) — overwriting
                # would destroy the other append's docs while its
                # journal claims complete
                collisions.append(it["seg"])
                continue
            todo.append(it)
        if collisions:
            raise ValueError(
                f"append journal base {base} collides with segments "
                f"{collisions} built by a different append — the "
                f"journalled id range was taken by an interleaved "
                f"append; re-run with a distinct lineage= to journal "
                f"a fresh base (or delete the stale journal "
                f"{jpath!r})")
        # one plain Ray task per fragment: a Ray Data dataset costs more
        # to plan and start than an append's few segment builds
        fan_out(make_fragment_builder(index_dir, cfg, spec, lineage), todo)
        n_skipped = len(plan) - len(todo) + len(prior)
    else:
        # Dataset input: DISK-STAGED repartition into num_segments NEW
        # segments (the build staged-mode shape — a partitioned write +
        # partitioned read instead of the in-memory groupby exchange;
        # measured 12.7s -> 11.0s e2e at 2.4M appended turns, and the
        # staging dir checkpoints the exchange itself), resumable under
        # the journalled base
        import glob as globmod
        import shutil as _sh
        staging = os.path.join(index_dir, "_appends", f"{fp}_staging")
        if not os.path.exists(os.path.join(staging, "_DONE")):
            if os.path.isdir(staging):
                _sh.rmtree(staging, ignore_errors=True)
            (source.select_columns(spec.all_cols())
               .map_batches(_assign_segments, batch_format="pyarrow",
                            fn_kwargs={"spec": spec,
                                       "num_segments": cfg.num_segments,
                                       "done": frozenset()})
               .map_batches(lambda b: b.set_column(
                   b.column_names.index(SEG_COL), SEG_COL,
                   pc.add(b[SEG_COL], base)), batch_format="pyarrow")
               .write_parquet(staging, partition_cols=[SEG_COL]))
            write_json_atomic(os.path.join(staging, "_DONE"), {"ok": True})
        builder = make_segment_builder(
            index_dir, cfg, spec,
            {**(lineage or {}), "append_fp": fp})

        def build_staged(batch: pa.Table) -> pa.Table:
            out = []
            for seg in batch["seg"].to_pylist():
                files = sorted(globmod.glob(
                    os.path.join(staging, f"{SEG_COL}={seg}", "*.parquet")))
                tbl = pa.concat_tables([
                    pq.read_table(f, columns=spec.all_cols())
                    for f in files])
                tbl = tbl.append_column(SEG_COL, pa.array(
                    np.full(tbl.num_rows, seg, dtype=np.int32)))
                out.append(builder(tbl))
            return pa.concat_tables(out)

        seg_ids = sorted(
            int(d.split("=")[1]) for d in os.listdir(staging)
            if d.startswith(f"{SEG_COL}="))
        collisions = [s for s in seg_ids
                      if s in prior
                      and prior[s].lineage.get("append_fp") != fp]
        if collisions:
            raise ValueError(
                f"append journal base {base} collides with segments "
                f"{collisions} built by a different append; re-run "
                f"with a distinct lineage= (or delete the stale "
                f"journal {jpath!r})")
        todo = [{"seg": s} for s in seg_ids if s not in prior]
        if todo:
            rd.from_items(todo).map_batches(
                build_staged, batch_format="pyarrow",
                batch_size=1).take_all()
        _sh.rmtree(staging, ignore_errors=True)
        n_skipped = len(prior)
    write_json_atomic(jpath, {**journal, "complete": True})
    return _finish_index(index_dir, cfg, spec, t0, n_skipped,
                         time.perf_counter() - t_seg)


def _finish_index(index_dir: str, cfg: EngineConfig,
                  spec: IndexSpec, t0: float, n_skipped: int,
                  segments_sec: float = 0.0) -> BuildResult:
    manifests = completed_segments(index_dir)
    mixed = _foreign_segments(manifests, cfg, build_fingerprint(cfg, spec))
    if mixed:
        # only reachable when a foreign-config segment was never re-planned
        # (e.g. num_segments shrank): refuse to publish a mixed index
        raise ValueError(
            f"index dir {index_dir!r} still contains segments {mixed} built "
            f"under a different config fingerprint — refusing to mix; use a "
            f"fresh index_dir or delete them")
    segs = sorted(manifests.keys())
    t_dict = time.perf_counter()
    refresh = aggregate_dictionary(index_dir, cfg, segs)
    dictionary_sec = time.perf_counter() - t_dict

    num_docs = sum(m.num_docs for m in manifests.values())
    num_indexed = sum(m.num_docs_indexed for m in manifests.values())
    sum_dl = sum(m.sum_doc_len for m in manifests.values())
    stats = {
        "n_docs": num_docs,
        "n_docs_indexed": num_indexed,
        "sum_doc_len": sum_dl,
        "avgdl": (sum_dl / num_indexed) if num_indexed else 0.0,
        "num_segments": len(segs),
        "segments": segs,
        "config_fingerprint": cfg.fingerprint(),
    }
    if refresh["coverage"]:
        stats[COVERAGE_KEY] = refresh["coverage"]
    # written after the dictionary publish: a crash between the two
    # leaves a record naming an older generation, and the next refresh
    # reads every segment
    write_json_atomic(os.path.join(index_dir, STATS_NAME), stats)
    return BuildResult(index_dir=index_dir, num_docs=num_docs,
                       num_docs_indexed=num_indexed, sum_doc_len=sum_dl,
                       num_segments=len(segs),
                       segments_built=len(segs) - n_skipped,
                       segments_skipped=n_skipped,
                       build_sec=time.perf_counter() - t0, stats=stats,
                       segments_sec=segments_sec,
                       dictionary_sec=dictionary_sec,
                       dictionary_inputs=refresh["inputs"])
