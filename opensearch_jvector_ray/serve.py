"""Persistent query service: long-lived segment-searcher actors.

``IndexSearcher.search`` runs one stateless Ray task per segment per
call — right for one-shot and batch searches.  ``SearchService`` is the
serving shape: N named actors, each owning a static subset of segments
and one CPU, created once and reused across searches.

Neither path holds a cache of its own.  Every process that runs the
segment kernel (``query.SegmentSearcher``) reads segments through its
process-wide ``query.SegmentReader`` cache: the docs tables, the
encoded postings row group by row group, and per term the decoded
postings and the position slots, in one byte-bounded LRU (the
process's share of ``query.READER_CACHE_NODE_BYTES``) keyed by the
segment files' identity — the analog of the reference's held-open
``JVectorReader`` (S5, `JVectorReader.java:42-331`) and node-level
``QuantizationStateCache`` (T6,
`quantization/models/quantizationState/QuantizationStateCache.java`).
Ray reuses worker processes, so cold tasks hit it too; what a shard
actor adds is placement: its segments stay in one process whose cache
holds them, on a CPU it keeps.

The front end is an ``IndexSearcher`` whose only difference is that
segment dispatch fans out to the actors — so warm and cold results are
the same code, asserted frame-identical by tests.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import (
    IndexSearcher, SegmentReader, SegmentSearcher, _sparse_term_weights,
    reader_cache_stats,
)
from opensearch_jvector_ray.state.manifest import (
    CONFIG_NAME, SEGMENTS_DIR, STATS_NAME, read_json,
)


@ray.remote
class SegmentShardActor:
    """Owns a subset of segments: runs the segment kernel over them in
    one process, whose reader cache keeps them warm across searches."""

    def __init__(self, seg_dirs: list[str], cfg_json: str):
        self.cfg = EngineConfig.from_json(cfg_json)
        self.seg_dirs: list[str] = []
        self.add_segments(seg_dirs)

    def ping(self) -> int:
        """Liveness probe for the respawn path."""
        return len(self.seg_dirs)

    def add_segments(self, seg_dirs: list[str]) -> int:
        """NRT refresh [OpenSearch refresh public semantics]: take on
        newly flushed segments, their docs read now so the next query
        finds them warm; existing segments and cached postings are
        untouched."""
        for d in seg_dirs:
            SegmentReader(d, self.cfg.codec, self.cfg.block_size).docs()
            self.seg_dirs.append(d)
        return len(self.seg_dirs)

    def run(self, payload: dict) -> pa.Table:
        """The one scoring entry point: the segment kernel over every
        segment this actor holds (search hits or aggregation partials,
        as the payload asks)."""
        batch = pa.table({"seg_dir": pa.array(self.seg_dirs,
                                              type=pa.string())})
        return SegmentSearcher(payload)(batch)

    def cache_stats(self) -> dict:
        """This actor process's reader-cache counters
        (``query.reader_cache_stats``): ``hits`` and ``misses`` count
        per-term lookups of decoded postings and position slots (the
        old actor term cache counted the decoded ones alone), and
        ``cached_terms`` the per-term entries held, absent terms
        included."""
        return reader_cache_stats()


class SearchService:
    """Driver-side handle: create once, search many times."""

    def __init__(self, index_dir: str, num_shards: int = 8,
                 request_cache_size: int = 256):
        meta = read_json(os.path.join(index_dir, CONFIG_NAME))
        self.cfg = EngineConfig.from_json(meta["config"])
        self.stats = read_json(os.path.join(index_dir, STATS_NAME))
        self.index_dir = index_dir
        from opensearch_jvector_ray.state.manifest import resolve_dict_dir
        self.dict_dir = resolve_dict_dir(index_dir)
        seg_root = os.path.join(index_dir, SEGMENTS_DIR)
        seg_dirs = sorted(os.path.join(seg_root, d) for d in os.listdir(seg_root)
                          if d.startswith("seg="))
        num_shards = max(1, min(num_shards, len(seg_dirs)))
        shards = [seg_dirs[i::num_shards] for i in range(num_shards)]
        self.actors = [
            SegmentShardActor.options(num_cpus=1).remote(
                s, self.cfg.to_json())
            for s in shards]
        self._assigned = set(seg_dirs)
        self._shards = [list(s) for s in shards]   # per-actor segment
        #   assignment — the respawn path rebuilds a dead actor from it
        self.respawns = 0
        self._shard_sizes = [len(s) for s in shards]
        # request cache [OpenSearch shard-request-cache public
        # semantics, service-level]: LRU over the FULL request key,
        # invalidated wholesale on refresh() (a refresh changes the
        # visible segment set and the global stats, so every cached
        # frame is stale by definition)
        self._req_cache: OrderedDict[tuple, pd.DataFrame] = OrderedDict()
        self._req_cache_size = int(request_cache_size)
        self._req_hits = 0
        self._req_misses = 0
        self._agg_facade: _ServedAggSearcher | None = None

    @staticmethod
    def _req_key(queries, k, filter, term_weights, linear_tf):
        if filter is not None:
            # pyarrow expressions stringify deterministically; None
            # stays None
            filter = str(filter)
        tw = None if term_weights is None else tuple(
            (qid, tuple(map(tuple, tws)))
            for qid, tws in sorted(term_weights.items()))
        return (tuple(sorted(queries.items())), int(k), filter, tw,
                bool(linear_tf))

    def request_cache_stats(self) -> dict:
        return {"hits": self._req_hits, "misses": self._req_misses,
                "entries": len(self._req_cache)}

    def refresh(self) -> int:
        """NRT refresh [OpenSearch refresh public semantics]: pick up
        segments flushed AFTER the service was created (the
        ``add_segments`` incremental-ingest path) without restarting
        the warm actors.  New segments are assigned to the least-loaded
        actors; global stats (N/avgdl) reload from stats.json so idf
        and norms reflect the appended docs.  Returns the number of new
        segments picked up.  The dictionary binding moves to the latest
        published generation (a PIT handle opened before the refresh
        keeps its own)."""
        self.stats = read_json(os.path.join(self.index_dir, STATS_NAME))
        from opensearch_jvector_ray.state.manifest import resolve_dict_dir
        self.dict_dir = resolve_dict_dir(self.index_dir)   # latest gen
        self._agg_facade = None     # facade captures stats/segments:
        #                             rebuild lazily after a refresh
        self._req_cache.clear()     # every cached frame is now stale
        seg_root = os.path.join(self.index_dir, SEGMENTS_DIR)
        seg_dirs = sorted(os.path.join(seg_root, d)
                          for d in os.listdir(seg_root)
                          if d.startswith("seg="))
        new = [d for d in seg_dirs if d not in self._assigned]
        if not new:
            return 0
        # bookkeeping is recorded per segment only AFTER the actor
        # confirms the load — marking first would strand a segment
        # forever if add_segments fails while the actor survives
        # (every later refresh would see it as already assigned)
        pending = []
        for d in new:
            i = int(np.argmin(self._shard_sizes))
            pending.append((i, d, self.actors[i].add_segments.remote([d])))
            self._shard_sizes[i] += 1    # route subsequent segs evenly
        n_ok = 0
        first_err = None
        for i, d, f in pending:
            try:
                ray.get(f)
            except Exception as ex:
                self._shard_sizes[i] -= 1
                first_err = first_err or ex
                continue
            self._shards[i].append(d)
            self._assigned.add(d)
            n_ok += 1
        if first_err is not None:
            raise first_err              # retryable: unconfirmed segs
            #                              stay unassigned
        return n_ok

    def _respawn(self, dead: list[int]) -> None:
        """Replace the given shard actors from the recorded per-actor
        segment assignment — the serve-side analog of replica recovery.
        Cold caches on the replacement; correctness unaffected
        (segments are immutable, global stats live on the driver)."""
        for i in dead:
            self.actors[i] = SegmentShardActor.options(
                num_cpus=1).remote(self._shards[i], self.cfg.to_json())
        self.respawns += len(dead)

    def _gather(self, make_futures) -> list:
        """ray.get over per-actor futures with ONE transparent
        respawn-and-retry on actor death.  Dead actors are identified
        PER FUTURE — only an actor whose own future raised
        RayActorError is replaced, so a busy-but-healthy sibling
        crunching a long request is never killed by a liveness probe.
        ``make_futures`` is called with the (possibly replaced) actor
        list each attempt: a retry re-fans the WHOLE request — shard
        results are partial frames, never safe to mix across
        attempts."""
        from ray.exceptions import RayActorError
        for attempt in (0, 1):
            futures = make_futures(self.actors)
            try:
                return ray.get(futures)
            except RayActorError:
                if attempt:
                    raise
                dead = []
                for i, f in enumerate(futures):
                    try:
                        ray.get(f)
                    except RayActorError:
                        dead.append(i)
                    except Exception:
                        pass           # task error, actor alive
                if not dead:
                    raise
                self._respawn(dead)
        raise AssertionError("unreachable")

    def search(self, queries: dict[str, str], k: int = 10,
               filter=None,
               term_weights: dict[str, list[tuple[str, float]]] | None = None,
               linear_tf: bool = False,
               ) -> pd.DataFrame:
        """``term_weights`` (qid -> [(term, weight)]) bypasses analysis,
        so the warm actors serve the whole multi-term expansion family
        (prefix/fuzzy/regexp/wildcard/boosts) — callers expand against
        the dictionary once (IndexSearcher.expand_*) and reuse the
        weighted list across many warm queries.

        Results are served from the request cache when the FULL request
        key matches a previous call (frame returned as a copy so
        callers can't mutate the cached entry); refresh() clears the
        cache."""
        key = self._req_key(queries, k, filter, term_weights, linear_tf)
        hit = self._req_cache.get(key)
        if hit is not None:
            self._req_cache.move_to_end(key)
            self._req_hits += 1
            return hit.copy()
        self._req_misses += 1
        out = self.agg.search(
            queries, k=k, filter=filter, term_weights=term_weights,
            score_mode="linear_tf" if linear_tf else "bm25")
        if self._req_cache_size > 0:
            self._req_cache[key] = out.copy()
            while len(self._req_cache) > self._req_cache_size:
                self._req_cache.popitem(last=False)
        return out

    def sparse_vector_search(self,
                             queries: "dict[str, list[tuple[str, float]]]",
                             k: int = 10, filter=None) -> pd.DataFrame:
        """Warm sparse_vector (neural_sparse) serving: the (token,
        weight) lists ride the term_weights path against the cached
        postings with the linear-tf kernel — frame-identical to
        IndexSearcher.sparse_vector_search (pytest-pinned; same
        weight>0 validation and token-sorted summation order)."""
        norm = _sparse_term_weights(queries)
        texts = {qid: "" for qid in norm}
        return self.search(texts, k=k, filter=filter,
                           term_weights=norm, linear_tf=True)

    @property
    def agg(self) -> "_ServedAggSearcher":
        """Warm facade: the full IndexSearcher API (search modes and the
        aggregation family) over this service's current segment set and
        global stats, with the per-segment kernel run on THIS service's
        warm actors (cached docs and postings) instead of fresh
        stateless tasks."""
        if self._agg_facade is None:
            self._agg_facade = _ServedAggSearcher(self)
        return self._agg_facade

    def cache_stats(self) -> list[dict]:
        return self._gather(
            lambda acts: [a.cache_stats.remote() for a in acts])

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []


class _ServedAggSearcher(IndexSearcher):
    """IndexSearcher bound to a SearchService: a point-in-time view of
    the segments the service's actors hold and the global stats of its
    last refresh.  Only the segment dispatch differs — every
    SegmentSearcher fan-out goes to the warm actors; fan-outs that read
    docs sidecars only (mget, field_stats, ...) stay stateless tasks.
    Constructed via ``SearchService.agg``."""

    def __init__(self, svc: SearchService):
        super().__init__(svc.index_dir, pit={
            "seg_dirs": sorted(svc._assigned), "stats": svc.stats,
            "dict_dir": svc.dict_dir,
            "config_fingerprint": svc.cfg.fingerprint()})
        self._svc = svc

    def _map_segments(self, payload: dict,
                      concurrency: int | None = None) -> list[pd.DataFrame]:
        tables = self._svc._gather(
            lambda acts: [a.run.remote(payload) for a in acts])
        return [t.to_pandas() for t in tables]
