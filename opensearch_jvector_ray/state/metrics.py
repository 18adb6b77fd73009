"""Engine metrics: global counters + the stats-endpoint analog.

Mirrors the reference's stats surface (T7/A3): atomic global counters
(`plugin/stats/KNNCounter.java:14-37`, `KNNStats.java:28-78`) incremented
from query/index paths, and the `/_plugins/_knn/stats` endpoint
(`plugin/rest/RestKNNStatsHandler.java` -> transport broadcast -> reduce)
re-expressed as: a named Ray actor accumulating counters fired from tasks
(fire-and-forget, off the hot path), plus ``engine_stats`` summarizing the
per-partition manifests (per-stage metrics, lineage) — the "broadcast +
reduce" is the manifest scan.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any

import pandas as pd

import ray

METRICS_ACTOR_NAME = "ojr_metrics"
# the counters actor is detached: it lives in this one fixed namespace,
# so every driver session on a cluster (anonymous namespace or not)
# finds the same actor instead of starting, and leaking, its own
METRICS_NAMESPACE = "ojr"

# counter names (StatNames.java:15-47 analog)
QUERY_REQUESTS = "query_requests"
SEGMENTS_SEARCHED = "segments_searched"
CANDIDATES_SCORED = "candidates_scored"
# WAND: candidates its exact pass scored, and posting blocks it never
# decoded (a block count: the per-document WAND loop it replaced counted
# pruned pivot documents under the same name)
WAND_DOCS_EVALUATED = "wand_docs_evaluated"
WAND_BLOCKS_PRUNED = "wand_blocks_pruned"
SEGMENTS_BUILT = "segments_built"
SEGMENTS_MERGED = "segments_merged"


@ray.remote(num_cpus=0)
class _MetricsActor:
    def __init__(self) -> None:
        self.counters: Counter = Counter()

    def inc(self, updates: dict[str, int]) -> None:
        self.counters.update(updates)

    def snapshot(self) -> dict[str, int]:
        return dict(self.counters)

    def reset(self) -> None:
        self.counters.clear()


def get_metrics_actor():
    """Get-or-create the named counters actor (no-op safe on workers)."""
    try:
        return ray.get_actor(METRICS_ACTOR_NAME, namespace=METRICS_NAMESPACE)
    except ValueError:
        try:
            return _MetricsActor.options(name=METRICS_ACTOR_NAME,
                                         namespace=METRICS_NAMESPACE,
                                         lifetime="detached").remote()
        except ValueError:          # lost the creation race
            return ray.get_actor(METRICS_ACTOR_NAME,
                                 namespace=METRICS_NAMESPACE)


_ACTOR_CACHE = None   # per-process handle: get_metrics_actor() is a
                      # SYNCHRONOUS GCS RPC — calling it per segment
                      # task adds tail latency to every query fan-out
_CACHE_USES = 0
# fire-and-forget updates never surface an actor death (.remote()
# returns an ObjectRef; the failure is async and nothing gets it), so
# a dead metrics actor would silently eat counters forever.  A cheap
# periodic re-resolve bounds the loss window to _CACHE_TTL_CALLS
# updates instead of paying the GCS RPC on every call.
_CACHE_TTL_CALLS = 512


def incr(updates: dict[str, int]) -> None:
    """Fire-and-forget counter update (never blocks the scoring path).
    The actor handle is cached per worker process; a stale handle (new
    cluster in the same process) is dropped and re-resolved once, and
    the cache expires every ``_CACHE_TTL_CALLS`` calls so a dead actor
    (whose async task failures fire-and-forget never observes) costs a
    bounded number of lost updates, not all of them."""
    global _ACTOR_CACHE, _CACHE_USES
    _CACHE_USES += 1
    if _CACHE_USES >= _CACHE_TTL_CALLS:
        _ACTOR_CACHE = None
        _CACHE_USES = 0
    for _ in range(2):
        try:
            if _ACTOR_CACHE is None:
                _ACTOR_CACHE = get_metrics_actor()
            _ACTOR_CACHE.inc.remote(updates)
            return
        except Exception:
            _ACTOR_CACHE = None     # metrics must never fail a query


def snapshot() -> dict[str, int]:
    try:
        return ray.get(get_metrics_actor().snapshot.remote())
    except Exception:
        return {}


def reset() -> None:
    try:
        ray.get(get_metrics_actor().reset.remote())
    except Exception:
        pass


# ---------------------------------------------------------------------------
# stats endpoint analog (A3): reduce over per-partition manifests
# ---------------------------------------------------------------------------

def engine_stats(index_dir: str, include_timings: bool = False) -> dict[str, Any]:
    """Index-level stats reduced from segment manifests + stats.json."""
    from opensearch_jvector_ray.state.manifest import (
        STATS_NAME, completed_segments, read_json)
    stats = read_json(os.path.join(index_dir, STATS_NAME))
    manifests = completed_segments(index_dir)
    seg_rows = []
    for seg, m in sorted(manifests.items()):
        row = {"seg": seg, "num_docs": m.num_docs,
               "num_docs_indexed": m.num_docs_indexed,
               "sum_doc_len": m.sum_doc_len, "num_terms": m.num_terms,
               "num_postings": m.num_postings}
        if include_timings:
            row.update({f"sec_{k}": v for k, v in m.timings_sec.items()})
        seg_rows.append(row)
    return {"index": stats, "segments": pd.DataFrame(seg_rows),
            "counters": snapshot()}


def segment_stats_table(index_dir: str) -> pd.DataFrame:
    """Deterministic per-segment stats (no timings) — driver-checkable."""
    return engine_stats(index_dir)["segments"]
