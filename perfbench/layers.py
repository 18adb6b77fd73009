"""Per-layer metrics of the traced run, and the table printed with them.

Layer names are the engine's module names.  Values come from three
sources: spans the benchmark records around its calls into the engine
(``spans.py``), the engine's counters (``state.metrics.snapshot()``,
reset at the start of the workload) and the manifests the build and merge
stages write (``state.metrics.engine_stats``).  Each row names the
end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import sys

from opensearch_jvector_ray.state import metrics as engine_metrics

from perfbench.workloads import RAY_CPUS, median, pct

# metric -> (unit, spans it is measured by, end-to-end metric it moves)
LAYERS = {
    "stages.build.build_s": ("s", "stages.build.build_index",
                             "ingest_turns_per_s, setup_s on both"),
    "stages.build.sort_s": ("s", "", "ingest_turns_per_s on both"),
    "stages.build.tokenize_s": ("s", "", "ingest_turns_per_s on both"),
    "stages.build.postings_s": ("s", "", "ingest_turns_per_s on both"),
    "stages.build.write_s": ("s", "", "ingest_turns_per_s on both"),
    "stages.build.busy_ratio": ("ratio", "",
                                "ingest_turns_per_s on both"),
    "stages.build.append_ms": ("ms", "stages.build.add_segments",
                               "append_p50_ms, nrt_visible_ms on both"),
    "stages.merge.merge_s": ("s", "stages.merge.merge_index",
                             "ingest_turns_per_s, setup_s on both"),
    "stages.merge.merge_postings_s": ("s", "",
                                      "ingest_turns_per_s on both"),
    "stages.merge.bytes_written": ("bytes", "",
                                   "index_bytes_per_input_byte on both"),
    "postings.bytes_per_posting": ("bytes", "",
                                   "index_bytes_per_input_byte on both; "
                                   "batch_qps on search_cold"),
    "analyze.query_us": ("us", "analyze.query_term_weights",
                         "query_p50_ms on search_cold (negligible)"),
    "query.open_ms": ("ms", "query.open",
                      "nrt_visible_ms on search_cold"),
    "query.lookup_df_ms": ("ms", "query.lookup_df",
                           "query_p50_ms on search_cold"),
    "query.search_ms.taat": ("ms", "query.search.taat",
                             "query_p50_ms on search_cold"),
    "query.search_ms.wand": ("ms", "query.search.wand",
                             "query_p90_ms on search_cold"),
    "query.search_ms.phrase": ("ms", "query.search.phrase",
                               "query_p90_ms on search_cold"),
    "query.search_ms.boolean": ("ms", "query.search.boolean",
                                "query_p50_ms on search_cold"),
    "query.search_ms.facet": ("ms", "query.search.facet",
                              "query_p50_ms on search_cold"),
    "query.floor_ms": ("ms", "query.floor",
                       "query_p50_ms on search_cold"),
    "query.batch_ms": ("ms", "query.batch", "batch_qps on search_cold"),
    "query.segments_searched": ("count", "", "batch_qps on search_cold"),
    "query.candidates_scored": ("count", "", "batch_qps on search_cold"),
    "query.wand_docs_evaluated": ("count", "",
                                  "query_p90_ms on search_cold"),
    "query.wand_blocks_pruned": ("count", "",
                                 "query_p90_ms on search_cold"),
    "query.wand_docs_per_hit": ("ratio", "",
                                "query_p90_ms on search_cold"),
    "serve.open_s": ("s", "serve.open", "setup_s on serve_nrt"),
    "serve.search_ms_p50": ("ms", "serve.search",
                            "query_p50_ms on serve_nrt"),
    "serve.search_ms_p90": ("ms", "serve.search",
                            "query_p90_ms on serve_nrt"),
    "serve.wait_ms_p90": ("ms", "bench.pace",
                          "query_p90_ms on serve_nrt"),
    "serve.batch_ms": ("ms", "serve.batch", "batch_qps on serve_nrt"),
    "serve.refresh_ms": ("ms", "serve.refresh",
                         "nrt_visible_ms on serve_nrt"),
    "serve.term_cache_hit_ratio": ("ratio", "",
                                   "query_p50_ms on serve_nrt"),
    "serve.term_cache_misses": ("count", "", "query_p50_ms on serve_nrt"),
    "serve.cached_terms": ("count", "",
                           "query_p50_ms, peak_rss_mb on serve_nrt"),
    "serve.actor_rss_mb": ("MB", "", "peak_rss_mb on serve_nrt"),
    "bench.span_coverage": ("ratio", "", "share of timed wall time "
                            "inside spans"),
    "bench.overhead_s": ("s", "", "timed wall time outside spans"),
}


def _manifest_sum(index_dir: str, stage: str) -> float:
    st = engine_metrics.engine_stats(index_dir, include_timings=True)
    col = f"sec_{stage}"
    segs = st["segments"]
    return float(segs[col].sum()) if col in segs else 0.0


def per_layer(run) -> dict[str, tuple[float, str]]:
    lat, layer = run.lat, run.layer

    def ms(key, q=50):
        return 1e3 * pct(lat[key], q)

    stage = {s: _manifest_sum(run.built_dir, s)
             for s in ("sort", "dedup", "tokenize", "postings", "write")}
    counters = layer["counters"]
    nq = layer["single_queries"]
    nw = max(1, layer["wand_queries"])
    cache = layer["cache_stats"]
    hits = sum(c["hits"] for c in cache)
    misses = sum(c["misses"] for c in cache)
    window = run.window_seconds()
    covered = sum(run.tr.covered(a, b) for a, b in run.window)
    wand_eval = counters.get(engine_metrics.WAND_DOCS_EVALUATED, 0)
    values = {
        "stages.build.build_s": median(lat["build"]),
        "stages.build.sort_s": stage["sort"],
        "stages.build.tokenize_s": stage["tokenize"],
        "stages.build.postings_s": stage["postings"],
        "stages.build.write_s": stage["write"],
        "stages.build.busy_ratio": sum(stage.values())
        / (lat["build"][-1] * RAY_CPUS),
        "stages.build.append_ms": ms("append"),
        "stages.merge.merge_s": median(lat["merge"]),
        "stages.merge.merge_postings_s": _manifest_sum(run.merged_dir,
                                                       "merge_postings"),
        "stages.merge.bytes_written": layer["merged_bytes"],
        "postings.bytes_per_posting": layer["bytes_per_posting"],
        "analyze.query_us": 1e6 * median(lat["analyze_query"]),
        "query.open_ms": ms("query_open"),
        "query.lookup_df_ms": ms("lookup_df"),
        **{f"query.search_ms.{m}": ms(f"search.{m}")
           for m in ("taat", "wand", "phrase", "boolean", "facet")},
        "query.floor_ms": ms("floor"),
        "query.batch_ms": ms("query.batch"),
        "query.segments_searched":
            counters.get(engine_metrics.SEGMENTS_SEARCHED, 0) / nq,
        "query.candidates_scored":
            counters.get(engine_metrics.CANDIDATES_SCORED, 0) / nq,
        "query.wand_docs_evaluated": wand_eval / nw,
        "query.wand_blocks_pruned":
            counters.get(engine_metrics.WAND_BLOCKS_PRUNED, 0) / nw,
        "query.wand_docs_per_hit": wand_eval / max(1, layer["wand_hits"]),
        "serve.open_s": layer["serve_open_s"],
        "serve.search_ms_p50": ms("serve_search"),
        "serve.search_ms_p90": ms("serve_search", 90),
        "serve.wait_ms_p90": ms("serve_wait", 90),
        "serve.batch_ms": ms("serve.batch"),
        "serve.refresh_ms": ms("refresh"),
        "serve.term_cache_hit_ratio": hits / max(1, hits + misses),
        "serve.term_cache_misses": float(misses),
        "serve.cached_terms": float(sum(c["cached_terms"] for c in cache)),
        "serve.actor_rss_mb": layer["actor_rss"] / 2**20,
        "bench.span_coverage": covered / window,
        "bench.overhead_s": window - covered,
    }
    return {k: (float(values[k]), LAYERS[k][0]) for k in LAYERS}


def print_table(run, values: dict, e2e: dict) -> None:
    selft = run.tr.self_times()
    out = [f"== per-layer, workload {run.workload}, seed {run.seed} "
           f"(traced run) ==",
           f"{'metric':32s} {'value':>14s} {'unit':6s} "
           f"{'span self s':>11s}  moves"]
    for k, (v, u) in values.items():
        span = LAYERS[k][1]
        st = f"{selft[span]:.3f}" if span in selft else "-"
        out.append(f"{k:32s} {v:14.4f} {u:6s} {st:>11s}  {LAYERS[k][2]}")
    out.append("-- counters (state.metrics, since reset) --")
    for k, v in sorted(run.layer["counters"].items()):
        out.append(f"{k:32s} {v:14d}")
    out.append("-- span self time, all spans --")
    for k, v in sorted(selft.items(), key=lambda kv: -kv[1]):
        out.append(f"{k:32s} {v:14.3f} s")
    out.append("-- end-to-end metrics of this traced run --")
    for k, (v, u) in e2e.items():
        out.append(f"{k:32s} {v:14.4f} {u}")
    print("\n".join(out), file=sys.stderr, flush=True)
