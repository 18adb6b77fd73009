#!/usr/bin/env python3
"""Benchmark of the Ray-Data-native BM25 engine.

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  Starts a private Ray instance with
``num_cpus=2``, runs one workload (see ``workloads.py``) against inputs
made from ``--seed``, checks the engine's outputs, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
spans are recorded around every engine call and the metrics are the
per-layer ones (``layers.py``), with a human-readable table on standard
error.  Everything the run writes lives under the repository root and is
removed at exit, except the traced run's span file in ``perfbench/.out``.
Ray's session directory also goes under the root when its socket paths
fit the 107-byte limit of Unix sockets, else under the system temp dir.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# 107-byte Unix socket limit minus Ray's "/session_<date>_<pid>/sockets/
# plasma_store" suffix
RAY_DIR_MAX = 107 - 70


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def e2e_metrics(run, setup_s: float) -> dict:
    from perfbench.workloads import BATCH, median, pct
    lat = run.lat
    appended = sum(a["bytes"] for a in run.appends)
    lifecycle_s = [b + m for b, m in zip(lat["build"], lat["merge"])]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.rss_peak / 2**20, "MB"),
        "index_bytes_per_input_byte": (
            run.index_bytes(run.nrt_index) / (run.base_bytes + appended),
            "ratio"),
        "ingest_turns_per_s": (run.base_rows / median(lifecycle_s[1:]),
                               "turns/s"),          # rep 0 is the warm-up
        "append_p50_ms": (1e3 * median(lat["append"]), "ms"),
        "query_p50_ms": (1e3 * pct(lat["query"], 50), "ms"),
        "query_p90_ms": (1e3 * pct(lat["query"], 90), "ms"),
        "batch_qps": (BATCH / median(lat["batch"]), "queries/s"),
        "nrt_visible_ms": (1e3 * median(lat["nrt_visible"]), "ms"),
    }


def ray_temp_dir() -> str:
    d = os.path.join(ROOT, f".pbray{os.getpid()}")
    return d if len(d) <= RAY_DIR_MAX else tempfile.mkdtemp(prefix="pbray")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import opensearch_jvector_ray  # noqa: F401  the program under test
        import tests.oracle  # noqa: F401  the brute-force BM25 oracle
    except ImportError as ex:
        print(f"perfbench: cannot import the engine from {ROOT}: {ex}",
              file=sys.stderr)
        return 2
    from perfbench import layers
    from perfbench.spans import NullTracer, Tracer
    from perfbench.workloads import RAY_CPUS, WORKLOADS, Run, median
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, "perfbench", ".work", str(os.getpid()))
    raydir = ray_temp_dir()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # Ray workers import the engine by module path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tracer = Tracer() if args.trace else NullTracer()
    run = Run(args.workload, args.seed, args.seconds, workdir, tracer)

    import logging

    import ray
    try:
        t_setup = time.perf_counter()
        ray.init(address="local", num_cpus=RAY_CPUS,
                 object_store_memory=256 * 2**20, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 namespace="perfbench", _temp_dir=raydir)
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

        WORKLOADS[args.workload](run)
        # set-up done once (ray.init, pool warm-up, inputs, service open,
        # warm-up calls) plus the median repeated build/merge/open
        once = run.setup_end - t_setup - sum(run.lat["setup_rep"])
        setup_s = once + median(run.lat["setup_rep"])
        e2e = e2e_metrics(run, setup_s)
        if args.trace:
            per_layer = layers.per_layer(run)
            out_dir = os.path.join(ROOT, "perfbench", ".out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            layers.print_table(run, per_layer, e2e)
            metrics = per_layer
        else:
            metrics = e2e
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        _shutdown(ray, workdir, raydir)

    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def _shutdown(ray, workdir: str, raydir: str) -> None:
    """Stop Ray, wait for every process it started, remove run files."""
    from perfbench import procs
    started = procs.descendants(os.getpid())
    try:
        ray.shutdown()
    finally:
        left = procs.wait_gone(started, timeout=20.0)
        if left:
            print(f"perfbench: processes never ended: {left}",
                  file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(raydir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
