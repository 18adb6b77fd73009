"""Workload inputs, set-up, timed phases and output checks.

Two workloads share one metric set (see ``run.py``):

- ``search_cold``: one-shot search.  ``IndexSearcher`` over a built and
  merged index, one client in a closed loop, one query per call, then a
  phase of 50-query calls, then near-real-time appends to a second copy
  of the index, each followed by opening a new searcher.
- ``serve_nrt``: warm serving.  One ``SearchService`` shard actor with
  the request cache off, fed by an open loop at a fixed rate; after every
  fixed number of queries one ``add_segments`` append and one
  ``refresh()`` run while the send schedule is paused.  A phase of
  50-query calls to the service follows.

Every input comes from the run's seed: the corpus through
``synth.generate_conversations`` and the query texts through synth's Zipf
law over the full 2,000-word vocabulary.  The engine only sees parquet
files and query strings.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pyarrow.parquet as pq

from opensearch_jvector_ray import synth
from opensearch_jvector_ray.analyze import query_term_weights
from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.serve import SearchService
from opensearch_jvector_ray.stages.build import IndexSpec, add_segments, build_index
from opensearch_jvector_ray.stages.merge import merge_index
from opensearch_jvector_ray.state import metrics as engine_metrics
from opensearch_jvector_ray.state.manifest import (
    POSTINGS_NAME, completed_segments, segment_dir, verify_index)

from perfbench import procs

RAY_CPUS = 2        # one slot for the shard actor, one for Ray Data tasks

# Input size.  3,000 conversations are ~36k turns and ~2.4 MB of parquet:
# the largest corpus whose set-up, timed window and checks fit the run's
# time budget with every percentile backed by enough samples.
BASE_CONVS = 3000
BUILD_SEGMENTS = 8          # fragments plan: one row group per segment
MERGE_FACTOR = 4            # 8 built segments -> 2 searched segments
SETUP_REPS = 5              # build+merge lifecycles per run; the first
#                             doubles as the warm-up after ray.init
N_APPENDS = 20              # >= 20 samples for append and NRT medians
APPEND_CONVS = synth.PLANT_EVERY   # one planted conversation per batch
K = 10
BATCH = 50
FACET_MIN_SCORE = 1.0
ORACLE_QUERIES = 5

# search_cold mode mix, per block of 20 queries.  The slow classes (wand,
# phrase) together hold 35%, so p90 falls inside them and p50 inside taat,
# never on a boundary between two classes.
COLD_MODE_BLOCK = (("taat", 11), ("wand", 4), ("phrase", 3),
                   ("boolean", 1), ("facet", 1))
COLD_SINGLE_SHARE = 0.6     # of --seconds, single-query phase
COLD_MIN_SINGLE = 100       # p90 needs >= 100 samples
BATCH_SHARE = 0.2           # of --seconds, 50-query calls
MIN_BATCHES = 6

# serve_nrt offered load: one shard actor serves a single query in ~25 ms
# on the 2 set-up segments and ~110 ms on the 22 segments it holds after
# all appends, so 4 q/s loads it 10%-45% and the backlog never grows.
SERVE_RATE = 4.0            # queries per second
SERVE_MIN_QUERIES = 100     # p90 needs >= 100 samples
SERVE_SHARE = 0.6           # of --seconds, open-loop sending time

RSS_EVERY_S = 0.5
ZIPF_CDF = np.cumsum(synth._PROBS)
STRATA = 60                 # term draws per stratified block


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def pct(xs, q: float) -> float:
    """Percentile by linear interpolation (numpy's default)."""
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


class Queries:
    """Seeded query texts of 1-3 distinct terms under synth's Zipf law
    over the full vocabulary.  Draws are stratified: each block of STRATA
    term draws takes one uniform from every 1/STRATA slice of the law's
    CDF, and each block of 3 queries has 1, 2 and 3 terms.  A seed's
    head/tail mix then stays close to the law's, so runs with different
    seeds differ less than with independent draws."""

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self._terms: list[int] = []
        self._lens: list[int] = []

    def _term(self) -> str:
        if not self._terms:
            u = (self.rng.permutation(STRATA)
                 + self.rng.random(STRATA)) / STRATA
            self._terms = np.minimum(
                np.searchsorted(ZIPF_CDF, u, side="right"),
                len(synth.VOCAB) - 1).tolist()
        return synth.VOCAB[self._terms.pop()]

    def text(self) -> str:
        if not self._lens:
            self._lens = self.rng.permutation([1, 2, 3]).tolist()
        n = self._lens.pop()
        words: list[str] = []
        while len(words) < n:
            w = self._term()
            if w not in words:
                words.append(w)
        return " ".join(words)


class Run:
    """State of one benchmark run: inputs, samples, counts and checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 workdir: str, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.workdir = workdir
        self.tr = tracer
        self.cfg = EngineConfig(num_segments=BUILD_SEGMENTS)
        self.attempted = 0
        self.failed = 0
        self.lat: dict[str, list[float]] = defaultdict(list)  # seconds
        self.layer: dict[str, object] = {}    # raw per-layer inputs
        self.window: list[tuple[float, float]] = []   # timed intervals
        self.rss_peak = 0
        self._rss_t = 0.0
        self.queries = Queries(seed, 1)

    # -- accounting -------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")

    def op(self, fn, *args, **kwargs):
        """Run one timed engine call; returns (result, seconds).  An
        exception counts as a failed operation and returns None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as ex:           # keep measuring; report failure
            self.failed += 1
            log(f"OPERATION FAILED: {getattr(fn, '__qualname__', fn)}: "
                f"{type(ex).__name__}: {ex}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def sample_rss(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._rss_t >= RSS_EVERY_S:
            self._rss_t = now
            self.rss_peak = max(self.rss_peak, procs.ray_rss_bytes(os.getpid()))

    # -- inputs -------------------------------------------------------------
    def make_inputs(self) -> None:
        """Base corpus as one parquet file with one row group per built
        segment, plus the append batches (conv ids past the base range,
        one planted conversation in each)."""
        base = synth.generate_conversations(np.arange(BASE_CONVS),
                                            seed=self.seed)
        self.base_rows = base.num_rows
        self.base_dir = os.path.join(self.workdir, "input", "base")
        os.makedirs(self.base_dir)
        path = os.path.join(self.base_dir, "part-0.parquet")
        pq.write_table(base, path,
                       row_group_size=-(-base.num_rows // BUILD_SEGMENTS))
        self.base_bytes = os.path.getsize(path)
        self.oracle_docs = {
            (c, t): x for c, t, x in zip(base["conv_id"].to_pylist(),
                                         base["turn_idx"].to_pylist(),
                                         base["text"].to_pylist())}
        first = -(-BASE_CONVS // APPEND_CONVS) * APPEND_CONVS
        self.appends = []
        adir = os.path.join(self.workdir, "input", "appends")
        os.makedirs(adir)
        for i in range(N_APPENDS):
            lo = first + i * APPEND_CONVS
            tbl = synth.generate_conversations(
                np.arange(lo, lo + APPEND_CONVS), seed=self.seed)
            p = os.path.join(adir, f"batch-{i:03d}.parquet")
            pq.write_table(tbl, p)
            self.appends.append({"path": p, "bytes": os.path.getsize(p),
                                 "convs": range(lo, lo + APPEND_CONVS)})

    def planted(self, n_appended: int) -> set:
        convs = list(range(BASE_CONVS))
        for a in self.appends[:n_appended]:
            convs.extend(a["convs"])
        return {(f"conv-{c:07d}", 1) for c in convs
                if c % synth.PLANT_EVERY == 0}

    def cold_stream(self):
        """Endless (text, mode) stream; the mode mix is exact per block
        of 20 queries, in a seeded order."""
        block = [m for m, n in COLD_MODE_BLOCK for _ in range(n)]
        while True:
            for mode in self.queries.rng.permutation(block):
                yield self.queries.text(), str(mode)

    # -- set-up ---------------------------------------------------------------
    def build_lifecycle(self, rep: int) -> str:
        """build_index -> merge_index into fresh directories; returns the
        merged index directory."""
        built = os.path.join(self.workdir, f"built-{rep}")
        merged = os.path.join(self.workdir, f"index-{rep}")
        t0 = time.perf_counter()
        with self.tr.span("stages.build.build_index"):
            res = build_index(self.base_dir, built, self.cfg, IndexSpec())
        t1 = time.perf_counter()
        with self.tr.span("stages.merge.merge_index"):
            merge_index(built, merged, merge_factor=MERGE_FACTOR)
        t2 = time.perf_counter()
        self.lat["build"].append(t1 - t0)
        self.lat["merge"].append(t2 - t1)
        self.sample_rss(force=True)
        self.check(verify_index(built)["ok"], f"verify_index({built})")
        self.check(verify_index(merged)["ok"], f"verify_index({merged})")
        self.check(res.num_docs_indexed == self.base_rows,
                   f"n_docs_indexed {res.num_docs_indexed} != "
                   f"{self.base_rows} turns generated")
        self.built_dir, self.merged_dir = built, merged
        if self.tr.enabled:         # the merged index before any append
            self.layer["merged_bytes"] = self.index_bytes(merged)
            self.layer["bytes_per_posting"] = postings_bytes_per_posting(
                merged)
        return merged

    def setup_reps(self, open_fn) -> list[str]:
        """SETUP_REPS lifecycles, each followed by ``open_fn(index)``;
        records each rep's wall time."""
        dirs = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            d = self.build_lifecycle(rep)
            open_fn(d)
            self.lat["setup_rep"].append(time.perf_counter() - t0)
            dirs.append(d)
        return dirs

    def open_searcher(self, index_dir: str) -> IndexSearcher:
        with self.tr.span("query.open"):
            t0 = time.perf_counter()
            s = IndexSearcher(index_dir)
            self.lat["query_open"].append(time.perf_counter() - t0)
        return s

    def tail_term(self, searcher: IndexSearcher) -> str:
        """Rarest vocabulary word present in the index: a query on it
        pays fan-out, prepare and finalize with almost no kernel work."""
        tail = list(reversed(synth.VOCAB[-64:]))
        df = searcher.lookup_df(tail)
        return next(t for t in tail if df.get(t, 0) > 0)

    # -- timed phases ---------------------------------------------------------
    @contextmanager
    def timed(self):
        """Marks an interval of the timed window."""
        t0 = time.perf_counter()
        yield
        self.window.append((t0, time.perf_counter()))

    def _trace_request(self, searcher: IndexSearcher, text: str) -> None:
        """Traced run only: time the analyzer and the dictionary lookup
        for this query text directly."""
        with self.tr.span("analyze.query_term_weights"):
            t0 = time.perf_counter()
            terms = [t for t, _ in query_term_weights(text, self.cfg)]
            self.lat["analyze_query"].append(time.perf_counter() - t0)
        with self.tr.span("query.lookup_df"):
            t0 = time.perf_counter()
            searcher.lookup_df(terms)
            self.lat["lookup_df"].append(time.perf_counter() - t0)

    def cold_call(self, searcher: IndexSearcher, text: str, mode: str):
        if mode == "facet":
            return self.op(searcher.facet_counts, {"q": text},
                           facet_col="role", min_score=FACET_MIN_SCORE)
        if mode == "boolean":
            text = "+" + text          # first term MUST, the rest SHOULD
        return self.op(searcher.search, {"q": text}, k=K, mode=mode)

    def cold_warmup(self, searcher: IndexSearcher) -> None:
        """Untimed, uncounted: one call of every class."""
        for mode, _ in COLD_MODE_BLOCK:
            if mode == "facet":
                searcher.facet_counts({"q": "data"}, facet_col="role",
                                      min_score=FACET_MIN_SCORE)
            else:
                searcher.search({"q": "data model"}, k=K, mode=mode)

    def cold_queries(self, searcher: IndexSearcher, budget_s: float,
                     min_n: int, key: str = "query") -> None:
        """Closed loop of single-query calls for ``budget_s`` seconds and
        at least ``min_n`` calls; latencies go to ``lat[key]``."""
        stream = self.cold_stream()
        t0 = time.perf_counter()
        n = 0
        wand_hits = 0
        while time.perf_counter() - t0 < budget_s or n < min_n:
            text, mode = next(stream)
            with self.tr.span("request", rid=(key, n)):
                if self.tr.enabled:
                    self._trace_request(searcher, text)
                with self.tr.span(f"query.search.{mode}"):
                    out, dt = self.cold_call(searcher, text, mode)
            if out is not None:
                self.lat[key].append(dt)
                self.lat[f"search.{mode}"].append(dt)
                if mode == "wand":
                    wand_hits += len(out)
            n += 1
            self.sample_rss()
        self.layer["single_queries"] = n
        self.layer["wand_queries"] = len(self.lat["search.wand"])
        self.layer["wand_hits"] = wand_hits

    def batch_calls(self, search_fn, budget_s: float, min_n: int,
                    name: str, key: str = "batch",
                    repeat_one: bool = False) -> None:
        """50-query calls for ``budget_s`` seconds and at least ``min_n``
        calls; latencies go to ``lat[key]`` and ``lat[name]``.  With
        ``repeat_one`` every call sends the same batch, after one untimed
        call has filled the service's term cache."""
        queries = Queries(self.seed, 2)
        qs = {f"b{j:02d}": queries.text() for j in range(BATCH)}
        if repeat_one:
            with self.tr.span(name, rid=(key, "warm")):
                search_fn(qs, k=K)
        t0 = time.perf_counter()
        n = 0
        while time.perf_counter() - t0 < budget_s or n < min_n:
            if n and not repeat_one:
                qs = {f"b{j:02d}": queries.text() for j in range(BATCH)}
            with self.tr.span(name, rid=(key, n)):
                out, dt = self.op(search_fn, qs, k=K)
            if out is not None:
                self.lat[key].append(dt)
                self.lat[name].append(dt)
            n += 1
            self.sample_rss()

    def planted_ok(self, frame, n_appended: int, what: str) -> None:
        want = self.planted(n_appended)
        got = set(zip(frame["conv_id"], frame["turn_idx"].astype(int))) \
            if frame is not None else set()
        self.check(got == want, f"{what}: planted docs returned "
                   f"{len(got & want)}/{len(want)}, extra {len(got - want)}")

    def cold_appends(self, index_dir: str) -> IndexSearcher:
        """Append every batch to ``index_dir``; each append is visible
        once a newly opened searcher is returned."""
        searcher = None
        for i, a in enumerate(self.appends):
            with self.tr.span("nrt", rid=("nrt", i)):
                ta = time.perf_counter()
                with self.tr.span("stages.build.add_segments"):
                    res, dt = self.op(add_segments, index_dir, a["path"])
                searcher = self.open_searcher(index_dir)
                visible = time.perf_counter() - ta
            if res is not None:
                self.lat["append"].append(dt)
                self.lat["nrt_visible"].append(visible)
            self.sample_rss()
        return searcher

    def planted_check(self, searcher, n_appended: int, what: str) -> None:
        n = len(self.planted(n_appended))
        out, _ = self.op(searcher.search, {"p": synth.PLANT_PHRASE}, k=n + K)
        self.planted_ok(out, n_appended, what)

    def serve_with_appends(self, svc: SearchService, index_dir: str,
                           sending_s: float) -> None:
        """Open loop at SERVE_RATE; after every ``per_append`` requests
        the schedule pauses for one append + refresh + planted check."""
        n_total = max(SERVE_MIN_QUERIES, int(round(sending_s * SERVE_RATE)))
        per_append = -(-n_total // N_APPENDS)
        n_app = 0

        def after(i: int) -> None:
            nonlocal n_app
            if (i + 1) % per_append == 0:
                self._serve_append(svc, index_dir, n_app)
                n_app += 1

        self.open_loop(svc, per_append * N_APPENDS, self.queries, "query",
                       after)

    def open_loop(self, svc: SearchService, n: int, queries: Queries,
                  key: str, after=None) -> None:
        """``n`` requests at SERVE_RATE from one thread.  Latency counts
        from each request's due time; ``after(i)`` runs with the send
        schedule paused, so its time is not charged to later requests."""
        gap = 1.0 / SERVE_RATE
        due = time.perf_counter()
        for i in range(n):
            now = time.perf_counter()
            if due > now:
                with self.tr.span("bench.pace"):
                    time.sleep(due - now)
            text = queries.text()
            with self.tr.span("request", rid=(key, i)):
                send = time.perf_counter()
                with self.tr.span("serve.search"):
                    out, _ = self.op(svc.search, {"q": text}, k=K)
                done = time.perf_counter()
            if out is not None:
                self.lat[key].append(done - due)
                self.lat["serve_search"].append(done - send)
                self.lat["serve_wait"].append(max(0.0, send - due))
            due += gap
            self.sample_rss()
            if after is not None:
                pause = time.perf_counter()
                after(i)
                due += time.perf_counter() - pause

    def _serve_append(self, svc: SearchService, index_dir: str,
                      i: int) -> None:
        a = self.appends[i]
        with self.tr.span("nrt", rid=("nrt", i)):
            ta = time.perf_counter()
            with self.tr.span("stages.build.add_segments"):
                res, dt = self.op(add_segments, index_dir, a["path"])
            with self.tr.span("serve.refresh"):
                _, dr = self.op(svc.refresh)
            visible = time.perf_counter() - ta
        if res is not None:
            self.lat["append"].append(dt)
            self.lat["refresh"].append(dr)
            self.lat["nrt_visible"].append(visible)
        with self.tr.span("check.planted"):
            self.planted_check(svc, i + 1, f"after refresh {i + 1}")

    # -- checks -----------------------------------------------------------------
    def check_queries(self) -> dict[str, str]:
        queries = Queries(self.seed, 3)
        qs = {f"o{i}": queries.text() for i in range(ORACLE_QUERIES)}
        qs["planted"] = synth.PLANT_PHRASE
        return qs

    def check_oracle(self, searcher: IndexSearcher) -> None:
        """taat results are rank-identical to the brute-force oracle on
        this run's corpus (keys exact, float64 scores within 1e-9 — the
        rule of the repo's own rank-identity tests)."""
        from tests.oracle import BruteForceBM25
        oracle = BruteForceBM25(self.oracle_docs, self.cfg.stopwords)
        qs = self.check_queries()
        out = searcher.search(qs, k=K)
        self.check(str(out["score"].dtype) == "float64",
                   f"score dtype {out['score'].dtype}")
        for qid, text in qs.items():
            gold = oracle.topk(text, K)
            got = out[out.query_id == qid].sort_values("rank")
            keys = list(zip(got["conv_id"], got["turn_idx"].astype(int)))
            ok = (keys == [k for k, _ in gold]
                  and all(abs(a - b) <= 1e-9 for a, (_, b) in
                          zip(got["score"], gold)))
            self.check(ok, f"oracle rank identity for {qid}={text!r}")
        self.planted_check(searcher, 0, "base index")

    def check_same_frames(self, searcher: IndexSearcher,
                          svc: SearchService) -> None:
        """IndexSearcher and SearchService return equal frames."""
        qs = self.check_queries()
        a = searcher.search(qs, k=K).sort_values(["query_id", "rank"])
        b = svc.search(qs, k=K).sort_values(["query_id", "rank"])
        cols = ["query_id", "rank", "conv_id", "turn_idx"]
        ok = (list(a.columns) == list(b.columns) and len(a) == len(b)
              and all((a[c].to_numpy() == b[c].to_numpy()).all()
                      for c in cols)
              and np.allclose(a["score"].to_numpy(np.float64),
                              b["score"].to_numpy(np.float64),
                              rtol=0.0, atol=1e-9))
        self.check(ok, "IndexSearcher and SearchService frames differ")

    # -- end-of-run measurements -----------------------------------------------
    def index_bytes(self, index_dir: str) -> int:
        total = 0
        for root, _, files in os.walk(index_dir):
            total += sum(os.path.getsize(os.path.join(root, f))
                         for f in files)
        return total

    def window_seconds(self) -> float:
        return sum(b - a for a, b in self.window)


def median(xs) -> float:
    return float(statistics.median(xs))


def postings_bytes_per_posting(index_dir: str) -> float:
    manifests = completed_segments(index_dir)
    nbytes = sum(os.path.getsize(os.path.join(segment_dir(index_dir, s),
                                              POSTINGS_NAME))
                 for s in manifests)
    return nbytes / sum(m.num_postings for m in manifests.values())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def warm_pool() -> None:
    """Start both Ray worker slots and Ray Data's executor once."""
    import ray.data as rd
    rd.range(4000).map_batches(lambda b: {"x": [int(sum(b["id"]))]},
                               batch_size=1000).count()


def run_search_cold(run: Run) -> None:
    warm_pool()
    run.make_inputs()
    searchers = {}
    dirs = run.setup_reps(lambda d: searchers.__setitem__(
        d, run.open_searcher(d)))
    searcher = searchers[dirs[-1]]
    floor_term = run.tail_term(searcher)
    run.cold_warmup(searcher)
    run.sample_rss(force=True)
    run.setup_end = time.perf_counter()

    engine_metrics.reset()
    with run.timed():
        run.cold_queries(searcher, COLD_SINGLE_SHARE * run.seconds,
                         COLD_MIN_SINGLE)
    if run.tr.enabled:
        run.layer["counters"] = settled_counters()
    with run.timed():
        run.batch_calls(searcher.search, BATCH_SHARE * run.seconds,
                        MIN_BATCHES, "query.batch")
    with run.timed():
        appended = run.cold_appends(dirs[1])
    run.nrt_index = dirs[1]
    run.sample_rss(force=True)

    # untimed: output checks, plus the traced run's extra layer probes
    run.planted_check(appended, N_APPENDS, "after appends")
    run.check_oracle(searcher)
    svc = open_service(run, dirs[-1])
    try:
        run.check_same_frames(searcher, svc)
        if run.tr.enabled:
            probe_serve(run, svc)
    finally:
        svc.shutdown()
    if run.tr.enabled:
        probe_floor(run, searcher, floor_term)


def run_serve_nrt(run: Run) -> None:
    warm_pool()
    run.make_inputs()
    dirs = run.setup_reps(run.open_searcher)
    index = dirs[-1]
    svc = open_service(run, index)
    try:
        for _ in range(20):             # untimed warm-up
            svc.search({"q": run.queries.text()}, k=K)
        run.sample_rss(force=True)
        run.setup_end = time.perf_counter()

        engine_metrics.reset()
        with run.timed():
            run.serve_with_appends(svc, index, SERVE_SHARE * run.seconds)
        # warm throughput: with fresh batches the figure swung with how
        # many terms each batch drew that were not cached yet
        with run.timed():
            run.batch_calls(svc.search, BATCH_SHARE * run.seconds,
                            MIN_BATCHES, "serve.batch", repeat_one=True)
        run.nrt_index = index
        run.layer["cache_stats"] = svc.cache_stats()
        run.layer["actor_rss"] = actor_rss_bytes()
        run.sample_rss(force=True)

        searcher = IndexSearcher(index)
        run.check_same_frames(searcher, svc)
    finally:
        svc.shutdown()
    if run.tr.enabled:
        probe_cold(run, searcher)


def open_service(run: Run, index_dir: str) -> SearchService:
    """One shard actor, request cache off.  Open time is construction
    plus the first query: actor creation is asynchronous and the first
    query waits for the actor to load its segments."""
    with run.tr.span("serve.open"):
        t0 = time.perf_counter()
        svc = SearchService(index_dir, num_shards=1, request_cache_size=0)
        svc.search({"q": synth.VOCAB[0]}, k=K)
        run.layer["serve_open_s"] = time.perf_counter() - t0
    return svc


def settled_counters() -> dict:
    """Engine counters, read after fire-and-forget updates have landed."""
    time.sleep(0.3)
    return engine_metrics.snapshot()


def actor_rss_bytes() -> int:
    return sum(procs.rss_bytes(pid) for pid, cmd in
               procs.descendants(os.getpid()).items()
               if cmd.startswith("ray::SegmentShardActor"))


# ---------------------------------------------------------------------------
# traced-run probes of the layers a workload leaves idle
# ---------------------------------------------------------------------------

def probe_floor(run: Run, searcher: IndexSearcher, term: str) -> None:
    for i in range(10):
        with run.tr.span("query.floor", rid=("floor", i)):
            t0 = time.perf_counter()
            searcher.search({"q": term}, k=K)
            run.lat["floor"].append(time.perf_counter() - t0)


def probe_serve(run: Run, svc: SearchService) -> None:
    """Traced search_cold only: a short open loop on a service."""
    run.open_loop(svc, 20, Queries(run.seed, 4), "probe")
    run.batch_calls(svc.search, 0.0, 2, "serve.batch", key="probe")
    with run.tr.span("serve.refresh"):
        t0 = time.perf_counter()
        svc.refresh()
        run.lat["refresh"].append(time.perf_counter() - t0)
    run.layer["cache_stats"] = svc.cache_stats()
    run.layer["actor_rss"] = actor_rss_bytes()


def probe_cold(run: Run, searcher: IndexSearcher) -> None:
    """Traced serve_nrt only: a few cold calls of every class."""
    engine_metrics.reset()
    run.cold_queries(searcher, 0.0, 20, key="probe")
    run.layer["counters"] = settled_counters()
    run.batch_calls(searcher.search, 0.0, 2, "query.batch", key="probe")
    probe_floor(run, searcher, run.tail_term(searcher))


WORKLOADS = {"search_cold": run_search_cold, "serve_nrt": run_serve_nrt}
