"""Round-5 sixth review pass (query.py): exact integer sort keys
(beyond-2^53 / int64 extremes / uint64 no-wrap on the desc flip),
the lazy posting-decode gate (wand parity on multi-block postings),
and the new conflicting-option rejections (min_score x rescore,
matched_positions x term_weights, fractional histogram interval,
all-NULL percentiles match set).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import IndexSearcher, _sort_key_numeric
from opensearch_jvector_ray.stages.build import IndexSpec, build_index

CFG = EngineConfig(num_segments=3)

I64 = np.iinfo(np.int64)
# values that differ ONLY beyond float64's 2^53 integer range, plus
# both int64 extremes — a float64 sort key collapses / reorders these
BIG = [(1 << 53) + 1, 1 << 53, (1 << 53) + 2, -(1 << 60),
       I64.min, I64.max, 0, -1, (1 << 62) + 3, (1 << 62) + 4,
       7, -(1 << 53) - 1, -(1 << 53), 42, I64.max - 1]
# uint64 values above 2^63: an int64 cast wraps them negative
UBIG = [(1 << 64) - 1, (1 << 63) + 5, 1 << 63, (1 << 63) - 1,
        3, 0, (1 << 64) - 2, 9, (1 << 62), 11,
        (1 << 63) + 1, 5, 1, 2, (1 << 53) + 1]
N = len(BIG)
TEXTS = [f"alpha beta tok{i}" for i in range(N)]


def _corpus() -> pa.Table:
    return pa.table({
        "doc_id": pa.array(list(range(N)), type=pa.int64()),
        "text": pa.array(TEXTS, type=pa.string()),
        "big": pa.array(BIG, type=pa.int64()),
        "ubig": pa.array(UBIG, type=pa.uint64()),
        "nch": pa.array([len(t) for t in TEXTS], type=pa.int64()),
        "allnull": pa.array([None] * N, type=pa.float64()),
    })


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("r17") / "idx")
    build_index(rd.from_arrow(_corpus()), out, CFG,
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=("big", "ubig", "nch", "allnull"),
                          ts_col=""))
    return out


def test_sort_key_numeric_integer_exact():
    t = pa.table({"big": pa.array(BIG, type=pa.int64()),
                  "ubig": pa.array(UBIG, type=pa.uint64()),
                  "f": pa.array([0.5] * N, type=pa.float64())})
    kb = _sort_key_numeric(t, "big")
    assert kb.dtype == np.int64
    assert kb.tolist() == BIG                      # exact, no collapse
    ku = _sort_key_numeric(t, "ubig")
    assert ku.dtype == np.uint64                   # no int64 wrap
    assert ku.tolist() == UBIG
    assert _sort_key_numeric(t, "f").dtype == np.float64


@pytest.mark.parametrize("field,vals", [("big", BIG), ("ubig", UBIG)])
@pytest.mark.parametrize("order", ["asc", "desc"])
def test_sort_by_huge_integers_exact(idx, field, vals, order):
    # every doc matches "alpha"; the engine's (field dir, key asc)
    # order must equal exact python integer sorting — a float64 key
    # collapses the 2^53+1 / 2^53+2 pairs and (desc) -sk wraps at
    # int64.min / any uint64 > 2^63
    s = IndexSearcher(idx)
    got = s.search({"q": "alpha"}, k=N, sort=(field, order))
    # all values distinct -> python's arbitrary-precision sort is the
    # exact expected order (ties would break key asc, never exercised)
    exp = sorted(range(N), key=lambda i: vals[i],
                 reverse=(order == "desc"))
    assert got["doc_id"].tolist() == [int(i) for i in exp]
    assert got[field].tolist() == [vals[i] for i in exp]


def test_wand_parity_on_multiblock_postings(tmp_path):
    # block_size=4 forces many posting blocks; WAND, which decodes only
    # the blocks its block-max bounds keep, must still return exactly
    # the taat ranking
    cfg = EngineConfig(num_segments=2, block_size=4)
    n = 60
    rng = np.random.default_rng(17)
    texts = [" ".join(rng.choice(["alpha", "beta", "gamma", "delta"],
                                 size=rng.integers(2, 9)))
             for _ in range(n)]
    t = pa.table({"doc_id": pa.array(list(range(n)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    out = str(tmp_path / "widx")
    build_index(rd.from_arrow(t), out, cfg,
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=(), ts_col=""))
    s = IndexSearcher(out)
    q = {"q1": "alpha gamma", "q2": "beta delta alpha"}
    a = s.search(q, k=15, mode="taat").reset_index(drop=True)
    b = s.search(q, k=15, mode="wand").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_histogram_rejects_fractional_interval(idx):
    s = IndexSearcher(idx)
    with pytest.raises(ValueError, match="whole number"):
        s.histogram_agg({"q": "alpha"}, value_col="nch",
                        interval=0.5, min_score=1e-9)
    # whole-valued float is fine
    out = s.histogram_agg({"q": "alpha"}, value_col="nch",
                          interval=4.0, min_score=1e-9)
    assert int(out["doc_count"].sum()) == N


def test_percentiles_all_null_match_set(idx):
    s = IndexSearcher(idx)
    got = s.percentiles_agg({"q": "alpha"}, value_col="allnull",
                            percents=[0.5, 0.9], min_score=1e-9)
    assert got.empty                   # undefined quantiles -> no rows
    # a populated column still works alongside
    ok = s.percentiles_agg({"q": "alpha"}, value_col="nch",
                           percents=[0.5], min_score=1e-9)
    assert len(ok) == 1


def test_min_score_rejects_rescore(idx):
    s = IndexSearcher(idx)
    with pytest.raises(ValueError, match="rescore"):
        s.search({"q": "alpha"}, min_score=0.1, rescore_oversample=2.0)


def test_matched_positions_rejects_term_weights(idx):
    s = IndexSearcher(idx)
    with pytest.raises(ValueError, match="term_weights"):
        s.matched_positions({"q": "alpha"}, k=5,
                            term_weights={"q": [("alpha", 2.0)]})


# ---------------------------------------------------------------------------
# seventh pass: knn/pq/multimodal/ingest findings
# ---------------------------------------------------------------------------

def test_ingest_no_duplicate_columns_and_typed_set():
    from opensearch_jvector_ray.pipelines.ingest import compile_pipeline
    t = pa.table({"a": pa.array([1, 2], type=pa.int64()),
                  "b": pa.array([10, 20], type=pa.int64())})
    # script writing INTO an existing column must replace, not append a
    # silent duplicate (Arrow allows duplicate names)
    fn = compile_pipeline([
        {"script": {"op": "add", "left": "a", "right": "b",
                    "target_field": "b"}}])
    out = fn(t)
    assert out.column_names == ["a", "b"]
    assert out["b"].to_pylist() == [11, 22]
    # set pins the type from the constant: an EMPTY block must carry the
    # same schema as populated blocks (null-type inference drift)
    fn2 = compile_pipeline([{"set": {"field": "c", "value": "x"}}])
    empty = fn2(t.slice(0, 0))
    full = fn2(t)
    assert empty.schema.field("c").type == full.schema.field("c").type \
        == pa.string()
    # rename onto an existing name fails (no shadowing)
    fn3 = compile_pipeline([{"rename": {"field": "a", "target_field": "b"}}])
    with pytest.raises(KeyError, match="already exists"):
        fn3(t)


def test_wav_sampwidth_guard_routes_through_on_error():
    import io
    import wave as wave_mod
    from opensearch_jvector_ray.pipelines import multimodal as mm
    buf = io.BytesIO()
    with wave_mod.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)              # 8-bit PCM: unsupported
        w.setframerate(8000)
        w.writeframes(bytes(64))
    stub = mm.DecodeStub(on_error="raise")
    with pytest.raises(ValueError, match="PCM16"):
        stub._decode_audio(buf.getvalue())
    # and the stage-level "null" mode keeps the row with a NULL feature
    t = pa.table({"media_id": pa.array([0], type=pa.int64()),
                  "kind": pa.array(["audio"]),
                  "payload": pa.array([buf.getvalue()], type=pa.binary())})
    out = mm.DecodeStub(on_error="null")(t)
    assert out["feature"].null_count == 1


def test_trainer_rejects_empty_dataset():
    from opensearch_jvector_ray.pipelines import knn as knn_pl
    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], type=pa.int64()),
        "embedding": pa.array([], type=pa.list_(pa.float64()))}))
    with pytest.raises(Exception, match="empty dataset"):
        knn_pl.train_centroids(empty, 4, "embedding")


def test_byte_topk_survives_empty_block():
    from opensearch_jvector_ray.pipelines import knn as knn_pl
    vecs = [[1.0, 2.0], [3.0, -4.0], [5.0, 6.0]]
    t = pa.table({"vec_id": pa.array([0, 1, 2], type=pa.int64()),
                  "embedding": pa.array(vecs,
                                        type=pa.list_(pa.float64()))})
    ds = rd.from_arrow(t.slice(0, 0)).union(rd.from_arrow(t))
    out = knn_pl.byte_topk(ds, {"q": np.array([1.0, 2.0])}, 2, metric="l2")
    assert out["vec_id"].tolist()[0] == 0      # exact self-match first


def test_compact_ivf_index_parallel_path(tmp_path):
    from opensearch_jvector_ray.pipelines import knn as knn_pl
    rng = np.random.default_rng(3)
    n = 200
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(rng.standard_normal((n, 4)).tolist(),
                              type=pa.list_(pa.float64()))})
    idx = str(tmp_path / "ivf")
    knn_pl.build_ivf_index(rd.from_arrow(t), idx, n_centroids=4)
    knn_pl.delete_from_ivf_index(idx, [0, 5, 7])
    dst = str(tmp_path / "ivf2")
    knn_pl.compact_ivf_index(idx, dst)         # now Ray-task parallel
    q = {"q": np.asarray(t["embedding"][1].as_py(), dtype=np.float64)}
    a = knn_pl.ivf_index_topk(idx, q, 5, n_probe=4)
    b = knn_pl.ivf_index_topk(dst, q, 5, n_probe=4)
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
    assert not set(b["vec_id"]) & {0, 5, 7}    # tombstones dropped


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_sort_by_field_randomized_int64(tmp_path, seed):
    # randomized: arbitrary int64 magnitudes (incl. beyond 2^53), random
    # direction, multi-segment — engine order must equal python's exact
    # integer sort with (field dir, doc key asc) tie-break
    rng = np.random.default_rng(seed)
    n = 80
    mag = rng.choice([1 << 10, 1 << 40, 1 << 53, 1 << 60], size=n)
    vals = (rng.integers(-4, 5, size=n).astype(object) * mag.astype(object)
            + rng.integers(0, 3, size=n).astype(object))
    vals = [int(v) for v in vals]
    t = pa.table({"doc_id": pa.array(list(range(n)), type=pa.int64()),
                  "text": pa.array(["alpha"] * n, type=pa.string()),
                  "v": pa.array(vals, type=pa.int64())})
    out = str(tmp_path / "idx")
    build_index(rd.from_arrow(t), out, EngineConfig(num_segments=4),
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=("v",), ts_col=""))
    s = IndexSearcher(out)
    for order in ("asc", "desc"):
        got = s.search({"q": "alpha"}, k=n, sort=("v", order))
        exp = sorted(range(n),
                     key=lambda i: (-vals[i] if order == "desc"
                                    else vals[i], i))
        assert got["doc_id"].tolist() == exp, (order, seed)


def test_manifest_forward_compat_and_audit(tmp_path, idx):
    import json, os, shutil
    from opensearch_jvector_ray.state.manifest import (
        MANIFEST_NAME, SegmentManifest, verify_index,
    )
    work = str(tmp_path / "fc")
    shutil.copytree(idx, work)
    segs = sorted(os.listdir(os.path.join(work, "segments")))
    seg0 = os.path.join(work, "segments", segs[0])
    mpath = os.path.join(seg0, MANIFEST_NAME)
    data = json.load(open(mpath))
    data["future_field_from_v9"] = {"x": 1}   # newer-engine extra key
    json.dump(data, open(mpath, "w"))
    m = SegmentManifest.read(seg0)            # must not TypeError
    assert m.num_docs == data["num_docs"]
    assert verify_index(work)["ok"]
    # missing-file audit: one clean error, no duplicate 'unreadable'
    os.remove(os.path.join(seg0, "postings.parquet"))
    rep = verify_index(work)
    assert not rep["ok"]
    tag = f"seg={int(segs[0].split('=')[1])}:"     # dir pads, error doesn't
    errs = [e for e in rep["errors"] if e.startswith(tag)]
    assert len(errs) == 1 and "missing" in errs[0]


def test_geo_bounding_box_dateline():
    import duckdb
    from opensearch_jvector_ray.pipelines.geo import geo_bounding_box
    rng = np.random.default_rng(9)
    n = 400
    t = pa.table({"event_id": pa.array(np.arange(n, dtype=np.int64)),
                  "lat": pa.array(rng.uniform(-90, 90, n)),
                  "lon": pa.array(rng.uniform(-180, 180, n))})
    boxes = {"b1": (60.0, -30.0, 20.0, 45.0),
             "dl": (10.0, 160.0, -25.0, -150.0)}   # crosses the dateline
    got = geo_bounding_box(rd.from_arrow(t), boxes)
    con = duckdb.connect()
    con.register("pts0", t)
    exp = con.sql("""
        SELECT 'b1' AS query_id, event_id FROM pts0
          WHERE lat BETWEEN 20.0 AND 60.0 AND lon BETWEEN -30.0 AND 45.0
        UNION ALL
        SELECT 'dl', event_id FROM pts0
          WHERE lat BETWEEN -25.0 AND 10.0
            AND (lon >= 160.0 OR lon <= -150.0)
        ORDER BY query_id, event_id""").df()
    assert (exp["query_id"] == "dl").any()         # dateline box non-empty
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    with pytest.raises(ValueError, match="bottom"):
        geo_bounding_box(rd.from_arrow(t), {"bad": (0.0, 0.0, 5.0, 5.0)})


def test_wand_prunes_blocks_with_lazy_decode(tmp_path):
    # skewed corpus: a rare high-idf term confined to the tail of the
    # ordinal space lets WAND's block-max bound skip whole blocks of
    # the common term; wand_blocks_pruned (blocks never decoded) must
    # actually move, and stays within the 400 / 8 = 50 blocks there are
    from opensearch_jvector_ray.state import metrics
    cfg = EngineConfig(num_segments=1, block_size=8)
    n = 400
    # ordinals are key-sorted: docs 0..7 are SHORT (high per-doc score,
    # they fill the heap and set theta), every later block is LONG docs
    # whose blk_min_dl-based upper bound sits below theta
    long_tail = " ".join(f"filler{j}" for j in range(40))
    texts = [f"common {long_tail}"] * n
    for i in range(8):
        texts[i] = "common"
    t = pa.table({"doc_id": pa.array(list(range(n)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    out = str(tmp_path / "widx")
    build_index(rd.from_arrow(t), out, cfg,
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=(), ts_col=""))
    metrics.reset()
    s = IndexSearcher(out)
    got = s.search({"q": "common"}, k=5, mode="wand")
    exp = s.search({"q": "common"}, k=5, mode="taat")
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  exp.reset_index(drop=True))
    snap = metrics.snapshot()
    assert snap.get("wand_blocks_pruned", 0) > 0
    assert snap.get("wand_blocks_pruned", 0) <= 50
    assert snap.get("wand_docs_evaluated", 0) < n


def test_geo_polygon_crossing_parity():
    from opensearch_jvector_ray.pipelines.geo import geo_polygon
    rng = np.random.default_rng(23)
    n = 500
    t = pa.table({"event_id": pa.array(np.arange(n, dtype=np.int64)),
                  "lat": pa.array(rng.uniform(-40, 80, n)),
                  "lon": pa.array(rng.uniform(-60, 60, n))})
    tri = [(50.0, -20.0), (70.0, 10.0), (30.0, 30.0)]
    concave = [(-10.0, -40.0), (20.0, -20.0), (-5.0, -30.0),
               (25.0, 10.0), (-30.0, 0.0)]
    got = geo_polygon(rd.from_arrow(t), {"tri": tri, "cc": concave})

    def inside(poly, la, lo):
        # independent classic ray-cast WITH division (random continuous
        # points never land on boundaries, so the two formulations agree)
        c = False
        nv = len(poly)
        for i in range(nv):
            y1, x1 = poly[i]
            y2, x2 = poly[(i + 1) % nv]
            if (y1 > la) != (y2 > la):
                xint = x1 + (la - y1) * (x2 - x1) / (y2 - y1)
                if lo < xint:
                    c = not c
        return c

    lat = t["lat"].to_numpy()
    lon = t["lon"].to_numpy()
    exp_rows = []
    for qid, poly in (("cc", concave), ("tri", tri)):
        for i in range(n):
            if inside(poly, lat[i], lon[i]):
                exp_rows.append((qid, i))
    exp = pd.DataFrame(sorted(exp_rows), columns=["query_id", "event_id"])
    assert len(exp) > 10                       # both polygons non-empty
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    with pytest.raises(ValueError, match="3 vertices"):
        geo_polygon(rd.from_arrow(t), {"bad": [(0.0, 0.0), (1.0, 1.0)]})


def test_geotile_grid_known_tiles_and_bounds():
    import math
    from opensearch_jvector_ray.pipelines.geo import geotile_grid
    pts = [(0.0, 0.0), (0.0, 0.0), (51.5, -0.1),        # London dupes
           (51.5, -0.1), (51.5, -0.1), (-33.9, 151.2),  # Sydney
           (89.9, 10.0), (-89.9, 10.0)]                 # beyond mercator
    t = pa.table({"lat": pa.array([p[0] for p in pts]),
                  "lon": pa.array([p[1] for p in pts])})
    out = geotile_grid(rd.from_arrow(t), 4, size=10)
    # independent slippy-tile reference (asinh form, equivalent away
    # from cell boundaries)
    def ref(la, lo, z):
        n = 1 << z
        x = int((lo + 180.0) / 360.0 * n)
        y = int((1.0 - math.asinh(math.tan(math.radians(la)))
                 / math.pi) / 2.0 * n)
        return f"{z}/{x}/{y}"
    exp = {}
    for la, lo in pts:
        if abs(la) <= 85.0511287798066:
            exp[ref(la, lo, 4)] = exp.get(ref(la, lo, 4), 0) + 1
    assert dict(zip(out["tile"], out["doc_count"])) == exp
    assert int(out["doc_count"].sum()) == 6      # 2 polar pts excluded
    assert out["doc_count"].is_monotonic_decreasing
    with pytest.raises(ValueError, match="zoom"):
        geotile_grid(rd.from_arrow(t), 31)


def test_geohash_grid_canonical_and_counts():
    from opensearch_jvector_ray.pipelines.geo import geohash_grid
    pts = [(57.64911, 10.40744)] * 3 + [(0.0, 0.0)] * 2 + [(-25.4, 131.0)]
    t = pa.table({"lat": pa.array([p[0] for p in pts]),
                  "lon": pa.array([p[1] for p in pts])})
    out = geohash_grid(rd.from_arrow(t), 5, size=10)
    got = dict(zip(out["geohash"], out["doc_count"]))
    # u4pru is the canonical geohash.org test vector for this point
    assert got["u4pru"] == 3
    assert got["s0000"] == 2                   # (0,0) cell
    assert sum(got.values()) == 6
    with pytest.raises(ValueError, match="precision"):
        geohash_grid(rd.from_arrow(t), 0)


def test_geo_centroid_order_free_exact():
    from opensearch_jvector_ray.pipelines.geo import geo_centroid
    rng = np.random.default_rng(31)
    n = 300
    lat = np.round(rng.uniform(-90, 90, n), 2)    # the quantized contract
    lon = np.round(rng.uniform(-180, 180, n), 2)
    t = pa.table({"lat": pa.array(lat), "lon": pa.array(lon)})
    a = geo_centroid(rd.from_arrow(t), decimals=2)
    # permuted + re-blocked input: scaled-int sums are associative so
    # the centroid is bit-identical regardless of block order
    perm = rng.permutation(n)
    t2 = pa.table({"lat": pa.array(lat[perm]), "lon": pa.array(lon[perm])})
    ds2 = (rd.from_arrow(t2.slice(0, 37))
           .union(rd.from_arrow(t2.slice(37))))
    b = geo_centroid(ds2, decimals=2)
    pd.testing.assert_frame_equal(a, b)
    # exact expected value via python integers
    exp_lat = round(sum(int(round(v * 100)) for v in lat) / (100.0 * n), 6)
    assert float(a["lat"][0]) == exp_lat
    assert int(a["count"][0]) == n
