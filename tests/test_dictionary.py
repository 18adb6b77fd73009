"""Dictionary aggregation: salted two-phase distributed path must equal
the local Arrow path (skew-salting correctness), and global stats must be
segmentation-independent."""

import os

import numpy as np
import pyarrow.parquet as pq
import ray.data as rd

import opensearch_jvector_ray.stages.build as B
from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.stages.build import IndexSpec, build_index
from opensearch_jvector_ray.synth import generate_conversations


def _dictionary_df(index_dir):
    return (pq.read_table(os.path.join(index_dir, "dictionary"))
            .to_pandas().sort_values("term").reset_index(drop=True))


def test_salted_distributed_path_equals_local(tmp_path, monkeypatch):
    corpus = generate_conversations(np.arange(120))
    idx_local = str(tmp_path / "local")
    build_index(rd.from_arrow(corpus), idx_local, EngineConfig(num_segments=5),
                IndexSpec())
    d_local = _dictionary_df(idx_local)

    # force the distributed salted path by zeroing the local threshold
    idx_dist = str(tmp_path / "dist")
    import opensearch_jvector_ray.stages.build as bmod
    real_agg = bmod.aggregate_dictionary

    def tiny_threshold_agg(index_dir, cfg, segs):
        import pyarrow as pa
        import pyarrow.compute as pc
        # call through with the Ray branch by monkeypatching the cutoff
        paths = [os.path.join(bmod.segment_dir(index_dir, s), bmod.POSTINGS_NAME)
                 for s in segs]
        paths = [p for p in paths if os.path.exists(p)]
        stats_ds = rd.read_parquet(paths, columns=["term", "df", "cf"])
        from ray.data.aggregate import Sum

        def add_salt(batch):
            salt = (bmod.stable_hash_strings(batch["term"]) % np.uint64(16)).astype(np.int32)
            return batch.append_column("__salt", pa.array(salt))

        partial = (stats_ds.map_batches(add_salt, batch_format="pyarrow")
                   .groupby(["term", "__salt"])
                   .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf")))
        final = (partial.groupby("term")
                 .aggregate(Sum("df", alias_name="df"), Sum("cf", alias_name="cf"))
                 .sort("term"))
        dict_dir = os.path.join(index_dir, "dictionary")
        os.makedirs(dict_dir, exist_ok=True)
        final.write_parquet(dict_dir)
        return {"inputs": len(paths), "coverage": None}

    monkeypatch.setattr(bmod, "aggregate_dictionary", tiny_threshold_agg)
    build_index(rd.from_arrow(corpus), idx_dist, EngineConfig(num_segments=5),
                IndexSpec())
    monkeypatch.setattr(bmod, "aggregate_dictionary", real_agg)
    d_dist = _dictionary_df(idx_dist)

    assert d_local["term"].tolist() == d_dist["term"].tolist()
    assert d_local["df"].astype(int).tolist() == d_dist["df"].astype(int).tolist()
    assert d_local["cf"].astype(int).tolist() == d_dist["cf"].astype(int).tolist()


def test_dictionary_df_equals_bruteforce(tmp_path):
    corpus = generate_conversations(np.arange(60))
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(corpus), idx, EngineConfig(num_segments=3), IndexSpec())
    d = _dictionary_df(idx)
    # brute-force df from the raw text
    import re
    from collections import Counter
    stop = set(EngineConfig().stopwords)
    df, cf = Counter(), Counter()
    for i in range(corpus.num_rows):
        toks = [t for t in re.findall(r"[a-z0-9]+",
                                      (corpus["text"][i].as_py() or "").lower())
                if t not in stop]
        cf.update(toks)
        df.update(set(toks))
    assert dict(zip(d["term"], d["df"].astype(int))) == dict(df)
    assert dict(zip(d["term"], d["cf"].astype(int))) == dict(cf)


def test_distributed_salted_path_equals_local(tmp_path, monkeypatch):
    """Force the salted two-phase Ray aggregation (the 100-TB path) and
    assert it produces the identical dictionary to the local path."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd
    from opensearch_jvector_ray import synth
    from opensearch_jvector_ray.config import EngineConfig
    from opensearch_jvector_ray.stages import build as build_mod
    from opensearch_jvector_ray.stages.build import IndexSpec, build_index

    corpus = synth.generate_conversations(np.arange(60))
    idx_local = str(tmp_path / "local")
    build_index(rd.from_arrow(corpus), idx_local,
                EngineConfig(num_segments=4), IndexSpec())
    monkeypatch.setattr(build_mod, "DICT_LOCAL_MAX_PARTIALS", 0)
    idx_ray = str(tmp_path / "ray")
    build_index(rd.from_arrow(corpus), idx_ray,
                EngineConfig(num_segments=4), IndexSpec())
    a = pq.read_table(f"{idx_local}/dictionary").to_pandas()
    b = pq.read_table(f"{idx_ray}/dictionary").to_pandas()
    a = a.sort_values("term").reset_index(drop=True)[["term", "df", "cf"]]
    b = b.sort_values("term").reset_index(drop=True)[["term", "df", "cf"]]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
