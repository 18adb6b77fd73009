"""opensearch_jvector_ray — a Ray-Data-native full-text index + BM25 engine.

A from-scratch re-expression of the indexing/query capabilities that the
reference plugin (sam-herman/opensearch-jvector, a fork of the OpenSearch
k-NN plugin) rides on: segment-oriented inverted-index build, segment
merge, compressed posting lists with block-max metadata, Okapi BM25
top-k with block-max WAND, filtered search, two-pass rescore, stats —
rebuilt idiomatically on `ray.data.Dataset` pipelines for build and
merge (map_batches over zero-copy Arrow batches, groupby/map_groups for
the partition build); queries fan out as plain Ray tasks, or to
long-lived shard actors when served.

Reference lifecycle parity (see SURVEY.md §2/§3 for the full inventory):
  - segment flush  -> stages/build.py   (JVectorWriter.flush, JVectorWriter.java:198-250)
  - segment merge  -> stages/merge.py   (JVectorWriter.mergeOneField, JVectorWriter.java:175-195)
  - segment search -> query.py          (JVectorReader.search, JVectorReader.java:131-212)
  - codec          -> postings.py       (posting compression; the analog of the
                                         Lucene101 postings delegate, KNN10010Codec.java:39-41)
  - field config   -> config.py         (KNNVectorFieldMapper params, KNNVectorFieldMapper.java:97-212)
  - scoring fns    -> functions/scoring.py (KNNScoringUtil.java kernels + BM25)

No code is copied from the reference; it is a behavioral template only.
"""

from opensearch_jvector_ray.config import EngineConfig

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
