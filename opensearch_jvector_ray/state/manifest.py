"""Per-partition manifests: checkpoint + lineage records.

The analog of the reference's per-segment metadata record + commit point
(`VectorIndexFieldMetadata`, `JVectorWriter.java:419-457`; durable segment
files enable restart/upgrade resume, `qa/restart-upgrade/`).  A segment
directory is COMPLETE iff its ``manifest.json`` exists; the manifest is
written last via atomic rename, so a killed build leaves either a complete
segment (skipped on resume) or an incomplete one (rebuilt).  This is the
north rule's "resumable from per-partition checkpoints with lineage and
per-stage metrics".
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Any

MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.json"
STATS_NAME = "stats.json"
DICTIONARY_NAME = "dictionary.parquet"
POSTINGS_NAME = "postings.parquet"
DOCS_NAME = "docs.parquet"
SEGMENTS_DIR = "segments"


def segment_dir(index_dir: str, seg: int) -> str:
    return os.path.join(index_dir, SEGMENTS_DIR, f"seg={seg:05d}")


def file_id(path: str) -> tuple[int, int, int]:
    """``(st_ino, st_mtime_ns, st_size)``: a file rewritten or replaced at
    the same path gets a new identity."""
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns, st.st_size


# -- dictionary generations (publish-then-point, Lucene commit-point analog)
# A dictionary refresh PUBLISHES a new immutable generation subdir
# ``dictionary/g<NNNNNNNNNN>/`` (atomic rename) instead of rewriting files
# in place; readers bind the LATEST generation at open time.  Old
# generations stay on disk until vacuumed, so an open reader — and a
# point-in-time search handle — keeps seeing the exact df/cf table it was
# opened against even across appends (the Lucene IndexReader/commit-point
# file-liveness rule the reference's NRT path relies on,
# `RemoteIndexBuildStrategy` flush/refresh lifecycle).  Generation names
# deliberately avoid '=' so a recursive parquet-dataset read of the root
# never infers a hive partition column.
DICT_GEN_PREFIX = "g"


def dict_generations(index_dir: str) -> list[int]:
    root = os.path.join(index_dir, "dictionary")
    if not os.path.isdir(root):
        return []
    out = []
    for d in os.listdir(root):
        if (d.startswith(DICT_GEN_PREFIX) and d[1:].isdigit()
                and os.path.isdir(os.path.join(root, d))):
            out.append(int(d[1:]))
    return sorted(out)


def resolve_dict_dir(index_dir: str, gen: int | None = None) -> str:
    """Path of the latest (or a pinned) published dictionary generation.

    Falls back to the flat legacy layout (files directly under
    ``dictionary/``) when no generation subdir exists, so pre-generation
    index dirs stay readable.
    """
    root = os.path.join(index_dir, "dictionary")
    gens = dict_generations(index_dir)
    if gen is not None:
        if gen == 0 and gen not in gens:
            return root               # pinned legacy flat generation
        return os.path.join(root, f"{DICT_GEN_PREFIX}{gen:010d}")
    if not gens:
        return root
    return os.path.join(root, f"{DICT_GEN_PREFIX}{gens[-1]:010d}")


def vacuum_dictionary(index_dir: str, keep: int = 1) -> list[int]:
    """Remove all but the newest ``keep`` dictionary generations (the
    commit-point vacuum: long-lived append streams otherwise accumulate
    one immutable generation per refresh).  NEVER call while a PIT
    handle opened against an older generation is still in use — like
    Lucene's deletion policy, liveness is the caller's contract (the
    default keep=1 is safe once all readers are current).  The legacy
    flat files are left untouched.  Returns the dropped generation
    numbers."""
    import shutil
    if keep < 1:
        raise ValueError("keep must be >= 1")
    gens = dict_generations(index_dir)
    drop = gens[:-keep] if len(gens) > keep else []
    for g in drop:
        shutil.rmtree(resolve_dict_dir(index_dir, gen=g),
                      ignore_errors=True)
    return drop


def dict_read_paths(dict_dir: str) -> "str | list[str]":
    """What to hand ``pq.read_table`` for a resolved dictionary dir.

    Generation dirs are immutable and read whole.  The legacy flat root
    needs its root-level parquet files enumerated explicitly: a recursive
    directory read would also pick up generation subdirs published AFTER
    a reader pinned the flat layout (double-counting every term).
    """
    base = os.path.basename(dict_dir)
    if base.startswith(DICT_GEN_PREFIX) and base[len(DICT_GEN_PREFIX):].isdigit():
        return dict_dir
    if not os.path.isdir(dict_dir):
        return dict_dir
    files = sorted(os.path.join(dict_dir, f) for f in os.listdir(dict_dir)
                   if f.endswith(".parquet"))
    return files if files else dict_dir


@dataclass
class SegmentManifest:
    """Checkpoint + lineage + per-stage metrics for one segment build."""

    seg: int
    num_docs: int                 # rows in the docs table
    num_docs_indexed: int         # docs with >= 1 surviving token
    sum_doc_len: int              # sum of post-stopword token counts
    num_terms: int
    num_postings: int
    rows_in: int                  # input rows before dedup/LWW
    config_fingerprint: str
    lineage: dict[str, Any] = field(default_factory=dict)
    timings_sec: dict[str, float] = field(default_factory=dict)
    engine_version: str = "0.1.0"

    def write(self, seg_dir: str) -> None:
        path = os.path.join(seg_dir, MANIFEST_NAME)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)
        os.replace(tmp, path)      # atomic: manifest presence == completeness

    @classmethod
    def read(cls, seg_dir: str) -> "SegmentManifest":
        with open(os.path.join(seg_dir, MANIFEST_NAME)) as f:
            data = json.load(f)
        # forward-compat (the BWC contract's read side): a manifest
        # written by a NEWER engine may carry extra fields — ignore
        # them instead of TypeError-ing the whole resume set
        known = {fl.name for fl in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def completed_segments(index_dir: str) -> dict[int, SegmentManifest]:
    """Segments whose manifest exists (the resume set)."""
    root = os.path.join(index_dir, SEGMENTS_DIR)
    out: dict[int, SegmentManifest] = {}
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        seg_dir = os.path.join(root, name)
        if name.startswith("seg=") and os.path.exists(os.path.join(seg_dir, MANIFEST_NAME)):
            m = SegmentManifest.read(seg_dir)
            out[m.seg] = m
    return out


def write_json_atomic(path: str, obj: Any) -> None:
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_json(path: str) -> Any:
    with open(path) as f:
        return json.load(f)


def verify_index(index_dir: str) -> dict:
    """Integrity audit: per-segment file presence + row-count/posting-sum
    cross-checks against the manifests (the checksum/footer verification
    analog, `JVectorReader.java:84-96`; Parquet supplies page checksums).

    Returns {"ok": bool, "segments": n, "errors": [...]}.
    """
    import pyarrow.compute as pc_
    import pyarrow.parquet as pq_
    errors: list[str] = []
    manifests = completed_segments(index_dir)
    for seg, m in sorted(manifests.items()):
        d = segment_dir(index_dir, seg)
        missing = [fname for fname in (DOCS_NAME, POSTINGS_NAME)
                   if not os.path.exists(os.path.join(d, fname))]
        if missing:
            errors.extend(f"seg={seg}: missing {fname}"
                          for fname in missing)
            continue          # the cross-checks below would just re-fail
        try:
            docs_md = pq_.read_metadata(os.path.join(d, DOCS_NAME))
            if docs_md.num_rows != m.num_docs:
                errors.append(f"seg={seg}: docs rows {docs_md.num_rows} != "
                              f"manifest num_docs {m.num_docs}")
            post = pq_.read_table(os.path.join(d, POSTINGS_NAME),
                                  columns=["df", "cf"])
            n_post = int(pc_.sum(post["df"]).as_py() or 0)
            if n_post != m.num_postings:
                errors.append(f"seg={seg}: postings {n_post} != "
                              f"manifest {m.num_postings}")
            if post.num_rows != m.num_terms:
                errors.append(f"seg={seg}: terms {post.num_rows} != "
                              f"manifest {m.num_terms}")
            dl = pq_.read_table(os.path.join(d, DOCS_NAME),
                                columns=["doc_len"])["doc_len"]
            if int(pc_.sum(dl).as_py() or 0) != m.sum_doc_len:
                errors.append(f"seg={seg}: sum(doc_len) mismatch")
        except Exception as e:        # torn/corrupt file
            errors.append(f"seg={seg}: unreadable ({e})")
    stats_path = os.path.join(index_dir, STATS_NAME)
    if os.path.exists(stats_path):
        st = read_json(stats_path)
        if st.get("n_docs") != sum(m.num_docs for m in manifests.values()):
            errors.append("stats.json n_docs != sum of manifests")
    else:
        errors.append("missing stats.json")
    return {"ok": not errors, "segments": len(manifests), "errors": errors}


class StageTimer:
    """Tiny per-stage wall-clock recorder (T7/A5 analog: KNNStats counters,
    `plugin/stats/KNNStats.java:28-78`, merge-time metric
    `JVectorWriter.java:178-190`)."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self._t0: float | None = None
        self._stage: str | None = None

    def start(self, stage: str) -> None:
        self._stage, self._t0 = stage, time.perf_counter()

    def stop(self) -> None:
        if self._stage is not None and self._t0 is not None:
            self.timings[self._stage] = self.timings.get(self._stage, 0.0) + (
                time.perf_counter() - self._t0)
        self._stage = self._t0 = None


def snapshot_index(index_dir: str, out_path: str) -> dict:
    """Snapshot [OpenSearch snapshot/restore API public semantics,
    single-repo form]: verify the index, then pack it into one tar
    archive with a snapshot manifest (engine fingerprint + per-file
    sizes) so restore can re-verify.  Refuses to snapshot an index that
    fails the integrity audit."""
    import json as _json
    import tarfile

    audit = verify_index(index_dir)
    if not audit["ok"]:
        raise ValueError(f"refusing to snapshot a failing index: "
                         f"{audit['errors'][:3]}")
    files = []
    for root, _, names in os.walk(index_dir):
        for n in sorted(names):
            p = os.path.join(root, n)
            files.append((os.path.relpath(p, index_dir),
                          os.path.getsize(p)))
    meta = {"segments": audit["segments"], "files": sorted(files)}
    tmp = f"{out_path}.tmp{os.getpid()}"
    with tarfile.open(tmp, "w") as tf:
        info_bytes = _json.dumps(meta, sort_keys=True).encode()
        import io
        ti = tarfile.TarInfo("_SNAPSHOT.json")
        ti.size = len(info_bytes)
        tf.addfile(ti, io.BytesIO(info_bytes))
        for rel, _ in files:
            tf.add(os.path.join(index_dir, rel), arcname=rel)
    os.replace(tmp, out_path)            # atomic publish
    return {"ok": True, "files": len(files), "path": out_path}


def restore_index(snap_path: str, index_dir: str) -> dict:
    """Restore a snapshot into a FRESH directory (refuses to overwrite),
    checking every file's size against the snapshot manifest and running
    the integrity audit afterwards."""
    import json as _json
    import tarfile

    if os.path.exists(index_dir) and os.listdir(index_dir):
        raise ValueError(f"restore target {index_dir!r} is not empty")
    os.makedirs(index_dir, exist_ok=True)
    with tarfile.open(snap_path, "r") as tf:
        meta = _json.loads(tf.extractfile("_SNAPSHOT.json").read())
        members = tf.getmembers()
        for m in members:
            # explicit path-safety floor (the manifest itself rides in
            # the tar, so the set compare below can't vouch for it):
            # regular files with relative, traversal-free names only —
            # same invariant filter="data" enforces, but validated
            # unconditionally so the pre-3.11.4 fallback extract is
            # covered too
            if not m.isfile() or os.path.isabs(m.name) \
                    or ".." in m.name.split("/"):
                raise ValueError(f"unsafe snapshot member: {m.name!r}")
        names = {m.name for m in members} - {"_SNAPSHOT.json"}
        want = {rel for rel, _ in meta["files"]}
        if names != want:
            raise ValueError(f"snapshot file set mismatch: "
                             f"{sorted(names ^ want)[:5]}")
        try:
            tf.extractall(index_dir, filter="data")
        except TypeError:
            # filter= needs Python >= 3.11.4 / 3.10.12; members were
            # explicitly validated above (regular, relative,
            # traversal-free), so a plain extract is equivalent there
            tf.extractall(index_dir)
    for rel, size in meta["files"]:
        p = os.path.join(index_dir, rel)
        if os.path.getsize(p) != size:
            raise ValueError(f"restored file size mismatch: {rel}")
    audit = verify_index(index_dir)
    if not audit["ok"]:
        raise ValueError(f"restored index fails verification: "
                         f"{audit['errors'][:3]}")
    return {"ok": True, "segments": audit["segments"]}
