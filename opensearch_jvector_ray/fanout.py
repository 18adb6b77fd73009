"""Plain Ray task fan-out shared by the query side and path-input appends."""

from __future__ import annotations

from typing import Callable, Sequence

import pyarrow as pa
import ray


@ray.remote
def run_task(fn: Callable[..., pa.Table], batch: pa.Table,
             kw: dict) -> pa.Table:
    return fn(batch, **kw)


def fan_out(fn: Callable[..., pa.Table], items: Sequence[dict],
            concurrency: int | None = None, **kw) -> list[pa.Table]:
    """Run ``fn(batch, **kw)`` as plain Ray tasks, one per item (a
    ``{"seg_dir": d}`` row, a per-field slot of segment dirs, or one
    append's fragment-plan row), and return the tables in item order.
    ``kw`` is put in the object store once for all tasks.
    ``concurrency`` caps the task count: the items split into that many
    contiguous batches (None or 0: no cap).  A task that raises raises
    here.

    Plain tasks, because a query's kernel work, or one append's segment
    builds, is less than what a Ray Data dataset costs to plan and start
    (~25 vs ~70 ms per query on a 2-segment, 36k-turn index, one CPU;
    an append of one 97-conversation segment spent ~60 ms in a one-row
    dataset around a ~20 ms build), and because an idle actor pool would
    hold CPUs the serving actors need.  Build, merge and Dataset-input
    appends, which stream or repartition the corpus, stay on Ray Data."""
    items = list(items)
    if concurrency is not None and concurrency < 0:
        raise ValueError(f"concurrency must be >= 1, or None/0 for one "
                         f"task per item; got {concurrency}")
    if not items:
        return []
    n = min(concurrency or len(items), len(items))
    cuts = [len(items) * i // n for i in range(n + 1)]
    kw_ref = ray.put(kw)
    return ray.get([
        run_task.remote(fn, pa.Table.from_pylist(items[lo:hi]), kw_ref)
        for lo, hi in zip(cuts, cuts[1:])])
