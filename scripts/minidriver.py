"""Replica of the driver's correctness gate: runs every queries() entry
against its oracle_sql() via DuckDB (sorted columns + sorted rows, exact
value compare).  Usage: python scripts/minidriver.py [sf_dir] [name...]
(optional names run only that subset of queries() entries).

Column dtypes are compared by class (int, float, bool, string, datetime,
object, ...): a class change, e.g. an int64 key upcast to float64, is a
MISMATCH.  A width or unit difference inside one class (int32 vs int64,
datetime64[s] vs [us]) is printed as a DTYPE note and does not fail."""
import sys, os, traceback
import ray, duckdb, numpy as np, pandas as pd
ray.init(address="local", num_cpus=8, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars=False
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as E

SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
con = duckdb.connect()
for t in ["region","nation","customer","supplier","part","orders","lineitem","events","documents","embeddings"]:
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")

def dtype_class(col):
    t = pd.api.types
    if t.is_bool_dtype(col.dtype):
        return "bool"
    if t.is_integer_dtype(col.dtype):
        return "int"
    if t.is_float_dtype(col.dtype):
        return "float"
    if t.is_datetime64_any_dtype(col.dtype):
        return "datetime"
    if t.is_timedelta64_dtype(col.dtype):
        return "timedelta"
    if col.dtype == object or t.is_string_dtype(col.dtype):
        inferred = t.infer_dtype(col, skipna=True)
        return "string" if inferred in ("string", "empty") else "object"
    return str(col.dtype)

def norm(df):
    if hasattr(df, "to_pandas"): df = df.to_pandas()
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df

qs, sqls = E.queries(), E.oracle_sql()
if len(sys.argv) > 2:
    only = set(sys.argv[2:])
    unknown = only - set(qs)
    if unknown:
        sys.exit(f"unknown queries: {sorted(unknown)}")
    qs = {k: v for k, v in qs.items() if k in only}
fails = []
for name, fn in qs.items():
    try:
        got = fn(SF)
        got = got.to_pandas() if hasattr(got, "to_pandas") else got
        n = len(got)
        if name in sqls:
            exp = con.sql(sqls[name]).df()
            g, e = norm(got), norm(exp)
            ok_schema = list(g.columns) == list(e.columns)
            ok_rows = len(g) == len(e)
            ok_vals = False
            bad_class = []
            if ok_schema:
                for c in g.columns:
                    gc, ec = dtype_class(g[c]), dtype_class(e[c])
                    if gc != ec:
                        bad_class.append(f"{c}: {g[c].dtype} ({gc}) vs {e[c].dtype} ({ec})")
                    elif g[c].dtype != e[c].dtype:
                        print(f"{name:28s} DTYPE    {c}: {g[c].dtype} vs oracle {e[c].dtype} (same class)")
            if ok_schema and ok_rows and not bad_class:
                try:
                    pd.testing.assert_frame_equal(g, e, check_dtype=False, atol=0, rtol=0)
                    ok_vals = True
                except AssertionError as ex:
                    ok_vals = False
                    err = str(ex).split("\n")[0:6]
            status = "OK" if (ok_schema and ok_rows and ok_vals) else "MISMATCH"
            print(f"{name:28s} {status:8s} rows={n} oracle_rows={len(exp)} cols={list(g.columns) if not ok_schema else ''}")
            if status != "OK":
                fails.append(name)
                if bad_class:
                    print("   dtype class:", "; ".join(bad_class))
                elif ok_schema and ok_rows:
                    diff = (g != e)
                    bad_cols = [c for c in g.columns if diff[c].any()]
                    print("   bad cols:", bad_cols)
                    for c in bad_cols[:2]:
                        i = diff[c].idxmax()
                        print(f"   first diff {c}[{i}]: got={g[c][i]!r} exp={e[c][i]!r}")
                else:
                    print("   got cols", list(g.columns), "exp cols", list(e.columns), "rows", len(g), len(e))
        else:
            print(f"{name:28s} ROWSONLY rows={n}")
    except Exception as ex:
        fails.append(name)
        print(f"{name:28s} ERROR    {type(ex).__name__}: {ex}")
        traceback.print_exc(limit=3)
print("\nFAILS:", fails)
ray.shutdown()
