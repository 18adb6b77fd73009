"""JSON query DSL: the parser/translation surface of the reference's
query builders (`query/parser/KNNQueryBuilderParser.java` — strict field
validation, typed params, per-space radial forms — and the BM25 path the
plugin delegates to OpenSearch's query DSL for).

Supported bodies (one top-level clause per query):

    {"match":  {"query": "...", "k": 10, "mode": "taat|wand|rescore|
                "phrase", "min_score": f, "collapse": col,
                "filter": {...}, "sort": {"field": col,
                "order": "asc|desc"}}}
                 # filter: structured filter-context clause (term |
                 # terms | range | exists | bool), compiled to a
                 # pre-filter over the stored fields;
                 # sort: rank hits on a stored field, not the score
    {"function_score": {"query": "...", "k": 10,
                "field_value_factor": {"field": col, "factor": f,
                                       "modifier": "none|sqrt|log1p"}
              | "decay": {"field": col, "decay_fn": "linear|exp|gauss",
                          "origin": x, "scale": s, "offset": o,
                          "decay": d},
                "filter": {...}}}    # multiplicative doc boost
    {"bool":   {"must": [...], "should": [...], "must_not": [...],
                "k": 10, "minimum_should_match": n}}
                                    # term lists, Lucene BooleanQuery rules
    {"knn":    {"vector": [...], "k": 10, "metric": "cosine|l2|...",
                "min_score": f | "max_distance": f,
                "filter": {...}}}   # full filter-context family
                                    # (term/terms/range/exists/bool)
    {"more_like_this": {"like": "seed text ...", "k": 10,
                "max_query_terms": 10}}    # Lucene MLT clause
    {"prefix": {"query": "ser* data", "k": 10, "max_expansions": 50}}
                                       # trailing-* multi-term expansion
    {"fuzzy":  {"query": "qury", "k": 10, "max_edits": 1,
                "prefix_length": 0, "max_expansions": 50}}
    {"facets": {"query": "...", "field": col, "min_score": f,
                "size": n, "include": regex, "exclude": regex,
                "min_doc_count": n}}   # terms aggregation over the
                                       # radial match set (anchored RE2
                                       # bucket filters, global min count)
    {"stats_agg":  {"query": "...", "field": col, "min_score": f}}
    {"range_agg":  {"query": "...", "field": col, "min_score": f,
                    "ranges": [[key, lo|null, hi|null], ...]}}
    {"date_histogram": {"query": "...", "field": ts_col, "min_score": f,
                    "calendar_interval": "month|day|hour"}}
    {"top_hits":   {"query": "...", "field": col, "min_score": f,
                    "n": 3}}
    {"histogram":  {"query": "...", "field": col, "interval": w,
                "min_score": f}}       # numeric-bucket counts
    {"suggest": {"prefix": "ser" | "typo": "qury" | "phrase":
                 "fasst merge", "n": 10, "max_edits": 2}}
                 # completion / did-you-mean / phrase correction
    {"has_child": {"query": "...", "k": 10, "score_mode":
                   "max|sum|avg|count", "parent_field": col|null}}
                 # join field: parents ranked by child aggregates
    {"multi_match": {"query": "...", "fields": [col, ...], "k": 10,
                     "type": "best_fields|most_fields",
                     "tie_breaker": f}}   # per-field indexes (dis_max)
    {"combined_fields": {"query": "...", "fields": [col, ...],
                     "weights": {col: int, ...}, "k": 10}}
                 # term-centric BM25F: shared tf/df/dl across fields
    {"constant_score": {"query": "...", "k": 10, "boost": f}}
                 # filter context: every match scores exactly boost
    {"boosting":   {"positive": "...", "negative": "...",
                    "negative_boost": f, "k": 10}}
                 # negative-clause demotion (multiply)
    {"span_near":    {"query": "...", "k": 10, "slop": n,
                      "in_order": bool}}
                 # proximity: all terms within a width (n_terms + slop)
                 # window; in_order additionally requires a strictly
                 # increasing chain in query-sequence order
    {"intervals":    {"query": "...", "max_gaps": n, "ordered": bool,
                      "k": 10}}  # match-source subset; sugar over
                                 # span_near (max_gaps == slop)
    {"span_first":   {"query": "...", "end": n, "k": 10}}
                 # occurrences count only in the first n positions
    {"span_or":      {"query": "fast|quick merge", "slop": n, "k": 10}}
    {"span_multi":   {"query": "fas* merge", "slop": n, "k": 10,
                      "max_expansions": m}}
                 # '|'-alternatives unioned per clause, then span_near
    {"span_not":     {"query": "include exclude", "pre": n, "post": n,
                      "k": 10}}
                 # include hits survive unless exclude is in the window
    {"span_within":  {"query": "little big1 big2", "slop": n, "k": 10}}
                 # little occurrences covered by a valid big window
    {"span_containing": {"query": "little big1 big2", "slop": n,
                      "k": 10}}  # big windows that also hold little
    {"significant_text": {"query": "...", "min_score": f, "size": n}}
                 # JLH over the ANALYZED index terms of the match set
    {"cardinality":  {"query": "...", "field": col, "min_score": f}}
    {"percentiles":  {"query": "...", "field": col, "min_score": f,
                      "percents": [0.25, 0.5, ...]}}
    {"simple_query_string": {"query": '+must -not "a phrase" pre*',
                    "k": 10}}  # the +/-/"/trailing-* flag subset
    {"mad":        {"query": "...", "field": int_col, "min_score": f}}
    {"variable_width_histogram": {"query": "...", "field": int_col,
                                  "buckets": b, "min_score": f}}
                 # exact median-absolute-deviation over the match set
    {"boxplot":    {"query": "...", "field": int_col, "min_score": f}}
                 # exact min/q1/q2/q3/max (quantile_disc quartiles)
    {"t_test":     {"query": "...", "field": int_col, "min_score": f,
                    "filter_a": {...}, "filter_b": {...}}}
                 # Welch unpaired t between two filter splits
    {"percentile_ranks": {"query": "...", "field": col,
                      "values": [v, ...], "min_score": f}}
    {"significant_terms": {"query": "...", "field": col,
                      "min_score": f, "size": n}}
    {"filters_agg":  {"query": "...", "min_score": f,
                      "filters": {name: filter_spec, ...}}}
    {"terms_stats":  {"query": "...", "field": bucket_col,
                      "value_field": int_col, "min_score": f}}
    {"composite":    {"query": "...", "field": col, "size": n,
                      "min_score": f, "after": key|null}}
    {"multi_terms":  {"query": "...", "fields": [col, col, ...],
                      "min_score": f, "size": n|null}}
                 # composite-key bucket counts (doc_count DESC, vals ASC)
    {"rare_terms":   {"query": "...", "field": col,
                      "max_doc_count": n, "min_score": f}}
                 # long-tail buckets by GLOBAL merged count
    {"extended_stats": {"query": "...", "field": int_col,
                      "min_score": f, "sigma": f}}
    {"weighted_avg": {"query": "...", "field": int_col,
                      "weight_field": int_col, "min_score": f}}
    {"bucket_metric": {"query": "...", "field": ts_col,
                      "calendar_interval": "month|day|hour",
                      "metric": "sum_bucket|avg_bucket|min_bucket|"
                                "max_bucket|stats_bucket",
                      "min_score": f}}   # sibling pipeline aggs
    {"adjacency_matrix": {"query": "...", "min_score": f,
                      "filters": {name: filter_spec, ...}}}
                 # named filters + pairwise "a&b" intersections
    {"string_stats": {"query": "...", "field": str_col,
                      "min_score": f}}  # lengths + entropy
    {"matrix_stats": {"query": "...", "fields": [x_col, y_col],
                      "min_score": f}}  # cov/corr of two int columns
    {"date_range":   {"query": "...", "field": ts_col, "min_score": f,
                      "ranges": [[key, iso|null, iso|null], ...]}}
    {"top_metrics":  {"query": "...", "sort_field": col,
                      "metrics": [col, ...], "size": n,
                      "sort_order": "asc|desc", "min_score": f}}
    {"missing_agg":  {"query": "...", "field": col, "min_score": f}}
                 # match-set docs whose field is absent (NULL or '')
    {"global_stats": {"field": int_col}}
                 # global bucket: stats over ALL docs, query ignored
    {"sampler":      {"query": "...", "field": col, "shard_size": n,
                      "min_score": f}}   # terms over the best n hits
    {"diversified_sampler": {"query": "...", "field": col,
                      "div_field": col, "max_docs_per_value": n,
                      "shard_size": n, "min_score": f}}
    {"auto_date_histogram": {"query": "...", "field": ts_col,
                      "target_buckets": n, "min_score": f}}
                 # smallest hour|day|month interval fitting the target
    {"cumulative_cardinality": {"query": "...", "field": ts_col,
                      "value_field": col, "min_score": f,
                      "calendar_interval": "month|day|hour"}}
                 # running EXACT distinct count over date buckets
    {"rank_feature": {"query": "...", "field": col, "pivot": f,
                      "boost": f, "k": 10}}
                 # + boost * x/(x+pivot) added to matching docs
    {"distance_feature": {"query": "...", "field": col, "origin": f,
                      "pivot": f, "boost": f, "k": 10}}
                 # + boost * pivot/(pivot+|x-origin|)
    {"pinned":   {"query": "...", "ids": [id, ...], "k": 10}}
                 # existing ids first (-1.0 score), organic after
    {"terms_set": {"query": "...", "required_field": col, "k": 10}}
                 # per-doc required matches = max(1, min(n_terms, col))
    {"match_phrase_prefix": {"query": "fast mer", "k": 10,
                "max_expansions": 50}}     # phrase + last-term prefix
    {"match_bool_prefix": {"query": "fast mer", "k": 10,
                "max_expansions": 50}}     # terms + last-term prefix
    {"dis_max":  {"queries": ["...", ...], "k": 10,
                "tie_breaker": f}}  # max over subqueries + tie * rest
    {"regexp":   {"value": "s.*t", "k": 10, "max_expansions": 50}}
    {"wildcard": {"value": "cust*", "k": 10}}  # * / ? patterns
    {"query_string": {"query": "fast^2 merge", "k": 10}}  # term boosts
    {"synonyms": {"query": "...", "map": {term: [syn, ...]}, "k": 10}}
                                       # SynonymQuery blended scoring

``parse_query`` validates STRICTLY (unknown fields are errors, like the
reference parser's ParseField contract) and returns a plain spec dict;
``execute_query`` runs it against an IndexSearcher (match/bool) or a
vector Dataset (knn).
"""

from __future__ import annotations

from typing import Any

import numpy as np

_MATCH_FIELDS = {"query", "k", "mode", "min_score", "collapse",
                 "search_after", "filter", "sort"}
_FSCORE_FIELDS = {"query", "k", "field_value_factor", "decay", "filter"}
_FVF_FIELDS = {"field", "factor", "modifier", "missing"}
_DECAY_FIELDS = {"field", "decay_fn", "origin", "scale", "offset",
                 "decay"}
_FILTER_CLAUSES = {"term", "terms", "range", "exists", "bool"}
_RANGE_OPS = {"gte", "gt", "lte", "lt"}
_BOOL_FIELDS = {"must", "should", "must_not", "k",
                "minimum_should_match"}
_KNN_FIELDS = {"vector", "k", "metric", "min_score", "max_distance",
               "filter"}
_MLT_FIELDS = {"like", "k", "max_query_terms"}
_PREFIX_FIELDS = {"query", "k", "max_expansions"}
_QSTRING_FIELDS = {"query", "k"}
_REGEXP_FIELDS = {"value", "k", "max_expansions"}
_MPP_FIELDS = {"query", "k", "max_expansions"}
_SYNONYMS_FIELDS = {"query", "map", "k"}
_FUZZY_FIELDS = {"query", "k", "max_edits", "prefix_length",
                 "max_expansions", "transpositions"}
_FACETS_FIELDS = {"query", "field", "min_score", "size", "include",
                  "exclude", "min_doc_count"}
_RANGE_AGG_FIELDS = {"query", "field", "min_score", "ranges"}
_DATE_HIST_FIELDS = {"query", "field", "min_score", "calendar_interval",
                     "pipeline", "window", "lag",
                     "selector_op", "selector_value",
                     "sort_from", "sort_size", "percent", "rate_unit"}
_SQS_FIELDS = {"query", "k", "max_expansions"}
_MAD_FIELDS = {"query", "field", "min_score"}
_VW_HIST_FIELDS = {"query", "field", "buckets", "min_score"}
_BOXPLOT_FIELDS = {"query", "field", "min_score"}
_T_TEST_FIELDS = {"query", "field", "min_score", "filter_a", "filter_b"}
_TOP_HITS_FIELDS = {"query", "field", "min_score", "n"}
_STATS_FIELDS = {"query", "field", "min_score"}
_CARD_FIELDS = {"query", "field", "min_score"}
_PCTL_FIELDS = {"query", "field", "min_score", "percents"}
_SIG_FIELDS = {"query", "field", "min_score", "size"}
_FILTERS_AGG_FIELDS = {"query", "filters", "min_score"}
_TERMS_STATS_FIELDS = {"query", "field", "value_field", "min_score"}
_COMPOSITE_FIELDS = {"query", "field", "size", "min_score", "after"}
_HIST_FIELDS = {"query", "field", "interval", "min_score"}
_MULTI_TERMS_FIELDS = {"query", "fields", "min_score", "size"}
_RARE_TERMS_FIELDS = {"query", "field", "max_doc_count", "min_score"}
_EXT_STATS_FIELDS = {"query", "field", "min_score", "sigma"}
_WAVG_FIELDS = {"query", "field", "weight_field", "min_score"}
_BUCKET_METRIC_FIELDS = {"query", "field", "calendar_interval",
                         "metric", "min_score"}
_BUCKET_METRICS = {"sum_bucket", "avg_bucket", "min_bucket",
                   "max_bucket", "stats_bucket"}
_ADJ_FIELDS = {"query", "filters", "min_score"}
_STRING_STATS_FIELDS = {"query", "field", "min_score"}
_MATRIX_FIELDS = {"query", "fields", "min_score"}
_DATE_RANGE_FIELDS = {"query", "field", "ranges", "min_score"}
_MBP_FIELDS = {"query", "k", "max_expansions"}
_DIS_MAX_FIELDS = {"queries", "k", "tie_breaker"}
_SPAN_FIRST_FIELDS = {"query", "end", "k"}
_SPAN_OR_FIELDS = {"query", "slop", "k"}
_SPAN_MULTI_FIELDS = {"query", "slop", "k", "max_expansions"}
_SPAN_NOT_FIELDS = {"query", "pre", "post", "k"}
_SPAN_WC_FIELDS = {"query", "slop", "k"}
_TOP_METRICS_FIELDS = {"query", "sort_field", "metrics", "size",
                       "sort_order", "min_score"}
_PCT_RANKS_FIELDS = {"query", "field", "values", "min_score"}
_MISSING_FIELDS = {"query", "field", "min_score"}
_GLOBAL_STATS_FIELDS = {"field"}
_SAMPLER_FIELDS = {"query", "field", "shard_size", "min_score"}
_DIV_SAMPLER_FIELDS = {"query", "field", "div_field",
                       "max_docs_per_value", "shard_size", "min_score"}
_AUTO_DH_FIELDS = {"query", "field", "target_buckets", "min_score"}
_CUM_CARD_FIELDS = {"query", "field", "value_field",
                    "calendar_interval", "min_score"}
_RANK_FEATURE_FIELDS = {"query", "field", "pivot", "boost", "k"}
_DIST_FEATURE_FIELDS = {"query", "field", "origin", "pivot", "boost",
                        "k"}
_PINNED_FIELDS = {"query", "ids", "k"}
_TERMS_SET_FIELDS = {"query", "required_field", "k"}
_MODES = {"taat", "wand", "rescore", "phrase"}
_METRICS = {"cosine", "l2", "innerproduct", "l1", "linf", "hamming"}


def _require_known(clause: str, body: dict, allowed: set) -> None:
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ValueError(
            f"[{clause}] does not support {unknown}; allowed: "
            f"{sorted(allowed)} (KNNQueryBuilderParser strictness)")


def compile_filter(spec: dict):
    """Structured filter spec -> pyarrow compute expression over the
    stored-field columns [OpenSearch filter-context public semantics:
    term / terms / range / exists / bool].  The SQL oracle generates its
    predicate from the SAME spec (oracles.filter_spec_sql)."""
    import pyarrow.compute as pc
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError("filter must have exactly one clause: "
                         f"{sorted(_FILTER_CLAUSES)}")
    (kind, body), = spec.items()
    if kind not in _FILTER_CLAUSES:
        raise ValueError(f"unknown filter clause {kind!r} "
                         f"(supported: {sorted(_FILTER_CLAUSES)})")
    if kind == "term":
        if not isinstance(body, dict) or len(body) != 1:
            raise ValueError("[term] needs exactly one {field: value}")
        (f, v), = body.items()
        return pc.field(f) == v
    if kind == "terms":
        if not isinstance(body, dict) or len(body) != 1:
            raise ValueError("[terms] needs exactly one {field: [values]}")
        (f, vs), = body.items()
        if not isinstance(vs, list) or not vs:
            raise ValueError("[terms] needs a non-empty value list")
        return pc.field(f).isin(vs)
    if kind == "range":
        if not isinstance(body, dict) or len(body) != 1:
            raise ValueError("[range] needs exactly one {field: bounds}")
        (f, bounds), = body.items()
        unknown = sorted(set(bounds) - _RANGE_OPS)
        if unknown or not bounds:
            raise ValueError(f"[range] bounds must be non-empty from "
                             f"{sorted(_RANGE_OPS)}, got {sorted(bounds)}")
        expr = None
        for op, v in sorted(bounds.items()):
            fld = pc.field(f)
            e = {"gte": fld >= v, "gt": fld > v,
                 "lte": fld <= v, "lt": fld < v}[op]
            expr = e if expr is None else expr & e
        return expr
    if kind == "exists":
        if not isinstance(body, dict) or "field" not in body:
            raise ValueError("[exists] needs {'field': name}")
        return pc.field(body["field"]).is_valid()
    # bool — DELIBERATE deviation from OpenSearch filter-context:
    # `should` here is a REQUIRED OR-group ANDed with must/must_not.
    # OpenSearch silently ignores should when must is present
    # (minimum_should_match defaults to 0) — a filter clause that does
    # nothing is a footgun; this engine makes it bite.  The generated
    # oracle (oracles.filter_spec_sql) implements the SAME rule, so
    # the two backends never drift.
    expr = None
    legal = {"must", "must_not", "should"}
    unknown = sorted(set(body) - legal)
    if unknown:
        raise ValueError(f"[bool] filter does not support {unknown}")
    for sub in body.get("must", []):
        e = compile_filter(sub)
        expr = e if expr is None else expr & e
    for sub in body.get("must_not", []):
        e = ~compile_filter(sub)
        expr = e if expr is None else expr & e
    should = [compile_filter(sub) for sub in body.get("should", [])]
    if should:
        e = should[0]
        for s_ in should[1:]:
            e = e | s_
        expr = e if expr is None else expr & e
    if expr is None:
        raise ValueError("[bool] filter needs must/must_not/should")
    return expr


def _parse_score_fn(spec: dict) -> dict:
    """function_score sub-clause -> the engine's score_fn spec dict."""
    has_fvf = "field_value_factor" in spec
    has_decay = "decay" in spec
    if has_fvf == has_decay:
        raise ValueError("[function_score] needs exactly one of "
                         "field_value_factor | decay")
    if has_fvf:
        body = spec["field_value_factor"]
        _require_known("field_value_factor", body, _FVF_FIELDS)
        if "field" not in body:
            raise ValueError("[field_value_factor] needs 'field'")
        return {"kind": "field_value_factor", "field": body["field"],
                "factor": float(body.get("factor", 1.0)),
                "modifier": body.get("modifier", "none"),
                "missing": float(body.get("missing", 1.0))}
    body = spec["decay"]
    _require_known("decay", body, _DECAY_FIELDS)
    for req in ("field", "origin", "scale"):
        if req not in body:
            raise ValueError(f"[decay] needs {req!r}")
    return {"kind": "decay", "field": body["field"],
            "decay_fn": body.get("decay_fn", "gauss"),
            "origin": float(body["origin"]),
            "scale": float(body["scale"]),
            "offset": float(body.get("offset", 0.0)),
            "decay": float(body.get("decay", 0.5))}


def parse_query(body: dict[str, Any]) -> dict[str, Any]:
    """Validate a query body and normalize it to a spec dict with a
    ``type`` discriminator."""
    if not isinstance(body, dict) or len(body) != 1:
        raise ValueError("query body must have exactly one top-level "
                         "clause: match | bool | knn")
    (clause, spec), = body.items()
    if not isinstance(spec, dict):
        raise ValueError(f"[{clause}] body must be an object")
    if clause == "match":
        _require_known(clause, spec, _MATCH_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[match] needs a non-empty 'query' string")
        mode = spec.get("mode", "taat")
        if mode not in _MODES:
            raise ValueError(f"[match] unknown mode {mode!r}")
        sa = spec.get("search_after")
        if sa is not None:
            if not isinstance(sa, (list, tuple)) or len(sa) < 2:
                raise ValueError("[match] search_after must be the "
                                 "boundary array [raw_score, *key] from "
                                 "a previous page")
            sa = tuple(sa)
        flt = spec.get("filter")
        if flt is not None:
            compile_filter(flt)       # validate eagerly (parse = strict)
        srt = spec.get("sort")
        if srt is not None:
            if not isinstance(srt, dict) or "field" not in srt or \
                    sorted(set(srt) - {"field", "order"}):
                raise ValueError("[match] sort must be {'field': col, "
                                 "'order': 'asc'|'desc'}")
            if srt.get("order", "desc") not in ("asc", "desc"):
                raise ValueError("[match] sort order must be asc|desc")
            srt = (srt["field"], srt.get("order", "desc"))
        return {"type": "match", "query": spec["query"],
                "k": int(spec.get("k", 10)), "mode": mode,
                "min_score": spec.get("min_score"),
                "collapse": spec.get("collapse"),
                "search_after": sa, "filter": flt, "sort": srt}
    if clause == "bool":
        _require_known(clause, spec, _BOOL_FIELDS)
        out = {"type": "bool", "k": int(spec.get("k", 10))}
        for part in ("must", "should", "must_not"):
            terms = spec.get(part, [])
            if not isinstance(terms, list) or \
                    not all(isinstance(t, str) for t in terms):
                raise ValueError(f"[bool] '{part}' must be a list of "
                                 f"term strings")
            for t in terms:
                # the dispatch round-trips through the '+term -term'
                # text syntax: whitespace would split one term into
                # two clauses and a leading +/- would silently change
                # clause membership — reject eagerly (strict DSL rule)
                if not t or t != t.strip() or any(c.isspace()
                                                 for c in t) \
                        or t[0] in "+-":
                    raise ValueError(
                        f"[bool] '{part}' term {t!r} must be a single "
                        f"bare term (no whitespace, no leading +/-)")
            out[part] = list(terms)
        if not (out["must"] or out["should"]):
            raise ValueError("[bool] needs at least one must/should term")
        msm = spec.get("minimum_should_match")
        if msm is not None and (not isinstance(msm, int) or msm < 0):
            raise ValueError("[bool] minimum_should_match must be a "
                             "non-negative integer")
        out["minimum_should_match"] = msm
        return out
    if clause == "suggest":
        _require_known(clause, spec,
                       {"prefix", "typo", "phrase", "n", "max_edits"})
        kinds = [k for k in ("prefix", "typo", "phrase") if k in spec]
        if len(kinds) != 1:
            raise ValueError("[suggest] needs exactly one of prefix | "
                             "typo | phrase")
        kind = kinds[0]
        if not isinstance(spec[kind], str) or not spec[kind]:
            raise ValueError(f"[suggest] {kind!r} must be a non-empty "
                             "string")
        return {"type": "suggest", "kind": kind, "text": spec[kind],
                "n": int(spec.get("n", 10)),
                "max_edits": int(spec.get("max_edits", 2))}
    if clause == "has_child":
        _require_known(clause, spec,
                       {"query", "k", "score_mode", "parent_field"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[has_child] needs a non-empty 'query'")
        sm = spec.get("score_mode", "max")
        if sm not in ("max", "sum", "avg", "count"):
            raise ValueError("[has_child] score_mode must be "
                             "max|sum|avg|count")
        return {"type": "has_child", "query": spec["query"],
                "k": int(spec.get("k", 10)), "score_mode": sm,
                "parent_field": spec.get("parent_field")}
    if clause == "combined_fields":
        _require_known(clause, spec, {"query", "fields", "weights", "k"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[combined_fields] needs a non-empty "
                             "'query'")
        fields = spec.get("fields")
        if not isinstance(fields, list) or len(fields) < 2 or \
                not all(isinstance(f, str) for f in fields):
            raise ValueError("[combined_fields] needs 'fields': "
                             ">= 2 column names")
        wts = spec.get("weights", {})
        if not isinstance(wts, dict) or \
                not all(isinstance(v, int) and not isinstance(v, bool)
                        and v >= 1 for v in wts.values()):
            raise ValueError("[combined_fields] weights must be "
                             "integers >= 1")
        return {"type": "combined_fields", "query": spec["query"],
                "fields": fields, "weights": dict(wts),
                "k": int(spec.get("k", 10))}
    if clause == "multi_match":
        _require_known(clause, spec,
                       {"query", "fields", "k", "type", "tie_breaker"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[multi_match] needs a non-empty 'query'")
        fields = spec.get("fields")
        if not isinstance(fields, list) or not fields or \
                not all(isinstance(f, str) for f in fields):
            raise ValueError("[multi_match] needs a non-empty 'fields' "
                             "list of column names")
        mtype = spec.get("type", "best_fields")
        if mtype not in ("best_fields", "most_fields"):
            raise ValueError("[multi_match] type must be best_fields | "
                             "most_fields")
        tie = float(spec.get("tie_breaker", 0.0))
        if not (0.0 <= tie <= 1.0):
            raise ValueError("[multi_match] tie_breaker must be in "
                             "[0, 1]")
        return {"type": "multi_match", "query": spec["query"],
                "fields": fields, "match_type": mtype,
                "tie_breaker": tie, "k": int(spec.get("k", 10))}
    if clause == "constant_score":
        _require_known(clause, spec, {"query", "k", "boost"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[constant_score] needs a non-empty "
                             "'query'")
        boost = float(spec.get("boost", 1.0))
        if boost <= 0:
            raise ValueError("[constant_score] boost must be > 0")
        return {"type": "constant_score", "query": spec["query"],
                "k": int(spec.get("k", 10)), "boost": boost}
    if clause == "boosting":
        _require_known(clause, spec,
                       {"positive", "negative", "negative_boost", "k"})
        for part in ("positive", "negative"):
            if not isinstance(spec.get(part), str) or not spec[part]:
                raise ValueError(f"[boosting] needs a non-empty "
                                 f"{part!r} query string")
        nb = float(spec.get("negative_boost", 0.5))
        if not (0.0 < nb <= 1.0):
            raise ValueError("[boosting] negative_boost must be in "
                             "(0, 1]")
        return {"type": "boosting", "positive": spec["positive"],
                "negative": spec["negative"], "negative_boost": nb,
                "k": int(spec.get("k", 10))}
    if clause == "span_near":
        _require_known(clause, spec, {"query", "k", "slop", "in_order"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[span_near] needs a non-empty 'query'")
        slop = int(spec.get("slop", 0))
        if slop < 0:
            raise ValueError("[span_near] slop must be >= 0")
        if not isinstance(spec.get("in_order", False), bool):
            raise ValueError("[span_near] in_order must be a bool")
        return {"type": "span_near", "query": spec["query"],
                "k": int(spec.get("k", 10)), "slop": slop,
                "in_order": bool(spec.get("in_order", False))}
    if clause == "function_score":
        _require_known(clause, spec, _FSCORE_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[function_score] needs a non-empty "
                             "'query' string")
        flt = spec.get("filter")
        if flt is not None:
            compile_filter(flt)
        return {"type": "function_score", "query": spec["query"],
                "k": int(spec.get("k", 10)),
                "score_fn": _parse_score_fn(spec), "filter": flt}
    if clause == "more_like_this":
        _require_known(clause, spec, _MLT_FIELDS)
        if not isinstance(spec.get("like"), str) or not spec["like"]:
            raise ValueError("[more_like_this] needs a non-empty 'like' "
                             "seed text")
        return {"type": "more_like_this", "like": spec["like"],
                "k": int(spec.get("k", 10)),
                "max_query_terms": int(spec.get("max_query_terms", 10))}
    if clause == "prefix":
        _require_known(clause, spec, _PREFIX_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[prefix] needs a non-empty 'query' string")
        return {"type": "prefix", "query": spec["query"],
                "k": int(spec.get("k", 10)),
                "max_expansions": int(spec.get("max_expansions", 50))}
    if clause == "fuzzy":
        _require_known(clause, spec, _FUZZY_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[fuzzy] needs a non-empty 'query' string")
        me = int(spec.get("max_edits", 1))
        if me < 0 or me > 2:
            raise ValueError("[fuzzy] max_edits must be 0..2 (the Lucene "
                             "LevenshteinAutomata bound)")
        return {"type": "fuzzy", "query": spec["query"],
                "k": int(spec.get("k", 10)), "max_edits": me,
                "prefix_length": int(spec.get("prefix_length", 0)),
                "max_expansions": int(spec.get("max_expansions", 50)),
                "transpositions": bool(spec.get("transpositions",
                                                False))}
    if clause == "facets":
        _require_known(clause, spec, _FACETS_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[facets] needs a non-empty 'query' string")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[facets] needs a 'field' column name")
        if "min_score" not in spec:
            raise ValueError("[facets] needs 'min_score' (the radial "
                             "match-set threshold)")
        size = spec.get("size")
        for pat in ("include", "exclude"):
            if pat in spec and (not isinstance(spec[pat], str)
                                or not spec[pat]):
                raise ValueError(f"[facets] {pat} must be a non-empty "
                                 "regex string")
        if int(spec.get("min_doc_count", 1)) < 1:
            raise ValueError("[facets] min_doc_count must be >= 1")
        return {"type": "facets", "query": spec["query"],
                "field": spec["field"],
                "min_score": float(spec["min_score"]),
                "size": None if size is None else int(size),
                "include": spec.get("include"),
                "exclude": spec.get("exclude"),
                "min_doc_count": int(spec.get("min_doc_count", 1))}
    if clause in ("stats_agg", "histogram"):
        allowed = _STATS_FIELDS if clause == "stats_agg" else _HIST_FIELDS
        _require_known(clause, spec, allowed)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs a 'field' column name")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        out = {"type": clause, "query": spec["query"],
               "field": spec["field"],
               "min_score": float(spec["min_score"])}
        if clause == "histogram":
            if "interval" not in spec or float(spec["interval"]) <= 0:
                raise ValueError("[histogram] needs a positive 'interval'")
            out["interval"] = float(spec["interval"])
        return out
    if clause == "intervals":
        # OpenSearch intervals query, the match-source subset: ordered /
        # unordered proximity with max_gaps — sugar over the span_near
        # machinery (max_gaps == slop; W = n_terms + max_gaps)
        _require_known(clause, spec, {"query", "k", "max_gaps",
                                      "ordered"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[intervals] needs a non-empty 'query'")
        mg = int(spec.get("max_gaps", 0))
        if mg < 0:
            raise ValueError("[intervals] max_gaps must be >= 0")
        if not isinstance(spec.get("ordered", False), bool):
            raise ValueError("[intervals] ordered must be a bool")
        return {"type": "span_near", "query": spec["query"],
                "k": int(spec.get("k", 10)), "slop": mg,
                "in_order": bool(spec.get("ordered", False))}
    if clause == "significant_text":
        _require_known(clause, spec, {"query", "min_score", "size"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[significant_text] needs a non-empty "
                             "'query'")
        if "min_score" not in spec:
            raise ValueError("[significant_text] needs 'min_score'")
        return {"type": "significant_text", "query": spec["query"],
                "min_score": float(spec["min_score"]),
                "size": int(spec.get("size", 10))}
    if clause in ("cardinality", "percentiles", "significant_terms",
                  "filters_agg", "terms_stats", "composite"):
        allowed = {"cardinality": _CARD_FIELDS,
                   "percentiles": _PCTL_FIELDS,
                   "significant_terms": _SIG_FIELDS,
                   "filters_agg": _FILTERS_AGG_FIELDS,
                   "terms_stats": _TERMS_STATS_FIELDS,
                   "composite": _COMPOSITE_FIELDS}[clause]
        _require_known(clause, spec, allowed)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        out = {"type": clause, "query": spec["query"],
               "min_score": float(spec["min_score"])}
        if clause == "filters_agg":
            fl = spec.get("filters")
            if not isinstance(fl, dict) or not fl:
                raise ValueError("[filters_agg] needs a non-empty "
                                 "'filters' {name: spec} object")
            for sub in fl.values():
                compile_filter(sub)
            out["filters"] = fl
            return out
        if "field" not in spec:
            raise ValueError(f"[{clause}] needs a 'field' column name")
        out["field"] = spec["field"]
        if clause == "percentiles":
            ps = spec.get("percents", [0.25, 0.5, 0.75, 0.9, 0.99])
            if not isinstance(ps, list) or not ps:
                raise ValueError("[percentiles] 'percents' must be a "
                                 "non-empty list of fractions")
            out["percents"] = [float(p) for p in ps]
        elif clause == "significant_terms":
            out["size"] = int(spec.get("size", 10))
        elif clause == "terms_stats":
            if "value_field" not in spec:
                raise ValueError("[terms_stats] needs 'value_field'")
            out["value_field"] = spec["value_field"]
        elif clause == "composite":
            out["size"] = int(spec.get("size", 10))
            out["after"] = spec.get("after")
        return out
    if clause in ("multi_terms", "rare_terms", "extended_stats",
                  "weighted_avg", "bucket_metric"):
        allowed = {"multi_terms": _MULTI_TERMS_FIELDS,
                   "rare_terms": _RARE_TERMS_FIELDS,
                   "extended_stats": _EXT_STATS_FIELDS,
                   "weighted_avg": _WAVG_FIELDS,
                   "bucket_metric": _BUCKET_METRIC_FIELDS}[clause]
        _require_known(clause, spec, allowed)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        out = {"type": clause, "query": spec["query"],
               "min_score": float(spec["min_score"])}
        if clause == "multi_terms":
            fl = spec.get("fields")
            if (not isinstance(fl, list) or len(fl) < 2
                    or len(set(fl)) != len(fl)
                    or not all(isinstance(f, str) and f for f in fl)):
                raise ValueError("[multi_terms] needs 'fields': "
                                 "[col, col, ...] (>= 2 UNIQUE columns)")
            out["fields"] = list(fl)
            out["size"] = (int(spec["size"]) if "size" in spec
                           and spec["size"] is not None else None)
            return out
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs a 'field' column name")
        out["field"] = spec["field"]
        if clause == "rare_terms":
            if int(spec.get("max_doc_count", 0)) < 1:
                raise ValueError("[rare_terms] needs 'max_doc_count'"
                                 " >= 1")
            out["max_doc_count"] = int(spec["max_doc_count"])
        elif clause == "extended_stats":
            out["sigma"] = float(spec.get("sigma", 2.0))
        elif clause == "weighted_avg":
            wf = spec.get("weight_field")
            if not isinstance(wf, str) or not wf:
                raise ValueError("[weighted_avg] needs 'weight_field'")
            out["weight_field"] = wf
        elif clause == "bucket_metric":
            if spec.get("calendar_interval") not in ("month", "day",
                                                     "hour"):
                raise ValueError("[bucket_metric] needs "
                                 "'calendar_interval': month|day|hour")
            if spec.get("metric") not in _BUCKET_METRICS:
                raise ValueError("[bucket_metric] metric must be one "
                                 f"of {sorted(_BUCKET_METRICS)}")
            out["calendar_interval"] = spec["calendar_interval"]
            out["metric"] = spec["metric"]
        return out
    if clause in ("missing_agg", "value_count"):
        _require_known(clause, spec, _MISSING_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs a 'field' column name")
        return {"type": clause, "query": spec["query"],
                "field": spec["field"],
                "min_score": float(spec["min_score"])}
    if clause == "global_stats":
        _require_known(clause, spec, _GLOBAL_STATS_FIELDS)
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[global_stats] needs a 'field' column "
                             "name")
        return {"type": "global_stats", "field": spec["field"]}
    if clause == "sampler":
        _require_known(clause, spec, _SAMPLER_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[sampler] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError("[sampler] needs 'min_score'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[sampler] needs a 'field' column name")
        if int(spec.get("shard_size", 0)) < 1:
            raise ValueError("[sampler] needs 'shard_size' >= 1")
        return {"type": "sampler", "query": spec["query"],
                "field": spec["field"],
                "shard_size": int(spec["shard_size"]),
                "min_score": float(spec["min_score"])}
    if clause == "diversified_sampler":
        _require_known(clause, spec, _DIV_SAMPLER_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[diversified_sampler] needs a non-empty "
                             "'query'")
        if "min_score" not in spec:
            raise ValueError("[diversified_sampler] needs 'min_score'")
        for f in ("field", "div_field"):
            if not isinstance(spec.get(f), str) or not spec[f]:
                raise ValueError(f"[diversified_sampler] needs a {f!r} "
                                 "column name")
        if int(spec.get("max_docs_per_value", 0)) < 1:
            raise ValueError("[diversified_sampler] needs "
                             "'max_docs_per_value' >= 1")
        if int(spec.get("shard_size", 0)) < 1:
            raise ValueError("[diversified_sampler] needs "
                             "'shard_size' >= 1")
        return {"type": "diversified_sampler", "query": spec["query"],
                "field": spec["field"], "div_field": spec["div_field"],
                "max_docs_per_value": int(spec["max_docs_per_value"]),
                "shard_size": int(spec["shard_size"]),
                "min_score": float(spec["min_score"])}
    if clause == "auto_date_histogram":
        _require_known(clause, spec, _AUTO_DH_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[auto_date_histogram] needs a non-empty "
                             "'query'")
        if "min_score" not in spec:
            raise ValueError("[auto_date_histogram] needs 'min_score'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[auto_date_histogram] needs a 'field' "
                             "timestamp column name")
        if int(spec.get("target_buckets", 0)) < 1:
            raise ValueError("[auto_date_histogram] needs "
                             "'target_buckets' >= 1")
        return {"type": "auto_date_histogram", "query": spec["query"],
                "field": spec["field"],
                "target_buckets": int(spec["target_buckets"]),
                "min_score": float(spec["min_score"])}
    if clause in ("rank_feature", "distance_feature"):
        allowed = _RANK_FEATURE_FIELDS if clause == "rank_feature" \
            else _DIST_FEATURE_FIELDS
        _require_known(clause, spec, allowed)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs a 'field' column name")
        if float(spec.get("pivot", 0.0)) <= 0:
            raise ValueError(f"[{clause}] needs 'pivot' > 0")
        out = {"type": clause, "query": spec["query"],
               "field": spec["field"], "pivot": float(spec["pivot"]),
               "boost": float(spec.get("boost", 1.0)),
               "k": int(spec.get("k", 10))}
        if out["boost"] <= 0:
            raise ValueError(f"[{clause}] needs 'boost' > 0")
        if clause == "distance_feature":
            if "origin" not in spec:
                raise ValueError("[distance_feature] needs 'origin'")
            out["origin"] = float(spec["origin"])
        return out
    if clause == "pinned":
        _require_known(clause, spec, _PINNED_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[pinned] needs a non-empty 'query'")
        ids = spec.get("ids")
        if not isinstance(ids, list):
            raise ValueError("[pinned] needs 'ids': [id, ...]")
        return {"type": "pinned", "query": spec["query"],
                "ids": list(ids), "k": int(spec.get("k", 10))}
    if clause == "count":
        # {"count": {"query": "..."}} — the _count API
        _require_known(clause, spec, {"query", "min_score"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[count] needs a non-empty 'query'")
        return {"type": "count", "query": spec["query"],
                "min_score": float(spec.get("min_score", 0.0))}
    if clause == "mget":
        # {"mget": {"keys": [[k1, k2], ...]}} — stored-field fetch
        _require_known(clause, spec, {"keys"})
        keys = spec.get("keys")
        if not isinstance(keys, list) or not keys or any(
                isinstance(k, (list, tuple)) and not k for k in keys):
            raise ValueError("[mget] needs a non-empty 'keys' list of "
                             "non-empty keys")
        return {"type": "mget",
                "keys": [tuple(k) if isinstance(k, (list, tuple))
                         else k for k in keys]}
    if clause == "field_stats":
        _require_known(clause, spec, {"fields"})
        fields = spec.get("fields")
        if not isinstance(fields, list) or not fields or \
                not all(isinstance(f, str) and f for f in fields):
            raise ValueError("[field_stats] needs 'fields': [col, ...]")
        return {"type": "field_stats", "fields": list(fields)}
    if clause == "children_agg":
        # {"children_agg": {"parents": [...], "field": col, "size": 10}}
        _require_known(clause, spec, {"parents", "field", "size"})
        parents = spec.get("parents")
        if not isinstance(parents, list) or not parents:
            raise ValueError("[children_agg] needs a non-empty "
                             "'parents' id list")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[children_agg] needs a 'field' column")
        return {"type": "children_agg", "parents": list(parents),
                "field": spec["field"],
                "size": int(spec.get("size", 10))}
    if clause == "percentiles_approx":
        # t-digest percentiles: fractions in (0, 1]
        _require_known(clause, spec, {"query", "field", "percents",
                                      "min_score", "compression"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[percentiles_approx] needs a 'query'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[percentiles_approx] needs a 'field'")
        ps = spec.get("percents")
        if not isinstance(ps, list) or not ps or any(
                not (0.0 < float(q_) <= 1.0) for q_ in ps):
            raise ValueError("[percentiles_approx] needs 'percents' as "
                             "fractions in (0, 1] — the search-time "
                             "rule, checked here so validate_query's "
                             "valid=True holds at execution")
        return {"type": "percentiles_approx", "query": spec["query"],
                "field": spec["field"],
                "percents": [float(p) for p in ps],
                "min_score": float(spec.get("min_score", 0.0)),
                "compression": float(spec.get("compression", 200.0))}
    if clause == "terms_approx":
        # Misra-Gries heavy-hitters terms agg
        _require_known(clause, spec, {"query", "field", "size",
                                      "min_score", "capacity"})
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[terms_approx] needs a 'query'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[terms_approx] needs a 'field'")
        size_ = int(spec.get("size", 10))
        cap_ = int(spec.get("capacity", 1024))
        if size_ < 1 or cap_ < 1:
            raise ValueError("[terms_approx] size and capacity must "
                             "be >= 1")
        return {"type": "terms_approx", "query": spec["query"],
                "field": spec["field"], "size": size_,
                "min_score": float(spec.get("min_score", 0.0)),
                "capacity": cap_}
    if clause == "geo_distance":
        # {"geo_distance": {"lat": .., "lon": .., "k": 10,
        #                   "radius_km": ..}} over a coords Dataset
        _require_known(clause, spec, {"lat", "lon", "k", "radius_km",
                                      "id_col", "lat_col", "lon_col"})
        for f in ("lat", "lon"):
            if not isinstance(spec.get(f), (int, float)):
                raise ValueError(f"[geo_distance] needs numeric {f!r}")
        if int(spec.get("k", 10)) < 1:
            raise ValueError("[geo_distance] k must be >= 1")
        return {"type": "geo_distance",
                "lat": float(spec["lat"]), "lon": float(spec["lon"]),
                "k": int(spec.get("k", 10)),
                "radius_km": (float(spec["radius_km"])
                              if spec.get("radius_km") is not None
                              else None),
                "id_col": spec.get("id_col", "event_id"),
                "lat_col": spec.get("lat_col", "lat"),
                "lon_col": spec.get("lon_col", "lon")}
    if clause == "sparse_vector":
        # {"sparse_vector": {"tokens": {tok: weight, ...}, "k": 10}} —
        # neural_sparse analog: literal post-analysis tokens with
        # weights, scored sum(weight * tf) via the linear_tf kernel
        _require_known(clause, spec, {"tokens", "k"})
        toks = spec.get("tokens")
        if not isinstance(toks, dict) or not toks or \
                not all(isinstance(t, str) and t for t in toks):
            raise ValueError("[sparse_vector] needs 'tokens': "
                             "{token: weight, ...}")
        pairs = sorted((t, float(w)) for t, w in toks.items())
        if any(w <= 0 for _, w in pairs):
            raise ValueError("[sparse_vector] weights must be > 0")
        return {"type": "sparse_vector", "tokens": pairs,
                "k": int(spec.get("k", 10))}
    if clause == "terms_set":
        _require_known(clause, spec, _TERMS_SET_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[terms_set] needs a non-empty 'query'")
        rf = spec.get("required_field")
        if not isinstance(rf, str) or not rf:
            raise ValueError("[terms_set] needs 'required_field'")
        return {"type": "terms_set", "query": spec["query"],
                "required_field": rf, "k": int(spec.get("k", 10))}
    if clause == "cumulative_cardinality":
        _require_known(clause, spec, _CUM_CARD_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[cumulative_cardinality] needs a "
                             "non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError("[cumulative_cardinality] needs "
                             "'min_score'")
        for f in ("field", "value_field"):
            if not isinstance(spec.get(f), str) or not spec[f]:
                raise ValueError(f"[cumulative_cardinality] needs a "
                                 f"{f!r} column name")
        if spec.get("calendar_interval") not in ("month", "day", "hour"):
            raise ValueError("[cumulative_cardinality] needs "
                             "'calendar_interval': month|day|hour")
        return {"type": "cumulative_cardinality",
                "query": spec["query"], "field": spec["field"],
                "value_field": spec["value_field"],
                "calendar_interval": spec["calendar_interval"],
                "min_score": float(spec["min_score"])}
    if clause == "percentile_ranks":
        _require_known(clause, spec, _PCT_RANKS_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[percentile_ranks] needs a non-empty "
                             "'query'")
        if "min_score" not in spec:
            raise ValueError("[percentile_ranks] needs 'min_score'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[percentile_ranks] needs 'field'")
        vv = spec.get("values")
        if not isinstance(vv, list) or not vv:
            raise ValueError("[percentile_ranks] needs 'values': "
                             "[v, ...]")
        return {"type": "percentile_ranks", "query": spec["query"],
                "field": spec["field"],
                "values": [float(v) for v in vv],
                "min_score": float(spec["min_score"])}
    if clause == "simple_query_string":
        _require_known(clause, spec, _SQS_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[simple_query_string] needs a non-empty "
                             "'query'")
        return {"type": "simple_query_string", "query": spec["query"],
                "k": int(spec.get("k", 10)),
                "max_expansions": int(spec.get("max_expansions", 50))}
    if clause in ("mad", "boxplot"):
        fields = _MAD_FIELDS if clause == "mad" else _BOXPLOT_FIELDS
        _require_known(clause, spec, fields)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs 'field'")
        return {"type": clause, "query": spec["query"],
                "field": spec["field"],
                "min_score": float(spec["min_score"])}
    if clause == "variable_width_histogram":
        _require_known(clause, spec, _VW_HIST_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs 'field'")
        if int(spec.get("buckets", 0)) < 1:
            raise ValueError(f"[{clause}] needs buckets >= 1")
        return {"type": clause, "query": spec["query"],
                "field": spec["field"], "buckets": int(spec["buckets"]),
                "min_score": float(spec["min_score"])}
    if clause == "t_test":
        _require_known(clause, spec, _T_TEST_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[t_test] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError("[t_test] needs 'min_score'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError("[t_test] needs 'field'")
        for side in ("filter_a", "filter_b"):
            if not isinstance(spec.get(side), dict):
                raise ValueError(f"[t_test] needs '{side}': a "
                                 "structured filter spec")
            compile_filter(spec[side])    # validates the spec shape
        return {"type": "t_test", "query": spec["query"],
                "field": spec["field"], "filter_a": spec["filter_a"],
                "filter_b": spec["filter_b"],
                "min_score": float(spec["min_score"])}
    if clause == "top_metrics":
        _require_known(clause, spec, _TOP_METRICS_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[top_metrics] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError("[top_metrics] needs 'min_score'")
        if not isinstance(spec.get("sort_field"), str) or \
                not spec["sort_field"]:
            raise ValueError("[top_metrics] needs 'sort_field'")
        ms = spec.get("metrics")
        if not isinstance(ms, list) or not ms \
                or not all(isinstance(m, str) and m for m in ms):
            raise ValueError("[top_metrics] needs 'metrics': [col, ...]")
        so = spec.get("sort_order", "desc")
        if so not in ("asc", "desc"):
            raise ValueError("[top_metrics] sort_order must be asc|desc")
        return {"type": "top_metrics", "query": spec["query"],
                "sort_field": spec["sort_field"], "metrics": list(ms),
                "size": int(spec.get("size", 1)), "sort_order": so,
                "min_score": float(spec["min_score"])}
    if clause in ("adjacency_matrix", "string_stats", "matrix_stats",
                  "date_range"):
        allowed = {"adjacency_matrix": _ADJ_FIELDS,
                   "string_stats": _STRING_STATS_FIELDS,
                   "matrix_stats": _MATRIX_FIELDS,
                   "date_range": _DATE_RANGE_FIELDS}[clause]
        _require_known(clause, spec, allowed)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        out = {"type": clause, "query": spec["query"],
               "min_score": float(spec["min_score"])}
        if clause == "adjacency_matrix":
            fl = spec.get("filters")
            if not isinstance(fl, dict) or not fl:
                raise ValueError("[adjacency_matrix] needs a non-empty "
                                 "'filters' {name: spec} object")
            for sub in fl.values():
                compile_filter(sub)
            out["filters"] = fl
            return out
        if clause == "matrix_stats":
            fl = spec.get("fields")
            if (not isinstance(fl, list) or len(fl) != 2
                    or not all(isinstance(f, str) and f for f in fl)):
                raise ValueError("[matrix_stats] needs 'fields': "
                                 "[x_col, y_col] (exactly 2 columns)")
            out["fields"] = list(fl)
            return out
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs a 'field' column name")
        out["field"] = spec["field"]
        if clause == "date_range":
            rr = spec.get("ranges")
            if (not isinstance(rr, list) or not rr
                    or not all(isinstance(r, (list, tuple)) and len(r) == 3
                               for r in rr)):
                raise ValueError("[date_range] needs 'ranges': "
                                 "[[key, iso|null, iso|null], ...]")
            out["ranges"] = [(str(a), b, c) for a, b, c in rr]
        return out
    if clause in ("range_agg", "date_histogram", "top_hits"):
        allowed = {"range_agg": _RANGE_AGG_FIELDS,
                   "date_histogram": _DATE_HIST_FIELDS,
                   "top_hits": _TOP_HITS_FIELDS}[clause]
        _require_known(clause, spec, allowed)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query'")
        if not isinstance(spec.get("field"), str) or not spec["field"]:
            raise ValueError(f"[{clause}] needs a 'field' column name")
        if "min_score" not in spec:
            raise ValueError(f"[{clause}] needs 'min_score'")
        out = {"type": clause, "query": spec["query"],
               "field": spec["field"],
               "min_score": float(spec["min_score"])}
        if clause == "range_agg":
            rr = spec.get("ranges")
            if (not isinstance(rr, list) or not rr
                    or not all(isinstance(r, (list, tuple)) and len(r) == 3
                               for r in rr)):
                raise ValueError("[range_agg] needs 'ranges': "
                                 "[[key, lo|null, hi|null], ...]")
            out["ranges"] = [(str(a), b, c) for a, b, c in rr]
        elif clause == "date_histogram":
            ci = spec.get("calendar_interval")
            if ci not in ("month", "day", "hour"):
                raise ValueError("[date_histogram] needs "
                                 "'calendar_interval': month|day|hour")
            out["calendar_interval"] = ci
            pl = spec.get("pipeline")
            if pl is not None:
                if pl not in ("cumulative_sum", "derivative",
                              "moving_avg", "serial_diff",
                              "bucket_selector", "bucket_script",
                              "moving_max", "moving_min", "moving_sum",
                              "normalize", "bucket_sort",
                              "moving_percentiles", "rate"):
                    raise ValueError(
                        "[date_histogram] pipeline must be "
                        "cumulative_sum|derivative|moving_avg|"
                        "serial_diff|bucket_selector|bucket_script|"
                        "moving_max|moving_min|moving_sum|normalize|"
                        "bucket_sort|moving_percentiles|rate")
                out["pipeline"] = pl
                out["window"] = int(spec.get("window", 3))
                out["lag"] = int(spec.get("lag", 1))
                out["selector_op"] = str(spec.get("selector_op", "gte"))
                out["selector_value"] = int(spec.get("selector_value", 1))
                out["sort_from"] = int(spec.get("sort_from", 0))
                out["sort_size"] = int(spec.get("sort_size", 5))
                out["percent"] = float(spec.get("percent", 0.5))
                out["rate_unit"] = str(spec.get("rate_unit", "hour"))
        else:
            out["n"] = int(spec.get("n", 3))
        return out
    if clause == "span_or":
        _require_known(clause, spec, _SPAN_OR_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[span_or] needs a non-empty 'query'")
        if int(spec.get("slop", 0)) < 0:
            raise ValueError("[span_or] slop must be >= 0")
        return {"type": "span_or", "query": spec["query"],
                "slop": int(spec.get("slop", 0)),
                "k": int(spec.get("k", 10))}
    if clause == "span_multi":
        _require_known(clause, spec, _SPAN_MULTI_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[span_multi] needs a non-empty 'query'")
        if int(spec.get("slop", 0)) < 0:
            raise ValueError("[span_multi] slop must be >= 0")
        if int(spec.get("max_expansions", 50)) < 1:
            raise ValueError("[span_multi] max_expansions must be >= 1")
        return {"type": "span_multi", "query": spec["query"],
                "slop": int(spec.get("slop", 0)),
                "max_expansions": int(spec.get("max_expansions", 50)),
                "k": int(spec.get("k", 10))}
    if clause == "span_not":
        _require_known(clause, spec, _SPAN_NOT_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[span_not] needs a non-empty 'query'")
        if int(spec.get("pre", 0)) < 0 or int(spec.get("post", 0)) < 0:
            raise ValueError("[span_not] pre/post must be >= 0")
        return {"type": "span_not", "query": spec["query"],
                "pre": int(spec.get("pre", 0)),
                "post": int(spec.get("post", 0)),
                "k": int(spec.get("k", 10))}
    if clause in ("span_within", "span_containing"):
        _require_known(clause, spec, _SPAN_WC_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError(f"[{clause}] needs a non-empty 'query' "
                             "(first token the little term, the rest "
                             "the big span)")
        if int(spec.get("slop", 0)) < 0:
            raise ValueError(f"[{clause}] slop must be >= 0")
        return {"type": clause, "query": spec["query"],
                "slop": int(spec.get("slop", 0)),
                "k": int(spec.get("k", 10))}
    if clause == "span_first":
        _require_known(clause, spec, _SPAN_FIRST_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[span_first] needs a non-empty 'query'")
        if int(spec.get("end", 0)) < 1:
            raise ValueError("[span_first] needs 'end' >= 1")
        return {"type": "span_first", "query": spec["query"],
                "end": int(spec["end"]), "k": int(spec.get("k", 10))}
    if clause == "match_bool_prefix":
        _require_known(clause, spec, _MBP_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[match_bool_prefix] needs a non-empty "
                             "'query'")
        return {"type": "match_bool_prefix", "query": spec["query"],
                "k": int(spec.get("k", 10)),
                "max_expansions": int(spec.get("max_expansions", 50))}
    if clause == "dis_max":
        _require_known(clause, spec, _DIS_MAX_FIELDS)
        qs = spec.get("queries")
        if (not isinstance(qs, list) or not qs or len(qs) > 8
                or not all(isinstance(q, str) and q for q in qs)):
            raise ValueError("[dis_max] needs 'queries': [str, ...] "
                             "(1-8 non-empty subqueries)")
        tb = float(spec.get("tie_breaker", 0.0))
        if not (0.0 <= tb <= 1.0):
            raise ValueError("[dis_max] tie_breaker must be in [0, 1]")
        return {"type": "dis_max", "queries": list(qs),
                "k": int(spec.get("k", 10)), "tie_breaker": tb}
    if clause == "match_phrase_prefix":
        _require_known(clause, spec, _MPP_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[match_phrase_prefix] needs a non-empty "
                             "'query'")
        return {"type": "match_phrase_prefix", "query": spec["query"],
                "k": int(spec.get("k", 10)),
                "max_expansions": int(spec.get("max_expansions", 50))}
    if clause in ("regexp", "wildcard"):
        _require_known(clause, spec, _REGEXP_FIELDS)
        if not isinstance(spec.get("value"), str) or not spec["value"]:
            raise ValueError(f"[{clause}] needs a non-empty 'value' "
                             f"pattern")
        return {"type": clause, "value": spec["value"],
                "k": int(spec.get("k", 10)),
                "max_expansions": int(spec.get("max_expansions", 50))}
    if clause == "query_string":
        _require_known(clause, spec, _QSTRING_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[query_string] needs a non-empty 'query'")
        return {"type": "query_string", "query": spec["query"],
                "k": int(spec.get("k", 10))}
    if clause == "synonyms":
        _require_known(clause, spec, _SYNONYMS_FIELDS)
        if not isinstance(spec.get("query"), str) or not spec["query"]:
            raise ValueError("[synonyms] needs a non-empty 'query'")
        m = spec.get("map")
        if (not isinstance(m, dict) or not m
                or not all(isinstance(v, list) for v in m.values())):
            raise ValueError("[synonyms] needs 'map': {term: [syn, ...]}")
        return {"type": "synonyms", "query": spec["query"], "map": m,
                "k": int(spec.get("k", 10))}
    if clause == "knn":
        _require_known(clause, spec, _KNN_FIELDS)
        vec = spec.get("vector")
        if not isinstance(vec, (list, tuple)) or not vec:
            raise ValueError("[knn] needs a non-empty 'vector' array")
        metric = spec.get("metric", "cosine")
        if metric not in _METRICS:
            raise ValueError(f"[knn] unknown metric {metric!r}")
        if spec.get("min_score") is not None and \
                spec.get("max_distance") is not None:
            raise ValueError("[knn] pass min_score OR max_distance, not "
                             "both (KNNQueryBuilder.java:438-472)")
        flt = spec.get("filter")
        if flt is not None:
            # full structured filter context (term/terms/range/exists/
            # bool) — same spec family as the match clause; validated
            # eagerly here, compiled at execution
            compile_filter(flt)
        return {"type": "knn",
                "vector": np.asarray(vec, dtype=np.float64),
                "k": int(spec.get("k", 10)), "metric": metric,
                "min_score": spec.get("min_score"),
                "max_distance": spec.get("max_distance"),
                "filter": flt}
    raise ValueError(f"unknown query clause {clause!r} (supported: "
                     f"match, bool, knn, sparse_vector, count, mget, "
                     f"field_stats, children_agg, percentiles_approx, "
                     f"terms_approx, geo_distance, "
                     f"more_like_this, prefix, fuzzy, "
                     f"facets, stats_agg, histogram, range_agg, "
                     f"date_histogram, auto_date_histogram, top_hits, "
                     f"missing_agg, value_count, global_stats, sampler, "
                     f"diversified_sampler, query_string, "
                     f"mad, boxplot, t_test, "
                     f"synonyms, regexp, wildcard, match_phrase_prefix)")


def render_template(template, params: dict):
    """Search templates [OpenSearch search-template public semantics,
    the mustache-substitution subset]: every string leaf that is
    EXACTLY '{{name}}' is replaced by ``params[name]`` with its native
    type (so numeric parameters stay numeric); '{{name}}' embedded
    inside a longer string substitutes ``str(value)``.  Missing
    parameters raise — the strict-parse contract."""
    import re
    if isinstance(template, dict):
        return {k: render_template(v, params) for k, v in
                template.items()}
    if isinstance(template, list):
        return [render_template(v, params) for v in template]
    if isinstance(template, str):
        m = re.fullmatch(r"\{\{(\w+)\}\}", template)
        if m:
            name = m.group(1)
            if name not in params:
                raise ValueError(f"template parameter {name!r} missing")
            return params[name]

        def sub(mm):
            name = mm.group(1)
            if name not in params:
                raise ValueError(f"template parameter {name!r} missing")
            return str(params[name])

        return re.sub(r"\{\{(\w+)\}\}", sub, template)
    return template


def execute_query(body: dict[str, Any], *, searcher=None, vector_ds=None,
                  vector_index=None, vector_engine: str = "graph",
                  filter_id_resolver=None, engine_kwargs=None,
                  field_searchers=None,
                  query_id: str = "q", round_decimals: int | None = 6):
    """Run a parsed query: match/bool against an ``IndexSearcher``; knn
    against a vector Dataset (brute-force path) or, with
    ``vector_index=`` (an index dir), against a persisted engine
    (``vector_engine`` in graph | ivf | ivfpq).  Engine indexes store
    only (id, vector[, codes]), so a ``filter`` clause there needs
    ``filter_id_resolver`` — a callable mapping the filter spec to the
    allow-list of ids (typically a pushed-down parquet read over the
    source table)."""
    spec = parse_query(body)
    if spec["type"] == "more_like_this":
        if searcher is None:
            raise ValueError("[more_like_this] needs searcher=")
        return searcher.more_like_this(
            {query_id: spec["like"]}, k=spec["k"],
            max_query_terms=spec["max_query_terms"])
    if spec["type"] == "span_first":
        if searcher is None:
            raise ValueError("[span_first] needs searcher=")
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               mode="span_first", span_end=spec["end"])
    if spec["type"] == "span_or":
        if searcher is None:
            raise ValueError("[span_or] needs searcher=")
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               mode="span_or", slop=spec["slop"])
    if spec["type"] == "span_multi":
        if searcher is None:
            raise ValueError("[span_multi] needs searcher=")
        return searcher.span_multi_search(
            {query_id: spec["query"]}, k=spec["k"], slop=spec["slop"],
            max_expansions=spec["max_expansions"])
    if spec["type"] == "span_not":
        if searcher is None:
            raise ValueError("[span_not] needs searcher=")
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               mode="span_not",
                               span_not_pre=spec["pre"],
                               span_not_post=spec["post"])
    if spec["type"] in ("span_within", "span_containing"):
        if searcher is None:
            raise ValueError(f"[{spec['type']}] needs searcher=")
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               mode=spec["type"], slop=spec["slop"])
    if spec["type"] == "match_bool_prefix":
        if searcher is None:
            raise ValueError("[match_bool_prefix] needs searcher=")
        return searcher.match_bool_prefix(
            {query_id: spec["query"]}, k=spec["k"],
            max_expansions=spec["max_expansions"])
    if spec["type"] == "dis_max":
        if searcher is None:
            raise ValueError("[dis_max] needs searcher=")
        return searcher.dis_max({query_id: spec["queries"]},
                                k=spec["k"],
                                tie_breaker=spec["tie_breaker"])
    if spec["type"] == "match_phrase_prefix":
        if searcher is None:
            raise ValueError("[match_phrase_prefix] needs searcher=")
        return searcher.phrase_prefix_search(
            {query_id: spec["query"]}, k=spec["k"],
            max_expansions=spec["max_expansions"])
    if spec["type"] in ("regexp", "wildcard"):
        if searcher is None:
            raise ValueError(f"[{spec['type']}] needs searcher=")
        fn = searcher.regexp_search if spec["type"] == "regexp" \
            else searcher.wildcard_search
        return fn({query_id: spec["value"]}, k=spec["k"],
                  max_expansions=spec["max_expansions"])
    if spec["type"] == "stats_agg":
        if searcher is None:
            raise ValueError("[stats_agg] needs searcher=")
        return searcher.stats_agg({query_id: spec["query"]},
                                  value_col=spec["field"],
                                  min_score=spec["min_score"])
    if spec["type"] == "range_agg":
        if searcher is None:
            raise ValueError("[range_agg] needs searcher=")
        return searcher.range_agg({query_id: spec["query"]},
                                  value_col=spec["field"],
                                  ranges=spec["ranges"],
                                  min_score=spec["min_score"])
    if spec["type"] == "date_histogram":
        if searcher is None:
            raise ValueError("[date_histogram] needs searcher=")
        return searcher.date_histogram_agg(
            {query_id: spec["query"]}, ts_col=spec["field"],
            calendar_interval=spec["calendar_interval"],
            min_score=spec["min_score"],
            pipeline=spec.get("pipeline"),
            pipeline_window=spec.get("window", 3),
            pipeline_lag=spec.get("lag", 1),
            selector_op=spec.get("selector_op", "gte"),
            selector_value=spec.get("selector_value", 1),
            sort_from=spec.get("sort_from", 0),
            sort_size=spec.get("sort_size", 5),
            pipeline_percent=spec.get("percent", 0.5),
            rate_unit=spec.get("rate_unit", "hour"))
    if spec["type"] == "top_hits":
        if searcher is None:
            raise ValueError("[top_hits] needs searcher=")
        return searcher.top_hits_agg({query_id: spec["query"]},
                                     group_col=spec["field"],
                                     n=spec["n"],
                                     min_score=spec["min_score"])
    if spec["type"] == "cardinality":
        if searcher is None:
            raise ValueError("[cardinality] needs searcher=")
        return searcher.cardinality_agg({query_id: spec["query"]},
                                        field=spec["field"],
                                        min_score=spec["min_score"])
    if spec["type"] == "percentiles":
        if searcher is None:
            raise ValueError("[percentiles] needs searcher=")
        return searcher.percentiles_agg({query_id: spec["query"]},
                                        value_col=spec["field"],
                                        percents=spec["percents"],
                                        min_score=spec["min_score"])
    if spec["type"] == "significant_terms":
        if searcher is None:
            raise ValueError("[significant_terms] needs searcher=")
        return searcher.significant_terms_agg(
            {query_id: spec["query"]}, field=spec["field"],
            min_score=spec["min_score"], size=spec["size"])
    if spec["type"] == "significant_text":
        if searcher is None:
            raise ValueError("[significant_text] needs searcher=")
        return searcher.significant_text_agg(
            {query_id: spec["query"]},
            min_score=spec["min_score"], size=spec["size"])
    if spec["type"] == "filters_agg":
        if searcher is None:
            raise ValueError("[filters_agg] needs searcher=")
        return searcher.filters_agg({query_id: spec["query"]},
                                    spec["filters"],
                                    min_score=spec["min_score"])
    if spec["type"] == "terms_stats":
        if searcher is None:
            raise ValueError("[terms_stats] needs searcher=")
        return searcher.terms_stats_agg({query_id: spec["query"]},
                                        group_col=spec["field"],
                                        value_col=spec["value_field"],
                                        min_score=spec["min_score"])
    if spec["type"] == "composite":
        if searcher is None:
            raise ValueError("[composite] needs searcher=")
        return searcher.composite_agg({query_id: spec["query"]},
                                      field=spec["field"],
                                      size=spec["size"],
                                      min_score=spec["min_score"],
                                      after=spec["after"])
    if spec["type"] == "multi_terms":
        if searcher is None:
            raise ValueError("[multi_terms] needs searcher=")
        return searcher.multi_terms_agg({query_id: spec["query"]},
                                        fields=spec["fields"],
                                        min_score=spec["min_score"],
                                        size=spec["size"])
    if spec["type"] == "rare_terms":
        if searcher is None:
            raise ValueError("[rare_terms] needs searcher=")
        return searcher.rare_terms_agg(
            {query_id: spec["query"]}, field=spec["field"],
            max_doc_count=spec["max_doc_count"],
            min_score=spec["min_score"])
    if spec["type"] == "extended_stats":
        if searcher is None:
            raise ValueError("[extended_stats] needs searcher=")
        return searcher.extended_stats_agg(
            {query_id: spec["query"]}, value_col=spec["field"],
            min_score=spec["min_score"], sigma=spec["sigma"])
    if spec["type"] == "weighted_avg":
        if searcher is None:
            raise ValueError("[weighted_avg] needs searcher=")
        return searcher.weighted_avg_agg(
            {query_id: spec["query"]}, value_col=spec["field"],
            weight_col=spec["weight_field"],
            min_score=spec["min_score"])
    if spec["type"] == "bucket_metric":
        if searcher is None:
            raise ValueError("[bucket_metric] needs searcher=")
        return searcher.bucket_metric_agg(
            {query_id: spec["query"]}, ts_col=spec["field"],
            calendar_interval=spec["calendar_interval"],
            metric=spec["metric"], min_score=spec["min_score"])
    if spec["type"] == "percentile_ranks":
        if searcher is None:
            raise ValueError("[percentile_ranks] needs searcher=")
        return searcher.percentile_ranks_agg(
            {query_id: spec["query"]}, value_col=spec["field"],
            values=spec["values"], min_score=spec["min_score"])
    if spec["type"] == "simple_query_string":
        if searcher is None:
            raise ValueError("[simple_query_string] needs searcher=")
        return searcher.simple_query_string(
            {query_id: spec["query"]}, k=spec["k"],
            max_expansions=spec["max_expansions"])
    if spec["type"] in ("mad", "boxplot"):
        if searcher is None:
            raise ValueError(f"[{spec['type']}] needs searcher=")
        fn = searcher.mad_agg if spec["type"] == "mad" \
            else searcher.boxplot_agg
        return fn({query_id: spec["query"]}, value_col=spec["field"],
                  min_score=spec["min_score"])
    if spec["type"] == "variable_width_histogram":
        if searcher is None:
            raise ValueError("[variable_width_histogram] needs searcher=")
        return searcher.variable_width_histogram_agg(
            {query_id: spec["query"]}, value_col=spec["field"],
            buckets=spec["buckets"], min_score=spec["min_score"])
    if spec["type"] == "t_test":
        if searcher is None:
            raise ValueError("[t_test] needs searcher=")
        return searcher.t_test_agg(
            {query_id: spec["query"]}, value_col=spec["field"],
            filter_a=spec["filter_a"], filter_b=spec["filter_b"],
            min_score=spec["min_score"])
    if spec["type"] in ("rank_feature", "distance_feature"):
        if searcher is None:
            raise ValueError(f"[{spec['type']}] needs searcher=")
        rf = {"kind": ("saturation" if spec["type"] == "rank_feature"
                       else "distance"),
              "field": spec["field"], "pivot": spec["pivot"],
              "boost": spec["boost"]}
        if spec["type"] == "distance_feature":
            rf["origin"] = spec["origin"]
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               rank_feature=rf)
    if spec["type"] == "pinned":
        if searcher is None:
            raise ValueError("[pinned] needs searcher=")
        return searcher.pinned_search({query_id: spec["query"]},
                                      {query_id: spec["ids"]},
                                      k=spec["k"])
    if spec["type"] == "count":
        if searcher is None:
            raise ValueError("[count] needs searcher=")
        return searcher.count({query_id: spec["query"]},
                              min_score=spec["min_score"])
    if spec["type"] == "mget":
        if searcher is None:
            raise ValueError("[mget] needs searcher=")
        return searcher.mget(spec["keys"])
    if spec["type"] == "field_stats":
        if searcher is None:
            raise ValueError("[field_stats] needs searcher=")
        return searcher.field_stats(spec["fields"])
    if spec["type"] == "children_agg":
        if searcher is None:
            raise ValueError("[children_agg] needs searcher=")
        return searcher.children_terms_agg(
            {query_id: spec["parents"]}, field=spec["field"],
            size=spec["size"])
    if spec["type"] == "percentiles_approx":
        if searcher is None:
            raise ValueError("[percentiles_approx] needs searcher=")
        return searcher.tdigest_percentiles_agg(
            {query_id: spec["query"]}, spec["field"], spec["percents"],
            min_score=spec["min_score"],
            compression=spec["compression"])
    if spec["type"] == "terms_approx":
        if searcher is None:
            raise ValueError("[terms_approx] needs searcher=")
        return searcher.approx_terms_agg(
            {query_id: spec["query"]}, field=spec["field"],
            min_score=spec["min_score"], size=spec["size"],
            capacity=spec["capacity"])
    if spec["type"] == "geo_distance":
        if vector_ds is None:
            raise ValueError("[geo_distance] needs vector_ds= (a "
                             "coords Dataset)")
        from opensearch_jvector_ray.pipelines.geo import (
            geo_distance_topk,
        )
        return geo_distance_topk(
            vector_ds, {query_id: (spec["lat"], spec["lon"])},
            spec["k"], id_col=spec["id_col"], lat_col=spec["lat_col"],
            lon_col=spec["lon_col"], radius_km=spec["radius_km"])
    if spec["type"] == "sparse_vector":
        if searcher is None:
            raise ValueError("[sparse_vector] needs searcher=")
        return searcher.sparse_vector_search(
            {query_id: spec["tokens"]}, k=spec["k"])
    if spec["type"] == "terms_set":
        if searcher is None:
            raise ValueError("[terms_set] needs searcher=")
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               terms_set={"field":
                                          spec["required_field"]})
    if spec["type"] == "cumulative_cardinality":
        if searcher is None:
            raise ValueError("[cumulative_cardinality] needs searcher=")
        return searcher.cumulative_cardinality_agg(
            {query_id: spec["query"]}, ts_col=spec["field"],
            calendar_interval=spec["calendar_interval"],
            field=spec["value_field"], min_score=spec["min_score"])
    if spec["type"] == "missing_agg":
        if searcher is None:
            raise ValueError("[missing_agg] needs searcher=")
        return searcher.missing_agg({query_id: spec["query"]},
                                    field=spec["field"],
                                    min_score=spec["min_score"])
    if spec["type"] == "value_count":
        if searcher is None:
            raise ValueError("[value_count] needs searcher=")
        return searcher.value_count_agg({query_id: spec["query"]},
                                        field=spec["field"],
                                        min_score=spec["min_score"])
    if spec["type"] == "global_stats":
        if searcher is None:
            raise ValueError("[global_stats] needs searcher=")
        return searcher.global_stats_agg(spec["field"])
    if spec["type"] == "sampler":
        if searcher is None:
            raise ValueError("[sampler] needs searcher=")
        return searcher.sampler_agg({query_id: spec["query"]},
                                    field=spec["field"],
                                    shard_size=spec["shard_size"],
                                    min_score=spec["min_score"])
    if spec["type"] == "diversified_sampler":
        if searcher is None:
            raise ValueError("[diversified_sampler] needs searcher=")
        return searcher.diversified_sampler_agg(
            {query_id: spec["query"]}, field=spec["field"],
            div_field=spec["div_field"],
            max_docs_per_value=spec["max_docs_per_value"],
            shard_size=spec["shard_size"],
            min_score=spec["min_score"])
    if spec["type"] == "auto_date_histogram":
        if searcher is None:
            raise ValueError("[auto_date_histogram] needs searcher=")
        return searcher.auto_date_histogram_agg(
            {query_id: spec["query"]}, ts_col=spec["field"],
            target_buckets=spec["target_buckets"],
            min_score=spec["min_score"])
    if spec["type"] == "top_metrics":
        if searcher is None:
            raise ValueError("[top_metrics] needs searcher=")
        return searcher.top_metrics_agg(
            {query_id: spec["query"]}, sort_col=spec["sort_field"],
            metric_cols=spec["metrics"], min_score=spec["min_score"],
            size=spec["size"], sort_order=spec["sort_order"])
    if spec["type"] == "adjacency_matrix":
        if searcher is None:
            raise ValueError("[adjacency_matrix] needs searcher=")
        return searcher.adjacency_matrix_agg(
            {query_id: spec["query"]}, spec["filters"],
            min_score=spec["min_score"])
    if spec["type"] == "string_stats":
        if searcher is None:
            raise ValueError("[string_stats] needs searcher=")
        return searcher.string_stats_agg(
            {query_id: spec["query"]}, field=spec["field"],
            min_score=spec["min_score"])
    if spec["type"] == "matrix_stats":
        if searcher is None:
            raise ValueError("[matrix_stats] needs searcher=")
        return searcher.matrix_stats_agg(
            {query_id: spec["query"]}, x_col=spec["fields"][0],
            y_col=spec["fields"][1], min_score=spec["min_score"])
    if spec["type"] == "date_range":
        if searcher is None:
            raise ValueError("[date_range] needs searcher=")
        return searcher.date_range_agg(
            {query_id: spec["query"]}, ts_col=spec["field"],
            ranges=spec["ranges"], min_score=spec["min_score"])
    if spec["type"] == "histogram":
        if searcher is None:
            raise ValueError("[histogram] needs searcher=")
        return searcher.histogram_agg({query_id: spec["query"]},
                                      value_col=spec["field"],
                                      interval=spec["interval"],
                                      min_score=spec["min_score"])
    if spec["type"] == "query_string":
        if searcher is None:
            raise ValueError("[query_string] needs searcher=")
        return searcher.boosted_search({query_id: spec["query"]},
                                       k=spec["k"])
    if spec["type"] == "synonyms":
        if searcher is None:
            raise ValueError("[synonyms] needs searcher=")
        return searcher.synonym_search({query_id: spec["query"]},
                                       spec["map"], k=spec["k"])
    if spec["type"] == "prefix":
        if searcher is None:
            raise ValueError("[prefix] needs searcher=")
        return searcher.prefix_search(
            {query_id: spec["query"]}, k=spec["k"],
            max_expansions=spec["max_expansions"])
    if spec["type"] == "fuzzy":
        if searcher is None:
            raise ValueError("[fuzzy] needs searcher=")
        return searcher.fuzzy_search(
            {query_id: spec["query"]}, k=spec["k"],
            max_edits=spec["max_edits"],
            prefix_length=spec["prefix_length"],
            max_expansions=spec["max_expansions"],
            transpositions=spec.get("transpositions", False))
    if spec["type"] == "facets":
        if searcher is None:
            raise ValueError("[facets] needs searcher=")
        return searcher.facet_counts(
            {query_id: spec["query"]}, facet_col=spec["field"],
            min_score=spec["min_score"], size=spec["size"],
            include=spec["include"], exclude=spec["exclude"],
            min_doc_count=spec["min_doc_count"])
    if spec["type"] == "suggest":
        if searcher is None:
            raise ValueError("[suggest] needs searcher=")
        if spec["kind"] == "prefix":
            return searcher.suggest_prefix(spec["text"], n=spec["n"])
        if spec["kind"] == "typo":
            return searcher.suggest_fuzzy(spec["text"], n=spec["n"],
                                          max_edits=spec["max_edits"])
        return searcher.suggest_phrase({query_id: spec["text"]},
                                       max_edits=spec["max_edits"])
    if spec["type"] == "has_child":
        if searcher is None:
            raise ValueError("[has_child] needs searcher=")
        return searcher.has_child_search(
            {query_id: spec["query"]}, k=spec["k"],
            score_mode=spec["score_mode"],
            parent_col=spec["parent_field"])
    if spec["type"] == "multi_match":
        if not field_searchers:
            raise ValueError("[multi_match] needs field_searchers= — a "
                             "{field: IndexSearcher} map of the "
                             "per-field indexes")
        missing = sorted(set(spec["fields"]) - set(field_searchers))
        if missing:
            raise ValueError(f"[multi_match] no index for fields "
                             f"{missing}")
        from opensearch_jvector_ray.query import multi_match as _mm
        return _mm({f: field_searchers[f] for f in spec["fields"]},
                   {query_id: spec["query"]}, k=spec["k"],
                   match_type=spec["match_type"],
                   tie_breaker=spec["tie_breaker"])
    if spec["type"] == "combined_fields":
        if not field_searchers:
            raise ValueError("[combined_fields] needs field_searchers= "
                             "— a {field: IndexSearcher} map of the "
                             "per-field indexes")
        missing = sorted(set(spec["fields"]) - set(field_searchers))
        if missing:
            raise ValueError(f"[combined_fields] no index for fields "
                             f"{missing}")
        from opensearch_jvector_ray.query import combined_fields as _cf
        return _cf({f: field_searchers[f] for f in spec["fields"]},
                   {query_id: spec["query"]}, k=spec["k"],
                   weights=spec["weights"])
    if spec["type"] == "constant_score":
        if searcher is None:
            raise ValueError("[constant_score] needs searcher=")
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               const_score=spec["boost"])
    if spec["type"] == "boosting":
        if searcher is None:
            raise ValueError("[boosting] needs searcher=")
        return searcher.search({query_id: spec["positive"]},
                               k=spec["k"],
                               negative={query_id: spec["negative"]},
                               negative_boost=spec["negative_boost"])
    if spec["type"] == "span_near":
        if searcher is None:
            raise ValueError("[span_near] needs searcher=")
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               mode=("span_ordered" if spec["in_order"]
                                     else "span"),
                               slop=spec["slop"])
    if spec["type"] == "function_score":
        if searcher is None:
            raise ValueError("[function_score] needs searcher=")
        kwargs = {}
        if spec["filter"] is not None:
            kwargs["filter"] = compile_filter(spec["filter"])
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               score_fn=spec["score_fn"], **kwargs)
    if spec["type"] in ("match", "bool"):
        if searcher is None:
            raise ValueError(f"[{spec['type']}] needs searcher=")
        if spec["type"] == "bool":
            text = " ".join(spec["should"]
                            + [f"+{t}" for t in spec["must"]]
                            + [f"-{t}" for t in spec["must_not"]])
            return searcher.search(
                {query_id: text}, k=spec["k"], mode="boolean",
                minimum_should_match=spec.get("minimum_should_match"))
        # forward EVERY given option and let the engine's own strict
        # validation reject conflicting combinations — the DSL must
        # never silently drop a clause (e.g. min_score + sort used to
        # return score-ranked hits with the sort ignored)
        kwargs: dict[str, Any] = {}
        mode = spec["mode"]
        if mode == "rescore":
            mode, kwargs = "taat", {"rescore_oversample": 3.0}
        if spec.get("filter") is not None:
            kwargs["filter"] = compile_filter(spec["filter"])
        if spec["min_score"] is not None:
            kwargs["min_score"] = spec["min_score"]
        if spec.get("search_after") is not None:
            kwargs["search_after"] = {query_id: spec["search_after"]}
        if spec.get("sort") is not None:
            kwargs["sort"] = spec["sort"]
        return searcher.search({query_id: spec["query"]}, k=spec["k"],
                               mode=mode,
                               collapse_col=spec["collapse"], **kwargs)
    if vector_index is not None:
        fids = None
        if spec["filter"] is not None:
            if filter_id_resolver is None:
                raise ValueError("[knn] a filter against an index engine "
                                 "needs filter_id_resolver= (engines "
                                 "store ids+vectors only)")
            fids = filter_id_resolver(spec["filter"])
        radial = (spec["min_score"] is not None
                  or spec["max_distance"] is not None)
        kk = None if radial else spec["k"]
        ek = dict(engine_kwargs or {})   # ef_search / n_probe etc.
        if vector_engine == "graph":
            from opensearch_jvector_ray.pipelines.graph import graph_topk
            return graph_topk(vector_index, {query_id: spec["vector"]},
                              kk, metric=spec["metric"],
                              round_decimals=round_decimals,
                              filter_ids=fids,
                              min_score=spec["min_score"],
                              max_distance=spec["max_distance"], **ek)
        if vector_engine == "ivf":
            from opensearch_jvector_ray.pipelines.knn import ivf_index_topk
            return ivf_index_topk(vector_index, {query_id: spec["vector"]},
                                  kk, metric=spec["metric"],
                                  round_decimals=round_decimals,
                                  filter_ids=fids,
                                  min_score=spec["min_score"],
                                  max_distance=spec["max_distance"], **ek)
        if vector_engine == "ivfpq":
            if radial:
                raise ValueError("[knn] radial mode is not supported by "
                                 "the ivfpq engine (use graph or ivf)")
            from opensearch_jvector_ray.pipelines.pq import ivfpq_topk
            return ivfpq_topk(vector_index, {query_id: spec["vector"]},
                              spec["k"], metric=spec["metric"],
                              round_decimals=round_decimals,
                              filter_ids=fids, **ek)
        raise ValueError(f"unknown vector_engine {vector_engine!r} "
                         f"(graph | ivf | ivfpq)")
    if vector_ds is None:
        raise ValueError("[knn] needs vector_ds= or vector_index=")
    from opensearch_jvector_ray.pipelines.knn import brute_force_topk
    filter_expr = None
    if spec["filter"] is not None:
        filter_expr = compile_filter(spec["filter"])
    return brute_force_topk(vector_ds, {query_id: spec["vector"]},
                            spec["k"], metric=spec["metric"],
                            round_decimals=round_decimals,
                            filter_expr=filter_expr,
                            min_score=spec["min_score"],
                            max_distance=spec["max_distance"])


def validate_query(body: "dict[str, Any]") -> "dict[str, Any]":
    """_validate/query API [OpenSearch validate public semantics,
    explain=true form]: strict-parse a query body WITHOUT executing it;
    returns {"valid": bool, "explanation": normalized spec | error
    text}.  Parsing is the same eager path every execute_query call
    takes, so valid=True here means the body will not fail validation
    at search time."""
    try:
        spec = parse_query(body)
    except (ValueError, TypeError, KeyError) as e:
        return {"valid": False, "explanation": str(e)}
    safe = {k: (v.tolist() if hasattr(v, "tolist") else v)
            for k, v in spec.items()}
    return {"valid": True, "explanation": safe}
