"""Round-4 span_within / span_containing queries (Lucene
SpanWithinQuery / SpanContainingQuery shapes): randomized brute-force
oracles plus DSL identity; the hard DuckDB gates are the driver
entries bm25_span_within and bm25_span_containing."""

import math

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from opensearch_jvector_ray.config import EngineConfig
from opensearch_jvector_ray.query import IndexSearcher
from opensearch_jvector_ray.query_dsl import execute_query, parse_query
from opensearch_jvector_ray.stages.build import IndexSpec, build_index

CFG = EngineConfig(num_segments=3)
K1, B = CFG.k1, CFG.b

VOCAB = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
_rng = np.random.default_rng(7)
TEXTS = [" ".join(_rng.choice(VOCAB, size=_rng.integers(2, 12)))
         for _ in range(60)]
N = len(TEXTS)
TOKS = [t.split() for t in TEXTS]
DL = np.array([len(t) for t in TOKS], dtype=np.float64)
AVGDL = DL.mean()


def _idf(t: str) -> float:
    df = sum(1 for tk in TOKS if t in tk)
    return math.log(1.0 + (N - df + 0.5) / (df + 0.5))


def _tf_part(tf: float, dl: float) -> float:
    return tf / (tf + K1 * (1.0 - B + B * dl / AVGDL))


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("r14") / "idx")
    tbl = pa.table({"doc_id": pa.array(range(N), type=pa.int64()),
                    "text": pa.array(TEXTS)})
    build_index(rd.from_arrow(tbl), out, CFG,
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=(), ts_col=""))
    return out


def _brute(mode: str, little: str, big: list[str], slop: int
           ) -> dict[int, float]:
    """Positions 0-based; a cell s is valid iff window [s-W+1, s]
    contains every big term (W = n_big + slop) — the engine's
    window-cover rule (query._window_cells)."""
    W = len(big) + slop
    res = {}
    for i, tk in enumerate(TOKS):
        bigpos = {b_: [j for j, x in enumerate(tk) if x == b_]
                  for b_ in big}
        litpos = [j for j, x in enumerate(tk) if x == little]
        if any(not v for v in bigpos.values()) or not litpos:
            continue
        smax = max(max(v) for v in [*bigpos.values(), litpos]) + W + 2
        valid = [s for s in range(smax)
                 if all(any(s - W + 1 <= p <= s for p in ps)
                        for ps in bigpos.values())
                 and (mode != "span_containing"
                      or any(s - W + 1 <= p <= s for p in litpos))]
        if mode == "span_containing":
            tf, isum = len(valid), sum(_idf(b_) for b_ in big)
        else:
            tf = sum(1 for p in litpos
                     if any(p <= s <= p + W - 1 for s in valid))
            isum = _idf(little)
        if tf:
            res[i] = round(isum * _tf_part(float(tf), DL[i]), 6)
    return res


CASES = [("eps alpha beta", 2), ("delta gamma", 1),
         ("alpha beta gamma", 3), ("zeta eta alpha", 4)]


@pytest.mark.parametrize("mode", ["span_within", "span_containing"])
@pytest.mark.parametrize("q,slop", CASES)
def test_span_wc_brute_force(idx, mode, q, slop):
    s = IndexSearcher(idx)
    toks = q.split()
    little, big = toks[0], list(dict.fromkeys(toks[1:]))
    want = _brute(mode, little, big, slop)
    assert want, f"degenerate case {q!r}"       # fixture is non-trivial
    out = s.search({"q": q}, k=N, mode=mode, slop=slop)
    got = {int(d): round(float(v), 6)
           for d, v in zip(out["doc_id"], out["score"])}
    assert got == want
    # global order: (score desc, doc_id asc)
    order = sorted(got, key=lambda d: (-got[d], d))
    assert list(out["doc_id"]) == order


def test_span_wc_differ_and_relate(idx):
    # containing scores on big idf, within on little idf — same query
    # must produce different score scales but both non-empty; and a doc
    # in span_containing's match set always appears in span_within's
    # (a valid big window holding little => that little pos is covered)
    s = IndexSearcher(idx)
    q = {"q": "eps alpha beta"}
    cont = s.search(q, k=N, mode="span_containing", slop=2)
    within = s.search(q, k=N, mode="span_within", slop=2)
    assert len(cont) and len(within)
    assert set(cont["doc_id"]) <= set(within["doc_id"])


def test_span_wc_dsl_identity(idx):
    s = IndexSearcher(idx)
    direct = s.search({"q": "eps alpha beta"}, k=10,
                      mode="span_within", slop=2)
    via = execute_query({"span_within": {"query": "eps alpha beta",
                                         "slop": 2, "k": 10}},
                        searcher=s)
    assert list(via["doc_id"]) == list(direct["doc_id"])
    assert list(via["score"]) == list(direct["score"])
    direct_c = s.search({"q": "eps alpha beta"}, k=10,
                        mode="span_containing", slop=2)
    via_c = execute_query({"span_containing": {"query": "eps alpha beta",
                                               "slop": 2, "k": 10}},
                          searcher=s)
    assert list(via_c["doc_id"]) == list(direct_c["doc_id"])


def _brute_ordered(words: list[str], slop: int) -> dict[int, float]:
    """tf = first-term positions p1 with a strictly increasing chain of
    the remaining sequence terms inside [p1, p1+W-1] (0-based)."""
    W = len(words) + slop
    isum = sum(_idf(w) for w in words)
    res = {}
    for i, tk in enumerate(TOKS):
        def chain(j: int, prev: int, p1: int) -> bool:
            if j == len(words):
                return True
            return any(chain(j + 1, p, p1)
                       for p in range(prev + 1, p1 + W)
                       if p < len(tk) and tk[p] == words[j])
        tf = sum(1 for p1, x in enumerate(tk)
                 if x == words[0] and chain(1, p1, p1))
        if tf:
            res[i] = round(isum * _tf_part(float(tf), DL[i]), 6)
    return res


# an exact phrase is the ordered chain at slop 0 ("alpha alpha" has
# overlapping occurrences)
ORDERED_CASES = [("alpha beta", 1, "span_ordered"),
                 ("gamma delta", 2, "span_ordered"),
                 ("eps zeta eta", 3, "span_ordered"),
                 ("alpha alpha", 2, "span_ordered"),
                 ("alpha alpha", 0, "phrase"), ("alpha beta", 0, "phrase"),
                 ("eps zeta eta", 0, "phrase")]


@pytest.mark.parametrize("q,slop,mode", ORDERED_CASES, ids=[
    f"{q}-{slop}" + ("" if mode == "span_ordered" else f"-{mode}")
    for q, slop, mode in ORDERED_CASES])
def test_span_ordered_brute_force(idx, q, slop, mode):
    s = IndexSearcher(idx)
    words = q.split()
    want = _brute_ordered(words, slop)
    assert want, f"degenerate case {q!r}"
    out = s.search({"q": q}, k=N, mode=mode, slop=slop)
    got = {int(d): round(float(v), 6)
           for d, v in zip(out["doc_id"], out["score"])}
    assert got == want


def test_span_ordered_is_order_sensitive(idx):
    # the ordered match set is a subset of the unordered one, and the
    # reversed query must differ somewhere on this corpus
    s = IndexSearcher(idx)
    fwd = s.search({"q": "alpha beta"}, k=N, mode="span_ordered", slop=1)
    rev = s.search({"q": "beta alpha"}, k=N, mode="span_ordered", slop=1)
    unord = s.search({"q": "alpha beta"}, k=N, mode="span", slop=1)
    assert set(fwd["doc_id"]) <= set(unord["doc_id"])
    pairs = lambda df: {(int(d), round(float(v), 6))
                        for d, v in zip(df["doc_id"], df["score"])}
    assert pairs(fwd) != pairs(rev)


def test_span_ordered_dsl_in_order(idx):
    s = IndexSearcher(idx)
    direct = s.search({"q": "alpha beta"}, k=10, mode="span_ordered",
                      slop=1)
    via = execute_query({"span_near": {"query": "alpha beta", "slop": 1,
                                       "in_order": True, "k": 10}},
                        searcher=s)
    assert list(via["doc_id"]) == list(direct["doc_id"])
    assert list(via["score"]) == list(direct["score"])
    # in_order=False keeps routing to the unordered mode
    via_u = execute_query({"span_near": {"query": "alpha beta",
                                         "slop": 1, "k": 10}},
                          searcher=s)
    direct_u = s.search({"q": "alpha beta"}, k=10, mode="span", slop=1)
    assert list(via_u["doc_id"]) == list(direct_u["doc_id"])
    with pytest.raises(ValueError, match="in_order"):
        parse_query({"span_near": {"query": "a b", "in_order": 1}})
    # intervals is sugar over span_near: ordered/max_gaps == in_order/slop
    via_i = execute_query({"intervals": {"query": "alpha beta",
                                         "max_gaps": 1, "ordered": True,
                                         "k": 10}}, searcher=s)
    assert list(via_i["doc_id"]) == list(direct["doc_id"])
    via_iu = execute_query({"intervals": {"query": "alpha beta",
                                          "max_gaps": 1, "k": 10}},
                           searcher=s)
    assert list(via_iu["doc_id"]) == list(direct_u["doc_id"])
    with pytest.raises(ValueError, match="max_gaps"):
        parse_query({"intervals": {"query": "a b", "max_gaps": -1}})


def test_significant_text_jlh_brute(idx):
    # significant_text: JLH over analyzed index terms of the match set
    # vs the corpus (fg_tot = matched docs, bg = global df, bg_tot = N)
    s = IndexSearcher(idx)
    ms = 1e-9
    hits = s.search({"q": "alpha delta"}, min_score=ms)
    matched = set(int(d) for d in hits["doc_id"])
    assert 0 < len(matched) < N
    fg_tot = float(len(matched))
    want = {}
    for t in VOCAB:
        fg = sum(1 for d in matched if t in TOKS[d])
        bg = sum(1 for tk in TOKS if t in tk)
        if fg:
            fgp, bgp = fg / fg_tot, bg / float(N)
            want[t] = (round((fgp - bgp) * (fgp / bgp), 6), fg, bg)
    out = s.significant_text_agg({"q": "alpha delta"}, min_score=ms,
                                 size=len(VOCAB))
    got = {r.term: (float(r.score), int(r.doc_count), int(r.bg_count))
           for r in out.itertuples()}
    assert got == want
    # ranked (score desc, term asc) and the size cap truncates
    sc = list(out["score"])
    assert sc == sorted(sc, reverse=True)
    out2 = s.significant_text_agg({"q": "alpha delta"}, min_score=ms,
                                  size=2)
    assert len(out2) == 2
    assert list(out2["term"]) == list(out["term"][:2])
    via = execute_query({"significant_text": {"query": "alpha delta",
                                              "min_score": ms,
                                              "size": 2}}, searcher=s)
    assert list(via["term"]) == list(out2["term"])
    assert list(via["score"]) == list(out2["score"])


def test_minimal_english_stemmer_rule():
    # the s-stemmer: strip final 's' iff len >= 3 and the char before
    # is not 'u'/'s' (Lucene EnglishMinimalStemmer.stem)
    from opensearch_jvector_ray.analyze import analyze_query
    cfg = EngineConfig(stemmer="minimal_english")
    words = ["merges", "pass", "bus", "its", "dogs", "miss", "says",
             "corpus", "trees", "gas", "users", "menus", "abyss"]
    got = analyze_query(" ".join(words), cfg)

    def ref(w):
        if len(w) < 3 or w[-1] != "s" or w[-2] in ("u", "s"):
            return w
        return w[:-1]
    want = [ref(w) for w in words if w not in cfg.stopwords]
    assert got == want
    # stop -> stem ORDER: 'ats' stems to 'at' (a stopword) but SURVIVES
    # because the stop filter already ran; a literal 'at' is dropped
    assert analyze_query("ats at", cfg) == ["at"]
    with pytest.raises(ValueError, match="stemmer"):
        EngineConfig(stemmer="porter")


def test_stemmed_index_matches_plurals(idx, tmp_path):
    # plural query matches singular docs only under the stem analyzer
    cfg = EngineConfig(num_segments=2, stemmer="minimal_english")
    out = str(tmp_path / "stem_idx")
    texts = ["the merge tool", "two merges happened", "sort then scan",
             "many sorts and scans", "unrelated words here"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)),
                                       type=pa.int64()),
                    "text": pa.array(texts)})
    build_index(rd.from_arrow(tbl), out, cfg,
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=(), ts_col=""))
    s = IndexSearcher(out)
    hits = s.search({"q": "merges"}, k=10)
    assert set(hits["doc_id"]) == {0, 1}
    hits2 = s.search({"q": "sort"}, k=10)
    assert set(hits2["doc_id"]) == {2, 3}
    # unstemmed control: the plural query misses the singular doc
    s_plain = IndexSearcher(idx)  # default cfg fixture, different corpus
    assert EngineConfig().stemmer == ""


TURNS = [
    # conv A: clean user/assistant with a tool interleave, gappy idx
    ("A", 0, "user", "hi"), ("A", 2, "assistant", "hello"),
    ("A", 5, "user", "run it"), ("A", 6, "tool", "ran"),
    ("A", 9, "assistant", "done"),
    # conv B: starts with assistant (invalid), alternates
    ("B", 0, "assistant", "preamble"), ("B", 1, "user", "q"),
    ("B", 2, "assistant", "a"),
    # conv C: consecutive same-role (invalid), no assistant
    ("C", 0, "user", "x"), ("C", 1, "user", "y"), ("C", 2, "tool", "z"),
    # conv D: single turn
    ("D", 0, "user", "solo"),
]


def _turns_ds():
    return rd.from_arrow(pa.table({
        "conv_id": pa.array([t[0] for t in TURNS]),
        "turn_idx": pa.array([t[1] for t in TURNS], type=pa.int32()),
        "role": pa.array([t[2] for t in TURNS]),
        "text": pa.array([t[3] for t in TURNS]),
    }))


def test_context_response_pairs_positional_window():
    from opensearch_jvector_ray.pipelines.transcripts import (
        context_response_pairs,
    )
    out = (context_response_pairs(_turns_ds(), max_context_turns=2)
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))
    got = {(r.conv_id, int(r.turn_idx)): (r.context, r.response)
           for r in out.itertuples()}
    # the window is POSITIONAL: A@9's context is turns 5 and 6 even
    # though their turn_idx values are 3-4 behind
    assert got == {
        ("A", 2): ("user: hi", "hello"),
        ("A", 9): ("user: run it\ntool: ran", "done"),
        ("B", 2): ("assistant: preamble\nuser: q", "a"),
        # B@0 has no preceding turn -> no pair; C/D have no qualifying
        # assistant turns
    }
    with pytest.raises(ValueError, match="max_context_turns"):
        context_response_pairs(_turns_ds(), max_context_turns=0)


def test_response_novelty_rules():
    from opensearch_jvector_ray.config import EngineConfig
    from opensearch_jvector_ray.pipelines.transcripts import (
        response_novelty,
    )
    cfg = EngineConfig()
    turns = [
        # echo response: every token already in context -> novelty 0
        ("E", 0, "user", "alpha beta gamma"),
        ("E", 1, "assistant", "beta alpha"),
        # half-novel: 'delta' new, 'alpha' seen (window K=2 covers
        # turns 0-1)
        ("E", 2, "assistant", "alpha delta"),
        # stopword-only response: no analyzed tokens -> NO row
        ("E", 3, "assistant", "the a of"),
        # window slides: with K=2 the context of turn 4 is turns 2-3;
        # 'beta' (turn 1) is OUTSIDE the window -> novel again
        ("E", 4, "assistant", "beta"),
        # duplicate response tokens count DISTINCT once
        ("F", 0, "user", "xx yy"),
        ("F", 1, "assistant", "zz zz zz yy"),
        # conversation-first assistant turn: no preceding -> no row
        ("G", 0, "assistant", "solo"),
    ]
    ds = rd.from_arrow(pa.table({
        "conv_id": pa.array([t[0] for t in turns]),
        "turn_idx": pa.array([t[1] for t in turns], type=pa.int32()),
        "role": pa.array([t[2] for t in turns]),
        "text": pa.array([t[3] for t in turns]),
    }))
    out = (response_novelty(ds, cfg, max_context_turns=2).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    got = {(r.conv_id, int(r.turn_idx)):
           (int(r.resp_distinct), int(r.novel_distinct), float(r.novelty))
           for r in out.itertuples()}
    assert got == {
        ("E", 1): (2, 0, 0.0),
        ("E", 2): (2, 1, 0.5),
        ("E", 4): (1, 1, 1.0),
        ("F", 1): (2, 1, 0.5),
    }
    with pytest.raises(ValueError, match="max_context_turns"):
        response_novelty(ds, cfg, max_context_turns=0)


def test_validate_conversations_rules():
    from opensearch_jvector_ray.pipelines.transcripts import (
        validate_conversations,
    )
    out = (validate_conversations(_turns_ds()).to_pandas()
           .sort_values("conv_id").reset_index(drop=True))
    rows = {r.conv_id: r for r in out.itertuples()}
    assert rows["A"].valid and rows["A"].n_turns == 5
    assert not rows["B"].starts_user and not rows["B"].valid
    assert rows["B"].has_assistant and rows["B"].no_role_repeat
    assert not rows["C"].no_role_repeat and not rows["C"].has_assistant
    assert rows["C"].starts_user and not rows["C"].valid
    # single-turn: no repeat possible, but no assistant either
    assert rows["D"].no_role_repeat and not rows["D"].valid


def test_facets_include_exclude_min_doc_count(idx):
    # the r14 corpus has no string store cols; build a tiny one here
    s = IndexSearcher(idx)
    ms = 1e-9
    base = s.search({"q": "alpha delta"}, min_score=ms)
    # use doc parity as a fake bucket via a fresh index with a store col
    import ray.data as _rd
    cats = [f"cat{i % 4}" for i in range(N)]
    tbl = pa.table({"doc_id": pa.array(range(N), type=pa.int64()),
                    "text": pa.array(TEXTS),
                    "cat": pa.array(cats)})
    import tempfile, os
    out = os.path.join(tempfile.mkdtemp(), "fidx")
    build_index(_rd.from_arrow(tbl), out, CFG,
                IndexSpec(text_col="text", key_cols=("doc_id",),
                          store_cols=("cat",), ts_col=""))
    s2 = IndexSearcher(out)
    full = s2.facet_counts({"q": "alpha delta"}, facet_col="cat",
                           min_score=ms)
    got = s2.facet_counts({"q": "alpha delta"}, facet_col="cat",
                          min_score=ms, include=r"cat[0-2]",
                          exclude=r"cat1")
    assert set(got["cat"]) == ({"cat0", "cat2"} & set(full["cat"]))
    # min_doc_count drops buckets globally (threshold = max count)
    mx = int(full["doc_count"].max())
    trimmed = s2.facet_counts({"q": "alpha delta"}, facet_col="cat",
                              min_score=ms, min_doc_count=mx)
    assert 0 < len(trimmed) < len(full)
    assert (trimmed["doc_count"] >= mx).all()
    via = execute_query({"facets": {"query": "alpha delta",
                                    "min_score": ms, "field": "cat",
                                    "include": r"cat[0-2]",
                                    "exclude": r"cat1"}}, searcher=s2)
    assert list(via["cat"]) == list(got["cat"])
    with pytest.raises(ValueError, match="min_doc_count"):
        s2.facet_counts({"q": "x"}, facet_col="cat", min_score=ms,
                        min_doc_count=0)
    with pytest.raises(ValueError, match="string"):
        s2.facet_counts({"q": "alpha"}, facet_col="doc_id",
                        min_score=ms, include="1")


def test_percolate_phrase_adjacency():
    from opensearch_jvector_ray.pipelines.percolate import percolate
    texts = ["fast merge wins", "fast and merge",   # stopword gap: NO
             "merge fast", "the fast merge", "fast fast merge",
             "fastmerge"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts)}))
    out = percolate(ds, {"p": "fast merge"}, CFG,
                    match_mode="phrase").to_pandas()
    # 0: adjacent; 1: 'and' is a stopword -> position gap breaks it;
    # 2: wrong order; 3: adjacent after leading stopword; 4: second
    # 'fast' adjacent to 'merge'; 5: single token
    assert sorted(out["doc_id"]) == [0, 3, 4]
    # repeated-term phrase needs strictly consecutive occurrences
    out2 = percolate(ds, {"q": "fast fast"}, CFG,
                     match_mode="phrase").to_pandas()
    assert sorted(out2["doc_id"]) == [4]
    with pytest.raises(ValueError, match="match_mode"):
        percolate(ds, {"p": "x"}, CFG, match_mode="near")


def test_span_wc_validation(idx):
    s = IndexSearcher(idx)
    with pytest.raises(ValueError, match="little"):
        s.search({"q": "alpha"}, k=5, mode="span_within")
    with pytest.raises(ValueError, match="slop"):
        s.search({"q": "a b"}, k=5, mode="taat", slop=2)
    # a typo'd mode is rejected eagerly, never silently re-scored
    with pytest.raises(ValueError, match="unknown search mode"):
        s.search({"q": "a b"}, k=5, mode="match")
    with pytest.raises(ValueError, match="does not support"):
        parse_query({"span_within": {"query": "a b", "end": 3}})
    # zero-df member (little or big) matches nothing, doesn't raise
    out = s.search({"q": "qqq alpha"}, k=5, mode="span_within")
    assert len(out) == 0


def test_bpe_merge_candidates_pairs_and_ties():
    from opensearch_jvector_ray.pipelines.corpus import (
        bpe_merge_candidates,
    )
    # 'ab' appears inside 'abab' (2x: ab at 0-1 and 2-3... plus the
    # cross pair 'ba') and in 'abc'; pre-token boundaries (space,
    # punctuation runs, contractions) never pair across
    tbl = pa.table({"text": pa.array([
        "abab abc",          # pairs: ab,ba,ab | ab,bc
        "it's x",            # pre-tokens: it, 's, x -> pairs: it, 's
        "a,b",               # a | , | b -> no pairs (all len-1 tokens)
        "zz!!zz",            # zz | !! | zz -> zz, !!, zz
    ])})
    out = bpe_merge_candidates(rd.from_arrow(tbl), "text", top_k=50)
    got = dict(zip(out["pair"], out["cnt"]))
    assert got == {"ab": 3, "ba": 1, "bc": 1, "it": 1, "'s": 1,
                   "zz": 2, "!!": 1}
    # ranking: cnt DESC then pair ASC; top_k caps
    assert list(out["pair"][:2]) == ["ab", "zz"]
    top3 = bpe_merge_candidates(rd.from_arrow(tbl), "text", top_k=3)
    assert list(top3["pair"]) == ["ab", "zz", "!!"]
    with pytest.raises(ValueError, match="top_k"):
        bpe_merge_candidates(rd.from_arrow(tbl), "text", top_k=0)
