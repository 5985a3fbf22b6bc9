"""DuckDB SQL oracle builders.

Each function returns an ANSI-SQL string that recomputes a pipeline's
result from the raw tables, fully independently of the engine (no
postings, no posting codec, no Ray) — they run side-by-side with the
Ray pipelines and their values are hash-compared.  Column names and rounding
MUST match the corresponding ``queries()`` callables exactly.

The BM25 CTE replicates the publicly documented SQLite-FTS5 formula
(see ``yetisearch_ray.search.bm25``): idf over any-column df, tf
column-weighted, doc length unweighted, N = all rows.
"""

from __future__ import annotations

K1, B = 1.2, 0.75

# corpus CTE producing (doc_id, f0, f1, lang) for the two standard corpora
DOCUMENTS_CORPUS = (
    "SELECT doc_id, source AS f0, text AS f1, lang FROM documents"
)


def code_corpus_cte(parquet_glob: str) -> str:
    return (
        'SELECT row_number() OVER (ORDER BY repo, path, "commit") - 1 AS doc_id, '
        "path AS f0, content AS f1, lang "
        f"FROM read_parquet('{parquet_glob}')"
    )


_TOK = "regexp_split_to_array(lower(strip_accents({col})), '[^a-z0-9]+')"


def _base_ctes(corpus: str) -> str:
    t0 = _TOK.format(col="f0")
    t1 = _TOK.format(col="f1")
    return f"""
WITH corpus AS ({corpus}),
tokf AS (
  SELECT doc_id, 0 AS fld, u.term FROM corpus, unnest({t0}) AS u(term) WHERE u.term <> ''
  UNION ALL
  SELECT doc_id, 1 AS fld, u.term FROM corpus, unnest({t1}) AS u(term) WHERE u.term <> ''
),
dl AS (SELECT doc_id, count(*) AS dl FROM tokf GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM corpus) AS n,
         (SELECT count(*) FROM tokf)::DOUBLE / (SELECT count(*) FROM corpus) AS avgdl
)"""


def bm25_topk_sql(terms, *, corpus: str = DOCUMENTS_CORPUS, w0: float = 1.0,
                  w1: float = 1.0, require_all: bool = False,
                  lang: str | None = None, k: int = 20,
                  round_to: int = 5, exclude_term: str | None = None,
                  offset: int = 0, min_match: int = 1,
                  boosts: dict | None = None, dismax: bool = False,
                  tie_breaker: float = 0.0,
                  rank_boost: tuple | None = None,
                  negative_term: str | None = None,
                  negative_boost: float = 0.5,
                  allow_cte: str | None = None) -> str:
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    if boosts:
        # query-time term boosts (engine Phrase.boost): multiply that
        # term's BM25 contribution only
        cases = " ".join(f"WHEN '{t}' THEN {float(w)}"
                         for t, w in sorted(boosts.items()))
        bmul = f"(CASE tf.term {cases} ELSE 1.0 END) * "
    else:
        bmul = ""
    # dis_max (engine CompiledQuery.dismax): best arm + tie_breaker *
    # the rest, instead of the plain BM25 sum
    score_agg = (f"max(c) + {float(tie_breaker)} * (sum(c) - max(c))"
                 if dismax else "sum(c)")
    # static-rank doc boost (engine search(rank_column=...)):
    # rank_boost = (table, column, weight, "add"|"multiply")
    if rank_boost:
        rb_tbl, rb_col, rb_w, rb_mode = rank_boost
        fvf = f"{float(rb_w)} * ln(1 + greatest(rb.{rb_col}, 0))"
        sexpr = (f"(s.s * (1 + {fvf}))" if rb_mode == "multiply"
                 else f"(s.s + {fvf})")
        rb_join = f"JOIN {rb_tbl} rb ON rb.doc_id = s.doc_id"
    else:
        sexpr, rb_join = "s.s", ""
    if negative_term:
        # ES boosting query (engine negative_terms): multiply the
        # positive score where the doc contains the negative term in
        # ANY field — demotion, not exclusion
        sexpr = (f"({sexpr} * (CASE WHEN s.doc_id IN "
                 f"(SELECT DISTINCT doc_id FROM tokf WHERE term = "
                 f"'{negative_term}') THEN {float(negative_boost)} "
                 f"ELSE 1.0 END))")
    where = f"WHERE s.nterms = {len(terms)}" if require_all else ""
    if allow_cte:
        # doc-id allowlist (engine restrict_ids): the caller supplies a
        # CTE body named `allowed` with a doc_id column; match-set
        # prune only, scoring unaffected
        pred = "s.doc_id IN (SELECT doc_id FROM allowed)"
        where = f"{where} AND {pred}" if where else f"WHERE {pred}"
    if min_match > 1:
        # ES minimum_should_match: docs matching >= N of the OR terms;
        # scoring identical to plain OR (engine.py CompiledQuery
        # .min_should_match — match-set prune only)
        pred = f"s.nterms >= {min_match}"
        where = f"{where} AND {pred}" if where else f"WHERE {pred}"
    if exclude_term:
        # boolean NOT: drop docs containing the excluded term in ANY
        # field; scoring (df/idf) is unaffected, matching the engine
        # (exclusion prunes the match set only, engine.py:801-806)
        pred = (f"s.doc_id NOT IN (SELECT DISTINCT doc_id FROM tokf "
                f"WHERE term = '{exclude_term}')")
        where = f"{where} AND {pred}" if where else f"WHERE {pred}"
    lang_join = (
        f"JOIN corpus c ON c.doc_id = s.doc_id AND c.lang = '{lang}'" if lang else ""
    )
    off = f" OFFSET {offset}" if offset else ""
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld,
           count(*) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END) AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
contrib AS (
  SELECT tf.doc_id,
         {bmul}greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
),
scored AS (
  SELECT doc_id, {score_agg} AS s, count(*) AS nterms
  FROM contrib GROUP BY doc_id
){"," if allow_cte else ""}
{f"allowed AS ({allow_cte})" if allow_cte else ""}
SELECT s.doc_id::BIGINT AS doc_id, round(abs({sexpr}), {round_to}) AS score
FROM scored s {rb_join} {lang_join} {where}
ORDER BY -{sexpr} ASC, s.doc_id ASC LIMIT {k}{off}"""


def collapse_topk_sql(terms, *, corpus: str = DOCUMENTS_CORPUS,
                      route: str = "lang", k: int = 5,
                      round_to: int = 5, max_results: int = 1000) -> str:
    """Ground truth for field collapsing (``unique_by_route``): OR-score
    docs with the standard BM25 CTEs, pre-clamp to the engine's
    MAX_RESULTS page (rank order score DESC, doc_id ASC — the clamp the
    reference applies before deduplicateByRoute), then per route:
    composite = SUM of member scores, representative = best member
    (score DESC, doc_id ASC).  Final order composite DESC, rep doc_id
    ASC — mirrors ``SearchEngine._dedup_by_route``."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld, count(*) * 1.0 AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id, stats.n, stats.avgdl
),
page AS (
  SELECT s.doc_id, s.s, c.{route} AS route
  FROM scored s JOIN corpus c USING (doc_id)
  QUALIFY row_number() OVER (ORDER BY -s.s ASC, s.doc_id ASC) <= {max_results}
),
grp AS (
  SELECT route, doc_id, s,
         sum(s) OVER (PARTITION BY route) AS s_sum,
         row_number() OVER (PARTITION BY route
                            ORDER BY -s ASC, doc_id ASC) AS rn
  FROM page
)
SELECT doc_id::BIGINT AS doc_id, round(abs(s_sum), {round_to}) AS score
FROM grp WHERE rn = 1
ORDER BY -s_sum ASC, doc_id ASC LIMIT {k}"""


def more_like_this_sql(doc_id: int, *, corpus: str = DOCUMENTS_CORPUS,
                       k: int = 10, max_terms: int = 10,
                       round_to: int = 5, language: str = "en") -> str:
    """Ground truth for ``SearchEngine.more_like_this``: select the
    source doc's top ``max_terms`` terms by ``tf * ln(N/df)`` (skipping
    terms the query compiler would drop: stopwords, length outside
    2..50), then score them with the same BM25-OR CTEs as
    ``bm25_topk_sql`` (w0=w1=1), excluding the source doc.  Tie-breaks
    mirror the engine exactly: selection ``round(w, 9) DESC, term
    ASC``; ranking ``score DESC, doc_id ASC``."""
    from yetisearch_ray.analysis.stopwords import stopwords_for

    sw = ", ".join(f"'{w}'" for w in sorted(stopwords_for(language)))
    return f"""{_base_ctes(corpus)},
src AS (
  SELECT term, count(*) AS tf FROM tokf
  WHERE doc_id = {doc_id}
    AND len(term) BETWEEN 2 AND 50
    AND term NOT IN ({sw})
  GROUP BY term
),
srcdf AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM src) GROUP BY term
),
qterms AS (
  SELECT s.term FROM src s JOIN srcdf d USING (term), stats
  ORDER BY round(s.tf * ln(stats.n / d.df), 9) DESC, s.term ASC
  LIMIT {max_terms}
),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld, count(*) * 1.0 AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id, stats.n, stats.avgdl
)
SELECT s.doc_id::BIGINT AS doc_id, round(abs(s.s), {round_to}) AS score
FROM scored s WHERE s.doc_id <> {doc_id}
ORDER BY -s.s ASC, s.doc_id ASC LIMIT {k}"""


def phrase_topk_sql(terms, *, corpus: str = DOCUMENTS_CORPUS, k: int = 20,
                    round_to: int = 5) -> str:
    """Positional phrase over the body field (f1) — adjacency count = tf."""
    n = len(terms)
    cond = " AND ".join(f"arr[i+{j}] = '{t}'" for j, t in enumerate(terms))
    arr = "regexp_extract_all(lower(strip_accents(f1)), '[a-z0-9]+')"
    return f"""{_base_ctes(corpus)},
phr AS (
  SELECT doc_id,
         len(list_filter(range(1, len(arr) - {n} + 2), i -> {cond})) AS tf
  FROM (SELECT doc_id, {arr} AS arr FROM corpus)
),
pstats AS (SELECT count(*) AS df FROM phr WHERE tf > 0),
scored AS (
  SELECT p.doc_id,
         greatest(ln((stats.n - pstats.df + 0.5) / (pstats.df + 0.5)), 0.000001)
         * (p.tf * ({K1} + 1)) /
           (p.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS s
  FROM phr p JOIN dl USING (doc_id), stats, pstats
  WHERE p.tf > 0
)
SELECT doc_id::BIGINT AS doc_id, round(abs(s), {round_to}) AS score
FROM scored ORDER BY -s ASC, doc_id ASC LIMIT {k}"""


def phrase_prefix_topk_sql(base_terms, prefix: str, *,
                           corpus: str = DOCUMENTS_CORPUS, k: int = 20,
                           round_to: int = 5) -> str:
    """Ground truth for match_phrase_prefix (``search(mode="phrase",
    prefix_last=True)``): the phrase CTE with the final slot matching
    any token that starts with ``prefix`` — the uncapped dictionary
    expansion is exactly "starts_with" over the body tokens."""
    base = list(base_terms)
    n = len(base) + 1
    conds = [f"arr[i+{j}] = '{t}'" for j, t in enumerate(base)]
    conds.append(f"starts_with(arr[i+{n-1}], '{prefix}')")
    cond = " AND ".join(conds)
    arr = "regexp_extract_all(lower(strip_accents(f1)), '[a-z0-9]+')"
    return f"""{_base_ctes(corpus)},
phr AS (
  SELECT doc_id,
         len(list_filter(range(1, len(arr) - {n} + 2), i -> {cond})) AS tf
  FROM (SELECT doc_id, {arr} AS arr FROM corpus)
),
pstats AS (SELECT count(*) AS df FROM phr WHERE tf > 0),
scored AS (
  SELECT p.doc_id,
         greatest(ln((stats.n - pstats.df + 0.5) / (pstats.df + 0.5)), 0.000001)
         * (p.tf * ({K1} + 1)) /
           (p.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS s
  FROM phr p JOIN dl USING (doc_id), stats, pstats
  WHERE p.tf > 0
)
SELECT doc_id::BIGINT AS doc_id, round(abs(s), {round_to}) AS score
FROM scored ORDER BY -s ASC, doc_id ASC LIMIT {k}"""


def lm_dirichlet_topk_sql(terms, *, corpus: str = DOCUMENTS_CORPUS,
                          mu: float = 2000.0, k: int = 20,
                          round_to: int = 5) -> str:
    """Ground truth for ``SearchEngine.search_lm`` (LMDirichlet):
    score(d) = sum over query terms of ln((tf + mu*cf/C)/(dl + mu))
    over the OR match set, absent terms contributing the smoothing
    mass; output = round(-score, k) ascending best-first."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
cf AS (
  SELECT term, count(*)::DOUBLE AS cf FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
ctot AS (SELECT count(*)::DOUBLE AS c FROM tokf),
match AS (
  SELECT DISTINCT doc_id FROM tokf
  WHERE term IN (SELECT term FROM qterms)
),
tf AS (
  SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY doc_id, term
),
scored AS (
  SELECT m.doc_id,
         sum(ln((COALESCE(tf.tf, 0) + {mu} * cf.cf / ctot.c)
                / (dl.dl + {mu}))) AS s
  FROM match m
  CROSS JOIN cf
  LEFT JOIN tf ON tf.doc_id = m.doc_id AND tf.term = cf.term
  JOIN dl ON dl.doc_id = m.doc_id, ctot
  GROUP BY m.doc_id
)
SELECT doc_id::BIGINT AS doc_id, round(-s, {round_to}) AS score
FROM scored ORDER BY s DESC, doc_id ASC LIMIT {k}"""


def bool_prefix_topk_sql(base_terms, prefix: str, *,
                         corpus: str = DOCUMENTS_CORPUS, w0: float = 1.0,
                         w1: float = 1.0, k: int = 20,
                         round_to: int = 5) -> str:
    """Ground truth for match_bool_prefix (``search(mode="or",
    prefix_last=True)``): the base terms are plain BM25-OR arms; the
    trailing prefix is ONE term-like arm whose tf per doc is the
    column-weighted count of tokens starting with the prefix and whose
    df is the count of docs containing any such token."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in base_terms) + "]"
    pw = f"starts_with(term, '{prefix}')"
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld,
           count(*) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END) AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
ptf AS (
  SELECT doc_id, sum(w) AS tfw FROM (
    SELECT doc_id, fld,
           count(*) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END) AS w
    FROM tokf WHERE {pw} GROUP BY doc_id, fld
  ) GROUP BY doc_id
),
pdf AS (SELECT count(DISTINCT doc_id) AS df FROM tokf WHERE {pw}),
contrib AS (
  SELECT tf.doc_id,
         greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  UNION ALL
  SELECT p.doc_id,
         greatest(ln((stats.n - pdf.df + 0.5) / (pdf.df + 0.5)), 0.000001)
              * (p.tfw * ({K1} + 1)) /
                (p.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS c
  FROM ptf p JOIN dl USING (doc_id), stats, pdf
)
SELECT doc_id::BIGINT AS doc_id, round(abs(sum(c)), {round_to}) AS score
FROM contrib GROUP BY doc_id
ORDER BY -sum(c) ASC, doc_id ASC LIMIT {k}"""


def wildcard_topk_sql(pattern: str, *, corpus: str = DOCUMENTS_CORPUS,
                      max_terms: int = 16, k: int = 20,
                      round_to: int = 5, language: str = "en") -> str:
    """Ground truth for ``SearchEngine.search_wildcard``: expand the glob
    against the dictionary — matching terms the query compiler keeps
    (length 2..50, not a stopword), ranked by df DESC, term ASC with df
    = count of (field, doc) pairs (the dictionary's summed per-field
    df, same definition ``autocomplete_sql`` asserts), capped at
    ``max_terms`` — then score the survivors with the standard BM25-OR
    CTEs."""
    import re as _re

    from yetisearch_ray.analysis.stopwords import stopwords_for

    rx = "^" + "".join(".*" if c == "*" else "." if c == "?"
                       else _re.escape(c) for c in pattern) + "$"
    sw = ", ".join(f"'{w}'" for w in sorted(stopwords_for(language)))
    return f"""{_base_ctes(corpus)},
qterms AS (
  SELECT term FROM (
    SELECT term,
           count(DISTINCT struct_pack(f := fld, d := doc_id)) AS wdf
    FROM tokf
    WHERE regexp_matches(term, '{rx}')
      AND len(term) BETWEEN 2 AND 50
      AND term NOT IN ({sw})
    GROUP BY term
    ORDER BY wdf DESC, term ASC LIMIT {max_terms})
),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld, count(*) * 1.0 AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id, stats.n, stats.avgdl
)
SELECT s.doc_id::BIGINT AS doc_id, round(abs(s.s), {round_to}) AS score
FROM scored s ORDER BY -s.s ASC, s.doc_id ASC LIMIT {k}"""


def slop_phrase_sql(t1: str, t2: str, *, slop: int,
                    corpus: str = DOCUMENTS_CORPUS, k: int = 20,
                    round_to: int = 5) -> str:
    """Ground truth for the 2-term sloppy phrase (ordered proximity) over
    the body field: tf = number of anchor positions i with ``arr[i]=t1``
    and some ``arr[j]=t2`` at ``j in (i, i+slop+1]`` — for two terms the
    exists-window count equals the engine's greedy-chain count.  Scoring
    identical to ``phrase_topk_sql`` (phrase-df BM25)."""
    arr = "regexp_extract_all(lower(strip_accents(f1)), '[a-z0-9]+')"
    return f"""{_base_ctes(corpus)},
phr AS (
  SELECT doc_id,
         len(list_filter(range(1, len(arr) + 1), i ->
             arr[i] = '{t1}' AND len(list_filter(
                 range(i + 1, least(i + {slop} + 1, len(arr)) + 1),
                 j -> arr[j] = '{t2}')) > 0)) AS tf
  FROM (SELECT doc_id, {arr} AS arr FROM corpus)
),
pstats AS (SELECT count(*) AS df FROM phr WHERE tf > 0),
scored AS (
  SELECT p.doc_id,
         greatest(ln((stats.n - pstats.df + 0.5) / (pstats.df + 0.5)), 0.000001)
         * (p.tf * ({K1} + 1)) /
           (p.tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS s
  FROM phr p JOIN dl USING (doc_id), stats, pstats
  WHERE p.tf > 0
)
SELECT doc_id::BIGINT AS doc_id, round(abs(s), {round_to}) AS score
FROM scored ORDER BY -s ASC, doc_id ASC LIMIT {k}"""


def smart_topk_sql(terms, *, corpus: str = DOCUMENTS_CORPUS, w0: float = 1.0,
                   w1: float = 1.0, k: int = 20, round_to: int = 5) -> str:
    """Smart-mode oracle for a TWO-term query — replicates the full FTS5
    expression ``"t1 t2" OR NEAR(t1 t2, 10) OR t1 OR t2`` incl. the
    NEAR arm's window-filtered tf (rank+score identity with real FTS5 is
    pinned by tests/test_fts5_goldens.py; window rule: |p1-p2| <= 11
    within one column).  Each arm scores idf(arm) * bm25-saturation of
    its column-weighted tf; NEAR arms reuse the standalone term dfs."""
    assert len(terms) == 2, "smart oracle covers the 2-term shape"
    t1, t2 = terms
    arr0 = "regexp_extract_all(lower(strip_accents(f0)), '[a-z0-9]+')"
    arr1 = "regexp_extract_all(lower(strip_accents(f1)), '[a-z0-9]+')"
    return f"""{_base_ctes(corpus)},
posf AS (
  SELECT doc_id, 0 AS fld, {arr0} AS arr FROM corpus
  UNION ALL
  SELECT doc_id, 1 AS fld, {arr1} AS arr FROM corpus
),
pp AS (
  SELECT doc_id, fld,
         list_filter(range(1, len(arr) + 1), i -> arr[i] = '{t1}') AS p1,
         list_filter(range(1, len(arr) + 1), i -> arr[i] = '{t2}') AS p2,
         len(list_filter(range(1, len(arr)),
             i -> arr[i] = '{t1}' AND arr[i+1] = '{t2}')) AS adj
  FROM posf
),
wf AS (
  SELECT doc_id,
         sum(adj * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END)) AS phr_tf,
         sum(len(list_filter(p1, p -> len(list_filter(p2,
             q -> abs(p - q) <= 11)) > 0))
             * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END)) AS ntf1,
         sum(len(list_filter(p2, p -> len(list_filter(p1,
             q -> abs(p - q) <= 11)) > 0))
             * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END)) AS ntf2,
         sum(len(p1) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END)) AS tf1,
         sum(len(p2) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END)) AS tf2
  FROM pp GROUP BY doc_id
),
dfs AS (
  SELECT (SELECT count(*) FROM wf WHERE tf1 > 0) AS df1,
         (SELECT count(*) FROM wf WHERE tf2 > 0) AS df2,
         (SELECT count(*) FROM wf WHERE phr_tf > 0) AS phr_df
),
scored AS (
  SELECT w.doc_id,
    (CASE WHEN w.tf1 > 0 THEN
       greatest(ln((stats.n - dfs.df1 + 0.5) / (dfs.df1 + 0.5)), 0.000001)
       * (w.tf1 * ({K1}+1)) / (w.tf1 + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
     ELSE 0 END) +
    (CASE WHEN w.tf2 > 0 THEN
       greatest(ln((stats.n - dfs.df2 + 0.5) / (dfs.df2 + 0.5)), 0.000001)
       * (w.tf2 * ({K1}+1)) / (w.tf2 + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
     ELSE 0 END) +
    (CASE WHEN w.ntf1 > 0 THEN
       greatest(ln((stats.n - dfs.df1 + 0.5) / (dfs.df1 + 0.5)), 0.000001)
       * (w.ntf1 * ({K1}+1)) / (w.ntf1 + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
     ELSE 0 END) +
    (CASE WHEN w.ntf2 > 0 THEN
       greatest(ln((stats.n - dfs.df2 + 0.5) / (dfs.df2 + 0.5)), 0.000001)
       * (w.ntf2 * ({K1}+1)) / (w.ntf2 + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
     ELSE 0 END) +
    (CASE WHEN w.phr_tf > 0 THEN
       greatest(ln((stats.n - dfs.phr_df + 0.5) / (dfs.phr_df + 0.5)), 0.000001)
       * (w.phr_tf * ({K1}+1)) / (w.phr_tf + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
     ELSE 0 END) AS s
  FROM wf w JOIN dl USING (doc_id), stats, dfs
  WHERE w.tf1 > 0 OR w.tf2 > 0
)
SELECT doc_id::BIGINT AS doc_id, round(abs(s), {round_to}) AS score
FROM scored ORDER BY -s ASC, doc_id ASC LIMIT {k}"""


def two_pass_sql(terms, *, corpus: str = DOCUMENTS_CORPUS, w0: float = 5.0,
                 w1: float = 1.0, primary_boost: float = 1.5, k: int = 10,
                 round_to: int = 5) -> str:
    """Two-pass precision mode (reference SearchEngine.php:139-203):
    pass 1 = smart search with PRIMARY field weights doubled (limit 100,
    scores × boost), pass 2 = smart with the base weights; merge
    primary-first, dedup by doc_id, sort, slice.  Each pass reuses the
    full smart expression oracle (incl. the NEAR arm)."""
    p1 = smart_topk_sql(terms, corpus=corpus, w0=w0 * 2.0, w1=w1, k=100,
                        round_to=9)
    p2 = smart_topk_sql(terms, corpus=corpus, w0=w0, w1=w1, k=100,
                        round_to=9)
    return f"""
WITH p1 AS (SELECT doc_id, score * {primary_boost} AS score, 0 AS pass
            FROM ({p1}) t1),
p2 AS (SELECT doc_id, score, 1 AS pass FROM ({p2}) t2),
merged AS (
  SELECT doc_id, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY pass ASC) AS rn
  FROM (SELECT * FROM p1 UNION ALL SELECT * FROM p2)
)
SELECT doc_id::BIGINT AS doc_id, round(score, {round_to}) AS score
FROM merged WHERE rn = 1
ORDER BY -score ASC, doc_id ASC LIMIT {k}"""


def actor_pool_sql(queries, *, corpus: str = DOCUMENTS_CORPUS,
                   k: int = 5) -> str:
    """Actor-pool serving oracle: per query id, the 1-based result rank
    of each top-k doc under the same smart-mode scoring (single-term
    queries → the plain BM25 oracle ranking)."""
    parts = []
    for qid, term in enumerate(queries):
        inner = bm25_topk_sql([term], corpus=corpus, k=k, round_to=9)
        parts.append(f"""
SELECT {qid} AS qid, doc_id,
       row_number() OVER (ORDER BY -score ASC, doc_id ASC)::BIGINT
         AS result_rank
FROM ({inner}) q{qid}""")
    return " UNION ALL ".join(parts)


def match_count_sql(term: str, *, corpus: str = DOCUMENTS_CORPUS) -> str:
    return f"""{_base_ctes(corpus)}
SELECT count(DISTINCT doc_id)::BIGINT AS n FROM tokf WHERE term = '{term}'"""


def term_df_sql(*, corpus: str = DOCUMENTS_CORPUS, top: int = 100) -> str:
    """Per-(term, field) document frequencies — the dictionary head."""
    return f"""{_base_ctes(corpus)}
SELECT term, fld::TINYINT AS field, count(DISTINCT doc_id)::BIGINT AS df
FROM tokf GROUP BY term, fld
ORDER BY df DESC, term ASC, fld ASC LIMIT {top}"""


def corpus_stats_sql(*, corpus: str = DOCUMENTS_CORPUS, round_to: int = 6) -> str:
    return f"""{_base_ctes(corpus)}
SELECT stats.n::BIGINT AS n_docs,
       (SELECT count(*) FROM tokf)::BIGINT AS total_dl,
       round(stats.avgdl, {round_to}) AS avgdl
FROM stats"""


def chunk_stats_sql(chunk_size: int = 200, overlap: int = 20) -> str:
    """Recursive-CTE replica of ``stages.chunker.chunk_text``'s greedy
    sentence packing (sentence split at whitespace following [.!?],
    overlap-tail carry, hard split of oversize accumulations) — per-doc
    (parent_id, n_rows, n_chunks).  Verified identical to the Python
    chunker on every sf0.01 document."""
    cs, ov = chunk_size, overlap
    step = cs - ov
    return f"""
WITH RECURSIVE
docs AS (SELECT doc_id, text FROM documents),
small AS (SELECT doc_id FROM docs WHERE len(text) <= {cs}),
big AS (SELECT doc_id, text FROM docs WHERE len(text) > {cs}),
sents AS (
  SELECT doc_id, arr[i] AS sent, i AS si
  FROM (SELECT doc_id,
               list_filter(string_split(regexp_replace(text,
                   '([.!?])[\\t\\n\\f\\r\\x0B ]+', '\\1' || chr(1), 'g'),
                   chr(1)),
                   s -> s <> '') AS arr
        FROM big),
       unnest(range(1, len(arr) + 1)) AS u(i)
),
step AS (
  SELECT doc_id, 0 AS i, '' AS cur, 0 AS nch FROM big
  UNION ALL
  SELECT s.doc_id, st.i + 1,
    (CASE WHEN mk.k > 0 THEN substr(mk.m, mk.k * {step} + 1) ELSE mk.m END),
    st.nch + mk.closed + mk.k
  FROM step st
  JOIN sents s ON s.doc_id = st.doc_id AND s.si = st.i + 1,
  LATERAL (
    SELECT m, closed,
           CASE WHEN len(m) > {cs}
                THEN ((len(m) - {cs} - 1) // {step}) + 1 ELSE 0 END AS k
    FROM (
      SELECT
        CASE WHEN st.cur <> '' AND len(st.cur) + 1 + len(s.sent) > {cs} THEN
          CASE WHEN tl.tail <> '' THEN trim(tl.tail || ' ' || s.sent)
               ELSE s.sent END
        ELSE
          CASE WHEN st.cur = '' THEN s.sent
               ELSE trim(st.cur || ' ' || s.sent) END
        END AS m,
        CASE WHEN st.cur <> '' AND len(st.cur) + 1 + len(s.sent) > {cs}
             THEN 1 ELSE 0 END AS closed
      FROM (
        SELECT CASE WHEN strpos(t0.t, ' ') > 0
                    THEN substr(t0.t, strpos(t0.t, ' ') + 1)
                    ELSE t0.t END AS tail
        FROM (SELECT right(st.cur, {ov}) AS t) t0(t)
      ) tl
    )
  ) mk
),
fin AS (
  SELECT st.doc_id,
         st.nch + (CASE WHEN st.cur <> '' THEN 1 ELSE 0 END) AS nchunks
  FROM step st
  JOIN (SELECT doc_id, max(i) AS mi FROM step GROUP BY doc_id) mx
    ON mx.doc_id = st.doc_id AND mx.mi = st.i
)
SELECT doc_id::BIGINT AS parent_id, 1::BIGINT AS n_rows,
       0::BIGINT AS n_chunks FROM small
UNION ALL
SELECT doc_id::BIGINT, (1 + nchunks)::BIGINT, nchunks::BIGINT FROM fin
ORDER BY parent_id"""


def code_sha256_sql(parquet_glob: str) -> str:
    return (
        'SELECT row_number() OVER (ORDER BY repo, path, "commit") - 1 AS doc_id, '
        "sha256(content) AS sha256 "
        f"FROM read_parquet('{parquet_glob}')"
    )


# ---------------------------------------------------------------- dedup

DEDUP_EXACT_SQL = """
SELECT md5(text) AS text_hash, min(doc_id)::BIGINT AS doc_id
FROM documents GROUP BY md5(text)"""

DEDUP_EXACT_ROWS_SQL = """
SELECT doc_id, text, lang, source, n_chars FROM (
  SELECT *, min(doc_id) OVER (PARTITION BY md5(text)) AS _surv
  FROM documents
) WHERE doc_id = _surv"""


DEDUP_INCREMENTAL_SQL = """
WITH thr AS (SELECT (max(doc_id) + 1) // 2 AS t FROM documents),
base AS (SELECT DISTINCT md5(text) AS h FROM documents, thr
         WHERE doc_id < thr.t),
newb AS (SELECT *, md5(text) AS h FROM documents, thr WHERE doc_id >= thr.t)
SELECT doc_id, text, lang, source, n_chars FROM (
  SELECT n.*, min(n.doc_id) OVER (PARTITION BY n.h) AS _surv
  FROM newb n WHERE n.h NOT IN (SELECT h FROM base)
) WHERE doc_id = _surv"""


def dedup_paragraphs_sql(min_len: int = 20) -> str:
    """Ground truth for ``dedup.dedup_paragraphs``: split each doc on
    newline, elect the first corpus-wide occurrence (min packed
    ``doc_id * 2^20 + pidx``) of every paragraph of length >=
    ``min_len``, keep shorter paragraphs unconditionally, rebuild docs
    from survivors in order; fully-deduplicated docs disappear."""
    return f"""
WITH t AS (
  SELECT doc_id, string_split(text, chr(10)) AS paras FROM documents
),
l AS (
  SELECT doc_id, unnest(paras) AS para,
         unnest(range(0, len(paras))) AS pidx, len(paras) AS n_paras
  FROM t
),
win AS (
  SELECT para, min(doc_id * 1048576 + pidx) AS w
  FROM l WHERE length(para) >= {min_len} GROUP BY para
),
keep AS (
  SELECT l.doc_id, l.pidx, l.para, l.n_paras
  FROM l LEFT JOIN win ON win.para = l.para
  WHERE length(l.para) < {min_len} OR l.doc_id * 1048576 + l.pidx = win.w
)
SELECT doc_id::BIGINT AS doc_id,
       string_agg(para, chr(10) ORDER BY pidx) AS text,
       count(*)::BIGINT AS n_kept,
       (any_value(n_paras) - count(*))::BIGINT AS n_removed
FROM keep GROUP BY doc_id ORDER BY doc_id"""


def simhash_pairs_sql(max_hamming: int = 3) -> str:
    """Brute-force SimHash near-pair oracle.

    Replicates ``dedup.simhash_signatures`` exactly: whitespace tokens,
    ``md5_number_lower`` per token (= Python md5 digest[8:16]
    little-endian), tf-weighted sign-sum per bit, bit set iff sum > 0.
    The Ray operator's 4x16-bit banding has 100% recall for Hamming <=3
    (3 differing bits can touch at most 3 of 4 blocks, so one block
    always matches), so the banded pipeline must equal this exhaustive
    O(N^2) pair scan."""
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(list_filter(string_split_regex(text, '\\s+'),
                                    x -> x <> '')) AS tok
  FROM documents
),
tc AS (SELECT doc_id, tok, count(*)::BIGINT AS c FROM toks GROUP BY doc_id, tok),
bits AS (
  SELECT doc_id, r.i,
         SUM(CASE WHEN (md5_number_lower(tok) >> r.i) & 1 = 1
                  THEN c ELSE -c END) AS s
  FROM tc CROSS JOIN range(64) r(i)
  GROUP BY doc_id, r.i
),
sig0 AS (
  SELECT doc_id,
         SUM(CASE WHEN s > 0 THEN (1::UBIGINT << i) ELSE 0::UBIGINT END) AS sh
  FROM bits GROUP BY doc_id
),
sig AS (  -- docs with zero tokens never reach bits; their signature is 0
  SELECT d.doc_id, COALESCE(s0.sh, 0::UBIGINT) AS sh
  FROM documents d LEFT JOIN sig0 s0 USING (doc_id)
)
SELECT a.doc_id::BIGINT AS id_a, b.doc_id::BIGINT AS id_b,
       bit_count(xor(a.sh, b.sh))::INTEGER AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sh, b.sh)) <= {max_hamming}
ORDER BY id_a, id_b"""


# Exact all-pairs shingle Jaccard — the ground truth for
# dedup.minhash_dedup_pairs.  Valid as that entry's oracle because the
# LSH stage is deterministic (seeded permutations) and, on this corpus,
# has provably-certain recall: every true pair at sf0.01 has J >= 0.95,
# where the 16-band/4-row s-curve detection probability is
# 1-(1-0.95^4)^16 ~ 1 - 2e-13.  The verify stage then computes the same
# exact string-shingle Jaccard as this SQL (both sides RE2 \s tokens,
# 3-gram shingles, round to 6).  O(N^2) in SQL — oracle-scale only.
def _minhash_pairs_ctes(src: str = "documents") -> str:
    """Shared CTE block computing exact all-pairs shingle Jaccard over
    ``src`` — reused by the pairs, clusters, and composed-curation
    oracles."""
    return rf"""toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM {src}
),
sh AS (
  SELECT doc_id, list_distinct([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                                for i in range(1, len(t) - 1)]) AS shingles
  FROM toks
),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         len(list_intersect(a.shingles, b.shingles))::DOUBLE /
         NULLIF(len(a.shingles) + len(b.shingles)
                - len(list_intersect(a.shingles, b.shingles)), 0) AS j
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
)"""


_MINHASH_PAIRS_CTES = _minhash_pairs_ctes()

MINHASH_PAIRS_SQL = rf"""
WITH {_MINHASH_PAIRS_CTES}
SELECT id_a::BIGINT AS id_a, id_b::BIGINT AS id_b,
       round(j, 6) AS jaccard
FROM pairs WHERE j >= 0.5 ORDER BY id_a, id_b"""

# Connected components over the same exact-Jaccard pair graph:
# transitive closure via a recursive CTE (UNION dedupes the frontier),
# component label = min reachable id — the ground truth for
# dedup.connected_components / minhash_dedup_clusters.  O(N^2·paths) in
# SQL — oracle-scale only.
MINHASH_CLUSTERS_SQL = rf"""
WITH RECURSIVE {_MINHASH_PAIRS_CTES},
pr AS (SELECT id_a, id_b FROM pairs WHERE j >= 0.5),
edges AS (SELECT id_a AS a, id_b AS b FROM pr
          UNION ALL SELECT id_b, id_a FROM pr),
reach(id, r) AS (
  SELECT a, a FROM edges
  UNION
  SELECT re.id, e.b FROM reach re JOIN edges e ON re.r = e.a
)
SELECT id::BIGINT AS doc_id, MIN(r)::BIGINT AS cluster_id
FROM reach GROUP BY id ORDER BY doc_id"""


def decontaminate_sql(benchmark_doc_ids=(0, 1)) -> str:
    """Ground truth for dedup.ngram_decontaminate with the benchmark set
    taken from the given documents: distinct-3-gram intersection counts
    against the union of the benchmark docs' shingles (string-exact —
    the operator's 64-bit hash path must agree or a collision exists)."""
    ids = ", ".join(str(int(i)) for i in benchmark_doc_ids)
    return rf"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
sh AS (
  SELECT doc_id, list_distinct([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                                for i in range(1, len(t) - 1)]) AS shingles
  FROM toks
),
bench AS (
  SELECT list_distinct(flatten(list(shingles))) AS bs
  FROM sh WHERE doc_id IN ({ids})
)
SELECT s.doc_id::BIGINT AS doc_id,
       len(list_intersect(s.shingles, b.bs))::BIGINT AS n_hits,
       (len(list_intersect(s.shingles, b.bs)) > 0)::BIGINT AS contaminated
FROM sh s, bench b
ORDER BY doc_id"""


def jaccard_topk_sql(query_doc_id: int = 0, n: int = 3, k: int = 10,
                     round_to: int = 6) -> str:
    shingle = (
        "list_distinct(list_transform(range(1, len(arr) - {m}), "
        "i -> arr[i] || ' ' || " + " || ' ' || ".join(
            f"arr[i+{j}]" for j in range(1, n)
        ) + "))"
    ).format(m=n - 2)
    return f"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS arr FROM documents
),
sh AS (SELECT doc_id, {shingle} AS s FROM toks),
q AS (SELECT s FROM sh WHERE doc_id = {query_doc_id})
SELECT sh.doc_id::BIGINT AS doc_id,
       round( len(list_intersect(sh.s, q.s))::DOUBLE /
              NULLIF(len(list_distinct(list_concat(sh.s, q.s))), 0), {round_to}
       ) AS jaccard
FROM sh, q
ORDER BY jaccard DESC, sh.doc_id ASC LIMIT {k}"""


# ---------------------------------------------------------------- textstats

TOKENS_EXPR = "list_filter(string_split_regex(text, '\\s+'), x -> x <> '')"

# Exact top-100 corpus tokens by total frequency — ground truth for
# sketches.heavy_hitters (two-pass Misra-Gries; the operator is exact,
# so the oracle is the plain full GROUP BY it avoids shuffling).
HEAVY_HITTERS_SQL = f"""
WITH tok AS (SELECT unnest({TOKENS_EXPR}) AS term FROM documents)
SELECT term, count(*)::BIGINT AS cnt
FROM tok GROUP BY term
ORDER BY cnt DESC, term ASC LIMIT 100"""

# n_subwords uses the same ASCII-restricted BPE-ish pretokenizer pattern
# as pipelines.textstats.BPE_ISH_PATTERN (RE2-compatible)
TOKEN_COUNTS_SQL = f"""
SELECT doc_id::BIGINT AS doc_id, len({TOKENS_EXPR})::BIGINT AS n_tokens,
       len(regexp_extract_all(text,
           '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+'))::BIGINT
         AS n_subwords
FROM documents"""


VOCAB_STATS_SQL = f"""
WITH uni AS (
  SELECT u.t AS term, count(*) AS n
  FROM (SELECT {TOKENS_EXPR} AS toks FROM documents), unnest(toks) AS u(t)
  GROUP BY u.t
)
SELECT sum(n)::BIGINT AS n_tokens, count(*)::BIGINT AS n_terms,
       sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)::BIGINT AS n_hapax,
       round(count(*) / sum(n)::DOUBLE, 6) AS type_token_ratio
FROM uni"""


def collocations_sql(k: int = 20, min_count: int = 5,
                     round_to: int = 6) -> str:
    """Ground truth for ``textstats.collocations``: adjacent-bigram PMI
    over RE2-whitespace tokens, pmi = ln((n_ab/N_bi) /
    ((n_a/N_tok)*(n_b/N_tok))), ties (pmi desc, a, b)."""
    return f"""
WITH t AS MATERIALIZED (
  SELECT doc_id, {TOKENS_EXPR} AS toks FROM documents
),
uni AS MATERIALIZED (
  SELECT u.t AS term, count(*) AS n FROM t, unnest(toks) AS u(t) GROUP BY u.t
),
ntok AS (SELECT sum(n)::DOUBLE AS n FROM uni),
bi AS MATERIALIZED (
  SELECT a, b, count(*) AS n_ab FROM (
    SELECT toks[r.i] AS a, toks[r.i + 1] AS b
    FROM t, unnest(range(1, len(toks))) AS r(i)
  ) GROUP BY a, b
),
nbi AS (SELECT sum(n_ab)::DOUBLE AS n FROM bi)
SELECT bi.a AS a, bi.b AS b, bi.n_ab::BIGINT AS n_ab,
       round(ln((bi.n_ab / nbi.n) /
                ((ua.n / ntok.n) * (ub.n / ntok.n))), {round_to}) AS pmi
FROM bi JOIN uni ua ON ua.term = bi.a JOIN uni ub ON ub.term = bi.b,
     nbi, ntok
WHERE bi.n_ab >= {min_count}
ORDER BY pmi DESC, a ASC, b ASC LIMIT {k}"""


REPETITION_SQL = rf"""
WITH t AS (
  SELECT doc_id, string_split(text, chr(10)) AS lines,
         {TOKENS_EXPR} AS toks
  FROM documents
),
g AS (
  SELECT doc_id,
         [toks[i] || chr(31) || toks[i+1] for i in range(1, len(toks))] AS grams
  FROM t
)
SELECT t.doc_id::BIGINT AS doc_id,
       round(CASE WHEN len(t.lines) = 0 THEN 0.0
             ELSE (len(t.lines) - len(list_distinct(t.lines)))::DOUBLE
                  / len(t.lines) END, 6) AS dup_line_frac,
       round(CASE WHEN len(g.grams) = 0 THEN 0.0
             ELSE (len(g.grams) - len(list_distinct(g.grams)))::DOUBLE
                  / len(g.grams) END, 6) AS dup_ngram_frac
FROM t JOIN g USING (doc_id)"""


def quality_sql(stopwords) -> str:
    sw = ", ".join("'" + w.replace("'", "''") + "'" for w in sorted(stopwords))
    return f"""
WITH t AS (
  SELECT doc_id, text, {TOKENS_EXPR} AS toks FROM documents
),
f AS (
  SELECT doc_id,
         len(toks)::BIGINT AS n_tokens,
         length(text)::BIGINT AS n_chars,
         CASE WHEN len(toks) = 0 THEN 0.0
              ELSE round(len(list_filter(toks, x -> x IN ({sw})))::DOUBLE / len(toks), 6)
         END AS stopword_ratio,
         CASE WHEN len(toks) = 0 THEN 0.0
              ELSE round(list_sum(list_transform(toks, x -> length(x)))::DOUBLE / len(toks), 6)
         END AS mean_token_len
  FROM t
)
SELECT doc_id, n_tokens, n_chars, stopword_ratio, mean_token_len,
       round( least(1.0, n_tokens / 100.0) * (1.0 - stopword_ratio), 6) AS quality
FROM f"""


def quality_distill_bound_sql(stopwords, threshold: float = 0.25) -> str:
    """Bound oracle for classifier.quality_classifier's summary row
    (the HLL_BOUND_SQL idiom): the logreg probabilities are not
    SQL-reproducible, but the HEURISTIC label counts are — and
    "distillation agreement >= the pytest bar" is a deterministic
    checkable claim (fixed zero init + deterministic data order make
    the fit a pure function of the corpus).  The label mirrors
    classifier.default_quality_labels exactly (UNrounded stopword
    ratio, unlike quality_sql's display rounding); the bar mirrors
    tests/test_classifier.py: min(0.95, majority + 0.05)."""
    sw = ", ".join("'" + w.replace("'", "''") + "'"
                   for w in sorted(stopwords))
    return f"""
WITH t AS (
  SELECT {TOKENS_EXPR} AS toks FROM documents
),
l AS (
  SELECT CASE WHEN least(1.0, len(toks) / 100.0) *
                   (1.0 - CASE WHEN len(toks) = 0 THEN 0.0
                          ELSE len(list_filter(toks, x -> x IN ({sw})))::DOUBLE
                               / len(toks) END)
              >= {threshold!r} THEN 1 ELSE 0 END AS lab
  FROM t
)
SELECT count(*)::BIGINT AS n_docs,
       sum(lab)::BIGINT AS n_label_pos,
       round(least(0.95,
                   greatest(sum(lab), count(*) - sum(lab))::DOUBLE
                     / count(*) + 0.05), 6) AS bar,
       1::BIGINT AS meets_bar
FROM l"""


def lang_id_sql(markers: dict, order) -> str:
    cnt = {
        lang: f"len(list_filter(toks, x -> x IN ({', '.join(repr(w) for w in ws)})))"
        for lang, ws in markers.items()
    }
    # strictly-greater-than-running-best with fixed order = first max wins
    case = "CASE "
    prev = []
    for lang in order:
        conds = [f"{cnt[lang]} > 0"]
        for p in prev:
            conds.append(f"{cnt[lang]} > {cnt[p]}")
        case += f"WHEN {' AND '.join(conds)} THEN '{lang}' "
        prev.append(lang)
    case += "ELSE 'und' END"
    # NOTE: the CASE above picks the FIRST lang in order that strictly
    # beats every earlier lang and has >0 hits — identical to the Python
    # loop in textstats.language_id
    return f"""
WITH t AS (SELECT doc_id, {TOKENS_EXPR} AS toks FROM documents)
SELECT doc_id::BIGINT AS doc_id, {case} AS pred_lang FROM t"""


# Ground truth for curation.pack_token_bins (sequence packing): bin =
# floor(prefix-sum-of-tokens-before-this-doc / budget), docs ordered by id
PACK_BINS_SQL = f"""
WITH t AS (
  SELECT doc_id, len({TOKENS_EXPR})::BIGINT AS n FROM documents
)
SELECT doc_id::BIGINT AS doc_id,
       (COALESCE(sum(n) OVER (ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) // 2048)::BIGINT AS bin_id
FROM t ORDER BY doc_id"""


# Ground truth for curation.quota_per_group (domain caps)
QUOTA_SQL = """
SELECT doc_id::BIGINT AS doc_id, source
FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY doc_id) <= 5
ORDER BY doc_id"""


FINGERPRINT_SQL = f"""
SELECT doc_id::BIGINT AS doc_id,
       md5(array_to_string({TOKENS_EXPR}, ' ')) AS fingerprint
FROM documents"""


# ---------------------------------------------------------------- ann

def ann_topk_sql(query_vec_id: int = 1, k: int = 10, round_to: int = 6) -> str:
    return f"""
WITH q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings WHERE vec_id = {query_vec_id})
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), {round_to}) AS cosine
FROM embeddings e, q
ORDER BY cosine DESC, vec_id ASC LIMIT {k}"""


def ann_multi_query_sql(query_vec_ids, k: int = 10, round_to: int = 6) -> str:
    """Multi-query brute-force top-k: per query id, the k best cosines."""
    parts = []
    for qid, vid in enumerate(query_vec_ids):
        parts.append(f"""
SELECT {qid} AS qid, vec_id, cosine FROM (
  WITH q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings
             WHERE vec_id = {vid})
  SELECT e.vec_id::BIGINT AS vec_id,
         round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv),
               {round_to}) AS cosine
  FROM embeddings e, q
  ORDER BY cosine DESC, vec_id ASC LIMIT {k}
) q{qid}""")
    return " UNION ALL ".join(parts)


def lsh_topk_sql(query_vec_id: int = 1, k: int = 10, n_planes: int = 12,
                 dim: int = 64, seed: int = 42, round_to: int = 6) -> str:
    """Ground truth for ann.lsh_bucket_topk: regenerate the SAME seeded
    hyperplanes (np.random.default_rng(seed).standard_normal) and inline
    them as DOUBLE[] literals, replicate the sign-agreement filter
    (agree >= n_planes-2, the multi-probe-ish bucket) in SQL, then rank
    the surviving vectors by exact cosine.  Valid as an oracle because
    every stage of the operator is deterministic; float64 repr()
    round-trips exactly, so both sides hash identical planes."""
    import numpy as np

    planes = np.random.default_rng(seed).standard_normal((n_planes, dim))
    rows = ", ".join(
        "(" + str(pid) + ", [" + ", ".join(repr(float(x)) for x in pv)
        + "]::DOUBLE[])"
        for pid, pv in enumerate(planes)
    )
    return f"""
WITH q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings
           WHERE vec_id = {query_vec_id}),
planes(pid, pv) AS (VALUES {rows}),
agree AS (
  SELECT e.vec_id, count(*) FILTER (
           (list_inner_product(e.embedding::DOUBLE[], p.pv) > 0)
           = (list_inner_product(q.qv, p.pv) > 0)) AS n_agree
  FROM embeddings e, planes p, q GROUP BY e.vec_id
)
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv),
             {round_to}) AS cosine
FROM embeddings e JOIN agree USING (vec_id), q
WHERE agree.n_agree >= {n_planes - 2}
ORDER BY cosine DESC, vec_id ASC LIMIT {k}"""


def near_dup_pairs_sql(threshold: float = 0.95, round_to: int = 6) -> str:
    return f"""
SELECT a.vec_id::BIGINT AS id_a, b.vec_id::BIGINT AS id_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), {round_to}) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= {threshold}"""


# ---------------------------------------------------------------- relational

PRICING_SUMMARY_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 4) AS sum_qty,
       round(sum(l_extendedprice), 4) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
       round(avg(l_quantity), 4) AS avg_qty,
       count(*)::BIGINT AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus"""

TOP_CUSTOMERS_SQL = """
SELECT o.o_custkey::BIGINT AS o_custkey, c.c_name,
       round(sum(o.o_totalprice), 4) AS total_spend,
       count(*)::BIGINT AS n_orders
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY o.o_custkey, c.c_name
ORDER BY total_spend DESC, o_custkey ASC LIMIT 10"""

FACET_COUNTS_SQL = """
SELECT event_type, count(*)::BIGINT AS count
FROM events GROUP BY event_type
ORDER BY count DESC, event_type ASC LIMIT 50"""

FILTER_MATRIX_SQL = """
SELECT * FROM (
  SELECT 'eq' AS op, count(*)::BIGINT AS n FROM orders WHERE o_orderstatus = 'F'
  UNION ALL SELECT 'neq', count(*) FROM orders WHERE o_orderstatus <> 'F'
  UNION ALL SELECT 'gt', count(*) FROM orders WHERE o_totalprice > 100000.0
  UNION ALL SELECT 'lte', count(*) FROM orders WHERE o_totalprice <= 50000.0
  UNION ALL SELECT 'between', count(*) FROM orders WHERE o_totalprice BETWEEN 50000.0 AND 150000.0
  UNION ALL SELECT 'in', count(*) FROM orders WHERE o_orderpriority IN ('1-URGENT', '2-HIGH')
  UNION ALL SELECT 'contains', count(*) FROM orders WHERE o_orderpriority LIKE '%HIGH%'
  UNION ALL SELECT 'like_prefix', count(*) FROM orders WHERE o_orderpriority LIKE '1-%'
) ORDER BY op"""

# Ground truth for relational.order_revenue_topk (big-big hash join)
ORDER_REVENUE_SQL = """
SELECT l.l_orderkey::BIGINT AS l_orderkey, o.o_orderpriority,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 4) AS revenue
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY l.l_orderkey, o.o_orderpriority
ORDER BY revenue DESC, l_orderkey ASC LIMIT 10"""


MULTI_UNION_SQL = """
SELECT doc_id::BIGINT AS doc_id, n_chars::DOUBLE AS score,
       CASE WHEN CAST(substr(source, 4) AS INTEGER) % 2 = 0
            THEN 'idx_even' ELSE 'idx_odd' END AS _index
FROM documents
ORDER BY score DESC, doc_id ASC LIMIT 10"""


def facet_lang_sql(term: str, *, corpus: str = DOCUMENTS_CORPUS,
                   candidates: int = 1000, top_n: int = 10) -> str:
    """Facet counts over the top-``candidates`` BM25 match set (the
    reference's top-1000 facet quirk)."""
    inner = bm25_topk_sql([term], corpus=corpus, k=candidates)
    return f"""
WITH hits AS ({inner})
SELECT d.lang AS value, count(*)::BIGINT AS count
FROM hits h JOIN documents d ON d.doc_id = h.doc_id
GROUP BY d.lang
ORDER BY count DESC, value ASC LIMIT {top_n}"""


def term_vectors_sql(doc_id: int, *, corpus: str = DOCUMENTS_CORPUS,
                     f0_name: str = "source", f1_name: str = "text") -> str:
    """Ground truth for ``SearchEngine.term_vectors``: per-field term
    counts of one doc from the tokf CTE, df = union-of-fields distinct
    doc count (BM25's idf definition)."""
    return f"""{_base_ctes(corpus)},
tv AS (
  SELECT fld, term, count(*) AS tf FROM tokf
  WHERE doc_id = {doc_id} GROUP BY fld, term
),
tdf AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM tv) GROUP BY term
)
SELECT CASE tv.fld WHEN 0 THEN '{f0_name}' ELSE '{f1_name}' END AS field,
       tv.term AS term, tv.tf::BIGINT AS tf, tdf.df::BIGINT AS df
FROM tv JOIN tdf USING (term)
ORDER BY field, term"""


def explain_score_sql(terms, doc_id: int, *, corpus: str = DOCUMENTS_CORPUS,
                      w0: float = 1.0, w1: float = 1.0,
                      round_to: int = 5) -> str:
    """Ground truth for ``SearchEngine.explain_score``: the bm25_topk
    contrib CTE restricted to one doc, reported per term."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld,
           count(*) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END) AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
)
SELECT tf.term AS term, tf.tfw::DOUBLE AS tf, df.df::BIGINT AS df,
       round(greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)),
                      0.000001), 6) AS idf,
       round(greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)),
                      0.000001)
             * (tf.tfw * ({K1} + 1)) /
               (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)),
             {round_to}) AS contrib
FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
WHERE tf.doc_id = {doc_id}
ORDER BY term"""


def significant_terms_sql(terms, *, corpus: str = DOCUMENTS_CORPUS,
                          k: int = 20, candidates: int = 1000,
                          min_fg: int = 5, round_to: int = 6) -> str:
    """Ground truth for ``fts_documents.significant_terms``: foreground
    = the top-``candidates`` BM25-OR match set (same clamp as facets),
    a doc contains a term if it appears in any field (the concatenated
    f0/f1 tokenization is df-equivalent to per-field), score =
    fg_rate * ln(fg_rate / bg_rate), query terms excluded, ties
    (score DESC, term ASC)."""
    inner = bm25_topk_sql(list(terms), corpus=corpus, k=candidates)
    terms_sql = ", ".join(f"'{t}'" for t in terms)
    tok = ("regexp_split_to_array(lower(strip_accents("
           "coalesce(f0,'') || ' ' || coalesce(f1,''))), '[^a-z0-9]+')")
    return f"""
WITH hits AS ({inner}),
corpus AS ({corpus}),
tokd AS (
  SELECT DISTINCT doc_id, u.term
  FROM corpus, unnest({tok}) AS u(term) WHERE u.term <> ''
),
fg AS (
  SELECT term, count(*) AS fg_df FROM tokd
  WHERE doc_id IN (SELECT doc_id FROM hits)
  GROUP BY term HAVING count(*) >= {min_fg}
),
bg AS (
  SELECT term, count(*) AS bg_df FROM tokd
  WHERE term IN (SELECT term FROM fg) GROUP BY term
),
n AS (SELECT (SELECT count(*) FROM corpus) AS bg_n,
             (SELECT count(*) FROM hits) AS fg_n)
SELECT f.term AS term, f.fg_df::BIGINT AS fg_df, b.bg_df::BIGINT AS bg_df,
       round((f.fg_df / n.fg_n::DOUBLE) *
             ln((f.fg_df / n.fg_n::DOUBLE) / (b.bg_df / n.bg_n::DOUBLE)),
             {round_to}) AS score
FROM fg f JOIN bg b USING (term), n
WHERE f.term NOT IN ({terms_sql})
ORDER BY score DESC, term ASC LIMIT {k}"""


GROUP_PERCENTILES_SQL = """
SELECT lang,
       percentile_disc(0.25) WITHIN GROUP (ORDER BY n_chars)::BIGINT AS p25,
       percentile_disc(0.5)  WITHIN GROUP (ORDER BY n_chars)::BIGINT AS p50,
       percentile_disc(0.75) WITHIN GROUP (ORDER BY n_chars)::BIGINT AS p75,
       percentile_disc(0.95) WITHIN GROUP (ORDER BY n_chars)::BIGINT AS p95
FROM documents GROUP BY lang ORDER BY lang"""


INDEX_STATS_BY_LANG_SQL = """
SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY lang ORDER BY lang"""


# ---------------------------------------------------------------- events

TUMBLING_WINDOW_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*)::BIGINT AS n, round(sum(value), 4) AS value_sum
FROM events GROUP BY event_type, date_trunc('hour', ts)
ORDER BY event_type, window_start"""

SLIDING_WINDOW_SQL = """
WITH offs AS (SELECT unnest(range(0, 4)) AS k)
SELECT event_type,
       time_bucket(INTERVAL '15 minutes', ts) - k * INTERVAL '15 minutes'
         AS window_start,
       count(*)::BIGINT AS n, round(sum(value), 4) AS value_sum
FROM events, offs
GROUP BY 1, 2 ORDER BY 1, 2"""

WINDOWED_TOPK_SQL = """
WITH agg AS (
  SELECT date_trunc('hour', ts) AS window_start, event_type,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
)
SELECT window_start, event_type, n,
       row_number() OVER (PARTITION BY window_start
                          ORDER BY n DESC, event_type ASC)::BIGINT AS rk
FROM agg QUALIFY rk <= 3
ORDER BY window_start, rk"""

SESSION_WINDOWS_SQL = """
WITH x AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   >= INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
),
s AS (
  SELECT user_id, ts,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM x
)
SELECT user_id::BIGINT AS user_id, min(ts) AS session_start,
       max(ts) AS session_end, count(*)::BIGINT AS n_events
FROM s GROUP BY user_id, sid
ORDER BY user_id, session_start"""

ASOF_JOIN_SQL = """
SELECT e.event_id::BIGINT AS event_id, e.user_id::BIGINT AS user_id,
       COALESCE((SELECT o.o_orderkey FROM orders o
                 WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
                 ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1),
                -1)::BIGINT AS o_orderkey
FROM events e ORDER BY event_id"""


# -------------------------------------------------------- PII / splits

# The seeding expression mirrors curation.seed_pii_column exactly
# (same residues, same integer formatting — DuckDB's || on BIGINT and
# Python str() both render plain decimal).
_PII_SEED_EXPR = """text
    || CASE WHEN doc_id % 7 = 0
            THEN ' contact' || doc_id || '@example.com' ELSE '' END
    || CASE WHEN doc_id % 11 = 0
            THEN ' host 10.' || (doc_id % 200) || '.0.' || (doc_id % 250)
            ELSE '' END
    || CASE WHEN doc_id % 13 = 0
            THEN ' call +1-555-' || (100 + doc_id % 900) || '-'
                 || (1000 + doc_id % 9000) ELSE '' END"""


def pii_scan_sql(patterns: dict) -> str:
    """Ground truth for curation.pii_scan over the seeded corpus: both
    sides count non-overlapping RE2 matches of the SAME pattern strings
    (pyarrow count_substring_regex vs DuckDB regexp_extract_all)."""
    counts = ",\n       ".join(
        f"len(regexp_extract_all(text, '{pat}'))::BIGINT AS n_{kind}"
        for kind, pat in patterns.items())
    total = " + ".join(f"n_{kind}" for kind in patterns)
    return f"""
WITH seeded AS (SELECT doc_id, {_PII_SEED_EXPR} AS text FROM documents),
counted AS (SELECT doc_id, {counts} FROM seeded)
SELECT *, ({total} > 0)::BIGINT AS has_pii FROM counted ORDER BY doc_id"""


def pii_redact_sql(patterns: dict) -> str:
    """Ground truth for curation.pii_redact: chained global RE2
    replaces in the same pattern order, full redacted text + md5."""
    expr = "text"
    for kind, pat in patterns.items():
        expr = f"regexp_replace({expr}, '{pat}', '[{kind.upper()}]', 'g')"
    return f"""
WITH seeded AS (SELECT doc_id, {_PII_SEED_EXPR} AS text FROM documents)
SELECT doc_id, {expr} AS text_redacted, md5({expr}) AS redacted_md5
FROM seeded ORDER BY doc_id"""


def hash_split_sql(fractions=(0.8, 0.1, 0.1),
                   names=("train", "val", "test"),
                   buckets: int = 1000) -> str:
    """Ground truth for curation.hash_split: DuckDB md5_number_lower =
    the repo's md5 digest[8:16] little-endian idiom."""
    edges, acc = [], 0.0
    for f in fractions:
        acc += f
        edges.append(int(round(acc * buckets)))
    edges[-1] = buckets
    case, lo = "CASE", 0
    for name, hi in zip(names, edges):
        case += f" WHEN bucket < {hi} THEN '{name}'"
        lo = hi
    case += " END"
    return f"""
SELECT doc_id, bucket, {case} AS split FROM (
  SELECT doc_id,
         (md5_number_lower(doc_id::VARCHAR) % {buckets})::BIGINT AS bucket
  FROM documents
) ORDER BY doc_id"""


def line_dedup_sql(parquet_glob: str, min_docs: int = 2) -> str:
    """Ground truth for dedup.line_dedup over the code corpus: a line is
    HOT iff it occurs in >= min_docs distinct docs; docs are rebuilt
    without hot lines.  Hot membership goes through md5_number_lower on
    both sides, so operator and oracle agree bit-for-bit (or a 64-bit
    md5 collision exists)."""
    corpus = (
        'SELECT row_number() OVER (ORDER BY repo, path, "commit") - 1 AS doc_id, '
        f"content FROM read_parquet('{parquet_glob}')")
    return f"""
WITH corpus AS ({corpus}),
ls AS (SELECT doc_id, string_split(content, chr(10)) AS arr FROM corpus),
lines AS (
  SELECT doc_id,
         unnest([{{'idx': i, 'line': arr[i]}}
                 for i in range(1, len(arr) + 1)], recursive := true)
  FROM ls
),
hot AS (
  SELECT md5_number_lower(line) AS h
  FROM (SELECT line, count(DISTINCT doc_id) AS c FROM lines GROUP BY line)
  WHERE c >= {int(min_docs)}
),
kept AS (
  SELECT doc_id, idx, line FROM lines
  WHERE md5_number_lower(line) NOT IN (SELECT h FROM hot)
),
counts AS (SELECT doc_id, count(*) AS n_lines FROM lines GROUP BY doc_id),
agg AS (
  SELECT doc_id, count(*) AS n_kept,
         md5(string_agg(line, chr(10) ORDER BY idx)) AS clean_md5
  FROM kept GROUP BY doc_id
)
SELECT c.doc_id::BIGINT AS doc_id,
       counts.n_lines::BIGINT AS n_lines,
       (counts.n_lines - COALESCE(agg.n_kept, 0))::BIGINT AS n_dropped,
       COALESCE(agg.clean_md5, md5('')) AS clean_md5
FROM corpus c JOIN counts USING (doc_id) LEFT JOIN agg USING (doc_id)
ORDER BY doc_id"""


def curate_corpus_sql(stopwords, *, lang: str = "en",
                      min_quality: float = 0.3,
                      threshold: float = 0.5) -> str:
    """Ground truth for curation.curate_corpus — the composed pipeline:
    lang filter → quality gate (same rounded formula as quality_sql) →
    exact-dedup survivors (min doc_id per md5(text)) → near-dup cluster
    survivors (component-min over the exact-Jaccard pair graph of the
    surviving set)."""
    sw = ", ".join("'" + w.replace("'", "''") + "'" for w in sorted(stopwords))
    return f"""
WITH RECURSIVE base AS (SELECT * FROM documents WHERE lang = '{lang}'),
tq AS (SELECT doc_id, text, {TOKENS_EXPR} AS toks FROM base),
feats AS (
  SELECT doc_id,
         len(toks)::BIGINT AS n_tokens,
         CASE WHEN len(toks) = 0 THEN 0.0
              ELSE round(len(list_filter(toks, x -> x IN ({sw})))::DOUBLE
                         / len(toks), 6)
         END AS stopword_ratio
  FROM tq
),
q AS (
  SELECT doc_id,
         round(least(1.0, n_tokens / 100.0) * (1.0 - stopword_ratio), 6)
         AS quality
  FROM feats
),
qf AS (
  SELECT b.* FROM base b JOIN q USING (doc_id)
  WHERE q.quality >= {min_quality}
),
ex AS (
  SELECT doc_id, text, lang, source, n_chars FROM (
    SELECT *, min(doc_id) OVER (PARTITION BY md5(text)) AS _s FROM qf
  ) WHERE doc_id = _s
),
{_minhash_pairs_ctes("ex")},
pr AS (SELECT id_a, id_b FROM pairs WHERE j >= {threshold}),
edges AS (SELECT id_a AS a, id_b AS b FROM pr
          UNION ALL SELECT id_b, id_a FROM pr),
reach(id, r) AS (
  SELECT a, a FROM edges
  UNION
  SELECT re.id, e.b FROM reach re JOIN edges e ON re.r = e.a
),
comp AS (SELECT id, MIN(r) AS lbl FROM reach GROUP BY id)
SELECT doc_id::BIGINT AS doc_id, text, lang, source, n_chars
FROM ex
WHERE doc_id NOT IN (SELECT id FROM comp WHERE id <> lbl)
ORDER BY doc_id"""


def curate_corpus_v2_sql(stopwords, targets: dict, *,
                         min_required: int = 1, threshold: float = 0.5,
                         seq_len: int = 256, vocab_size: int = 65535,
                         buckets: int = 10_000) -> str:
    """Ground truth for curation.curate_corpus_v2 — the composed v2
    DAG end-to-end (round-4 verdict item #6): Gopher rule gate → CCNet
    perplexity-tail drop (bigram LM fit ON the gated subset, exact
    percentile_disc tertiles) → near-dup clusters over the fluent set
    with QUALITY-argmax winners (losers dropped) → domain-mix rebalance
    to ``targets`` → fixed-length training-sequence export.  Every
    stage reuses the arithmetic of its individually-oracled stage SQL,
    re-rooted on the previous stage's CTE."""
    from .textstats import BPE_ISH_PATTERN

    sw = ", ".join("'" + w.replace("'", "''") + "'"
                   for w in sorted(stopwords))
    vals = ", ".join(f"('{g}', {p!r})" for g, p in targets.items())
    pat = BPE_ISH_PATTERN.replace("'", "''")
    return rf"""
WITH RECURSIVE
-- ---- stage 1: Gopher rule gate (gopher_rules_sql arithmetic) ----
gd AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
gw AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS w
  FROM gd),
gwagg AS (
  SELECT doc_id,
         count(*)::BIGINT AS n_words,
         sum(length(w))::DOUBLE AS char_sum,
         sum(CASE WHEN regexp_matches(w, '[a-zA-Z]')
                  THEN 1 ELSE 0 END)::DOUBLE AS n_alpha,
         count(DISTINCT lower(w)) FILTER (
           lower(w) IN ('the','be','to','of','and','that','have','with')
         )::BIGINT AS n_required
  FROM gw GROUP BY doc_id),
gl AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS ln FROM gd),
glagg AS (
  SELECT doc_id,
         count(*)::DOUBLE AS n_lines,
         sum(CASE WHEN regexp_matches(ln, '^\s*(-|•)')
                  THEN 1 ELSE 0 END)::DOUBLE AS n_bullet,
         sum(CASE WHEN regexp_matches(ln, '\.\.\.$')
                  THEN 1 ELSE 0 END)::DOUBLE AS n_ell_line
  FROM gl GROUP BY doc_id),
gfeat AS (
  SELECT gd.doc_id,
         coalesce(gwagg.n_words, 0) AS n_words,
         CASE WHEN coalesce(gwagg.n_words, 0) > 0
              THEN gwagg.char_sum / gwagg.n_words ELSE 0.0
         END AS mean_word_len,
         CASE WHEN coalesce(gwagg.n_words, 0) > 0
              THEN ((length(gd.text) -
                     length(replace(gd.text, '#', '')))::DOUBLE
                    + len(regexp_extract_all(gd.text, '\.\.\.')))
                   / gwagg.n_words
              ELSE 0.0 END AS symbol_ratio,
         CASE WHEN coalesce(gwagg.n_words, 0) > 0
              THEN gwagg.n_alpha / gwagg.n_words ELSE 0.0
         END AS alpha_word_ratio,
         coalesce(gwagg.n_required, 0) AS n_required_words,
         glagg.n_bullet / glagg.n_lines AS bullet_ratio,
         glagg.n_ell_line / glagg.n_lines AS ellipsis_ratio
  FROM gd LEFT JOIN gwagg USING (doc_id) JOIN glagg USING (doc_id)),
gok AS (
  SELECT doc_id FROM gfeat
  WHERE n_words BETWEEN 50 AND 100000
    AND mean_word_len >= 3.0 AND mean_word_len <= 10.0
    AND symbol_ratio <= 0.1 AND alpha_word_ratio >= 0.8
    AND n_required_words >= {min_required} AND bullet_ratio <= 0.9
    AND ellipsis_ratio <= 0.3),
gated AS MATERIALIZED (SELECT d.* FROM documents d JOIN gok USING (doc_id)),
-- ---- stage 2: CCNet tail drop (LM fit on the GATED subset) ----
ct AS (SELECT doc_id, {TOKENS_EXPR} AS toks FROM gated),
cbi AS (
  SELECT doc_id, toks[i] AS w1,
         toks[i] || chr(31) || toks[i + 1] AS big
  FROM ct, unnest(generate_series(1, len(toks) - 1)) AS r(i)),
ccb AS (SELECT big, count(*) AS cb FROM cbi GROUP BY big),
ccu AS (SELECT w1, count(*) AS cu
        FROM (SELECT unnest(toks) AS w1 FROM ct) GROUP BY w1),
cv AS (SELECT count(*) AS v FROM ccu),
cs AS (
  SELECT cbi.doc_id,
         ln((ccb.cb + 0.1) / (ccu.cu + 0.1 * cv.v)) AS lp
  FROM cbi JOIN ccb USING (big) JOIN ccu USING (w1), cv),
cbase AS (SELECT doc_id, round(avg(lp), 4) AS avg_logp
          FROM cs GROUP BY doc_id),
cth AS (SELECT percentile_disc(0.3333333333333333) WITHIN GROUP
                 (ORDER BY avg_logp) AS t1
        FROM cbase),
fluent AS MATERIALIZED (
  SELECT g.* FROM gated g
  JOIN cbase USING (doc_id), cth
  WHERE cbase.avg_logp > cth.t1),
-- ---- stage 3: near-dup clusters + quality-argmax winners ----
{_minhash_pairs_ctes("fluent")},
pr AS (SELECT id_a, id_b FROM pairs WHERE j >= {threshold}),
edges AS (SELECT id_a AS a, id_b AS b FROM pr
          UNION ALL SELECT id_b, id_a FROM pr),
reach(id, r) AS (
  SELECT a, a FROM edges
  UNION
  SELECT re.id, e.b FROM reach re JOIN edges e ON re.r = e.a
),
cl AS MATERIALIZED (SELECT id::BIGINT AS doc_id, MIN(r)::BIGINT AS cluster_id
       FROM reach GROUP BY id),
fq AS (SELECT doc_id, {TOKENS_EXPR} AS toks FROM fluent),
q AS (SELECT doc_id,
             round(least(1.0, len(toks) / 100.0) *
                   (1.0 - CASE WHEN len(toks) = 0 THEN 0.0
                          ELSE len(list_filter(toks,
                                               x -> x IN ({sw})))::DOUBLE
                               / len(toks) END), 6) AS quality
      FROM fq),
winners AS (
  SELECT doc_id FROM (
    SELECT cl.cluster_id, cl.doc_id,
           row_number() OVER (PARTITION BY cl.cluster_id
                              ORDER BY q.quality DESC, cl.doc_id) AS rn
    FROM cl JOIN q USING (doc_id))
  WHERE rn = 1),
kept AS MATERIALIZED (
  SELECT f.* FROM fluent f
  WHERE f.doc_id NOT IN (
    SELECT doc_id FROM cl
    WHERE doc_id NOT IN (SELECT doc_id FROM winners))),
-- ---- stage 4: domain-mix rebalance (rebalance_mix_sql arithmetic) --
tgt(g, p) AS (VALUES {vals}),
counts AS (SELECT source AS g, count(*)::DOUBLE AS cnt
           FROM kept GROUP BY source),
tfeas AS (SELECT min(cnt / p) AS t FROM counts JOIN tgt USING (g)
          WHERE p > 0),
thr AS (SELECT g,
               CAST(floor(p * tfeas.t / cnt * {buckets} + 0.5) AS BIGINT)
                 AS thr
        FROM counts JOIN tgt USING (g), tfeas),
reb AS MATERIALIZED (
  SELECT k.* FROM kept k JOIN thr ON thr.g = k.source
  WHERE (md5_number_lower(k.doc_id::VARCHAR) % {buckets}) < thr.thr),
-- ---- stage 5: training-sequence export (training_sequences_sql) ----
arrs AS MATERIALIZED (SELECT doc_id,
                regexp_extract_all(coalesce(text, ''), '{pat}') AS arr
         FROM reb),
tok AS (
  SELECT doc_id, unnest(range(1, len(arr) + 1)) AS pos,
         (md5_number_lower(unnest(arr)) % {vocab_size})::BIGINT AS tid
  FROM arrs
  UNION ALL
  SELECT doc_id, len(arr) + 1 AS pos, {vocab_size}::BIGINT AS tid
  FROM arrs),
gpos AS (SELECT tid,
                row_number() OVER (ORDER BY doc_id, pos) - 1 AS gpos
         FROM tok),
seqs AS (SELECT gpos // {seq_len} AS seq_id, gpos % {seq_len} AS p, tid
         FROM gpos)
SELECT seq_id,
       (list(tid ORDER BY p))[1] AS first_tid,
       md5(array_to_string(list(tid ORDER BY p), ',')) AS tokens_md5
FROM seqs GROUP BY seq_id HAVING count(*) = {seq_len}
ORDER BY seq_id"""


def stratified_sample_sql(rates: dict, default_rate: float = 1.0,
                          group_col: str = "source",
                          buckets: int = 10_000) -> str:
    """Ground truth for curation.stratified_sample: same md5 bucket,
    per-group CASE thresholds."""
    case = "CASE " + " ".join(
        f"WHEN {group_col} = '{g}' THEN {int(round(r * buckets))}"
        for g, r in rates.items()) + f" ELSE {int(round(default_rate * buckets))} END"
    return f"""
SELECT doc_id, text, lang, source, n_chars FROM documents
WHERE (md5_number_lower(doc_id::VARCHAR) % {buckets}) < ({case})
ORDER BY doc_id"""


def shipping_priority_sql(segment: str = "BUILDING",
                          cutoff: str = "1998-06-15", k: int = 10) -> str:
    """Ground truth for relational.shipping_priority_topk (TPC-H Q3
    shape)."""
    return f"""
SELECT l_orderkey, o_orderdate, o_orderpriority,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{segment}'
  AND o_orderdate < TIMESTAMP '{cutoff}'
  AND l_shipdate  > TIMESTAMP '{cutoff}'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, l_orderkey LIMIT {k}"""


STAR_JOIN_SQL = """
SELECT p_brand, n_name,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
FROM lineitem
JOIN part     ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation   ON n_nationkey = s_nationkey
GROUP BY p_brand, n_name
ORDER BY revenue DESC, p_brand, n_name LIMIT 20"""


# Ground truth for dedup.substring_dup_stats: per-doc count of char
# 50-gram positions whose gram occurs in >= 2 distinct docs.  The
# operator compares 64-bit rolling hashes where the oracle compares the
# grams themselves; they agree unless a 64-bit collision exists in the
# corpus (odds ~n^2/2^65).
SUBSTRING_DUP_SQL = """
WITH g AS (
  SELECT doc_id, substring(text, CAST(i AS INT), 50) AS gram
  FROM (SELECT doc_id, text,
               unnest(generate_series(1, greatest(length(text) - 49, 0))) AS i
        FROM documents)
),
df AS (SELECT gram FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2),
tot AS (SELECT doc_id, count(*) AS n_grams FROM g GROUP BY doc_id),
dup AS (SELECT g.doc_id, count(*) AS n_dup_grams
        FROM g JOIN df USING (gram) GROUP BY g.doc_id)
SELECT d.doc_id,
       coalesce(t.n_grams, 0)::BIGINT AS n_grams,
       coalesce(u.n_dup_grams, 0)::BIGINT AS n_dup_grams,
       round(coalesce(u.n_dup_grams, 0) * 1.0
             / greatest(coalesce(t.n_grams, 0), 1), 6) AS dup_frac
FROM documents d
LEFT JOIN tot t USING (doc_id)
LEFT JOIN dup u USING (doc_id)
ORDER BY d.doc_id"""


# Ground truth for relational.grouped_topk: per-source top-5 docs by
# n_chars (ties -> ascending doc_id), the row_number-over-partition
# shape the combiner pipeline reproduces without a global sort.
GROUP_TOPK_SQL = """
SELECT source, doc_id, n_chars,
       row_number() OVER (PARTITION BY source
                          ORDER BY n_chars DESC, doc_id) AS grp_rank
FROM documents
QUALIFY grp_rank <= 5
ORDER BY source, grp_rank"""


# Ground truth for relational.customers_without_orders: the NOT EXISTS
# anti-join shape (first 20 custkeys with no orders).
ANTI_JOIN_SQL = """
SELECT c_custkey, c_name, round(c_acctbal, 4) AS c_acctbal
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
ORDER BY c_custkey LIMIT 20"""


# Ground truth for sketches.quantiles_disc over lineitem.l_extendedprice:
# ANSI percentile_disc (smallest v with cume_dist >= q), one row per q.
QUANTILES_SQL = """
SELECT q::DOUBLE AS q, round(value, 4) AS value FROM (
  SELECT 0.5  AS q, percentile_disc(0.5 ) WITHIN GROUP
         (ORDER BY l_extendedprice) AS value FROM lineitem
  UNION ALL
  SELECT 0.9  AS q, percentile_disc(0.9 ) WITHIN GROUP
         (ORDER BY l_extendedprice) AS value FROM lineitem
  UNION ALL
  SELECT 0.99 AS q, percentile_disc(0.99) WITHIN GROUP
         (ORDER BY l_extendedprice) AS value FROM lineitem
) ORDER BY q"""


# Ground truth for sketches.distinct_count (the HLL sketch's exact
# companion): COUNT(DISTINCT l_partkey) over lineitem.
DISTINCT_PARTS_SQL = """
SELECT count(DISTINCT l_partkey)::BIGINT AS n_distinct FROM lineitem"""


# Bound oracle for sketches.hll_distinct (round-4): the HLL estimate is
# not SQL-reproducible, but with the fixed splitmix64 hash it is a pure
# function of the column, so "the estimate lands within the standard
# +/-3*1.04/sqrt(m) HLL band around the exact count" is a deterministic
# claim.  The Ray entry emits the engine's own exact distinct count and
# the band verdict; this oracle reproduces the exact count and asserts
# the verdict must be 1 — an out-of-band estimate hash-mismatches.
HLL_BOUND_SQL = """
SELECT count(DISTINCT l_partkey)::BIGINT AS n_distinct_exact,
       4096::BIGINT AS registers,
       1::BIGINT AS within_3sigma
FROM lineitem"""


# Per-group bound oracle for sketches.group_hll_distinct (same
# deterministic-band argument as HLL_BOUND_SQL, per l_returnflag group).
GROUP_HLL_BOUND_SQL = """
SELECT l_returnflag,
       count(DISTINCT l_partkey)::BIGINT AS n_distinct_exact,
       4096::BIGINT AS registers,
       1::BIGINT AS within_3sigma
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"""


# Ground truth for textstats.bigram_lm_scores: add-0.1-smoothed bigram
# LM self-scoring.  Tokens are RE2 \s+ splits (same TOKENS_EXPR
# convention as the dedup/textstats oracles); P(w2|w1) = (c(w1w2)+a) /
# (c(w1)+a*V) with c(w1) the corpus occurrence count and V the distinct
# unigram count.  chr(31) joins bigram keys exactly like the operator.
BIGRAM_LM_SQL = f"""
WITH t AS (
  SELECT doc_id, {TOKENS_EXPR} AS toks FROM documents
),
b AS (
  SELECT doc_id, toks[i] AS w1,
         toks[i] || chr(31) || toks[i + 1] AS big
  FROM t, unnest(generate_series(1, len(toks) - 1)) AS r(i)
),
cb AS (SELECT big, count(*) AS cb FROM b GROUP BY big),
cu AS (SELECT w1, count(*) AS cu
       FROM (SELECT unnest(toks) AS w1 FROM t) GROUP BY w1),
v AS (SELECT count(*) AS v FROM cu),
s AS (
  SELECT b.doc_id,
         ln((cb.cb + 0.1) / (cu.cu + 0.1 * v.v)) AS lp
  FROM b JOIN cb USING (big) JOIN cu USING (w1), v
)
SELECT doc_id, count(*)::BIGINT AS n_bigrams, round(avg(lp), 4) AS avg_logp
FROM s GROUP BY doc_id ORDER BY doc_id"""


def rebalance_mix_sql(targets: dict, group_col: str = "source",
                      buckets: int = 10_000) -> str:
    """Ground truth for curation.rebalance_mix: recompute group counts,
    the feasible total T = min(cnt/p), and the per-group md5-bucket
    thresholds floor(p*T/cnt*buckets + 0.5) — the same IEEE expression
    order as the operator, so thresholds agree bit-for-bit."""
    vals = ", ".join(f"('{g}', {p!r})" for g, p in targets.items())
    return f"""
WITH tgt(g, p) AS (VALUES {vals}),
counts AS (SELECT {group_col} AS g, count(*)::DOUBLE AS cnt
           FROM documents GROUP BY {group_col}),
t AS (SELECT min(cnt / p) AS t FROM counts JOIN tgt USING (g) WHERE p > 0),
thr AS (SELECT g,
               CAST(floor(p * t.t / cnt * {buckets} + 0.5) AS BIGINT) AS thr
        FROM counts JOIN tgt USING (g), t)
SELECT d.doc_id, d.text, d.lang, d.source, d.n_chars
FROM documents d JOIN thr ON thr.g = d.{group_col}
WHERE (md5_number_lower(d.doc_id::VARCHAR) % {buckets}) < thr.thr
ORDER BY d.doc_id"""


# Ground truth for textstats.tfidf_topk: RE2 \s+ tokens (both engines),
# tf per (doc, term), corpus df, tfidf = round(tf * ln(N/df), 6), and a
# row_number() per doc ordered by (tfidf DESC, term) — the same rounded
# ranking key the Ray combiner uses, so ranks agree bit-for-bit.
TFIDF_TOPK_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(list_filter(string_split_regex(coalesce(text, ''),
                                                       '\\s+'),
                                    x -> x <> '')) AS term
  FROM documents),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok
       GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
s AS (SELECT tf.doc_id, tf.term, tf.tf,
             round(tf.tf * ln(n.n / df.df), 6) AS tfidf
      FROM tf JOIN df USING (term), n)
SELECT doc_id, term, tf, tfidf,
       row_number() OVER (PARTITION BY doc_id
                          ORDER BY tfidf DESC, term) AS term_rank
FROM s QUALIFY term_rank <= 5
ORDER BY doc_id, term_rank"""


# Ground truth for curation.gopher_rules (Rae et al. 2021 App. A1.1
# heuristics).  Same RE2 tokenization (\s+ split, empties elided), same
# chr(10) line split (empties kept), same non-overlapping '#'/'...'
# counts (regexp_extract_all = Arrow count_substring_regex), ratios are
# raw IEEE divisions so every rule boolean agrees bit-for-bit.
def gopher_rules_sql(min_required: int = 2) -> str:
    """Ground truth for curation.gopher_rules; min_required is the
    only tunable (the synthetic corpus contains just one of the
    paper's eight required words, so the driver entry runs with
    min_required=1 to keep the rule outcome diverse)."""
    return f"""
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
w AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(text, '\\s+'),
                            x -> x <> '')) AS w
  FROM d),
wagg AS (
  SELECT doc_id,
         count(*)::BIGINT AS n_words,
         sum(length(w))::DOUBLE AS char_sum,
         sum(CASE WHEN regexp_matches(w, '[a-zA-Z]')
                  THEN 1 ELSE 0 END)::DOUBLE AS n_alpha,
         count(DISTINCT lower(w)) FILTER (
           lower(w) IN ('the','be','to','of','and','that','have','with')
         )::BIGINT AS n_required
  FROM w GROUP BY doc_id),
l AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS ln FROM d),
lagg AS (
  SELECT doc_id,
         count(*)::DOUBLE AS n_lines,
         sum(CASE WHEN regexp_matches(ln, '^\\s*(-|•)')
                  THEN 1 ELSE 0 END)::DOUBLE AS n_bullet,
         sum(CASE WHEN regexp_matches(ln, '\\.\\.\\.$')
                  THEN 1 ELSE 0 END)::DOUBLE AS n_ell_line
  FROM l GROUP BY doc_id),
feat AS (
  SELECT d.doc_id,
         coalesce(wagg.n_words, 0) AS n_words,
         CASE WHEN coalesce(wagg.n_words, 0) > 0
              THEN wagg.char_sum / wagg.n_words ELSE 0.0
         END AS mean_word_len,
         CASE WHEN coalesce(wagg.n_words, 0) > 0
              THEN ((length(d.text) -
                     length(replace(d.text, '#', '')))::DOUBLE
                    + len(regexp_extract_all(d.text, '\\.\\.\\.')))
                   / wagg.n_words
              ELSE 0.0 END AS symbol_ratio,
         CASE WHEN coalesce(wagg.n_words, 0) > 0
              THEN wagg.n_alpha / wagg.n_words ELSE 0.0
         END AS alpha_word_ratio,
         coalesce(wagg.n_required, 0) AS n_required_words,
         lagg.n_bullet / lagg.n_lines AS bullet_ratio,
         lagg.n_ell_line / lagg.n_lines AS ellipsis_ratio
  FROM d LEFT JOIN wagg USING (doc_id) JOIN lagg USING (doc_id))
SELECT doc_id, n_words, mean_word_len, symbol_ratio, alpha_word_ratio,
       n_required_words, bullet_ratio, ellipsis_ratio,
       (n_words BETWEEN 50 AND 100000) AS ok_words,
       (mean_word_len >= 3.0 AND mean_word_len <= 10.0) AS ok_mean_len,
       (symbol_ratio <= 0.1) AS ok_symbol,
       (alpha_word_ratio >= 0.8) AS ok_alpha,
       (n_required_words >= {min_required}) AS ok_required,
       (bullet_ratio <= 0.9) AS ok_bullet,
       (ellipsis_ratio <= 0.3) AS ok_ellipsis,
       (n_words BETWEEN 50 AND 100000
        AND mean_word_len >= 3.0 AND mean_word_len <= 10.0
        AND symbol_ratio <= 0.1 AND alpha_word_ratio >= 0.8
        AND n_required_words >= {min_required} AND bullet_ratio <= 0.9
        AND ellipsis_ratio <= 0.3) AS gopher_pass
FROM feat ORDER BY doc_id"""


GOPHER_RULES_SQL = gopher_rules_sql()


def c4_line_clean_sql(min_words: int = 5, min_kept_lines: int = 3) -> str:
    """Ground truth for curation.c4_line_clean over the seeded corpus
    (curation.seed_lines_column replicated as string concat on the same
    doc_id residues).  Line order is preserved via list_filter, so the
    md5 of the rejoined clean text agrees bit-for-bit."""
    from .curation import C4_SEED_LINES

    seeds = "".join(
        f"\n         || CASE WHEN doc_id % {mod} = 0"
        f" THEN chr(10) || '{line}' ELSE '' END"
        for mod, line in C4_SEED_LINES)
    return f"""
WITH seeded AS (
  SELECT doc_id,
         (CASE WHEN doc_id % 2 = 1 THEN coalesce(text, '') || '.'
               ELSE coalesce(text, '') END){seeds} AS text
  FROM documents),
lists AS (SELECT doc_id, text, string_split(text, chr(10)) AS ls
          FROM seeded),
flt AS (
  SELECT doc_id, text, len(ls)::BIGINT AS n_lines,
         list_filter(ls, x ->
           regexp_matches(x, '[.!?"]$')
           AND len(regexp_extract_all(x, '\\S+')) >= {min_words}
           AND NOT regexp_matches(lower(x), '\\bjavascript\\b')) AS kept
  FROM lists)
SELECT doc_id, n_lines, len(kept)::BIGINT AS n_kept,
       (NOT contains(lower(text), 'lorem ipsum')
        AND NOT contains(text, '{{')
        AND len(kept) >= {min_kept_lines}) AS doc_keep,
       md5(array_to_string(kept, chr(10))) AS clean_md5
FROM flt ORDER BY doc_id"""


C4_LINE_CLEAN_SQL = c4_line_clean_sql()


# Ground truth for textstats.entropy_stats: per-doc Shannon entropy of
# the character (codepoint) and RE2-\s+ word unigram distributions,
# accumulated per distinct symbol in both engines (-(Σ (c/n)·ln(c/n)))
# and rounded to 6.
ENTROPY_STATS_SQL = """
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
ch AS (SELECT doc_id,
              unnest(list_transform(range(1, length(text) + 1),
                                    i -> substr(text, i::INT, 1))) AS sym
       FROM d),
chc AS (SELECT doc_id, sym, count(*)::DOUBLE AS c FROM ch
        GROUP BY doc_id, sym),
chn AS (SELECT doc_id, sum(c) AS n FROM chc GROUP BY doc_id),
che AS (SELECT doc_id, -sum((c / n) * ln(c / n)) AS e
        FROM chc JOIN chn USING (doc_id) GROUP BY doc_id),
w AS (SELECT doc_id, unnest(list_filter(string_split_regex(text, '\\s+'),
                                        x -> x <> '')) AS sym
      FROM d),
wc AS (SELECT doc_id, sym, count(*)::DOUBLE AS c FROM w
       GROUP BY doc_id, sym),
wn AS (SELECT doc_id, sum(c) AS n FROM wc GROUP BY doc_id),
we AS (SELECT doc_id, -sum((c / n) * ln(c / n)) AS e,
              sum(c)::BIGINT AS n_words
       FROM wc JOIN wn USING (doc_id) GROUP BY doc_id)
SELECT d.doc_id, length(d.text)::BIGINT AS n_chars,
       coalesce(we.n_words, 0) AS n_words,
       round(coalesce(che.e, 0.0), 6) AS char_entropy,
       round(coalesce(we.e, 0.0), 6) AS word_entropy
FROM d LEFT JOIN che USING (doc_id) LEFT JOIN we USING (doc_id)
ORDER BY d.doc_id"""


def dsir_logweights_sql(target_source: str = "src0",
                        buckets: int = 1024) -> str:
    """Ground truth for textstats.dsir_logweights: hashed-bigram
    buckets via md5_number_lower (= Python md5 digest[8:16]), add-1
    smoothed target/raw bucket models, per-doc sum of the per-instance
    log ratios, round-4."""
    return f"""
WITH d AS (SELECT doc_id, source, coalesce(text, '') AS text
           FROM documents),
arrs AS (SELECT doc_id, source,
                list_filter(string_split_regex(text, '\\s+'),
                            x -> x <> '') AS arr
         FROM d),
bi AS (SELECT doc_id, source,
              unnest(list_transform(range(1, len(arr)), i ->
                (md5_number_lower(arr[i::INT] || chr(31)
                                  || arr[(i + 1)::INT])
                 % {buckets})::BIGINT)) AS b
       FROM arrs),
t AS (SELECT b, count(*)::DOUBLE AS c FROM bi
      WHERE source = '{target_source}' GROUP BY b),
tt AS (SELECT coalesce(sum(c), 0) AS tot FROM t),
r AS (SELECT b, count(*)::DOUBLE AS c FROM bi GROUP BY b),
rt AS (SELECT coalesce(sum(c), 0) AS tot FROM r),
diff AS (SELECT gs.b::BIGINT AS b,
                ln((coalesce(t.c, 0) + 1) / (tt.tot + {buckets}))
                - ln((coalesce(r.c, 0) + 1) / (rt.tot + {buckets})) AS dv
         FROM range(0, {buckets}) gs(b)
         LEFT JOIN t ON t.b = gs.b LEFT JOIN r ON r.b = gs.b, tt, rt),
per AS (SELECT bi.doc_id, sum(dv) AS logw, count(*)::BIGINT AS n_bigrams
        FROM bi JOIN diff USING (b) GROUP BY bi.doc_id)
SELECT d.doc_id, coalesce(per.n_bigrams, 0) AS n_bigrams,
       round(coalesce(per.logw, 0.0), 4) AS logw
FROM d LEFT JOIN per USING (doc_id) ORDER BY d.doc_id"""


def training_sequences_sql(seq_len: int = 128,
                           vocab_size: int = 65535) -> str:
    """Ground truth for curation.export_training_sequences: BPE-ish RE2
    tokenization (regexp_extract_all = Python re.findall on this ASCII
    pattern), hashing-trick ids via md5_number_lower % vocab, one EOD
    (= vocab_size) per doc, global position by (doc_id, pos), chunks of
    seq_len with the trailing partial dropped; tokens_md5 hashes the
    comma-joined id list in sequence order."""
    from .textstats import BPE_ISH_PATTERN

    pat = BPE_ISH_PATTERN.replace("'", "''")  # DuckDB single-quoted
    # strings are NOT backslash-escaped, so \s must stay single
    return f"""
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
arrs AS (SELECT doc_id, regexp_extract_all(text, '{pat}') AS arr FROM d),
tok AS (
  SELECT doc_id, unnest(range(1, len(arr) + 1)) AS pos,
         (md5_number_lower(unnest(arr)) % {vocab_size})::BIGINT AS tid
  FROM arrs
  UNION ALL
  SELECT doc_id, len(arr) + 1 AS pos, {vocab_size}::BIGINT AS tid
  FROM arrs),
g AS (SELECT tid,
             row_number() OVER (ORDER BY doc_id, pos) - 1 AS gpos
      FROM tok),
seqs AS (SELECT gpos // {seq_len} AS seq_id, gpos % {seq_len} AS p, tid
         FROM g)
SELECT seq_id,
       (list(tid ORDER BY p))[1] AS first_tid,
       md5(array_to_string(list(tid ORDER BY p), ',')) AS tokens_md5
FROM seqs GROUP BY seq_id HAVING count(*) = {seq_len}
ORDER BY seq_id"""


# Ground truth for textstats.ccnet_ppl_buckets: the bigram-LM score CTE
# (identical to BIGRAM_LM_SQL) + ANSI percentile_disc tertiles over the
# round-4 scores + the same <=-edged CASE assignment.
CCNET_BUCKETS_SQL = f"""
WITH t AS (
  SELECT doc_id, {TOKENS_EXPR} AS toks FROM documents
),
b AS (
  SELECT doc_id, toks[i] AS w1,
         toks[i] || chr(31) || toks[i + 1] AS big
  FROM t, unnest(generate_series(1, len(toks) - 1)) AS r(i)
),
cb AS (SELECT big, count(*) AS cb FROM b GROUP BY big),
cu AS (SELECT w1, count(*) AS cu
       FROM (SELECT unnest(toks) AS w1 FROM t) GROUP BY w1),
v AS (SELECT count(*) AS v FROM cu),
s AS (
  SELECT b.doc_id,
         ln((cb.cb + 0.1) / (cu.cu + 0.1 * v.v)) AS lp
  FROM b JOIN cb USING (big) JOIN cu USING (w1), v
),
base AS (SELECT doc_id, count(*)::BIGINT AS n_bigrams,
                round(avg(lp), 4) AS avg_logp
         FROM s GROUP BY doc_id),
th AS (SELECT percentile_disc(0.3333333333333333) WITHIN GROUP
                (ORDER BY avg_logp) AS t1,
              percentile_disc(0.6666666666666666) WITHIN GROUP
                (ORDER BY avg_logp) AS t2
       FROM base)
SELECT doc_id, n_bigrams, avg_logp,
       CASE WHEN avg_logp <= th.t1 THEN 'tail'
            WHEN avg_logp <= th.t2 THEN 'middle'
            ELSE 'head' END AS ppl_bucket
FROM base, th ORDER BY doc_id"""


def best_survivors_sql(stopwords) -> str:
    """Ground truth for dedup.best_survivors: the minhash-cluster
    recursive closure joined to the quality score (round-6, unrounded
    stopword ratio inside the product — the exact quality_scores
    arithmetic), winner per cluster by row_number over
    (quality DESC, doc_id)."""
    sw = ", ".join("'" + w.replace("'", "''") + "'"
                   for w in sorted(stopwords))
    return rf"""
WITH RECURSIVE {_MINHASH_PAIRS_CTES},
pr AS (SELECT id_a, id_b FROM pairs WHERE j >= 0.5),
edges AS (SELECT id_a AS a, id_b AS b FROM pr
          UNION ALL SELECT id_b, id_a FROM pr),
reach(id, r) AS (
  SELECT a, a FROM edges
  UNION
  SELECT re.id, e.b FROM reach re JOIN edges e ON re.r = e.a
),
cl AS (SELECT id::BIGINT AS doc_id, MIN(r)::BIGINT AS cluster_id
       FROM reach GROUP BY id),
tq AS (SELECT doc_id, {TOKENS_EXPR} AS toks FROM documents),
q AS (SELECT doc_id,
             round(least(1.0, len(toks) / 100.0) *
                   (1.0 - CASE WHEN len(toks) = 0 THEN 0.0
                          ELSE len(list_filter(toks, x -> x IN ({sw})))::DOUBLE
                               / len(toks) END), 6) AS quality
      FROM tq),
j AS (SELECT cl.cluster_id, cl.doc_id, q.quality
      FROM cl JOIN q USING (doc_id))
SELECT cluster_id, doc_id, quality
FROM (SELECT *, row_number() OVER (PARTITION BY cluster_id
                                   ORDER BY quality DESC, doc_id) AS rn
      FROM j)
WHERE rn = 1 ORDER BY cluster_id"""


# Ground truth for textstats.source_token_stats: RE2 \\S+ / BPE-ish
# counts per doc, per-source sums, count(DISTINCT term), and the two
# round-6 ratios.
def source_token_stats_sql() -> str:
    from .textstats import BPE_ISH_PATTERN

    pat = BPE_ISH_PATTERN.replace("'", "''")  # DuckDB single-quoted
    # strings are NOT backslash-escaped, so \s must stay single
    return f"""
WITH d AS (SELECT doc_id, source, coalesce(text, '') AS text
           FROM documents),
per AS (SELECT source, count(*)::BIGINT AS n_docs,
               sum(len(regexp_extract_all(text, '\\S+')))::BIGINT
                 AS n_tokens,
               sum(len(regexp_extract_all(text, '{pat}')))::BIGINT
                 AS n_subwords
        FROM d GROUP BY source),
dt AS (SELECT source, count(DISTINCT t)::BIGINT AS distinct_terms
       FROM (SELECT source,
                    unnest(list_filter(string_split_regex(text, '\\s+'),
                                       x -> x <> '')) AS t
             FROM d)
       GROUP BY source)
SELECT per.source, n_docs, n_tokens, n_subwords,
       round(n_subwords::DOUBLE / n_tokens, 6) AS fertility,
       distinct_terms,
       round(distinct_terms::DOUBLE / n_tokens, 6) AS type_token_ratio
FROM per JOIN dt USING (source) ORDER BY per.source"""


def fuzzy_correction_topk_sql(orig_term: str, corrected_term: str, *,
                              corpus: str = DOCUMENTS_CORPUS, k: int = 10,
                              round_to: int = 5) -> str:
    """Oracle for the default fuzzy (correction-mode) search shape with a
    SINGLE query token.

    The staged correction decision (typo table → prefix → quick-fuzzy /
    compound-split → consensus scan) blends phonetic + keyboard signals
    DuckDB has no kernels for, so the corrected term is passed in as a
    literal; that decision is pinned independently by the reference
    PHPUnit fuzzy replays and the 100 % / 98 % benchmark bars
    (tests/test_fuzzy*.py).  EVERYTHING ELSE is recomputed here from the
    raw rows: tokenization, BM25 over the corrected term, and the fuzzy
    penalty layer (reference ``calculateFuzzyPenalty`` :850-971 — for a
    1-token query: 0.1 if the doc contains the ORIGINAL term, 0.2
    otherwise, applied as score × (1 − penalty) before the final
    (score DESC, doc_id ASC) sort).  Valid while the corrected-term
    match set is under the MAX_RESULTS=1000 fuzzy widening clamp, which
    holds on the sf0.01 oracle corpus."""
    return f"""{_base_ctes(corpus)},
df AS (
  SELECT count(DISTINCT doc_id) AS df FROM tokf WHERE term = '{corrected_term}'
),
tf AS (
  SELECT doc_id, count(*)::DOUBLE AS tfw FROM tokf
  WHERE term = '{corrected_term}' GROUP BY doc_id
),
haso AS (SELECT DISTINCT doc_id FROM tokf WHERE term = '{orig_term}'),
scored AS (
  SELECT tf.doc_id,
         greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
           * (tf.tfw * ({K1} + 1)) /
             (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
           * (1 - CASE WHEN haso.doc_id IS NOT NULL THEN 0.1 ELSE 0.2 END)
           AS s
  FROM tf
  CROSS JOIN df CROSS JOIN stats
  JOIN dl ON dl.doc_id = tf.doc_id
  LEFT JOIN haso ON haso.doc_id = tf.doc_id
)
SELECT doc_id::BIGINT AS doc_id, round(abs(s), {round_to}) AS score
FROM scored ORDER BY -s ASC, doc_id ASC LIMIT {k}"""


def suggest_sql(corrected_terms: list[str], *, suggestion: str,
                confidence: float,
                corpus: str = DOCUMENTS_CORPUS) -> str:
    """Oracle for the did-you-mean entry (reference
    ``SearchEngine::suggest`` :2215-2373).

    ``suggestion`` (the per-token corrections joined) and ``confidence``
    (mean consensus score — a phonetic/keyboard blend with no DuckDB
    kernel) are pinned literals, justified the same way as
    ``fuzzy_correction_topk_sql``; the COUNT — the part the reference
    itself computes live ("verify the composed suggestion has hits",
    SearchEngine.php:2254, a smart-mode match count = docs containing
    ANY corrected token) — is recomputed from the raw rows."""
    in_list = ", ".join(f"'{t}'" for t in corrected_terms)
    return f"""{_base_ctes(corpus)}
SELECT '{suggestion}' AS suggestion,
       {confidence} AS confidence,
       (SELECT count(DISTINCT doc_id) FROM tokf
        WHERE term IN ({in_list}))::BIGINT AS count"""


def kcenter_sql(k: int = 8) -> str:
    """Greedy farthest-point (Gonzalez) k-center oracle — the selection
    loop unrolled into k CTE stages (seed = min vec_id; each stage takes
    the point with the largest min-distance-to-selected, ties to the
    smaller id).  Distances are euclidean over DOUBLE-cast vectors,
    matching the operator's float64 direct-form computation."""
    ctes = [
        "e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings)",
        "c0 AS (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT 1)",
        ("d0 AS (SELECT e.vec_id, e.v, list_distance(e.v, c0.v) AS md "
         "FROM e CROSS JOIN c0 WHERE e.vec_id <> c0.vec_id)"),
    ]
    for i in range(1, k):
        ctes.append(
            f"c{i} AS (SELECT vec_id, v FROM d{i-1} "
            f"ORDER BY md DESC, vec_id ASC LIMIT 1)")
        if i < k - 1:
            ctes.append(
                f"d{i} AS (SELECT d.vec_id, d.v, "
                f"least(d.md, list_distance(d.v, c.v)) AS md "
                f"FROM d{i-1} d CROSS JOIN c{i} c "
                f"WHERE d.vec_id <> c.vec_id)")
    sel = "\nUNION ALL ".join(
        f"SELECT {i}::BIGINT AS sel_rank, vec_id::BIGINT AS vec_id FROM c{i}"
        for i in range(k))
    return "WITH " + ",\n".join(ctes) + "\n" + sel + "\nORDER BY sel_rank"


def mmr_sql(terms, *, k: int = 10, k_candidates: int = 50,
            lam: float = 0.7, round_to: int = 6) -> str:
    """Ground truth for ``hybrid.mmr_rerank_topk`` — the greedy MMR
    loop unrolled into k CTE stages (same technique as ``kcenter_sql``):
    rel = min-max-normalized rounded BM25 over the candidate set, each
    stage picks argmax(lam*rel - (1-lam)*max-cos-to-selected), ties to
    the smaller doc_id; cosine via ``list_cosine_similarity`` on
    DOUBLE-cast vectors (the operator's direct-form float64)."""
    bm = bm25_topk_sql(list(terms), k=k_candidates)
    w = 1.0 - lam
    # every chained CTE is MATERIALIZED: c{i} and d{i} both reference
    # d{i-1}, so DuckDB's default inlining re-expands the whole chain
    # (and the BM25 stack under it) 2^k times — enough parquet re-opens
    # to exhaust the fd limit before k=10
    ctes = [
        f"bm AS MATERIALIZED ({bm})",
        "st AS (SELECT min(score) AS mn, max(score) AS mx FROM bm)",
        ("cand AS MATERIALIZED (SELECT bm.doc_id, "
         "CASE WHEN st.mx = st.mn THEN 1.0 "
         "ELSE (bm.score - st.mn) / (st.mx - st.mn) END AS rel, "
         "e.embedding::DOUBLE[] AS v "
         "FROM bm JOIN embeddings e ON e.vec_id = bm.doc_id, st)"),
        (f"c0 AS MATERIALIZED (SELECT doc_id, rel, v, {lam} * rel AS mmr "
         "FROM cand ORDER BY rel DESC, doc_id ASC LIMIT 1)"),
        ("d0 AS MATERIALIZED (SELECT c.doc_id, c.rel, c.v, "
         "list_cosine_similarity(c.v, c0.v) AS ms "
         "FROM cand c CROSS JOIN c0 WHERE c.doc_id <> c0.doc_id)"),
    ]
    for i in range(1, k):
        ctes.append(
            f"c{i} AS MATERIALIZED (SELECT doc_id, rel, v, "
            f"{lam} * rel - {w} * ms AS mmr FROM d{i-1} "
            f"ORDER BY ({lam} * rel - {w} * ms) DESC, doc_id ASC LIMIT 1)")
        if i < k - 1:
            ctes.append(
                f"d{i} AS MATERIALIZED (SELECT d.doc_id, d.rel, d.v, "
                f"greatest(d.ms, list_cosine_similarity(d.v, c.v)) AS ms "
                f"FROM d{i-1} d CROSS JOIN c{i} c "
                f"WHERE d.doc_id <> c.doc_id)")
    sel = "\nUNION ALL ".join(
        f"SELECT {i + 1}::BIGINT AS rank, doc_id::BIGINT AS doc_id, "
        f"round(mmr, {round_to}) AS mmr_score FROM c{i}"
        for i in range(k))
    return "WITH " + ",\n".join(ctes) + "\n" + sel + "\nORDER BY rank"


# ------------------------------------------------------ hybrid retrieval
def hybrid_rrf_sql(terms, *, query_vec_id: int = 1, k: int = 10,
                   k_arm: int = 20, rrf_k: int = 60,
                   round_to: int = 6) -> str:
    """Ground truth for ``hybrid.hybrid_rrf_topk``: RRF over the BM25-OR
    arm (``bm25_topk_sql``) and the dense cosine arm (``ann_topk_sql``),
    ranks by (rounded score desc, id asc) within each arm, fused score
    summed bm-arm-first to mirror the pipeline's addition order."""
    bm = bm25_topk_sql(list(terms), k=k_arm)
    dn = ann_topk_sql(query_vec_id=query_vec_id, k=k_arm)
    return f"""
WITH bm AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r
  FROM ({bm})
),
dn AS (
  SELECT vec_id AS doc_id,
         row_number() OVER (ORDER BY cosine DESC, vec_id ASC) AS r
  FROM ({dn})
),
fused AS (
  SELECT COALESCE(bm.doc_id, dn.doc_id) AS doc_id,
         COALESCE(1.0 / ({rrf_k} + bm.r), 0)
           + COALESCE(1.0 / ({rrf_k} + dn.r), 0) AS s
  FROM bm FULL OUTER JOIN dn ON bm.doc_id = dn.doc_id
)
SELECT doc_id::BIGINT AS doc_id, round(s, {round_to}) AS rrf_score
FROM fused ORDER BY s DESC, doc_id ASC LIMIT {k}"""


def rerank_dense_sql(terms, *, query_vec_id: int = 1, k: int = 10,
                     k_candidates: int = 50, round_to: int = 6) -> str:
    """Ground truth for ``hybrid.rerank_dense_topk``: cosine re-score of
    the BM25-OR candidate id set (semi-join), top-k by (cosine desc,
    doc_id asc)."""
    bm = bm25_topk_sql(list(terms), k=k_candidates)
    return f"""
WITH cand AS (SELECT doc_id FROM ({bm})),
q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings
      WHERE vec_id = {query_vec_id})
SELECT e.vec_id::BIGINT AS doc_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv),
             {round_to}) AS cosine
FROM embeddings e JOIN cand c ON e.vec_id = c.doc_id, q
ORDER BY cosine DESC, doc_id ASC LIMIT {k}"""


def autocomplete_sql(prefix: str = "s", *, k: int = 10,
                     corpus: str = DOCUMENTS_CORPUS) -> str:
    """Ground truth for ``fts_documents.autocomplete_topk``: per-term df
    summed over fields = count of distinct (field, doc) pairs containing
    the term, restricted to terms with the given prefix."""
    return f"""{_base_ctes(corpus)}
SELECT term,
       count(DISTINCT struct_pack(f := fld, d := doc_id))::BIGINT AS df
FROM tokf
WHERE starts_with(term, '{prefix}')
GROUP BY term
ORDER BY df DESC, term ASC LIMIT {k}"""


def regex_scan_sql(parquet_glob: str, pattern: str, *, k: int = 100) -> str:
    """Ground truth for ``textstats.regex_scan`` over the code corpus:
    per-doc RE2 match counts (DuckDB's regexp_extract_all is RE2, the
    same engine as Arrow's count_substring_regex), matching docs ranked
    count DESC, doc_id ASC.  doc_id = the deterministic
    (repo, path, commit) row order of ``read_parquet_with_doc_ids``."""
    esc = pattern.replace("'", "''")
    return f"""
WITH corpus AS (
  SELECT row_number() OVER (ORDER BY repo, path, "commit") - 1 AS doc_id,
         content
  FROM read_parquet('{parquet_glob}')
),
counted AS (
  SELECT doc_id::BIGINT AS doc_id,
         len(regexp_extract_all(content, '{esc}'))::BIGINT AS n_matches
  FROM corpus
)
SELECT doc_id, n_matches FROM counted WHERE n_matches > 0
ORDER BY n_matches DESC, doc_id ASC LIMIT {k}"""


def numeric_facet_sql(terms, field: str, edges, *,
                      corpus: str = DOCUMENTS_CORPUS,
                      candidates: int = 1000) -> str:
    """Ground truth for ``SearchEngine.numeric_facets``: BM25-OR match
    set, reference top-``candidates`` clamp (rank order score DESC,
    doc_id ASC), then histogram counts of the raw ``documents.{field}``
    over [lo, hi) buckets with an open-ended last bucket — empty
    buckets kept at 0."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    es = [float(e) for e in edges]
    inf = "'infinity'::DOUBLE"
    rows = ", ".join(
        f"({lo}, {inf if hi is None else hi})"
        for lo, hi in zip(es, es[1:] + [None]))
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld, count(*) * 1.0 AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id, stats.n, stats.avgdl
),
page AS (
  SELECT doc_id FROM scored
  QUALIFY row_number() OVER (ORDER BY -s ASC, doc_id ASC) <= {candidates}
),
vals AS (
  SELECT d.{field}::DOUBLE AS v FROM page p JOIN documents d USING (doc_id)
),
buckets AS (SELECT * FROM (VALUES {rows}) AS b(lo, hi))
SELECT b.lo, b.hi, count(v.v)::BIGINT AS count
FROM buckets b LEFT JOIN vals v ON v.v >= b.lo AND v.v < b.hi
GROUP BY b.lo, b.hi ORDER BY b.lo"""


def percolate_sql(queries, *, table: str = "documents",
                  text_col: str = "text") -> str:
    """Ground truth for percolation (``pipelines.percolate``): a doc
    hits an AND query when it contains ALL the query's distinct terms,
    an OR query when it contains ANY — same unicode61-style
    tokenization as the engine (`_TOK`).  ``queries`` is the same
    [(qid, query_string, mode)] list the pipeline takes; terms here are
    plain ASCII words so a whitespace split equals u61 tokenization."""
    rows = []
    for qid, q, mode in queries:
        terms = sorted(set(q.lower().split()))
        need = len(terms) if mode == "and" else 1
        rows += [f"({int(qid)}, '{t}', {need})" for t in terms]
    values = ", ".join(rows)
    tok = _TOK.format(col=text_col)
    return f"""
WITH tok AS (
  SELECT DISTINCT doc_id, u.term
  FROM {table}, unnest({tok}) AS u(term) WHERE u.term <> ''
),
q AS (SELECT * FROM (VALUES {values}) AS q(qid, term, need)),
hits AS (
  SELECT q.qid, tok.doc_id,
         count(DISTINCT q.term) AS got, max(q.need) AS need
  FROM q JOIN tok USING (term) GROUP BY q.qid, tok.doc_id
)
SELECT qid::BIGINT AS query_id, doc_id::BIGINT AS doc_id
FROM hits WHERE got >= need ORDER BY query_id, doc_id"""


def group_topk_sql(terms, *, corpus: str = DOCUMENTS_CORPUS,
                   route: str = "lang", n: int = 3, k: int = 3,
                   round_to: int = 5, max_results: int = 1000) -> str:
    """Ground truth for grouped results (``search_grouped``): OR-score,
    pre-clamp to the MAX_RESULTS page, then the top ``n`` docs per
    route for the top ``k`` groups ranked by best member score (ties:
    route ASC) — mirrors ``SearchEngine.search_grouped``."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld, count(*) * 1.0 AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id, stats.n, stats.avgdl
),
page AS (
  SELECT s.doc_id, s.s, c.{route} AS route
  FROM scored s JOIN corpus c USING (doc_id)
  QUALIFY row_number() OVER (ORDER BY -s.s ASC, s.doc_id ASC) <= {max_results}
),
ranked AS (
  SELECT route, doc_id, s,
         row_number() OVER (PARTITION BY route
                            ORDER BY -s ASC, doc_id ASC) AS pos,
         max(s) OVER (PARTITION BY route) AS best
  FROM page
),
topg AS (
  SELECT route, row_number() OVER (ORDER BY -best ASC, route ASC) AS grank
  FROM (SELECT DISTINCT route, best FROM ranked)
)
SELECT r.route, r.doc_id::BIGINT AS doc_id,
       round(abs(r.s), {round_to}) AS score, r.pos::BIGINT AS pos
FROM ranked r JOIN topg t USING (route)
WHERE r.pos <= {n} AND t.grank <= {k}
ORDER BY t.grank ASC, r.pos ASC"""


def infield_topk_sql(terms, fld: int, *, corpus: str = DOCUMENTS_CORPUS,
                     k: int = 20, round_to: int = 5) -> str:
    """Ground truth for field-restricted search (``in_fields``): match
    set, tf and df come from field ``fld`` only; N, avgdl and dl stay
    whole-corpus (the engine's pinned FTS5 unweighted-dl behavior)."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE fld = {fld} AND term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, count(*) * 1.0 AS tfw
  FROM tokf WHERE fld = {fld} AND term IN (SELECT term FROM qterms)
  GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id, stats.n, stats.avgdl
)
SELECT s.doc_id::BIGINT AS doc_id, round(abs(s.s), {round_to}) AS score
FROM scored s ORDER BY -s.s ASC, s.doc_id ASC LIMIT {k}"""


# Ground truth for events.funnel_counts: strict sequential funnel
# (view -> click -> purchase).  Stage 2 requires a click strictly after
# the user's FIRST view; stage 3 a purchase strictly after the earliest
# qualifying click — the same greedy-earliest chain the operator walks
# (greedy-earliest maximizes the remaining suffix, so reach is exact).
FUNNEL_SQL = """
WITH a AS (SELECT user_id, min(ts) AS t1 FROM events
           WHERE event_type = 'view' GROUP BY user_id),
b AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
      JOIN a ON e.user_id = a.user_id
      WHERE e.event_type = 'click' AND e.ts > a.t1 GROUP BY e.user_id),
c AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
      JOIN b ON e.user_id = b.user_id
      WHERE e.event_type = 'purchase' AND e.ts > b.t2 GROUP BY e.user_id)
SELECT * FROM (
  SELECT 1::BIGINT AS stage, 'view' AS event_type,
         (SELECT count(*) FROM a)::BIGINT AS n_users
  UNION ALL
  SELECT 2, 'click', (SELECT count(*) FROM b)
  UNION ALL
  SELECT 3, 'purchase', (SELECT count(*) FROM c)
) ORDER BY stage"""


# Ground truth for events.distinct_users_per_type: exact grouped
# cardinality.
GROUP_DISTINCT_SQL = """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY event_type ORDER BY event_type"""


# Ground truth for relational.priority_line_counts (TPC-H Q12 shape):
# conditional counts over the lineitem x orders join.
PRIORITY_LINES_SQL = """
SELECT l_returnflag,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END)::BIGINT AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY l_returnflag ORDER BY l_returnflag"""


def rank_eval_sql(specs, *, corpus: str = DOCUMENTS_CORPUS,
                  k: int = 10, round_to: int = 6) -> str:
    """Ground truth for ``fts_documents.rank_eval``: per query, the
    served page is the OR-mode BM25 top-k (standard CTEs, rank order
    score DESC / doc_id ASC); the relevance set is the AND match set
    (``nterms = len(terms)`` — identical scoring, prune only).  Metrics:
    binary-gain precision@k, recall@k, reciprocal rank of the first
    relevant hit, and nDCG@k with ideal DCG over ``min(k, n_rel)``
    top slots."""
    parts = []
    for qname, terms in specs:
        nt = len(terms)
        terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
        parts.append(f"""
SELECT * FROM (
{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld, count(*) * 1.0 AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) ) AS s,
         count(*) AS nterms
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id
),
page AS (
  SELECT doc_id, row_number() OVER (ORDER BY -s ASC, doc_id ASC) AS rnk
  FROM scored ORDER BY -s ASC, doc_id ASC LIMIT {k}
),
rel AS (SELECT doc_id FROM scored WHERE nterms = {nt}),
nrel AS (SELECT count(*) AS n FROM rel),
hitranks AS (SELECT p.rnk FROM page p JOIN rel USING (doc_id)),
m AS (
  SELECT (SELECT n FROM nrel) AS n_rel,
         (SELECT count(*) FROM hitranks) AS hits,
         (SELECT coalesce(sum(1.0 / log2(rnk + 1)), 0.0) FROM hitranks) AS dcg,
         (SELECT coalesce(sum(1.0 / log2(i + 1)), 0.0)
          FROM (SELECT unnest(generate_series(1,
                  least({k}, (SELECT n FROM nrel)))) AS i)) AS idcg,
         (SELECT min(rnk) FROM hitranks) AS first_rank
)
SELECT '{qname}' AS query,
       n_rel::BIGINT AS n_rel,
       hits::BIGINT AS hits,
       round(hits / {k}.0, {round_to}) AS precision_k,
       CASE WHEN n_rel > 0 THEN round(hits / n_rel::DOUBLE, {round_to})
            ELSE 0.0 END AS recall_k,
       CASE WHEN first_rank IS NOT NULL
            THEN round(1.0 / first_rank, {round_to}) ELSE 0.0 END AS rr,
       CASE WHEN idcg > 0 THEN round(dcg / idcg, {round_to})
            ELSE 0.0 END AS ndcg
FROM m
) q_{qname}""")
    return " UNION ALL ".join(parts) + " ORDER BY query"


# Ground truth for events.retention_cohorts: weekly cohort triangle.
# date_trunc('week') is Monday-start, matching pyarrow floor_temporal.
RETENTION_COHORTS_SQL = """
WITH act AS (SELECT DISTINCT user_id, date_trunc('week', ts) AS wk
             FROM events),
coh AS (SELECT user_id, min(wk) AS cw FROM act GROUP BY user_id)
SELECT cw AS cohort_week,
       ((epoch(wk) - epoch(cw)) / 604800)::BIGINT AS offset_weeks,
       count(*)::BIGINT AS n_users
FROM act JOIN coh USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2"""


def daily_moving_avg_sql(window_days: int = 7) -> str:
    """Ground truth for events.daily_moving_avg: trailing rolling mean
    over per-type daily counts (frame = available preceding rows, the
    pandas min_periods=1 contract)."""
    return f"""
WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,
                  count(*) AS n
           FROM events GROUP BY 1, 2)
SELECT event_type, day, n::BIGINT AS n,
       round(avg(n) OVER (PARTITION BY event_type ORDER BY day
                          ROWS BETWEEN {window_days - 1} PRECEDING
                          AND CURRENT ROW), 6) AS ma
FROM d ORDER BY event_type, day"""


# Ground truth for events.type_cooccurrence: users performing both
# types of each unordered pair.
TYPE_COOCCURRENCE_SQL = """
WITH u AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       count(*)::BIGINT AS n_users
FROM u a JOIN u b ON a.user_id = b.user_id
                 AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2"""


def late_shipment_priority_sql(grace_days: int = 30) -> str:
    """Ground truth for relational.late_shipment_priority (Q4-shape
    EXISTS): orders with any lineitem shipped > grace_days after the
    order date, counted per priority."""
    return f"""
SELECT o_orderpriority, count(*)::BIGINT AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate
                                   + INTERVAL {grace_days} DAY)
GROUP BY 1 ORDER BY 1"""


def ann_range_search_sql(query_vec_id: int = 1, threshold: float = 0.2,
                         round_to: int = 6) -> str:
    """Ground truth for ann.range_search: every vector with raw cosine
    >= threshold to the query vector, rounded for display only."""
    return f"""
WITH q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings
           WHERE vec_id = {query_vec_id})
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv),
             {round_to}) AS cosine
FROM embeddings e, q
WHERE list_cosine_similarity(e.embedding::DOUBLE[], q.qv) >= {threshold}
ORDER BY cosine DESC, vec_id ASC"""


def zipf_fit_sql(top_n: int = 1000, round_to: int = 6) -> str:
    """Ground truth for textstats.zipf_fit: regr_slope/intercept of
    ln(freq) ~ ln(rank) over the top_n most-frequent whitespace terms
    (rank order freq DESC, term ASC)."""
    return f"""
WITH uni AS (
  SELECT u.t AS term, count(*) AS n
  FROM (SELECT {TOKENS_EXPR} AS toks FROM documents), unnest(toks) AS u(t)
  GROUP BY u.t
),
ranked AS (
  SELECT n, row_number() OVER (ORDER BY n DESC, term ASC) AS r FROM uni
)
SELECT count(*)::BIGINT AS n_fit,
       round(regr_slope(ln(n), ln(r)), {round_to}) AS slope,
       round(regr_intercept(ln(n), ln(r)), {round_to}) AS intercept
FROM ranked WHERE r <= {top_n}"""


def window_self_join_sql(within_minutes: int = 5) -> str:
    """Ground truth for events.window_self_join: same-user event pairs
    within the window, each unordered pair once (earlier event — ties
    by event_id — is side a)."""
    return f"""
SELECT a.event_type AS type_a, b.event_type AS type_b,
       count(*)::BIGINT AS n_pairs
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
 AND b.ts <= a.ts + INTERVAL {within_minutes} MINUTE
GROUP BY 1, 2 ORDER BY 1, 2"""


# Ground truth for relational.pricing_rollup: ANSI ROLLUP with NULL
# group keys rendered as '' to keep the hash-compare deterministic.
PRICING_ROLLUP_SQL = """
SELECT coalesce(l_returnflag, '') AS l_returnflag,
       coalesce(l_linestatus, '') AS l_linestatus,
       round(sum(l_quantity), 4) AS sum_qty,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_revenue
FROM lineitem
GROUP BY ROLLUP (l_returnflag, l_linestatus)
ORDER BY 1, 2"""


def fuzzy_name_join_sql(max_dist: int = 2) -> str:
    """Ground truth for relational.fuzzy_name_join: brand-blocked
    self-join on levenshtein(p_name) <= max_dist, each pair once."""
    return f"""
SELECT a.p_partkey::BIGINT AS p_partkey_a,
       b.p_partkey::BIGINT AS p_partkey_b,
       a.p_brand,
       levenshtein(a.p_name, b.p_name)::BIGINT AS dist
FROM part a JOIN part b
  ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
WHERE levenshtein(a.p_name, b.p_name) <= {max_dist}
ORDER BY p_partkey_a, p_partkey_b"""


def doc_similarity_sql(k: int = 3, maxdf_ratio: float = 1.0,
                       round_to: int = 6, where: str = "TRUE") -> str:
    """Ground truth for textstats.doc_similarity_topk: TF-IDF
    (w = tf·ln(N/df), maxdf-capped, L2-normalized) all-pairs cosine,
    top-k per doc ranked by ROUNDED cosine DESC, neighbour id ASC.
    ``where`` bounds the corpus slice (the pair volume is quadratic in
    per-term df, so driver entries run on a bounded subset)."""
    return f"""
WITH corpus AS (SELECT * FROM documents WHERE {where}),
tok AS (
  SELECT doc_id, u.t AS term
  FROM (SELECT doc_id, {TOKENS_EXPR} AS toks FROM corpus),
       unnest(toks) AS u(t)
),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
nn AS (SELECT count(*) AS n FROM corpus),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
w AS (SELECT doc_id, term, tf * ln(nn.n / df.df) AS w
      FROM tf JOIN df USING (term), nn
      WHERE df.df <= {maxdf_ratio} * nn.n),
nrm AS (SELECT doc_id, sqrt(sum(w * w)) AS nz FROM w GROUP BY doc_id),
wn AS (SELECT w.doc_id, term, w / nz AS w
       FROM w JOIN nrm USING (doc_id) WHERE nz > 0),
sim AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               round(sum(a.w * b.w), {round_to}) AS cosine
        FROM wn a JOIN wn b ON a.term = b.term AND a.doc_id <> b.doc_id
        GROUP BY 1, 2),
rk AS (SELECT doc_a, doc_b, cosine,
              row_number() OVER (PARTITION BY doc_a
                                 ORDER BY cosine DESC, doc_b ASC) AS rank
       FROM sim)
SELECT doc_a::BIGINT AS doc_a, doc_b::BIGINT AS doc_b, cosine,
       rank::BIGINT AS rank
FROM rk WHERE rank <= {k} ORDER BY doc_a, rank"""


# Ground truth for relational.group_dispersion (stddev_samp matches
# Ray's Std ddof=1 default).
GROUP_DISPERSION_SQL = """
SELECT l_returnflag, count(*)::BIGINT AS n,
       round(avg(l_extendedprice), 4) AS mean_price,
       round(stddev_samp(l_extendedprice), 4) AS std_price,
       round(min(l_extendedprice), 4) AS min_price,
       round(max(l_extendedprice), 4) AS max_price
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"""


def window_distinct_sql(width_minutes: int = 360) -> str:
    """Ground truth for events.window_distinct_users."""
    return f"""
SELECT time_bucket(INTERVAL {width_minutes} MINUTE, ts) AS window_start,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY 1 ORDER BY 1"""


def highlight_topk_sql(term: str, k: int = 10, round_to: int = 5) -> str:
    """Ground truth for fts_documents.highlight_topk: the BM25 page
    joined with the raw text, snippet rebuilt with string/regexp
    functions mirroring ``make_snippet`` exactly for a single-term
    query (find window -> word-boundary trim -> 160-char clamp ->
    '...' affixes -> global ``\\b(term s?)\\b`` marking).  For ASCII
    text ``fold_text == lower``, and ``find(term+'s') >= find(term)``
    always, so the first-occurrence scan reduces to one strpos."""
    inner = bm25_topk_sql([term], k=k, round_to=round_to)
    return f"""
WITH page AS ({inner}),
snip AS (
  SELECT p.doc_id, p.score, d.text,
         strpos(lower(d.text), '{term}') AS pos1
  FROM page p JOIN documents d USING (doc_id)
),
win AS (
  SELECT doc_id, score, text, pos1,
         greatest(0, pos1 - 1 - 50) AS start0
  FROM snip
),
trimmed AS (
  SELECT doc_id, score, text, pos1,
         CASE WHEN start0 > 0
                   AND strpos(substr(lower(text), start0 + 1), ' ') > 0
                   AND start0 + strpos(substr(lower(text), start0 + 1), ' ')
                       - 1 < pos1 - 1
              THEN start0 + strpos(substr(lower(text), start0 + 1), ' ')
              ELSE start0 END AS s0
  FROM win
),
built AS (
  SELECT doc_id, score,
         CASE WHEN pos1 = 0 THEN substr(text, 1, 160)
              ELSE (CASE WHEN s0 > 0 THEN '...' ELSE '' END)
                   || substr(text, s0 + 1, 160)
                   || (CASE WHEN s0 + 160 < length(text) THEN '...'
                            ELSE '' END)
         END AS snippet
  FROM trimmed
)
SELECT b.doc_id, b.score,
       regexp_replace(b.snippet, '\\b({term}s?)\\b',
                      '<mark>\\1</mark>', 'gi') AS highlight
FROM built b JOIN page p USING (doc_id)
ORDER BY -p.score ASC, b.doc_id ASC"""


# Ground truth for events.user_gap_stats (lag() window shape).
USER_GAP_STATS_SQL = """
WITH g AS (
  SELECT user_id,
         epoch(ts - lag(ts) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id)) AS gap
  FROM events
)
SELECT user_id::BIGINT AS user_id, count(*)::BIGINT AS n_events,
       coalesce(round(avg(gap), 4), 0.0) AS mean_gap_sec,
       coalesce(round(max(gap), 4), 0.0) AS max_gap_sec
FROM g GROUP BY user_id ORDER BY user_id"""


# Ground truth for events.transition_matrix (lead() window shape).
TRANSITION_MATRIX_SQL = """
WITH nxt AS (
  SELECT user_id, event_type AS type_from,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS type_to
  FROM events
)
SELECT type_from, type_to, count(*)::BIGINT AS n
FROM nxt WHERE type_to IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2"""


# Ground truth for events.daily_running_total (unbounded-preceding
# window frame).
DAILY_RUNNING_TOTAL_SQL = """
WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,
                  sum(value) AS day_value
           FROM events GROUP BY 1, 2)
SELECT event_type, day, round(day_value, 4) AS day_value,
       round(sum(day_value) OVER (PARTITION BY event_type ORDER BY day
                                  ROWS UNBOUNDED PRECEDING), 4) AS running
FROM d ORDER BY event_type, day"""


def percent_rank_sql(round_to: int = 6) -> str:
    """Ground truth for relational.percent_rank_nchars."""
    return f"""
SELECT doc_id::BIGINT AS doc_id, n_chars::BIGINT AS n_chars,
       round(percent_rank() OVER (ORDER BY n_chars), {round_to}) AS pr
FROM documents ORDER BY doc_id"""


# Ground truth for events.props_stats_per_type (JSON extraction shape).
PROPS_STATS_SQL = """
WITH x AS (SELECT event_type,
                  json_extract(props, '$.k')::BIGINT AS k
           FROM events)
SELECT event_type, count(*)::BIGINT AS n,
       round(avg(k), 6) AS k_mean, max(k)::BIGINT AS k_max
FROM x WHERE k IS NOT NULL
GROUP BY event_type ORDER BY event_type"""


def customer_order_counts_sql(k: int = 20) -> str:
    """Ground truth for relational.customer_order_counts (LEFT OUTER +
    COALESCE)."""
    return f"""
SELECT c.c_custkey::BIGINT AS c_custkey, c.c_name,
       coalesce(count(o.o_orderkey), 0)::BIGINT AS n_orders
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY 1, 2 ORDER BY c_custkey LIMIT {k}"""


# Ground truth for relational.group_price_qty_corr (corr() + weighted
# mean from the same one-pass moments).
GROUP_CORR_SQL = """
SELECT l_returnflag, count(*)::BIGINT AS n,
       round(corr(l_extendedprice, l_quantity), 6) AS corr_price_qty,
       round(sum(l_quantity * l_discount) / sum(l_quantity), 6)
         AS wavg_discount
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"""


def zscore_anomaly_sql(z_thresh: float = 2.0) -> str:
    """Ground truth for events.zscore_anomalies: per-type daily counts
    flagged where |z| (population std) exceeds the threshold."""
    return f"""
WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,
                  count(*) AS n
           FROM events GROUP BY 1, 2),
s AS (SELECT event_type, avg(n) AS m, stddev_pop(n) AS sd
      FROM d GROUP BY 1)
SELECT d.event_type, day, n::BIGINT AS n,
       round((n - m) / sd, 6) AS z
FROM d JOIN s USING (event_type)
WHERE sd > 0 AND abs((n - m) / sd) > {z_thresh}
ORDER BY d.event_type, day"""


# Ground truth for events.hourly_profile (diurnal seasonality shape).
HOURLY_PROFILE_SQL = """
SELECT event_type, hour(ts)::BIGINT AS hod, count(*)::BIGINT AS n,
       round(avg(value), 6) AS v_mean
FROM events GROUP BY 1, 2 ORDER BY 1, 2"""


def daily_ema_sql(alpha: float = 0.3, window: int = 14) -> str:
    """Ground truth for events.daily_ema: truncated exponential moving
    average as a bounded self-join on per-type day rank (weight
    (1-alpha)^(rank delta), renormalized over the visible window)."""
    return f"""
WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,
                  count(*) AS n
           FROM events GROUP BY 1, 2),
r AS (SELECT event_type, day, n,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY day) AS rn
      FROM d)
SELECT a.event_type, a.day, a.n::BIGINT AS n,
       round(sum(b.n * power({1.0 - alpha}, a.rn - b.rn))
             / sum(power({1.0 - alpha}, a.rn - b.rn)), 6) AS ema
FROM r a JOIN r b
  ON a.event_type = b.event_type
 AND b.rn BETWEEN a.rn - {window - 1} AND a.rn
GROUP BY a.event_type, a.day, a.n
ORDER BY a.event_type, a.day"""


def ngram_novelty_sql(n: int = 5) -> str:
    """Ground truth for textstats.ngram_novelty: distinct word n-grams
    per doc, first occurrence by min doc_id, novelty = novel/total."""
    return f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '[\\t\\n\\f\\r ]+'),
                     t -> t <> '') AS ts
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id, g FROM (
    SELECT doc_id,
           unnest(list_transform(
             range(1, greatest(len(ts) - {n - 1}, 0) + 1),
             i -> array_to_string(ts[i:i+{n - 1}], ' '))) AS g
    FROM toks)
),
firsts AS (SELECT g, min(doc_id) AS fd FROM grams GROUP BY g),
tot AS (SELECT doc_id, count(*) AS n_grams FROM grams GROUP BY doc_id),
nov AS (SELECT fd AS doc_id, count(*) AS n_novel FROM firsts GROUP BY fd)
SELECT t.doc_id::BIGINT AS doc_id, t.n_grams::BIGINT AS n_grams,
       coalesce(nov.n_novel, 0)::BIGINT AS n_novel,
       round(coalesce(nov.n_novel, 0) / t.n_grams::DOUBLE, 6) AS novelty
FROM tot t LEFT JOIN nov USING (doc_id) ORDER BY doc_id"""


def above_class_average_sql(round_to: int = 4) -> str:
    """Ground truth for relational.above_class_average (decorrelated
    correlated subquery; excess = avg(selected) - class mean, the same
    algebra the Ray side uses)."""
    return f"""
WITH m AS (SELECT o_orderpriority, avg(o_totalprice) AS mp
           FROM orders GROUP BY 1)
SELECT o.o_orderpriority, count(*)::BIGINT AS n_above,
       round(avg(o.o_totalprice) - max(m.mp), {round_to}) AS avg_excess
FROM orders o JOIN m USING (o_orderpriority)
WHERE o.o_totalprice > m.mp
GROUP BY 1 ORDER BY 1"""


# Ground truth for relational.group_skew_kurt (DuckDB's bias-corrected
# sample skewness / excess kurtosis).
GROUP_SKEW_KURT_SQL = """
SELECT l_returnflag, count(*)::BIGINT AS n,
       round(skewness(l_extendedprice), 6) AS skew_price,
       round(kurtosis(l_extendedprice), 6) AS kurt_price
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"""


def decay_topk_sql(terms, *, origin: float = 300.0, scale: float = 120.0,
                   offset: float = 0.0, corpus: str = DOCUMENTS_CORPUS,
                   w0: float = 1.0, w1: float = 1.0, k: int = 20,
                   round_to: int = 5) -> str:
    """Ground truth for fts_documents.decay_topk: OR BM25 multiplied by
    an ES gauss decay on n_chars, over the full match set."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld,
           count(*) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END) AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
contrib AS (
  SELECT tf.doc_id,
         greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({K1} + 1)) /
                (tf.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl)) AS c
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
),
scored AS (SELECT doc_id, sum(c) AS s FROM contrib GROUP BY doc_id),
dec AS (
  SELECT s.doc_id,
         s.s * exp(-pow(greatest(abs(d.n_chars - {origin}) - {offset}, 0), 2)
                   / (2 * {scale} * {scale})) AS s
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT doc_id::BIGINT AS doc_id, round(abs(s), {round_to}) AS score
FROM dec ORDER BY -s ASC, doc_id ASC LIMIT {k}"""


def adjacency_matrix_sql(filters=(("a", "vector"), ("b", "stream"),
                                  ("c", "merge")),
                         corpus: str = DOCUMENTS_CORPUS) -> str:
    """Ground truth for fts_documents.adjacency_matrix: per-filter and
    pairwise-intersection doc counts over distinct (doc, term) match
    sets, empty buckets omitted (ES adjacency_matrix contract)."""
    names = [n for n, _ in filters]
    sets = "".join(
        f",\nf_{n} AS (SELECT DISTINCT doc_id FROM tokf WHERE term = '{t}')"
        for n, t in filters)
    arms = [f"SELECT '{n}' AS key, (SELECT count(*) FROM f_{n}) AS doc_count"
            for n in names]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            arms.append(
                f"SELECT '{a}&{b}', (SELECT count(*) FROM f_{a} "
                f"JOIN f_{b} USING (doc_id))")
    union = "\nUNION ALL ".join(arms)
    return f"""{_base_ctes(corpus)}{sets}
SELECT key, doc_count::BIGINT AS doc_count FROM ({union})
WHERE doc_count > 0 ORDER BY key"""


def composite_page_sql(size: int = 10, after=("en", "src3")) -> str:
    """Ground truth for relational.composite_page (ES composite
    after-key paging; lexicographic tuple cut)."""
    a0, a1 = after
    return f"""
SELECT lang, source, count(*)::BIGINT AS doc_count
FROM documents
GROUP BY lang, source
HAVING lang > '{a0}' OR (lang = '{a0}' AND source > '{a1}')
ORDER BY lang, source LIMIT {size}"""


# Ground truth for relational.brand_supplier_counts (TPC-H Q16 shape).
BRAND_SUPPLIERS_SQL = """
SELECT p_brand, count(DISTINCT l_suppkey)::BIGINT AS n_suppliers
FROM lineitem JOIN part ON p_partkey = l_partkey
GROUP BY p_brand ORDER BY p_brand"""


def rare_terms_sql(max_df: int = 2, k: int = 50,
                   corpus: str = DOCUMENTS_CORPUS) -> str:
    """Ground truth for fts_documents.rare_terms: body-field terms with
    document frequency <= max_df, ordered (df, term)."""
    return f"""{_base_ctes(corpus)}
SELECT term, count(DISTINCT doc_id)::BIGINT AS df
FROM tokf WHERE fld = 1
GROUP BY term HAVING count(DISTINCT doc_id) <= {max_df}
ORDER BY df, term LIMIT {k}"""


def ann_filtered_topk_sql(query_vec_id: int = 1, label: int = 2,
                          k: int = 10, round_to: int = 6) -> str:
    """Ground truth for the filtered vector search entry: brute-force
    cosine top-k restricted to a label predicate."""
    return f"""
WITH q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings
           WHERE vec_id = {query_vec_id})
SELECT e.vec_id::BIGINT AS vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv),
             {round_to}) AS cosine
FROM embeddings e, q WHERE e.label = {label}
ORDER BY cosine DESC, vec_id ASC LIMIT {k}"""


def centroid_outliers_sql(z_thresh: float = 2.0, round_to: int = 6) -> str:
    """Ground truth for ann.centroid_outliers: per-label centroid
    (element-wise avg), Euclidean distance, per-label population
    z-score over distances, |z| > threshold flagged."""
    return f"""
WITH x AS (
  SELECT vec_id, label,
         unnest(embedding::DOUBLE[]) AS v,
         generate_subscripts(embedding, 1) AS pos
  FROM embeddings
),
cent AS (SELECT label, pos, avg(v) AS c FROM x GROUP BY label, pos),
d AS (
  SELECT x.vec_id, x.label, sqrt(sum(pow(x.v - cent.c, 2))) AS dist
  FROM x JOIN cent ON cent.label = x.label AND cent.pos = x.pos
  GROUP BY x.vec_id, x.label
),
st AS (SELECT label, avg(dist) AS m, stddev_pop(dist) AS sd
       FROM d GROUP BY label)
SELECT d.vec_id::BIGINT AS vec_id, d.label::BIGINT AS label,
       round(d.dist, {round_to}) AS dist,
       round((d.dist - st.m) / st.sd, {round_to}) AS z
FROM d JOIN st USING (label)
WHERE st.sd > 0 AND abs((d.dist - st.m) / st.sd) > {z_thresh}
ORDER BY vec_id"""


def session_stats_sql(gap_minutes: int = 30, round_to: int = 4) -> str:
    """Ground truth for events.session_stats: the SESSION_WINDOWS_SQL
    sessionization collapsed to one global summary row."""
    return f"""
WITH x AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   >= INTERVAL {gap_minutes} MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
),
s AS (
  SELECT user_id, ts,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM x
),
sess AS (
  SELECT user_id, sid, epoch(max(ts) - min(ts)) AS duration_sec,
         count(*) AS n_events
  FROM s GROUP BY user_id, sid
)
SELECT count(*)::BIGINT AS n_sessions,
       round(avg(duration_sec), {round_to}) AS mean_duration_sec,
       round(avg(n_events), 6) AS mean_events,
       max(n_events)::BIGINT AS max_events
FROM sess"""


def langid_confusion_sql(markers: dict, order) -> str:
    """Ground truth for textstats.langid_confusion: the lang_id_sql
    predictor joined back to the labeled lang column, counted."""
    inner = lang_id_sql(markers, order)
    return f"""
SELECT d.lang, p.pred_lang, count(*)::BIGINT AS n
FROM ({inner}) p JOIN documents d USING (doc_id)
GROUP BY 1, 2 ORDER BY 1, 2"""


def label_separation_sql(round_to: int = 6) -> str:
    """Ground truth for ann.label_separation: per-label centroids via
    positional unnest + avg, pairwise centroid cosine (a < b)."""
    return f"""
WITH x AS (
  SELECT label, unnest(embedding::DOUBLE[]) AS v,
         generate_subscripts(embedding, 1) AS pos
  FROM embeddings
),
cent AS (
  SELECT label, list(avgv ORDER BY pos) AS c FROM (
    SELECT label, pos, avg(v) AS avgv FROM x GROUP BY label, pos)
  GROUP BY label
)
SELECT a.label::BIGINT AS label_a, b.label::BIGINT AS label_b,
       round(list_cosine_similarity(a.c, b.c), {round_to})
         AS centroid_cosine
FROM cent a JOIN cent b ON a.label < b.label
ORDER BY label_a, label_b"""


# Ground truth for textstats.fertility_by_lang (per-lang subword/word).
FERTILITY_SQL = f"""
SELECT lang, sum(len({TOKENS_EXPR}))::BIGINT AS n_tokens,
       sum(len(regexp_extract_all(text,
           '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+')))::BIGINT
         AS n_subwords,
       round(sum(len(regexp_extract_all(text,
           '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+')))::DOUBLE
             / sum(len({TOKENS_EXPR})), 6) AS fertility
FROM documents GROUP BY lang ORDER BY lang"""


def percentile_ranks_sql(thresholds=(50000.0, 150000.0, 300000.0),
                         round_to: int = 6) -> str:
    """Ground truth for relational.percentile_ranks (ES
    percentile_ranks: fraction of rows at or below each value)."""
    arms = " UNION ALL ".join(
        f"SELECT {float(v)} AS threshold, "
        f"round(sum(CASE WHEN o_totalprice <= {float(v)} THEN 1 ELSE 0 "
        f"END)::DOUBLE / count(*), {round_to}) AS frac FROM orders"
        for v in thresholds)
    return f"SELECT * FROM ({arms}) ORDER BY threshold"


# Ground truth for events.new_users_daily (first-seen + cumulative).
NEW_USERS_SQL = """
WITH f AS (SELECT user_id, min(date_trunc('day', ts)) AS day
           FROM events GROUP BY user_id),
d AS (SELECT day, count(*) AS n_new FROM f GROUP BY day)
SELECT day, n_new::BIGINT AS n_new,
       sum(n_new) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)::BIGINT
         AS cum_users
FROM d ORDER BY day"""


def range_frame_sql(width: float = 5000.0, k: int = 50) -> str:
    """Ground truth for relational.price_neighborhood_counts (RANGE
    window frame)."""
    return f"""
SELECT o_orderkey::BIGINT AS o_orderkey, o_orderpriority,
       count(*) OVER (PARTITION BY o_orderpriority ORDER BY o_totalprice
                      RANGE BETWEEN {width} PRECEDING
                      AND {width} FOLLOWING)::BIGINT AS n_near
FROM orders ORDER BY o_orderkey LIMIT {k}"""


def value_histogram_sql(interval: float = 10.0) -> str:
    """Ground truth for events.value_histogram (ES histogram agg)."""
    return f"""
SELECT floor(value / {interval}) * {interval} AS bucket,
       count(*)::BIGINT AS n, round(sum(value), 4) AS value_sum
FROM events GROUP BY 1 ORDER BY 1"""


# Ground truth for relational.pricing_cube (full CUBE grouping sets).
PRICING_CUBE_SQL = """
SELECT coalesce(l_returnflag, '') AS l_returnflag,
       coalesce(l_linestatus, '') AS l_linestatus,
       round(sum(l_quantity), 4) AS sum_qty,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_revenue
FROM lineitem
GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY 1, 2"""


def quality_prune_sql(stopwords, q: float = 0.7) -> str:
    """Ground truth for curation.quality_prune: the quality_sql scores
    gated at their exact percentile_disc(q)."""
    inner = quality_sql(stopwords)
    return f"""
WITH f AS ({inner}),
thr AS (SELECT percentile_disc({q}) WITHIN GROUP (ORDER BY quality) AS t
        FROM f)
SELECT f.doc_id::BIGINT AS doc_id, f.quality
FROM f, thr WHERE f.quality >= thr.t ORDER BY f.doc_id"""


def bloom_join_sql(priority: str = "1-URGENT") -> str:
    """Ground truth for relational.bloom_filtered_revenue (the plain
    join the runtime filter must reproduce exactly)."""
    return f"""
SELECT l_returnflag, count(*)::BIGINT AS n,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE o_orderpriority = '{priority}'
GROUP BY 1 ORDER BY 1"""


# Ground truth for events.latest_event_per_user (argmax window shape).
LATEST_EVENT_SQL = """
SELECT user_id::BIGINT AS user_id, ts, event_type,
       round(value, 4) AS value
FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                                   ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
WHERE rn = 1 ORDER BY user_id"""


def code_lang_stats_sql(parquet_glob: str) -> str:
    """Ground truth for relational.code_lang_stats."""
    return f"""
SELECT lang, count(*)::BIGINT AS n_files,
       sum(length(content))::BIGINT AS total_chars,
       round(avg(length(content)), 4) AS avg_chars
FROM read_parquet('{parquet_glob}') GROUP BY lang ORDER BY lang"""


def code_repo_topk_sql(parquet_glob: str, k: int = 10) -> str:
    """Ground truth for relational.code_repo_topk."""
    return f"""
SELECT repo, count(*)::BIGINT AS n_files
FROM read_parquet('{parquet_glob}') GROUP BY repo
ORDER BY n_files DESC, repo LIMIT {k}"""


def code_dir_stats_sql(parquet_glob: str, k: int = 50) -> str:
    """Ground truth for relational.code_dir_stats."""
    return f"""
SELECT split_part(path, '/', 2) AS module, count(*)::BIGINT AS n_files,
       count(DISTINCT lang)::BIGINT AS n_langs
FROM read_parquet('{parquet_glob}') GROUP BY 1 ORDER BY module LIMIT {k}"""


# Ground truth for events.asof_join_orders(direction="forward"):
# earliest order at-or-after each event (ties -> min o_orderkey).
ASOF_FORWARD_SQL = """
SELECT e.event_id::BIGINT AS event_id, e.user_id::BIGINT AS user_id,
       COALESCE((SELECT o.o_orderkey FROM orders o
                 WHERE o.o_custkey = e.user_id AND o.o_orderdate >= e.ts
                 ORDER BY o.o_orderdate ASC, o.o_orderkey ASC LIMIT 1),
                -1)::BIGINT AS o_orderkey
FROM events e ORDER BY event_id"""


def datasheet_sql(stopwords) -> str:
    """Ground truth for curation.datasheet (one-row corpus report)."""
    inner = quality_sql(stopwords)
    return f"""
WITH q AS ({inner}),
d AS (SELECT count(*) AS dup_groups FROM (
        SELECT text FROM documents GROUP BY text HAVING count(*) > 1)),
t AS (SELECT count(*)::BIGINT AS n_docs,
             count(DISTINCT lang)::BIGINT AS n_langs,
             count(DISTINCT source)::BIGINT AS n_sources,
             sum(len({TOKENS_EXPR}))::BIGINT AS total_tokens
      FROM documents)
SELECT t.n_docs, t.n_langs, t.n_sources, t.total_tokens,
       d.dup_groups::BIGINT AS dup_groups,
       (SELECT round(avg(quality), 6) FROM q) AS mean_quality
FROM t, d"""


def knn_join_sql(k: int = 3, round_to: int = 6) -> str:
    """Ground truth for ann.knn_join: per-vector top-k neighbors by
    (rounded cosine desc, neighbor id asc), self excluded."""
    return f"""
WITH s AS (
  SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id,
         round(list_cosine_similarity(a.embedding::DOUBLE[],
                                      b.embedding::DOUBLE[]),
               {round_to}) AS cosine
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
),
r AS (SELECT *, row_number() OVER (PARTITION BY vec_id
                                   ORDER BY cosine DESC, neighbor_id)
        AS rn FROM s)
SELECT vec_id::BIGINT AS vec_id, neighbor_id::BIGINT AS neighbor_id,
       cosine
FROM r WHERE rn <= {k} ORDER BY vec_id, cosine DESC, neighbor_id"""


# Ground truth for textstats.ttr_by_source (lexical diversity).
TTR_BY_SOURCE_SQL = f"""
WITH tok AS (
  SELECT source, u.term
  FROM (SELECT source, {TOKENS_EXPR} AS ts FROM documents),
       unnest(ts) AS u(term)
  WHERE u.term <> ''
)
SELECT source, count(DISTINCT term)::BIGINT AS n_terms,
       count(*)::BIGINT AS n_tokens,
       round(count(DISTINCT term)::DOUBLE / count(*), 6) AS ttr
FROM tok GROUP BY source ORDER BY source"""


# Ground truth for events.daily_pct_change (lag arithmetic window).
DAILY_PCT_CHANGE_SQL = """
WITH d AS (SELECT event_type, date_trunc('day', ts) AS day,
                  count(*) AS n
           FROM events GROUP BY 1, 2),
l AS (SELECT event_type, day, n,
             lag(n) OVER (PARTITION BY event_type ORDER BY day) AS p
      FROM d)
SELECT event_type, day, n::BIGINT AS n,
       round((n - p) / p::DOUBLE, 6) AS pct_change
FROM l WHERE p IS NOT NULL ORDER BY event_type, day"""


def sq8_error_sql(round_to: int = 6) -> str:
    """Ground truth for ann.sq8_error: per-dim min/max grid, int8
    quantize with floor(x+0.5), per-label mean absolute error."""
    return f"""
WITH x AS (
  SELECT vec_id, label, unnest(embedding::DOUBLE[]) AS v,
         generate_subscripts(embedding, 1) AS pos
  FROM embeddings
),
g AS (SELECT pos, min(v) AS lo,
             CASE WHEN max(v) > min(v) THEN (max(v) - min(v)) / 255.0
                  ELSE 1.0 END AS s
      FROM x GROUP BY pos),
e AS (
  SELECT x.vec_id, x.label,
         avg(abs(x.v - (g.lo + floor((x.v - g.lo) / g.s + 0.5) * g.s)))
           AS err
  FROM x JOIN g USING (pos) GROUP BY x.vec_id, x.label
)
SELECT label::BIGINT AS label, count(*)::BIGINT AS n,
       round(avg(err), {round_to}) AS mae
FROM e GROUP BY label ORDER BY label"""


# Ground truth for relational.salted_join_revenue (the plain join the
# salted plan must reproduce exactly).
SALTED_JOIN_SQL = """
SELECT o_orderpriority, count(*)::BIGINT AS n_lines,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
GROUP BY 1 ORDER BY 1"""


# Ground truth for textstats.charclass_by_lang.
CHARCLASS_SQL = """
SELECT lang, sum(length(text))::BIGINT AS n_chars,
       round(sum(length(regexp_replace(text, '[^A-Za-z]', '', 'g')))::DOUBLE
             / sum(length(text)), 6) AS ascii_ratio,
       round(sum(length(regexp_replace(text, '[^0-9]', '', 'g')))::DOUBLE
             / sum(length(text)), 6) AS digit_ratio,
       round(sum(length(regexp_replace(text, '[^\\t\\n\\f\\r ]', '', 'g')))::DOUBLE
             / sum(length(text)), 6) AS ws_ratio
FROM documents GROUP BY lang ORDER BY lang"""


def weekly_conversion_sql(from_type: str = "view",
                          to_type: str = "purchase",
                          round_to: int = 6) -> str:
    """Ground truth for events.weekly_conversion."""
    return f"""
WITH u AS (
  SELECT date_trunc('week', ts) AS week, user_id,
         max(CASE WHEN event_type = '{from_type}' THEN 1 ELSE 0 END) AS f,
         max(CASE WHEN event_type = '{to_type}' THEN 1 ELSE 0 END) AS t
  FROM events WHERE event_type IN ('{from_type}', '{to_type}')
  GROUP BY 1, 2
)
SELECT week, sum(f)::BIGINT AS n_from,
       sum(CASE WHEN f = 1 AND t = 1 THEN 1 ELSE 0 END)::BIGINT AS n_both,
       round(sum(CASE WHEN f = 1 AND t = 1 THEN 1 ELSE 0 END)::DOUBLE
             / sum(f), {round_to}) AS conversion
FROM u GROUP BY week HAVING sum(f) > 0 ORDER BY week"""


def returned_revenue_sql(k: int = 20) -> str:
    """Ground truth for relational.returned_item_revenue (Q10 shape)."""
    return f"""
SELECT c.c_custkey::BIGINT AS c_custkey, c.c_name,
       round(sum(l.l_extendedprice * (1 - l.l_discount)), 4) AS revenue
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
WHERE l.l_returnflag = 'R'
GROUP BY 1, 2 ORDER BY revenue DESC, c_custkey LIMIT {k}"""


# Ground truth for events.stickiness (DAU/MAU per month).
STICKINESS_SQL = """
WITH du AS (SELECT DISTINCT date_trunc('day', ts) AS day, user_id
            FROM events),
d AS (SELECT date_trunc('month', day) AS month, day,
             count(*) AS dau
      FROM du GROUP BY 1, 2),
m AS (SELECT date_trunc('month', day) AS month,
             count(DISTINCT user_id) AS mau
      FROM du GROUP BY 1)
SELECT d.month, round(avg(d.dau), 6) AS avg_dau,
       max(m.mau)::BIGINT AS mau,
       round(avg(d.dau) / max(m.mau), 6) AS stickiness
FROM d JOIN m USING (month)
GROUP BY d.month ORDER BY d.month"""


def q6_band_revenue_sql(lo: float = 0.04, hi: float = 0.06,
                        max_qty: float = 24.0, year: int = 1995) -> str:
    """Ground truth for relational.q6_band_revenue (TPC-H Q6 shape)."""
    return f"""
SELECT round(sum(l_extendedprice * l_discount), 4) AS revenue,
       count(*)::BIGINT AS n_lines
FROM lineitem
WHERE l_discount BETWEEN {lo} AND {hi} AND l_quantity < {max_qty}
  AND year(l_shipdate) = {year}"""


# Ground truth for ann.norm_stats (per-label L2-norm moments).
NORM_STATS_SQL = """
WITH x AS (
  SELECT vec_id, label,
         sqrt(list_sum(list_transform(embedding::DOUBLE[],
                                      v -> v * v))) AS nm
  FROM embeddings
)
SELECT label::BIGINT AS label, count(*)::BIGINT AS n,
       round(avg(nm), 6) AS norm_mean,
       round(stddev_pop(nm), 6) AS norm_std
FROM x GROUP BY label ORDER BY label"""


# Ground truth for textstats.source_vocab_overlap.
SOURCE_OVERLAP_SQL = f"""
WITH tok AS (
  SELECT DISTINCT source, u.term
  FROM (SELECT source, {TOKENS_EXPR} AS ts FROM documents),
       unnest(ts) AS u(term)
  WHERE u.term <> ''
),
v AS (SELECT source, count(*) AS nv FROM tok GROUP BY source),
sh AS (SELECT a.source AS source_a, b.source AS source_b,
              count(*) AS n_shared
       FROM tok a JOIN tok b ON a.term = b.term AND a.source < b.source
       GROUP BY 1, 2)
SELECT source_a, source_b, n_shared::BIGINT AS n_shared,
       round(n_shared / (va.nv + vb.nv - n_shared)::DOUBLE, 6) AS jaccard
FROM sh JOIN v va ON va.source = sh.source_a
JOIN v vb ON vb.source = sh.source_b
ORDER BY source_a, source_b"""


def best_fields_sql(terms, *, corpus: str = DOCUMENTS_CORPUS,
                    tie: float = 0.0, k: int = 20,
                    round_to: int = 5) -> str:
    """Ground truth for fts_documents.best_fields_topk: per-field
    BM25 (field-restricted tf/df, whole-corpus stats), best field +
    tie * other, over the union match set."""
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"

    def field_cte(fld: int, name: str) -> str:
        return f"""
df{fld} AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE fld = {fld} AND term IN (SELECT term FROM qterms) GROUP BY term
),
tf{fld} AS (
  SELECT doc_id, term, count(*) * 1.0 AS tfw
  FROM tokf WHERE fld = {fld} AND term IN (SELECT term FROM qterms)
  GROUP BY doc_id, term
),
{name} AS (
  SELECT tf{fld}.doc_id,
         sum( greatest(ln((stats.n - df{fld}.df + 0.5)
                          / (df{fld}.df + 0.5)), 0.000001)
              * (tf{fld}.tfw * ({K1} + 1)) /
                (tf{fld}.tfw + {K1} * (1 - {B} + {B} * dl.dl / stats.avgdl))
            ) AS s
  FROM tf{fld} JOIN df{fld} USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf{fld}.doc_id
)"""

    return f"""{_base_ctes(corpus)},
qterms AS (SELECT unnest({terms_sql}) AS term),{field_cte(0, 's0')},{field_cte(1, 's1')},
u AS (
  SELECT coalesce(s0.doc_id, s1.doc_id) AS doc_id,
         coalesce(s0.s, 0) AS a, coalesce(s1.s, 0) AS b
  FROM s0 FULL OUTER JOIN s1 ON s0.doc_id = s1.doc_id
)
SELECT doc_id::BIGINT AS doc_id,
       round(greatest(a, b) + {float(tie)} * least(a, b), {round_to})
         AS score
FROM u
ORDER BY -(greatest(a, b) + {float(tie)} * least(a, b)) ASC, doc_id ASC
LIMIT {k}"""


# Ground truth for relational.group_mad (robust dispersion pair).
GROUP_MAD_SQL = """
SELECT l_returnflag, count(*)::BIGINT AS n,
       round(median(l_extendedprice), 4) AS median_price,
       round(mad(l_extendedprice), 4) AS mad_price
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"""


def readability_sql(round_to: int = 6) -> str:
    """Ground truth for textstats.readability (RE2-parity counts)."""
    return f"""
WITH f AS (
  SELECT doc_id,
         len(list_filter(regexp_extract_all(text,
             '[^.!?]*[^.!?\\s][^.!?]*'), x -> x <> ''))::BIGINT
           AS n_sentences,
         len(list_filter(regexp_extract_all(text, '\\S+'),
             x -> x <> ''))::BIGINT AS n_words,
         length(regexp_replace(text, '\\s', '', 'g'))::BIGINT AS n_chars
  FROM documents
)
SELECT doc_id::BIGINT AS doc_id, n_sentences,
       round(n_words / n_sentences::DOUBLE, {round_to}) AS wps,
       round(n_chars / n_words::DOUBLE, {round_to}) AS cpw,
       round(0.39 * (n_words / n_sentences::DOUBLE)
             + 11.8 * (n_chars / n_words::DOUBLE) - 15.59, {round_to})
         AS fk_proxy
FROM f WHERE n_sentences > 0 AND n_words > 0 ORDER BY doc_id"""


def bounce_rate_sql(gap_minutes: int = 30, round_to: int = 6) -> str:
    """Ground truth for events.bounce_rate (per-day single-event
    session fraction, SESSION_WINDOWS_SQL sessionization)."""
    return f"""
WITH x AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   >= INTERVAL {gap_minutes} MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
),
s AS (
  SELECT user_id, ts,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM x
),
sess AS (SELECT user_id, sid, min(ts) AS session_start,
                count(*) AS n
         FROM s GROUP BY user_id, sid)
SELECT date_trunc('day', session_start) AS day,
       count(*)::BIGINT AS n_sessions,
       sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)::BIGINT AS n_bounce,
       round(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)::DOUBLE / count(*),
             {round_to}) AS bounce_rate
FROM sess GROUP BY 1 ORDER BY 1"""


# Ground truth for curation.dup_rate_by_source.
DUP_RATE_BY_SOURCE_SQL = """
WITH g AS (SELECT source, text, count(*) AS n
           FROM documents GROUP BY source, text)
SELECT source, sum(n)::BIGINT AS n_docs,
       sum(CASE WHEN n > 1 THEN n ELSE 0 END)::BIGINT AS n_dup_docs,
       round(sum(CASE WHEN n > 1 THEN n ELSE 0 END)::DOUBLE / sum(n), 6)
         AS dup_rate
FROM g GROUP BY source ORDER BY source"""


def terms_enum_sql(prefix: str = "s", k: int = 20,
                   corpus: str = DOCUMENTS_CORPUS) -> str:
    """Ground truth for fts_documents.terms_enum: per-(term, field)
    distinct-doc counts summed across fields (the dictionary df
    semantics), prefix range, top-k by (df desc, term asc)."""
    return f"""{_base_ctes(corpus)},
pf AS (
  SELECT term, fld, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term >= '{prefix}' AND term < '{prefix}￿'
  GROUP BY term, fld
)
SELECT term, sum(df)::BIGINT AS df FROM pf GROUP BY term
ORDER BY df DESC, term LIMIT {k}"""


def activity_histogram_sql(interval: int = 10) -> str:
    """Ground truth for events.user_activity_histogram."""
    return f"""
WITH u AS (SELECT user_id, count(*) AS n FROM events GROUP BY user_id)
SELECT (n // {interval}) * {interval} AS bucket,
       count(*)::BIGINT AS n_users, sum(n)::BIGINT AS total_events
FROM u GROUP BY 1 ORDER BY 1"""


def time_to_convert_sql(from_type: str = "view",
                        to_type: str = "purchase",
                        round_to: int = 4) -> str:
    """Ground truth for events.time_to_convert."""
    return f"""
WITH f AS (SELECT user_id, min(ts) AS t0 FROM events
           WHERE event_type = '{from_type}' GROUP BY user_id),
c AS (SELECT f.user_id,
             epoch(min(e.ts) - f.t0) AS d
      FROM f JOIN events e ON e.user_id = f.user_id
       AND e.event_type = '{to_type}' AND e.ts >= f.t0
      GROUP BY f.user_id, f.t0)
SELECT count(*)::BIGINT AS n_converted,
       round(avg(d), {round_to}) AS mean_sec,
       round(median(d), {round_to}) AS median_sec,
       round(max(d), {round_to}) AS max_sec
FROM c"""


def priority_share_sql(priority: str = "1-URGENT",
                       round_to: int = 6) -> str:
    """Ground truth for relational.priority_share_trend."""
    return f"""
SELECT date_trunc('month', o_orderdate) AS month,
       count(*)::BIGINT AS n_total,
       sum(CASE WHEN o_orderpriority = '{priority}' THEN 1 ELSE 0
           END)::BIGINT AS n_priority,
       round(sum(CASE WHEN o_orderpriority = '{priority}' THEN 1 ELSE 0
                 END)::DOUBLE / count(*), {round_to}) AS share
FROM orders GROUP BY 1 ORDER BY 1"""


# Ground truth for relational.customer_hhi.
CUSTOMER_HHI_SQL = """
WITH pc AS (SELECT o_custkey, sum(o_totalprice) AS rev
            FROM orders GROUP BY 1),
t AS (SELECT count(*) AS n, sum(rev) AS s1, sum(rev * rev) AS s2 FROM pc),
topk AS (SELECT sum(rev) AS s FROM (
           SELECT rev FROM pc ORDER BY rev DESC, o_custkey LIMIT 10))
SELECT t.n::BIGINT AS n_customers,
       round(t.s2 / (t.s1 * t.s1), 6) AS hhi,
       round(topk.s / t.s1, 6) AS top10_share
FROM t, topk"""


def js_divergence_sql(src_a: str = "src0", src_b: str = "src1",
                      round_to: int = 6) -> str:
    """Ground truth for textstats.source_js_divergence (natural-log
    JS divergence over unigram distributions)."""
    return f"""
WITH tok AS (
  SELECT source, u.term
  FROM (SELECT source, {TOKENS_EXPR} AS ts FROM documents
        WHERE source IN ('{src_a}', '{src_b}')),
       unnest(ts) AS u(term)
  WHERE u.term <> ''
),
c AS (SELECT term,
             sum(CASE WHEN source = '{src_a}' THEN 1 ELSE 0 END) AS na,
             sum(CASE WHEN source = '{src_b}' THEN 1 ELSE 0 END) AS nb
      FROM tok GROUP BY term),
tot AS (SELECT sum(na) AS ta, sum(nb) AS tb FROM c),
d AS (SELECT (na / ta::DOUBLE) AS p, (nb / tb::DOUBLE) AS q
      FROM c, tot)
SELECT '{src_a}' AS source_a, '{src_b}' AS source_b,
       (SELECT count(*) FROM c)::BIGINT AS n_terms,
       round(sum(CASE WHEN p > 0
                      THEN 0.5 * p * ln(p / (0.5 * (p + q)))
                      ELSE 0 END)
             + sum(CASE WHEN q > 0
                        THEN 0.5 * q * ln(q / (0.5 * (p + q)))
                        ELSE 0 END), {round_to}) AS js_div
FROM d"""


def user_entropy_sql(k: int = 50, round_to: int = 6) -> str:
    """Ground truth for events.user_type_entropy."""
    return f"""
WITH c AS (SELECT user_id, event_type, count(*) AS n
           FROM events GROUP BY 1, 2),
t AS (SELECT user_id, sum(n) AS tot FROM c GROUP BY user_id)
SELECT c.user_id::BIGINT AS user_id, max(t.tot)::BIGINT AS n_events,
       round(-sum((c.n / t.tot::DOUBLE)
                  * ln(c.n / t.tot::DOUBLE)), {round_to}) AS entropy
FROM c JOIN t USING (user_id)
GROUP BY c.user_id ORDER BY user_id LIMIT {k}"""


def wordlen_histogram_sql(max_len: int = 30) -> str:
    """Ground truth for textstats.wordlen_histogram."""
    return f"""
WITH tok AS (
  SELECT least(length(u.term), {max_len}) AS token_len
  FROM (SELECT {TOKENS_EXPR} AS ts FROM documents),
       unnest(ts) AS u(term)
  WHERE u.term <> ''
)
SELECT token_len::BIGINT AS token_len, count(*)::BIGINT AS n
FROM tok GROUP BY 1 ORDER BY 1"""


def q14_promo_share_sql(year: int = 1996, month: int = 3,
                        round_to: int = 6) -> str:
    """Ground truth for relational.q14_promo_share (TPC-H Q14 shape)."""
    return f"""
SELECT round(100.0 * sum(CASE WHEN p_type = 'PROMO'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END)
             / sum(l_extendedprice * (1 - l_discount)),
             {round_to}) AS promo_revenue_pct,
       round(sum(l_extendedprice * (1 - l_discount)), 4) AS total_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE year(l_shipdate) = {year} AND month(l_shipdate) = {month}"""


def q17_small_quantity_sql(brand: str = "Brand#23", frac: float = 0.5,
                           round_to: int = 4) -> str:
    """Ground truth for relational.q17_small_quantity_revenue."""
    return f"""
WITH avgq AS (
  SELECT l_partkey AS pk, {frac} * avg(l_quantity) AS thr
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = '{brand}'
  GROUP BY l_partkey
)
SELECT round(sum(l_extendedprice) / 7.0, {round_to}) AS avg_yearly,
       count(*)::BIGINT AS n_small_lines
FROM lineitem JOIN avgq ON l_partkey = pk
WHERE l_quantity < thr"""


def q18_large_orders_sql(min_qty: float = 180.0, k: int = 20) -> str:
    """Ground truth for relational.q18_large_orders (TPC-H Q18 shape)."""
    return f"""
WITH big AS (
  SELECT l_orderkey, sum(l_quantity) AS total_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(l_quantity) > {min_qty}
)
SELECT o_orderkey, c_name, o_orderdate, o_totalprice,
       round(total_qty, 4) AS total_qty
FROM big JOIN orders ON o_orderkey = l_orderkey
         JOIN customer ON c_custkey = o_custkey
ORDER BY o_totalprice DESC, o_orderkey
LIMIT {k}"""


def q11_value_share_sql(mult: float = 1.5, round_to: int = 6) -> str:
    """Ground truth for relational.q11_value_share (TPC-H Q11 shape)."""
    return f"""
WITH pv AS (
  SELECT l_partkey, sum(l_extendedprice) AS raw_value
  FROM lineitem GROUP BY l_partkey
), tot AS (SELECT sum(raw_value) AS t, count(*) AS n FROM pv)
SELECT l_partkey, round(raw_value, 4) AS value,
       round(raw_value / t, {round_to}) AS share
FROM pv, tot
WHERE raw_value > {mult} * t / n
ORDER BY raw_value DESC, l_partkey"""


CHI2_SQL = """
WITH joined AS (
  SELECT c_mktsegment, o_orderpriority
  FROM orders JOIN customer ON o_custkey = c_custkey
),
cells AS (
  SELECT c_mktsegment, o_orderpriority, count(*)::BIGINT AS observed
  FROM joined GROUP BY 1, 2
),
marg AS (
  SELECT c.c_mktsegment, c.o_orderpriority, c.observed,
         sum(c.observed) OVER (PARTITION BY c.c_mktsegment) AS row_t,
         sum(c.observed) OVER (PARTITION BY c.o_orderpriority) AS col_t,
         sum(c.observed) OVER () AS n
  FROM cells c
),
ex AS (
  SELECT c_mktsegment, o_orderpriority, observed,
         row_t * col_t / n AS expected,
         (observed - row_t * col_t / n)
           / sqrt(row_t * col_t / n) AS sr
  FROM marg
)
SELECT c_mktsegment, o_orderpriority, observed,
       round(expected, 4) AS expected,
       round(sr, 4) AS std_residual,
       round(sum(sr * sr) OVER (), 4) AS chi2
FROM ex
ORDER BY c_mktsegment, o_orderpriority"""


GINI_SQL = """
WITH pc AS (
  SELECT o_custkey, sum(o_totalprice) AS rev
  FROM orders GROUP BY o_custkey
),
rn AS (
  SELECT rev, row_number() OVER (ORDER BY rev) AS r,
         count(*) OVER () AS n, sum(rev) OVER () AS total
  FROM pc
)
SELECT max(n)::BIGINT AS n_customers,
       round(2.0 * sum(r * rev) / (max(n) * max(total))
             - (max(n) + 1.0) / max(n), 6) AS gini,
       round(max(total) / max(n), 6) AS mean_rev
FROM rn"""


def stopword_density_sql(stopwords, high_thresh: float = 0.4,
                         round_to: int = 6) -> str:
    """Ground truth for textstats.stopword_density_by_source."""
    sw = ", ".join("'" + w.replace("'", "''") + "'"
                   for w in sorted(stopwords))
    return f"""
WITH t AS (
  SELECT source, {TOKENS_EXPR} AS toks FROM documents
),
q AS (
  SELECT source,
         CASE WHEN len(toks) = 0 THEN 0.0
              ELSE len(list_filter(toks, x -> x IN ({sw})))::DOUBLE
                   / len(toks) END AS ratio
  FROM t
)
SELECT source, count(*)::BIGINT AS n_docs,
       round(avg(ratio), {round_to}) AS mean_stop_ratio,
       round(avg(CASE WHEN ratio > {high_thresh} THEN 1.0 ELSE 0.0 END),
             {round_to}) AS high_frac
FROM q GROUP BY source ORDER BY source"""


def silhouette_sql(round_to: int = 6) -> str:
    """Ground truth for ann.silhouette_by_label (simplified/centroid
    silhouette; euclidean via list_distance)."""
    return f"""
WITH x AS (
  SELECT label, unnest(embedding::DOUBLE[]) AS v,
         generate_subscripts(embedding, 1) AS pos,
         vec_id
  FROM embeddings
),
cent AS (
  SELECT label, list(avgv ORDER BY pos) AS c FROM (
    SELECT label, pos, avg(v) AS avgv FROM x GROUP BY label, pos)
  GROUP BY label
),
d AS (
  SELECT e.vec_id, e.label,
         list_distance(e.embedding::DOUBLE[], c.c) AS dist,
         c.label AS clabel
  FROM embeddings e CROSS JOIN cent c
),
ab AS (
  SELECT vec_id, label,
         max(CASE WHEN clabel = label THEN dist END) AS a,
         min(CASE WHEN clabel <> label THEN dist END) AS b
  FROM d GROUP BY vec_id, label
),
s AS (
  SELECT label,
         CASE WHEN greatest(a, b) > 0
              THEN (b - a) / greatest(a, b) ELSE 0.0 END AS sil
  FROM ab
)
SELECT label::BIGINT AS label, count(*)::BIGINT AS n,
       round(avg(sil), {round_to}) AS mean_silhouette
FROM s GROUP BY label ORDER BY label"""


def span_first_sql(term: str = "merge", max_pos: int = 20, k: int = 20,
                   corpus: str = DOCUMENTS_CORPUS,
                   round_to: int = 5) -> str:
    """Ground truth for fts_documents.span_first_topk: BM25 for
    ``term`` over docs whose FIRST text-field occurrence is at a
    0-based token position < max_pos (positions count non-empty
    tokens, matching the index tokenizer)."""
    t1 = _TOK.format(col="f1")
    allow = f"""
  SELECT doc_id FROM (
    SELECT doc_id, term,
           row_number() OVER (PARTITION BY doc_id ORDER BY pos) - 1
             AS tpos
    FROM (
      SELECT doc_id, unnest(toks) AS term,
             generate_subscripts(toks, 1) AS pos
      FROM (SELECT doc_id, {t1} AS toks FROM corpus)
    ) WHERE term <> ''
  ) WHERE term = '{term}' AND tpos < {max_pos}
  GROUP BY doc_id
"""
    return bm25_topk_sql([term], corpus=corpus, k=k, round_to=round_to,
                         allow_cte=allow)


def constant_score_sql(term: str = "window", boost: float = 1.7,
                       k: int = 20, corpus: str = DOCUMENTS_CORPUS) -> str:
    """Ground truth for fts_documents.constant_score_topk."""
    t0 = _TOK.format(col="f0")
    t1 = _TOK.format(col="f1")
    return f"""
WITH corpus AS ({corpus}),
tokf AS (
  SELECT doc_id, u.term FROM corpus, unnest({t0}) AS u(term)
    WHERE u.term <> ''
  UNION ALL
  SELECT doc_id, u.term FROM corpus, unnest({t1}) AS u(term)
    WHERE u.term <> ''
)
SELECT DISTINCT doc_id::BIGINT AS doc_id, {float(boost)} AS score
FROM tokf WHERE term = '{term}'
ORDER BY doc_id LIMIT {k}"""


# Ground truth for events.weekly_churn (week-over-week disappearance).
WEEKLY_CHURN_SQL = """
WITH uw AS (SELECT DISTINCT user_id, date_trunc('week', ts) AS wk
            FROM events),
mx AS (SELECT max(wk) AS m FROM uw),
cand AS (SELECT user_id, wk + INTERVAL 7 DAY AS nwk
         FROM uw, mx WHERE wk < m)
SELECT cand.nwk AS week, count(*)::BIGINT AS active_prev,
       sum(CASE WHEN u2.user_id IS NULL THEN 1 ELSE 0 END)::BIGINT
         AS churned,
       round(sum(CASE WHEN u2.user_id IS NULL THEN 1 ELSE 0 END)::DOUBLE
             / count(*), 6) AS churn_rate
FROM cand LEFT JOIN uw u2
  ON u2.user_id = cand.user_id AND u2.wk = cand.nwk
GROUP BY cand.nwk ORDER BY week"""


def user_quartiles_sql(tiles: int = 4, round_to: int = 6) -> str:
    """Ground truth for events.user_value_quartiles (per-user NTILE
    rolled up per tile)."""
    return f"""
WITH t AS (
  SELECT value,
         ntile({tiles}) OVER (PARTITION BY user_id
                              ORDER BY value, event_id) AS tile
  FROM events
)
SELECT tile::BIGINT AS tile, count(*)::BIGINT AS n,
       round(sum(value) / count(*), {round_to}) AS mean_value
FROM t GROUP BY tile ORDER BY tile"""


def prefix_dup_sql(prefix_chars: int = 100, min_size: int = 2,
                   k: int = 20) -> str:
    """Ground truth for dedup.prefix_dup_clusters."""
    return f"""
WITH h AS (SELECT md5(substr(text, 1, {prefix_chars})) AS prefix_hash
           FROM documents),
c AS (SELECT prefix_hash, count(*)::BIGINT AS n
      FROM h GROUP BY prefix_hash)
SELECT prefix_hash, n FROM c WHERE n >= {min_size}
ORDER BY n DESC, prefix_hash LIMIT {k}"""


# Ground truth for events.first_last_drift (FIRST/LAST_VALUE rollup).
FIRST_LAST_DRIFT_SQL = """
WITH w AS (
  SELECT user_id,
         first_value(value) OVER
           (PARTITION BY user_id ORDER BY ts, event_id) AS fv,
         last_value(value) OVER
           (PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN UNBOUNDED PRECEDING
            AND UNBOUNDED FOLLOWING) AS lv,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS rn
  FROM events
),
per_user AS (SELECT user_id, fv, lv, lv - fv AS d FROM w WHERE rn = 1)
SELECT count(*)::BIGINT AS n_users,
       sum(CASE WHEN d > 0 THEN 1 ELSE 0 END)::BIGINT AS n_up,
       sum(CASE WHEN d < 0 THEN 1 ELSE 0 END)::BIGINT AS n_down,
       sum(CASE WHEN d = 0 THEN 1 ELSE 0 END)::BIGINT AS n_flat,
       round(sum(d) / count(*), 6) AS mean_delta
FROM per_user"""


def weighted_sample_sql(k: int = 50, round_to: int = 12) -> str:
    """Ground truth for curation.weighted_sample (Efraimidis–Spirakis
    A-Res with the repo's deterministic md5-uniform; verified
    bit-identical to numpy's float64 pipeline)."""
    return f"""
WITH w AS (
  SELECT doc_id, n_chars::DOUBLE AS weight,
         (md5_number_lower(doc_id::VARCHAR)::DOUBLE + 1)
           / 18446744073709551616.0 AS u
  FROM documents WHERE n_chars > 0
)
SELECT doc_id, weight, round(ln(u) / weight, {round_to}) AS key
FROM w
ORDER BY round(ln(u) / weight, {round_to}) DESC, doc_id
LIMIT {k}"""


def lorenz_deciles_sql(tiles: int = 10, round_to: int = 6) -> str:
    """Ground truth for relational.lorenz_deciles."""
    return f"""
WITH pc AS (
  SELECT o_custkey, sum(o_totalprice) AS rev
  FROM orders GROUP BY o_custkey
),
t AS (
  SELECT rev, ntile({tiles}) OVER (ORDER BY rev, o_custkey) AS decile,
         sum(rev) OVER () AS total
  FROM pc
),
d AS (
  SELECT decile, count(*)::BIGINT AS n,
         sum(rev) / max(total) AS share
  FROM t GROUP BY decile
)
SELECT decile::BIGINT AS decile, n,
       round(share, {round_to}) AS rev_share,
       round(sum(share) OVER (ORDER BY decile), {round_to}) AS cum_share
FROM d ORDER BY decile"""


def q21_blame_sql(grace_days: int = 60, k: int = 20) -> str:
    """Ground truth for relational.q21_supplier_blame (TPC-H Q21
    shape: EXISTS other supplier + NOT EXISTS other late supplier)."""
    return f"""
WITH late AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l_shipdate > o_orderdate
                       + INTERVAL {grace_days} DAY
             THEN 1 ELSE 0 END) AS is_late
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  GROUP BY l_orderkey, l_suppkey
),
blamed AS (
  SELECT l1.l_orderkey, l1.l_suppkey
  FROM late l1
  WHERE l1.is_late = 1
    AND EXISTS (SELECT 1 FROM late l2
                WHERE l2.l_orderkey = l1.l_orderkey
                  AND l2.l_suppkey <> l1.l_suppkey)
    AND NOT EXISTS (SELECT 1 FROM late l3
                    WHERE l3.l_orderkey = l1.l_orderkey
                      AND l3.l_suppkey <> l1.l_suppkey
                      AND l3.is_late = 1)
)
SELECT l_suppkey AS s_suppkey, count(*)::BIGINT AS n_blamed
FROM blamed GROUP BY l_suppkey
ORDER BY n_blamed DESC, s_suppkey LIMIT {k}"""


def code_comment_density_sql(parquet_glob: str, round_to: int = 6) -> str:
    """Ground truth for relational.code_comment_density."""
    return f"""
WITH f AS (
  SELECT lang, string_split(content, chr(10)) AS lines
  FROM read_parquet('{parquet_glob}')
),
per_file AS (
  SELECT lang, len(lines)::BIGINT AS n_lines,
         len(list_filter(lines,
             x -> regexp_matches(x, '^\\s*(#|//)')))::BIGINT AS n_com
  FROM f
)
SELECT lang, count(*)::BIGINT AS n_files,
       sum(n_lines)::BIGINT AS n_lines,
       round(sum(n_com)::DOUBLE / sum(n_lines), {round_to})
         AS comment_frac,
       round(sum(n_lines)::DOUBLE / count(*), {round_to})
         AS avg_lines_per_file
FROM per_file GROUP BY lang ORDER BY lang"""


def code_callsite_topk_sql(parquet_glob: str, k: int = 10) -> str:
    """Ground truth for relational.code_callsite_topk: split on '(',
    every segment except each file's last contributes its trailing
    [a-z][a-z0-9_]* identifier (RE2 semantics match Arrow's)."""
    return f"""
WITH f AS (
  SELECT lang, string_split(coalesce(content, ''), '(') AS segs
  FROM read_parquet('{parquet_glob}')
),
s AS (
  SELECT lang, segs[i] AS seg
  FROM f, unnest(generate_series(1, len(segs) - 1)) AS r(i)
),
c AS (
  SELECT lang,
         regexp_extract(seg, '([a-z][a-z0-9_]*)\\s*$', 1) AS callee
  FROM s
  WHERE regexp_matches(seg, '([a-z][a-z0-9_]*)\\s*$')
),
n AS (
  SELECT lang, callee, count(*)::BIGINT AS n
  FROM c GROUP BY lang, callee
),
rk AS (
  SELECT lang, callee, n,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n DESC, callee) AS rk
  FROM n
)
SELECT lang, callee, n, rk::BIGINT AS rk
FROM rk WHERE rk <= {k}
ORDER BY lang, rk"""


def q5_local_volume_sql(year: int = 1997, round_to: int = 4) -> str:
    """Ground truth for relational.q5_local_volume (TPC-H Q5 shape)."""
    return f"""
SELECT n_name,
       round(sum(l_extendedprice * (1 - l_discount)), {round_to})
         AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE c_nationkey = s_nationkey AND year(o_orderdate) = {year}
GROUP BY n_name
ORDER BY revenue DESC, n_name"""


def q7_nation_trade_sql(years=(1996, 1997), k: int = 30,
                        round_to: int = 4) -> str:
    """Ground truth for relational.q7_nation_trade (TPC-H Q7 shape)."""
    ys = ", ".join(str(int(y)) for y in years)
    return f"""
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       year(l_shipdate)::BIGINT AS l_year,
       round(sum(l_extendedprice * (1 - l_discount)), {round_to})
         AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation nc ON c_nationkey = nc.n_nationkey
JOIN nation ns ON s_nationkey = ns.n_nationkey
WHERE c_nationkey <> s_nationkey AND year(l_shipdate) IN ({ys})
GROUP BY 1, 2, 3
ORDER BY revenue DESC, supp_nation, cust_nation, l_year
LIMIT {k}"""


def q19_disjunctive_sql(round_to: int = 4) -> str:
    """Ground truth for relational.q19_disjunctive_revenue (TPC-H Q19
    shape; arms pinned to the pipeline's named_arms)."""
    return f"""
SELECT round(sum(l_extendedprice * (1 - l_discount)), {round_to})
         AS revenue,
       count(*)::BIGINT AS n_lines
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#11' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 1 AND 15)
   OR (p_brand = 'Brand#15' AND p_size BETWEEN 5 AND 20
       AND l_quantity BETWEEN 10 AND 25)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 10 AND 40
       AND l_quantity BETWEEN 20 AND 35)"""


def dim_variance_sql(k: int = 10, round_to: int = 6) -> str:
    """Ground truth for ann.dim_variance_topk (positional unnest)."""
    return f"""
WITH x AS (
  SELECT unnest(embedding::DOUBLE[]) AS v,
         generate_subscripts(embedding, 1) - 1 AS dim
  FROM embeddings
)
SELECT dim::BIGINT AS dim,
       round(var_pop(v), {round_to}) AS variance,
       round(avg(v), {round_to}) AS mean
FROM x GROUP BY dim
ORDER BY var_pop(v) DESC, dim LIMIT {k}"""


def q4_order_priority_sql(date_lo: str = "1996-07-01",
                          date_hi: str = "1996-10-01") -> str:
    """Ground truth for relational.q4_order_priority (TPC-H Q4 shape;
    ship>order as the late predicate — no commit/receipt dates in the
    synthetic lineitem)."""
    return f"""
SELECT o_orderpriority, count(*)::BIGINT AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '{date_lo}'
  AND o_orderdate <  TIMESTAMP '{date_hi}'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_shipdate > o_orderdate)
GROUP BY o_orderpriority ORDER BY o_orderpriority"""


Q13_CUSTDIST_SQL = """
SELECT c_count::BIGINT AS c_count, count(*)::BIGINT AS custdist
FROM (SELECT c_custkey, count(o_orderkey) AS c_count
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY c_custkey)
GROUP BY c_count ORDER BY custdist DESC, c_count DESC"""


def q15_top_supplier_sql(date_lo: str = "1997-01-01",
                         date_hi: str = "1997-04-01",
                         round_to: int = 4) -> str:
    """Ground truth for relational.q15_top_supplier: revenue rounded
    BEFORE the max comparison, exactly like the operator."""
    return f"""
WITH rev AS (
  SELECT l_suppkey,
         round(sum(l_extendedprice * (1 - l_discount)), {round_to})
           AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{date_lo}'
    AND l_shipdate <  TIMESTAMP '{date_hi}'
  GROUP BY l_suppkey)
SELECT s_suppkey, s_name, total_revenue
FROM supplier JOIN rev ON s_suppkey = l_suppkey
WHERE total_revenue = (SELECT max(total_revenue) FROM rev)
ORDER BY s_suppkey"""


def q22_sales_opportunity_sql(cutoff: str = "2000-01-01",
                              round_to: int = 4) -> str:
    return f"""
SELECT c_nationkey, count(*)::BIGINT AS numcust,
       round(sum(c_acctbal), {round_to}) AS totacctbal
FROM customer
WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer
                   WHERE c_acctbal > 0.0)
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= TIMESTAMP '{cutoff}')
GROUP BY c_nationkey ORDER BY c_nationkey"""


def q8_market_share_sql(supp_nation: str = "NATION_3",
                        cust_region: str = "EUROPE",
                        years=(1996, 1997), round_to: int = 6) -> str:
    ys = ", ".join(str(int(y)) for y in years)
    return f"""
SELECT o_year,
       round(sum(CASE WHEN s_nat = '{supp_nation}' THEN volume
                      ELSE 0 END) / sum(volume), {round_to}) AS mkt_share
FROM (
  SELECT year(o_orderdate)::BIGINT AS o_year,
         l_extendedprice * (1 - l_discount) AS volume,
         sn.n_name AS s_nat
  FROM lineitem
  JOIN orders   ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey = c_custkey
  JOIN nation cn ON c_nationkey = cn.n_nationkey
  JOIN region   ON cn.n_regionkey = r_regionkey
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation sn ON s_nationkey = sn.n_nationkey
  WHERE r_name = '{cust_region}'
    AND year(o_orderdate) IN ({ys}))
GROUP BY o_year ORDER BY o_year"""


def watermark_late_sql(lateness_sec: int = 3600) -> str:
    """Ground truth for events.watermark_late_counts: arrival order is
    the md5 permutation of event_id (md5_number_lower = Python md5
    digest[8:16] little-endian), watermark = running max event-time
    over that order, late = ts < watermark_before_arrival - lateness."""
    return f"""
WITH o AS (
  SELECT event_type, ts,
         md5_number_lower(event_id::VARCHAR) AS a, event_id
  FROM events),
w AS (
  SELECT event_type, ts,
         max(ts) OVER (ORDER BY a, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING) AS pm
  FROM o)
SELECT event_type, count(*)::BIGINT AS n_events,
       count(*) FILTER (pm IS NOT NULL
                        AND ts < pm - INTERVAL {int(lateness_sec)} SECOND
                        )::BIGINT AS n_late
FROM w GROUP BY event_type ORDER BY event_type"""


def group_sample_k_sql(k: int = 5, group_col: str = "source") -> str:
    """Ground truth for curation.group_sample_k: row_number per group
    over (md5_number_lower(id), id)."""
    return f"""
SELECT {group_col}, doc_id, sample_rank FROM (
  SELECT {group_col}, doc_id,
         row_number() OVER (
           PARTITION BY {group_col}
           ORDER BY md5_number_lower(doc_id::VARCHAR), doc_id
         )::BIGINT AS sample_rank
  FROM documents)
WHERE sample_rank <= {k}
ORDER BY {group_col}, sample_rank"""


def q2_min_cost_supplier_sql(round_to: int = 6) -> str:
    """Ground truth for relational.q2_min_cost_supplier: unit price
    rounded BEFORE the argmin (same float-tie discipline as the
    operator), ties to the smaller suppkey."""
    return f"""
WITH ps AS (
  SELECT l_partkey, l_suppkey,
         round(sum(l_extendedprice) / sum(l_quantity), {round_to})
           AS unit_price
  FROM lineitem GROUP BY l_partkey, l_suppkey)
SELECT l_partkey, l_suppkey, unit_price FROM (
  SELECT *, row_number() OVER (PARTITION BY l_partkey
                               ORDER BY unit_price, l_suppkey) AS rn
  FROM ps)
WHERE rn = 1 ORDER BY l_partkey"""


def time_weighted_avg_sql(round_to: int = 6) -> str:
    """Ground truth for events.time_weighted_avg: lead() gap weights,
    users with >= 1 POSITIVE-length gap only.  Zero-length gaps
    (duplicate timestamps) contribute zero weight on both engines; a
    user whose EVERY gap is zero-length has an undefined twa (0/0)
    and is excluded on both sides — the operator's ``wsum > 0`` keep
    mask and this HAVING clause encode the same rule (round-4
    ADVICE)."""
    return f"""
WITH s AS (
  SELECT user_id, value, ts,
         lead(ts) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) AS nxt
  FROM events)
SELECT user_id,
       count(*)::BIGINT AS n_gaps,
       round(sum(value * epoch_us(nxt - ts))
             / sum(epoch_us(nxt - ts)), {round_to}) AS twa
FROM s WHERE nxt IS NOT NULL
GROUP BY user_id
HAVING sum(epoch_us(nxt - ts)) > 0
ORDER BY user_id"""


def heaps_curve_sql(thresholds=(1000, 2000, 5000, 10000, 20000, 50000,
                                100000, 200000, 500000, 1000000)) -> str:
    """Ground truth for textstats.heaps_curve: global token position by
    (doc_id, pos), per-term min, vocab(N) = #terms with first position
    < N per fixed budget."""
    vals = ", ".join(f"({int(n)})" for n in sorted(thresholds))
    return f"""
WITH arrs AS (
  SELECT doc_id, {TOKENS_EXPR} AS arr
  FROM (SELECT doc_id, coalesce(text, '') AS text FROM documents)),
tok AS (
  SELECT doc_id, unnest(range(1, len(arr) + 1)) AS pos,
         unnest(arr) AS term
  FROM arrs),
g AS (SELECT term,
             row_number() OVER (ORDER BY doc_id, pos) - 1 AS gpos
      FROM tok),
first AS (SELECT term, min(gpos) AS fp FROM g GROUP BY term),
thr(budget) AS (VALUES {vals})
SELECT budget::BIGINT AS budget,
       (SELECT count(*) FROM first WHERE fp < budget)::BIGINT
         AS n_distinct_terms
FROM thr ORDER BY budget"""


def q9_profit_sql(cost_factor: float = 0.6, round_to: int = 4) -> str:
    return f"""
SELECT n_name, year(o_orderdate)::BIGINT AS o_year,
       round(sum(l_extendedprice * (1 - l_discount)
                 - l_quantity * p_retailprice * {cost_factor!r}),
             {round_to}) AS profit
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN part     ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON s_nationkey = n_nationkey
GROUP BY n_name, o_year ORDER BY n_name, o_year DESC"""


def term_burstiness_sql(k: int = 50, round_to: int = 6) -> str:
    """Ground truth for textstats.term_burstiness: per-(doc, term) tf,
    per-term count/moments, Fano factor with POPULATION variance —
    computed from the same raw moments (Σtf, Σtf²) as the operator so
    float arithmetic agrees."""
    return f"""
WITH tok AS (
  SELECT doc_id, unnest({TOKENS_EXPR}) AS term
  FROM (SELECT doc_id, coalesce(text, '') AS text FROM documents)),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
       GROUP BY doc_id, term),
m AS (SELECT term, count(*)::BIGINT AS df,
             sum(tf) AS s1, sum(tf * tf) AS s2
      FROM tf GROUP BY term
      ORDER BY df DESC, term LIMIT {k})
SELECT term, df,
       round(s1 / df, {round_to}) AS mean_tf,
       round((s2 / df - (s1 / df) * (s1 / df)) / (s1 / df),
             {round_to}) AS burstiness
FROM m ORDER BY df DESC, term"""


def windowed_quantiles_sql(width_minutes: int = 1440, qs=(0.5, 0.95),
                           round_to: int = 6) -> str:
    # DuckDB time_bucket's origin is 2000-01-03 while the operator
    # floors from the 1970-01-01 epoch; both are midnight-aligned, so
    # boundaries coincide exactly when the width divides a day
    # (round-4 ADVICE — guard the silent divergence).
    assert 1440 % int(width_minutes) == 0, \
        "width_minutes must divide 1440 (day-aligned windows)"
    arms = "\nUNION ALL\n".join(
        f"""SELECT window_start, {float(q)!r} AS q,
       round(percentile_disc({float(q)!r}) WITHIN GROUP
               (ORDER BY value), {round_to}) AS value
FROM w GROUP BY window_start"""
        for q in sorted(qs))
    return f"""
WITH w AS (
  SELECT time_bucket(INTERVAL {int(width_minutes)} MINUTE, ts)
           AS window_start, value
  FROM events)
{arms}
ORDER BY window_start, q"""


CLUSTER_SIZE_HIST_SQL = rf"""
WITH RECURSIVE {_MINHASH_PAIRS_CTES},
pr AS (SELECT id_a, id_b FROM pairs WHERE j >= 0.5),
edges AS (SELECT id_a AS a, id_b AS b FROM pr
          UNION ALL SELECT id_b, id_a FROM pr),
reach(id, r) AS (
  SELECT a, a FROM edges
  UNION
  SELECT re.id, e.b FROM reach re JOIN edges e ON re.r = e.a
),
cl AS (SELECT id, MIN(r) AS cluster_id FROM reach GROUP BY id),
sizes AS (SELECT cluster_id, count(*)::BIGINT AS cluster_size
          FROM cl GROUP BY cluster_id)
SELECT cluster_size, count(*)::BIGINT AS n_clusters
FROM sizes GROUP BY cluster_size ORDER BY cluster_size"""
