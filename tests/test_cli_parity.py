"""Reference CLI parity commands added in round 3
(``bin/yetisearch:34-66``): create-index, knn, facets-distance,
debug:query (here ``debug-query``), plus the SearchEngine.explain
plan introspection they surface."""
import json

import pytest


@pytest.mark.usefixtures("ray_session")
class TestExplain:
    def test_smart_plan_has_arms_and_partitions(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        plan = eng.explain("parse buffer")
        assert plan["mode"] == "smart"
        kinds = {a["kind"] for a in plan["arms"]}
        assert kinds == {"phrase", "term"}
        for a in plan["arms"]:
            assert a["partitions"], "every arm reads at least one partition"
        term_dfs = {tuple(a["terms"]): a["df"] for a in plan["arms"]}
        assert term_dfs[("parse",)] > 0
        assert plan["stats"]["n_docs"] == 300

    def test_fuzzy_rewrite(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        f = eng.explain("parze", fuzzy=True)
        assert "parse" in f["fuzzy"]["corrected_terms"]
        assert f["fuzzy"]["original_terms"] == ["parze"]

    def test_round3_feature_plan(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        p = eng.explain("parse^2 buffer", mode="or",
                        min_should_match=2, dismax=True, tie_breaker=0.3,
                        in_fields=["content"])
        assert p["min_should_match"] == 2
        assert p["dismax"] == {"tie_breaker": 0.3}
        assert p["in_fields"]["fields"] == ["content"]
        boosted = [a for a in p["arms"] if a.get("boost")]
        assert boosted and boosted[0]["terms"] == ["parse"]
        assert boosted[0]["boost"] == 2.0
        r = eng.explain("parse", rank_column="lang", rank_weight=0.5)
        assert r["rank_boost"]["column"] == "lang"
        assert r["stages"] == ["rank_boost"] and p["stages"] == []

    def test_near_plan(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        p = eng.explain("parse buffer", mode="near", near_distance=4)
        assert p["near"] == {"terms": ["parse", "buffer"], "distance": 4}

    def test_explain_reports_the_plan_search_scores(self, built_index,
                                                    monkeypatch):
        """explain() and search() compile through one call: over the
        benchmark query set under each rank modifier, the arms search()
        hands the scorer are the ones explain() reports, its
        ``stages`` are the score modifiers search() ran, and explain()
        raises exactly when search() does."""
        from bench import QUERY_SET
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index), cache_ttl=0)
        scored = []
        score = eng._score

        def spy(cq, *a, **kw):
            scored.append(cq)
            return score(cq, *a, **kw)

        monkeypatch.setattr(eng, "_score", spy)
        ran, candidates, seen = [], [], set()
        stages, cands = eng._stages, eng._candidates

        def stage_spy(req):
            def record(name, fn):
                return lambda *a: (ran.append(name), fn(*a))
            return [(name, record(name, fn)) for name, fn in stages(req)]

        def cand_spy(*a, **kw):
            out = cands(*a, **kw)
            candidates.append(out[0].size)
            return out

        monkeypatch.setattr(eng, "_stages", stage_spy)
        monkeypatch.setattr(eng, "_candidates", cand_spy)
        modifiers = [
            {},
            dict(rank_column="doc_id", rank_weight=0.5),
            dict(decay_column="doc_id", decay_origin=0.0, decay_scale=100.0),
            dict(negative_terms=["buffer"]),
            dict(restrict_ids=list(range(0, 300, 2))),
            dict(distance_weight=0.5),
            dict(slop=2),
            dict(enable_suggestions=True),
            dict(negative_terms=["return"], rank_column="doc_id",
                 rank_weight=0.2, decay_column="doc_id", decay_scale=50.0),
        ]
        for q, kw in QUERY_SET:
            for mod in modifiers:
                opts = dict(kw, **mod)
                scored.clear()
                ran.clear()
                candidates.clear()
                try:
                    eng.search(q, limit=10, **opts)
                except Exception as e:
                    with pytest.raises(type(e)):
                        eng.explain(q, **opts)
                    continue
                plan = eng.explain(q, **opts)
                got = [(a["terms"], a["prefix"], a.get("boost", 1.0),
                        a["required"]) for a in plan["arms"]]
                if not scored:  # nothing to score: search() returned early
                    assert got == [], (q, opts)
                    continue
                cq = scored[0]
                assert got == [(list(ph.terms), ph.prefix, ph.boost,
                                any(p is ph for p in cq.required))
                               for ph in cq.phrases], (q, opts)
                assert plan["exclude"] == [list(p.terms) for p in cq.exclude]
                assert plan.get("in_fields", {}).get("field_ids") == (
                    None if cq.fields is None else sorted(cq.fields))
                assert plan.get("min_should_match", 1) == cq.min_should_match
                assert ("dismax" in plan) == cq.dismax, (q, opts)
                # stages run on a non-empty candidate set (the first
                # candidate call is search()'s; negative_terms adds more)
                assert ran == (plan["stages"] if candidates[0] else []), \
                    (q, opts)
                seen.update(ran)
        assert seen == {"rank_boost", "decay", "negative_terms"}


@pytest.mark.usefixtures("ray_session")
class TestCliCommands:
    def test_create_index_then_search_empty(self, tmp_path, capsys):
        from yetisearch_ray.cli import main

        idx = str(tmp_path / "empty_idx")
        main(["create-index", "--index", idx, "--fields", "title,content"])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["status"] == "committed"
        main(["search", "--index", idx, "anything"])
        assert "Empty DataFrame" in capsys.readouterr().out
        with pytest.raises(FileExistsError):
            main(["create-index", "--index", idx])

    def test_debug_query_cli(self, built_index, capsys):
        from yetisearch_ray.cli import main

        main(["debug-query", "--index", built_index, "parse buffer"])
        plan = json.loads(capsys.readouterr().out)
        assert plan["mode"] == "smart"
        assert any(a["kind"] == "term" and a["df"] > 0 for a in plan["arms"])

    def test_search_fields_and_min_match_flags(self, built_index, capsys):
        from yetisearch_ray.cli import main

        main(["search", "--index", built_index, "file",
              "--fields", "content", "--limit", "5"])
        restricted = capsys.readouterr().out
        assert "doc_id" in restricted
        main(["search", "--index", built_index, "parse buffer limit",
              "--min-match", "2", "--limit", "5"])
        assert "doc_id" in capsys.readouterr().out
        main(["search", "--index", built_index, "parse buffer",
              "--dismax", "0.3", "--limit", "5"])
        assert "doc_id" in capsys.readouterr().out
        main(["search", "--index", built_index, "parse buffer",
              "--mode", "or", "--group-by", "lang", "--group-limit", "2",
              "--limit", "3"])
        out = capsys.readouterr().out
        assert "route" in out and "pos" in out

    def test_autocomplete_cli_ranks_by_df(self, built_index, capsys):
        from yetisearch_ray.cli import main

        main(["autocomplete", "--index", built_index, "pa"])
        out = capsys.readouterr().out
        lines = [ln.split() for ln in out.strip().splitlines()[1:]]
        terms = [ln[0] for ln in lines]
        assert terms, out
        assert all(t.startswith("pa") for t in terms)
        assert [int(ln[1]) for ln in lines] == list(range(1, len(terms) + 1))

    @pytest.fixture()
    def geo_index(self, tmp_path):
        from yetisearch_ray.facade import YetiSearchRay

        ys = YetiSearchRay(str(tmp_path / "geo"))
        ys.create_index("g", fields=["title"],
                        store_columns=["title", "lat", "lng"])
        ys.index_batch("g", [
            {"content": {"title": "alpha near"},
             "lat": 37.7749, "lng": -122.4194},
            {"content": {"title": "alpha mid"}, "lat": 37.80, "lng": -122.41},
            {"content": {"title": "alpha far"}, "lat": 38.5, "lng": -121.5},
        ])
        return ys._dir("g")

    def test_knn_cli_orders_by_distance(self, geo_index, capsys):
        from yetisearch_ray.cli import main

        main(["knn", "--index", geo_index, "--lat", "37.7749",
              "--lng", "-122.4194", "--k", "2", "--units", "km",
              "--max-distance", "50"])
        out = capsys.readouterr().out
        lines = [ln.split() for ln in out.strip().splitlines()[1:]]
        dists = [float(ln[1]) for ln in lines]
        assert dists == sorted(dists)
        assert len(dists) == 2 and dists[-1] <= 50.0

    def test_facets_distance_cli_buckets(self, geo_index, capsys):
        from yetisearch_ray.cli import main

        main(["facets-distance", "--index", geo_index, "--lat", "37.7749",
              "--lng", "-122.4194", "--ranges", "1,10,200", "--units", "km"])
        out = capsys.readouterr().out
        counts = [int(ln.split()[-1])
                  for ln in out.strip().splitlines()[1:]]
        assert counts == [1, 2, 3]


@pytest.mark.usefixtures("ray_session")
class TestTermVectorsCli:
    def test_term_vectors_matches_engine(self, built_index, capsys):
        from yetisearch_ray.cli import main
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        tv = eng.term_vectors(3).to_pandas()
        # both indexed fields reported, tf matches a direct re-tokenize
        from yetisearch_ray.analysis.tokenizer import tokenize
        doc = eng.index.docs([3], columns=["path", "content"])
        for fname in ("path", "content"):
            toks = tokenize(doc[fname][0].as_py() or "")
            sub = tv[tv.field == fname]
            assert int(sub.tf.sum()) == len(toks)
        # df is a corpus docfreq: every term of the doc has df >= 1 and
        # no df exceeds the corpus size
        assert (tv.df >= 1).all() and (tv.df <= eng.index.n_docs).all()
        # sorted (field, term)
        assert tv.equals(tv.sort_values(["field", "term"])
                         .reset_index(drop=True))

        main(["term-vectors", "--index", built_index, "3"])
        out = capsys.readouterr().out
        assert "tf" in out and "df" in out
        # _print_table may truncate long tables; the first data row must
        # match the engine result verbatim
        first = out.strip().splitlines()[1].split()
        assert first[0] == tv.field.iloc[0] and first[1] == tv.term.iloc[0]


@pytest.mark.usefixtures("ray_session")
class TestExplainScore:
    """ES _explain shape: per-term BM25 breakdown whose contrib sum
    reproduces the OR-mode score exactly (oracle identity is covered by
    test_oracle_parity)."""

    def test_contrib_sums_to_or_score(self, built_index):
        import numpy as np

        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        r = eng.search("parse buffer", mode="or", limit=1000,
                       normalize=False).to_pandas()
        doc = int(r.doc_id.iloc[0])
        ex = eng.explain_score(doc, "parse buffer").to_pandas()
        assert list(ex.columns) == ["term", "tf", "df", "idf", "contrib"]
        assert set(ex.term) <= {"parse", "buffer"}
        want = float(r.loc[r.doc_id == doc, "score"].abs().iloc[0])
        assert abs(ex.contrib.sum() - want) < 1e-3
        # terms absent from the doc are omitted, present ones have tf>0
        assert (ex.tf > 0).all() and (ex.df >= 1).all()

    def test_rejects_phrase_and_unknown_doc(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        with pytest.raises(ValueError):
            eng.explain_score(0, '"parse buffer"')
        with pytest.raises(KeyError):
            eng.explain_score(10**9, "parse")


@pytest.mark.usefixtures("ray_session")
class TestSearchLmCli:
    def test_search_lm_matches_engine(self, built_index, capsys):
        from yetisearch_ray.cli import main
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        want = eng.search_lm("parse buffer", limit=5).to_pandas()
        main(["search-lm", "--index", built_index, "parse buffer",
              "--limit", "5"])
        out = capsys.readouterr().out
        lines = [ln.split() for ln in out.strip().splitlines()[1:]]
        assert [int(ln[0]) for ln in lines] == want.doc_id.astype(int).tolist()
