"""Fuzzy-search conformance benchmark — port of the reference's scored
typo suite (``benchmarks/benchmark.php:211-327``).

The reference replays 6 exact queries and 50 typo cases (missing /
extra / transposed / wrong letters, missing spaces, phonetic, prefix,
multi-word) against a movie-title index and scores "expected title
substring present in the top-5".  Its own pass bar is >= 70% on the
fuzzy set and 100% on the standard set.

The original runs over a downloaded ``movies.json``; this container has
no network, so we use a DETERMINISTIC in-repo movie corpus containing
every targeted title plus filler rows.  The absolute pass rate is
therefore not comparable to the reference's published number run over
thousands of movies — but the bar (>=70%) is the same and the typo
classes are identical.
"""

from __future__ import annotations

import os

import pyarrow as pa

# (title, plot/keywords) — deterministic corpus; every `expected` target
# of the benchmark cases below appears exactly once as a title
MOVIES: list[tuple[str, str]] = [
    ("Star Wars", "Anakin Skywalker becomes Darth Vader in a space opera "
                  "with lightsabers jedi and the force action adventure"),
    ("The Empire Strikes Back", "Luke Skywalker trains with Yoda while "
                                "Han Solo flees the Empire space action"),
    ("Finding Nemo", "A clownfish crosses the ocean to find his son "
                     "animation family adventure"),
    ("The Matrix", "A hacker discovers reality is a simulation and joins "
                   "a rebellion science fiction action"),
    ("The Godfather", "The aging patriarch of a crime dynasty transfers "
                      "control to his reluctant son drama crime"),
    ("The Godfather Part II", "The early life of Vito Corleone and the "
                              "rise of Michael drama crime"),
    ("Pulp Fiction", "The lives of two mob hitmen a boxer and a pair of "
                     "diner bandits intertwine drama crime"),
    ("The Dark Knight", "Batman faces the Joker in Gotham City action "
                        "crime thriller"),
    ("The Shawshank Redemption", "Two imprisoned men bond over years "
                                 "finding redemption drama"),
    ("Interstellar", "Explorers travel through a wormhole to save "
                     "humanity science fiction space drama"),
    ("Jurassic Park", "Cloned dinosaurs escape on an island theme park "
                      "adventure science fiction"),
    ("Jurassic World", "A new dinosaur park suffers a genetically "
                       "modified escape adventure action"),
    ("Batman", "The caped crusader protects Gotham from the Joker "
               "action crime"),
    ("The Terminator", "A cyborg assassin is sent back in time to kill "
                       "Sarah Connor science fiction action"),
    ("Avengers Endgame", "The Avengers assemble once more to undo "
                         "Thanos and the snap action superhero"),
    ("The Lord of the Rings", "A fellowship sets out to destroy the One "
                              "Ring in Mordor fantasy adventure"),
    ("Gladiator", "A betrayed Roman general fights as a gladiator to "
                  "avenge his family action drama"),
    ("Titanic", "A romance unfolds aboard the doomed ocean liner drama "
                "romance"),
    ("Avatar", "A marine on an alien moon joins the Navi science "
               "fiction adventure"),
    ("Inception", "A thief steals secrets through dream sharing and "
                  "plants an idea science fiction thriller"),
    ("Forrest Gump", "A slow-witted but kind man witnesses history "
                     "drama romance"),
    ("Pirates of the Caribbean", "Captain Jack Sparrow hunts cursed "
                                 "treasure adventure fantasy"),
    ("Spider-Man", "Peter Parker gains spider powers and fights crime "
                   "superhero action"),
    ("Superman", "The last son of Krypton defends Metropolis superhero "
                 "action"),
    ("Die Hard", "A New York cop battles terrorists in a Los Angeles "
                 "tower action thriller"),
    ("Iron Man", "Tony Stark builds a powered suit of armor superhero "
                 "action"),
    ("Black Panther", "The king of Wakanda defends his nation superhero "
                      "action"),
    ("Toy Story", "Toys come alive when their owner leaves the room "
                  "animation family comedy"),
    ("Mad Max", "A vengeful cop roams a dystopian wasteland action "
                "thriller"),
    ("Scarface", "A Cuban immigrant rises through the Miami drug trade "
                 "drama crime"),
    ("Alien vs Predator", "Two alien species battle beneath the ice "
                          "science fiction action horror"),
    ("RoboCop", "A murdered cop returns as a cyborg enforcer science "
                "fiction action"),
    ("X-Men", "Mutants with extraordinary powers clash over humanity's "
              "future superhero action"),
    ("Star Trek Into Darkness", "The Enterprise crew hunts a one-man "
                                "weapon of mass destruction science "
                                "fiction action"),
    ("Harry Potter", "A young wizard attends a school of magic fantasy "
                     "adventure"),
    # filler rows so matching is non-trivial
    ("Casablanca", "A nightclub owner must choose between love and "
                   "virtue drama romance"),
    ("Citizen Kane", "The rise and fall of a newspaper tycoon drama"),
    ("Goodfellas", "The rise of a mob associate over three decades "
                   "drama crime"),
    ("The Silence of the Lambs", "An FBI trainee consults a jailed "
                                 "cannibal to catch a killer thriller"),
    ("Seven", "Two detectives hunt a serial killer who uses the seven "
              "deadly sins crime thriller"),
    ("Fight Club", "An insomniac and a soap maker form an underground "
                   "club drama"),
    ("The Green Mile", "A death row guard meets a prisoner with a "
                       "miraculous gift drama fantasy"),
    ("Braveheart", "A Scottish rebel leads an uprising against English "
                   "rule action drama history"),
    ("The Lion King", "A lion cub flees after his father's death "
                      "animation family drama"),
    ("Back to the Future", "A teenager travels to 1955 in a DeLorean "
                           "time machine science fiction comedy"),
]

# benchmark.php:212-218 — exact queries, fuzzy OFF
STANDARD_CASES = [
    ("star wars", "Star Wars"),
    ("action", None),
    ("nemo", "Finding Nemo"),
    ("matrix", "Matrix"),
    ("Anakin Skywalker", "Star Wars"),
    ("drama crime", None),
]

# benchmark.php:261-327 — 50 typo cases, fuzzy ON (trigram, 0.25)
FUZZY_CASES = [
    # missing letter (10)
    ("The Godfathr", "Godfather", "missing e"),
    ("Pulp Fictin", "Pulp Fiction", "missing o"),
    ("Dark Knigh", "Dark Knight", "missing t"),
    ("Shawshank Redemtion", "Shawshank", "missing p"),
    ("Interstelar", "Interstellar", "missing l"),
    ("Jurrasic Park", "Jurassic", "missing s+extra r"),
    ("Batmn", "Batman", "missing a"),
    ("Termintor", "Terminator", "missing a"),
    ("Avengers Endgam", "Endgame", "missing e"),
    ("Lord of Rings", "Rings", "missing the"),
    # extra letter (5)
    ("Gladiatorr", "Gladiator", "extra r"),
    ("Matrixx", "Matrix", "extra x"),
    ("Titannic", "Titanic", "extra n"),
    ("Avatarr", "Avatar", "extra r"),
    ("Inceptionn", "Inception", "extra n"),
    # transposition (5)
    ("Gladaitor", "Gladiator", "transposed ia"),
    ("Inetrstellar", "Interstellar", "transposed nt"),
    ("Froest Gump", "Forrest", "transposed or"),
    ("Teh Matrix", "Matrix", "transposed he"),
    ("Pirrates", "Pirates", "transposed ir+extra r"),
    # wrong letter (10)
    ("Gladiater", "Gladiator", "er->or"),
    ("Spiderman", "Spider-Man", "missing hyphen"),
    ("Terminetor", "Terminator", "e->a"),
    ("Batmen", "Batman", "e->a"),
    ("Supermen", "Superman", "e->a"),
    ("Stir Wars", "Star Wars", "i->a"),
    ("Juressic Park", "Jurassic", "e->a"),
    ("Die Herd", "Die Hard", "e->a"),
    ("Iren Man", "Iron Man", "e->o"),
    ("Blek Panther", "Black Panther", "e->a"),
    # missing space (5)
    ("Starwars", "Star Wars", "missing space"),
    ("Toystory", "Toy Story", "missing space"),
    ("Ironman", "Iron Man", "missing space"),
    ("Findingnemo", "Finding Nemo", "missing space"),
    ("Madmax", "Mad Max", "missing space"),
    # phonetic (5)
    ("Scareface", "Scarface", "phonetic"),
    ("Alien vs Prediter", "Predator", "phonetic er->or"),
    ("Robo Cop", "RoboCop", "extra space"),
    ("X Men", "X-Men", "space vs hyphen"),
    ("Jurrassic World", "Jurassic", "extra r"),
    # prefix (5)
    ("Incept", "Inception", "prefix only"),
    ("Gladi", "Gladiator", "prefix only"),
    ("Interst", "Interstellar", "prefix only"),
    ("Avata", "Avatar", "prefix only"),
    ("Termin", "Terminator", "prefix only"),
    # complex multi-word (5)
    ("The Godfather Part 2", "Godfather", "exact multi-word"),
    ("Star Trek Into Darknes", "Darkness", "missing s"),
    ("Pirates of Carribean", "Caribbean", "missing b"),
    ("Lord of the Ring", "Rings", "missing s"),
    ("Harry Poter", "Harry Potter", "missing t"),
]


def generate_movie_corpus(out_dir: str) -> str:
    """Write the deterministic movie corpus as parquet (idempotent)."""
    import pyarrow.parquet as pq

    marker = os.path.join(out_dir, ".complete-v1")
    if os.path.exists(marker):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    t = pa.table({
        "title": pa.array([m[0] for m in MOVIES], pa.string()),
        "content": pa.array([m[1] for m in MOVIES], pa.string()),
    })
    pq.write_table(t, os.path.join(out_dir, "movies.parquet"),
                   row_group_size=16)
    open(marker, "w").close()
    return out_dir


_ENGINE_CACHE: dict = {}


def get_movie_engine(work_dir: str = "/tmp/ys_movies"):
    """Build (idempotently) the movie index and return a SearchEngine
    configured like the reference benchmark: title boost 5.0, trigram
    fuzzy, threshold 0.25 (benchmark.php:16,334-339)."""
    eng = _ENGINE_CACHE.get(work_dir)
    if eng is not None:
        return eng
    from ..index.build import IndexConfig, build_index
    from ..index.manifest import Manifest
    from ..search.engine import SearchEngine, open_index
    from ..sources.parquet_source import read_parquet_with_doc_ids

    corpus = generate_movie_corpus(os.path.join(work_dir, "corpus"))
    idx_dir = os.path.join(work_dir, "idx")
    if not Manifest.is_ready(idx_dir):
        ds = read_parquet_with_doc_ids(corpus)
        cfg = IndexConfig(fields=[("title", "title"),
                                  ("content", "content")],
                          store_columns=["title", "content"],
                          num_partitions=4)
        build_index(ds, idx_dir, cfg, input_fingerprint="movies-v1")
    # min_term_frequency=1: the reference's default of 2 assumes its
    # multi-thousand-movie corpus where every famous title term repeats;
    # at 45 deterministic rows df==1 is the norm and a min of 2 would
    # empty the fuzzy dictionary
    eng = SearchEngine(open_index(idx_dir),
                       field_weights={"title": 5.0, "content": 1.0},
                       fuzzy_algorithm="trigram", fuzziness=0.25,
                       min_term_frequency=1, min_part_frequency=1,
                       cache_ttl=0.0)
    _ENGINE_CACHE[work_dir] = eng
    return eng


def run_fuzzy_benchmark(work_dir: str = "/tmp/ys_movies") -> pa.Table:
    """Replay the reference benchmark cases; one row per case.

    Columns: kind (standard|fuzzy), query, expected, desc, found,
    top_title.  Pass criterion per case mirrors the reference: expected
    title substring (case-insensitive) in the top-5 titles.
    """
    eng = get_movie_engine(work_dir)
    rows = []

    def titles_for(query: str, fuzzy: bool) -> list[str]:
        r = eng.search(query, limit=5, fuzzy=fuzzy, with_docs=True,
                       result_fields=["title"])
        return r["title"].to_pylist() if "title" in r.column_names else []

    for query, expected in STANDARD_CASES:
        titles = titles_for(query, fuzzy=False)
        found = bool(titles) if expected is None else any(
            expected.lower() in t.lower() for t in titles)
        rows.append(("standard", query, expected or "", "", found,
                     titles[0] if titles else ""))
    for query, expected, desc in FUZZY_CASES:
        titles = titles_for(query, fuzzy=True)
        found = any(expected.lower() in t.lower() for t in titles)
        rows.append(("fuzzy", query, expected, desc, found,
                     titles[0] if titles else ""))
    return pa.table({
        "kind": pa.array([r[0] for r in rows], pa.string()),
        "query": pa.array([r[1] for r in rows], pa.string()),
        "expected": pa.array([r[2] for r in rows], pa.string()),
        "desc": pa.array([r[3] for r in rows], pa.string()),
        "found": pa.array([r[4] for r in rows], pa.bool_()),
        "top_title": pa.array([r[5] for r in rows], pa.string()),
    })


def pass_rates(result: pa.Table) -> dict:
    import numpy as np

    kind = np.asarray(result["kind"].to_pylist())
    found = np.asarray(result["found"].to_pylist())
    out = {}
    for k in ("standard", "fuzzy"):
        m = kind == k
        out[k] = float(found[m].mean()) if m.any() else 0.0
    return out
