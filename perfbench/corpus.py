"""Seeded, vectorized source-code corpus for the benchmark.

Same table as ``yetisearch_ray.sources.corpus``: ``(repo, path, commit,
lang, content)`` parquet part files in document order, read back with
``read_parquet_with_doc_ids``.  Unlike that generator (fixed seed 42, a
Python loop of ~60 s per 50k docs, a 2.4k-term vocabulary), every draw
here comes from ``seed`` and the whole corpus is built with numpy and
Arrow kernels, so 50k documents take about a second and two runs with
the same seed write identical tables.

Each document is a token stream mixing four sources, chosen to keep the
shapes the engine's query set relies on:

- per-language keywords: the Zipf head (``return`` is in almost every
  document, so its idf clamps like FTS5's);
- a fixed list of identifier words (``parse``, ``buffer``, ``deadline`` ...)
  that the query classes name;
- a long tail of ``tail_vocab`` synthetic identifiers drawn Zipf, which
  sets the distinct-term count against the postings LRU;
- English comment words, with the phrase ``exponential backoff``
  planted, plus rare accented identifiers for the unicode61 folding path.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

KEYWORDS = {
    "python": "def return if else for while import from class try except with as pass lambda yield",
    "php": "function return if else foreach while echo class public private static new use namespace",
    "js": "function return if else for while const let var class import export async await new",
    "go": "func return if else for range import package type struct interface var const defer go",
    "rust": "fn return if else for while loop impl struct enum trait let mut pub use match",
    "java": "public private static void return if else for while class interface import new final try",
}
LANGS = list(KEYWORDS)
EXTS = {"python": "py", "php": "php", "js": "js", "go": "go", "rust": "rs", "java": "java"}

WORDS = (
    "parse config loader hash table index search query token stream buffer "
    "cache client server handler router filter mapper reducer writer reader "
    "batch shard segment merge sort scan vector matrix graph node edge tree "
    "heap stack queue list array string number format encode decode compress "
    "schema record field column row block page file path utils helper core "
    "engine worker task job sched timer clock event signal state machine "
    "proto socket http json yaml xml csv binary text char byte bit flag mask "
    "lock mutex atomic thread pool chan sync async wait notify retry backoff "
    "error panic assert check valid emit lexer parser compiler optimizer "
    "planner executor runtime memory alloc free gc ref count weak strong copy "
    "move clone drop init setup teardown open close read write seek flush "
    "commit rollback txn log trace debug info warn metric gauge counter "
    "histogram span context cancel deadline timeout limit quota rate"
).split()

COMMENT_WORDS = (
    "this function returns the computed value for a given input and handles "
    "edge cases gracefully when the buffer is empty or the connection has "
    "been closed by the remote peer we retry with exponential backoff until "
    "the deadline expires then propagate an error to the caller documentation "
    "generated automatically please keep comments updated running tests "
    "requires a local installation of the toolchain"
).split()

UNICODE_IDS = ["café", "naïve", "übung", "señal", "résumé", "montréal"]

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]  # 70
MEAN_TOKENS = 120  # per document, uniform in [60, 180]
TAIL_SHARE = 0.15  # of tokens, drawn from the long tail
TAIL_ZIPF = 1.05
FILES, ROW_GROUPS = 8, 64  # parquet layout: ROW_GROUPS read tasks


def tail_word(i: int) -> str:
    """Synthetic identifier ``i`` of the long tail: three or more
    syllables, so it is never a stopword nor one of ``WORDS``."""
    s = []
    n = len(_SYLLABLES)
    for _ in range(3):
        s.append(_SYLLABLES[i % n])
        i //= n
    while i:
        s.append(_SYLLABLES[i % n])
        i //= n
    return "".join(s)


def zipf_ranks(u: np.ndarray, n: int, a: float) -> np.ndarray:
    """Ranks 0..n-1 for uniforms ``u``, with P(r) proportional to
    (r+1)^-a."""
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -a)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, u), n - 1)


def _token_table(tail_vocab: int) -> list[str]:
    kw = sorted({w for v in KEYWORDS.values() for w in v.split()})
    toks = kw + WORDS + COMMENT_WORDS + UNICODE_IDS
    toks += [tail_word(i) for i in range(tail_vocab)]
    return toks


def make_table(seed: int, n_docs: int, tail_vocab: int, *,
               first_doc: int = 0) -> pa.Table:
    """One corpus slice of ``n_docs`` rows, fully determined by the
    arguments.  ``first_doc`` numbers the rows' repo/path keys, so
    appended generations never collide with the base corpus."""
    rng = np.random.default_rng([seed, first_doc])
    toks = _token_table(tail_vocab)
    index = {t: i for i, t in enumerate(toks)}
    n_tok = len(toks)
    lang_ids = (np.arange(first_doc, first_doc + n_docs) % len(LANGS))
    # (6, 16): shorter keyword lists wrap around
    kw_ids = np.array([[index[w] for w in (KEYWORDS[lg].split() * 2)[:16]]
                       for lg in LANGS])
    word_ids = np.array([index[w] for w in WORDS])
    comment_ids = np.array([index[w] for w in COMMENT_WORDS])
    uni_ids = np.array([index[w] for w in UNICODE_IDS])
    tail0 = n_tok - tail_vocab

    lens = rng.integers(MEAN_TOKENS // 2, MEAN_TOKENS * 3 // 2 + 1, n_docs)
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    doc_of = np.repeat(np.arange(n_docs), lens)
    kind = rng.random(total)
    ids = np.empty(total, dtype=np.int64)
    # keywords of the document's language: ~30% of tokens
    m = kind < 0.30
    ids[m] = kw_ids[lang_ids[doc_of[m]],
                    zipf_ranks(rng.random(int(m.sum())), kw_ids.shape[1], 0.8)]
    # named identifier words, uniform: ~40%
    m = (kind >= 0.30) & (kind < 0.70)
    ids[m] = word_ids[rng.integers(0, word_ids.size, int(m.sum()))]
    # English comment words: the rest outside the tail
    m = (kind >= 0.70) & (kind < 1.0 - TAIL_SHARE)
    ids[m] = comment_ids[rng.integers(0, comment_ids.size, int(m.sum()))]
    # long-tail identifiers
    m = kind >= 1.0 - TAIL_SHARE
    ids[m] = tail0 + zipf_ranks(rng.random(int(m.sum())), tail_vocab, TAIL_ZIPF)
    # planted phrase and rare accented identifiers
    phrase = np.flatnonzero(rng.random(total - 1) < 0.004)
    ids[phrase] = index["exponential"]
    ids[phrase + 1] = index["backoff"]
    uni = rng.random(total) < 0.002
    ids[uni] = uni_ids[rng.integers(0, uni_ids.size, int(uni.sum()))]
    # every 8th token of a document ends a line
    line_end = (np.arange(total) - offsets[doc_of]) % 8 == 7
    ids[line_end] += n_tok

    words = pa.array(toks + [t + "\n" for t in toks], pa.string())
    content = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)),
                                 words.take(pa.array(ids))), " ")

    i = np.arange(first_doc, first_doc + n_docs)
    repo = [f"org{k % 7}/proj{k % 97:02d}" for k in i]
    path = [f"src/module_{k % 23}/file_{k // 23}.{EXTS[LANGS[k % 6]]}" for k in i]
    commit = [hashlib.sha1(f"{seed}:{p}".encode()).hexdigest() for p in path]
    return pa.table({
        "repo": pa.array(repo, pa.string()),
        "path": pa.array(path, pa.string()),
        "commit": pa.array(commit, pa.string()),
        "lang": pa.array([LANGS[k] for k in lang_ids], pa.string()),
        "content": content.cast(pa.large_string()),
    })


def write_corpus(t: pa.Table, out_dir: str) -> str:
    """Write ``t`` into the new directory ``out_dir`` as FILES ordered part
    files of about ROW_GROUPS row groups in total; each row group becomes
    one read task of the build."""
    os.makedirs(out_dir)
    n = t.num_rows
    chunk = -(-n // FILES)
    rg = max(64, -(-n // ROW_GROUPS))
    for fi in range(FILES):
        lo = fi * chunk
        if lo >= n:
            break
        pq.write_table(t.slice(lo, min(chunk, n - lo)),
                       os.path.join(out_dir, f"part-{fi:04d}.parquet"),
                       row_group_size=rg)
    return out_dir
