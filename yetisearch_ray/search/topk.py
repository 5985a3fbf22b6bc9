"""Tie-exact top-k selection.

Ranked output is ordered by (key ascending, id ascending).  Sorting the
whole candidate set to read its first k rows costs O(n log n); the k-th
key is a threshold that splits the set in O(n) instead: every row whose
key is at most the k-th value survives, ties included, and only the
survivors are sorted (the per-block k-th-value bound of continuous top-k
processing, Zhu et al., "SAP", ICDE 2018).
"""

from __future__ import annotations

import numpy as np

# rows of the strided sample per wanted row; the sample's k-th key
# passes about n / SAMPLE_PER_K rows on to the exact selection
SAMPLE_PER_K = 32


def topk_order(key: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions ordered by ``key`` ascending, then ``ids`` ascending:
    the prefix of ``np.lexsort((ids, key))`` that holds every row whose
    key is at most the k-th smallest key.

    The prefix runs past k positions when rows tie the k-th key, so a
    later cut by key or id sees the whole tie.  ``k >= n`` is the full
    sort, and so is a k-th key that is NaN (NaN sorts last)."""
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= key.size:
        return np.lexsort((ids, key))
    # The k-th key of any k or more rows bounds the k-th key of all of
    # them from above, so a strided sample's k-th key prunes the set to
    # a few candidates before the exact selection.
    cand = np.arange(key.size)
    step = key.size // (SAMPLE_PER_K * k)
    if step > 1:
        bound = np.partition(key[::step], k - 1)[k - 1]
        if not np.isnan(bound):
            cand = np.flatnonzero(key <= bound)
    ck = key[cand]
    kth = np.partition(ck, k - 1)[k - 1]
    if np.isnan(kth):  # fewer than k keys are numbers
        return np.lexsort((ids, key))
    sel = cand[ck <= kth]
    return sel[np.lexsort((ids[sel], key[sel]))]
