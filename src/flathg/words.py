"""Flat semirings of commutative subwords.

A word is a multiset of letters, written as a string with repetition
("abc", "aab"); the carrier collects every non-empty sub-multiset of the
given words plus a zero, and multiplication is multiset union capped to
zero whenever the union is no longer a subword.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .semiring import FiniteSemiring, _flat_completion


def _submultisets(word: Counter[str]) -> list[tuple[str, ...]]:
    letters = sorted(word)
    ranges = [range(word[ch] + 1) for ch in letters]
    out = []
    for counts in product(*ranges):
        if sum(counts) == 0:
            continue
        multiset = []
        for ch, k in zip(letters, counts):
            multiset.extend([ch] * k)
        out.append(tuple(multiset))
    return out


def build_sc(words) -> FiniteSemiring:
    """Build the subword semiring of a finite, non-empty set of words.

    Elements are labelled by their sorted letters, with "0" first. The flat
    addition is forced by the multiplication, and the completion step
    re-verifies associativity and 0-cancellativity, so a bad table cannot
    slip through.
    """
    word_list = [w for w in words]
    if not word_list:
        raise ValueError("empty word set")
    normalized: list[Counter[str]] = []
    for w in word_list:
        if not isinstance(w, str) or not w:
            raise ValueError(f"words must be non-empty strings, got {w!r}")
        normalized.append(Counter(w))
    subwords: set[tuple[str, ...]] = set()
    for word in normalized:
        subwords.update(_submultisets(word))
    ordered = sorted(subwords, key=lambda m: (len(m), m))
    labels = ("0",) + tuple("".join(m) for m in ordered)
    index = {m: i + 1 for i, m in enumerate(ordered)}
    n = len(labels)
    mul = [[0] * n for _ in range(n)]
    for m1, i in index.items():
        for m2, j in index.items():
            union = tuple(sorted(m1 + m2))
            mul[i][j] = index.get(union, 0)
    return _flat_completion(labels, tuple(map(tuple, mul)), 0)


def builtin_s7() -> FiniteSemiring:
    """The fixed 3-element separation semiring on {1, a, 0}.

    Its addition is not quite flat-by-fiat in spirit (1 + 1 stays 1), yet the
    flatness law only constrains distinct pairs, and 1 + a = a + 0 = 1 + 0 = 0.
    The tables are hard-coded; nothing derives them.
    """
    elements = ("1", "a", "0")
    add = (
        (0, 2, 2),
        (2, 1, 2),
        (2, 2, 2),
    )
    mul = (
        (0, 1, 2),
        (1, 2, 2),
        (2, 2, 2),
    )
    return FiniteSemiring(elements, add, mul, zero=2)
