"""Multiset permutations, descent statistics, and parenthesized cell words.

Positions are 1-based throughout.  A cell of the maximal-chain complex of a
product of chains is a word over {1, ..., n} (letter j appearing i_j times)
together with disjoint joined pairs of adjacent positions, each pair holding
a strictly descending pair of letters.

Each fact of a word has one function: descents, placements (of pairs among
the descents) and critical_pairs (the paper's run rule).  word_placements
computes the descents once per word, and the word table of a spec complex
keeps them, so the `bijection` suite of `verify` only applies
critical_pairs to them: 0.004 s for the 7,560 words of (2,2,2,3).
"""

from __future__ import annotations

import math
import re
from itertools import combinations, count
from typing import NamedTuple

from .posets import CapExceeded

DEFAULT_CAP = 10_000_000


class ChainSpec(NamedTuple("ChainSpec", [("i", tuple)])):
    """Nondecreasing positive chain lengths (i_1, ..., i_n).

    The constructor normalises and validates; _make goes through it, so
    _replace validates too.
    """

    __slots__ = ()

    def __new__(cls, i):
        i = tuple(int(v) for v in i)
        if not i:
            raise ValueError("empty chain spec")
        if any(v < 1 for v in i):
            raise ValueError("chain lengths must be positive")
        if any(a > b for a, b in zip(i, i[1:])):
            raise ValueError("chain lengths must be nondecreasing")
        return super().__new__(cls, i)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def n(self):
        return len(self.i)

    @property
    def ell(self):
        return sum(self.i)

    def multinomial(self):
        """The number of words, ell! / (i_1! ... i_n!), as a product of
        binomials: C(ell, i_1) C(ell - i_1, i_2) ..., with no factorial of ell."""
        out, rest = 1, self.ell
        for v in self.i:
            out *= math.comb(rest, v)
            rest -= v
        return out

    def sorted_word(self):
        return tuple(j for j, v in enumerate(self.i, start=1) for _ in range(v))


def as_spec(spec):
    if isinstance(spec, ChainSpec):
        return spec
    return ChainSpec(tuple(spec))


class CellWord(NamedTuple):
    """A parenthesized multiset permutation: word plus left endpoints of joined pairs."""

    word: tuple
    pairs: tuple

    @property
    def dim(self):
        return len(self.pairs)


def cellword(word, pairs=()):
    """Validated CellWord constructor."""
    word = tuple(int(x) for x in word)
    pairs = tuple(sorted(int(p) for p in pairs))
    ell = len(word)
    prev = None
    for p in pairs:
        if not 1 <= p <= ell - 1:
            raise ValueError(f"pair position {p} out of range")
        if prev is not None and p - prev < 2:
            raise ValueError(f"pairs at {prev} and {p} overlap")
        if not word[p - 1] > word[p]:
            raise ValueError(f"pair at {p} is not strictly descending")
        prev = p
    return CellWord(word, pairs)


def check_content(word, spec):
    spec = as_spec(spec)
    n = spec.n
    counts = [0] * (n + 1)
    for x in word:
        if not 1 <= x <= n:
            raise ValueError(f"letter {x} outside alphabet 1..{n}")
        counts[x] += 1
    if tuple(counts[1:]) != spec.i:
        raise ValueError("word content does not match the chain spec")


def _render_letter(x):
    return str(x) if x <= 9 else f"[{x}]"


def render_cellword(cw):
    """The cell word as text: one token per letter, each pair in parentheses."""
    return _parenthesize(list(map(_render_letter, cw.word)), cw.pairs)


def _parenthesize(out, pairs):
    """The rendered letters `out` joined, each pair in parentheses; changes `out`."""
    for p in pairs:
        out[p - 1] = "(" + out[p - 1]
        out[p] += ")"
    return "".join(out)


_TOKEN = re.compile(r"\[(\d+)\]|(\d)|(\()|(\))")


def parse_cellword(s):
    """Inverse of render_cellword, e.g. '3(51)42' or '(21)1(32)344'."""
    letters = []
    pairs = []
    open_at = None
    pos = 0
    for m in _TOKEN.finditer(s):
        if m.group(1) or m.group(2):
            letters.append(int(m.group(1) or m.group(2)))
            pos += 1
        elif m.group(3):
            if open_at is not None:
                raise ValueError("nested parenthesis")
            open_at = pos + 1
        else:
            if open_at is None or pos - open_at != 1:
                raise ValueError("parenthesis must enclose exactly two letters")
            pairs.append(open_at)
            open_at = None
    if open_at is not None:
        raise ValueError("unclosed parenthesis")
    if sum(1 for c in s if not c.isspace()) != sum(len(_render_letter(x)) for x in letters) + 2 * len(pairs):
        raise ValueError(f"cannot parse cell word {s!r}")
    return cellword(letters, pairs)


def release(cw, t, order):
    """Release the t-th joined pair (1-based) in the given order ('alpha' or 'beta').

    The beta face keeps the descending arrangement (same underlying word);
    the alpha face swaps the two entries into ascending order.
    """
    if not 1 <= t <= len(cw.pairs):
        raise ValueError(f"no joined pair #{t}")
    p = cw.pairs[t - 1]
    rest = cw.pairs[:t - 1] + cw.pairs[t:]
    if order == "beta":
        return CellWord(cw.word, rest)
    if order == "alpha":
        w = list(cw.word)
        w[p - 1], w[p] = w[p], w[p - 1]
        return CellWord(tuple(w), rest)
    raise ValueError(f"order must be 'alpha' or 'beta', not {order!r}")


def signed_faces(cw):
    """Codimension-1 faces of a cell word with their incidence numbers.

    Each joined pair is released in both orders, alpha before beta.  Signs
    follow the tensor-product orientation of a product of simplices, with
    target vertices listed in ascending canonical order (for ideal lattices
    this is graded lexicographic order under the fixed linear extension).
    Releasing a joined pair with q pairs to its left therefore has incidence
    (-1)^q for the order-preserving (beta) release and (-1)^(q+1) for the
    swapped (alpha) release; the two signs are always opposite.
    """
    releases = (release(cw, t, order)
                for t in range(1, len(cw.pairs) + 1) for order in ("alpha", "beta"))
    return tuple(zip(releases, face_signs(len(cw.pairs))))


def face_signs(d):
    """The incidences of a d-cell's 2d faces, in the order signed_faces lists
    them: the t-th pair (1-based) gives alpha (-1)^t, then beta -(-1)^t."""
    return tuple(s for t in range(1, d + 1) for s in ((-1) ** t, -((-1) ** t)))


# -- descents -------------------------------------------------------------


def descents(word):
    """The positions j (1-based) with word[j - 1] > word[j], in increasing order."""
    return tuple(j for j in range(1, len(word)) if word[j - 1] > word[j])


def critical_pairs(descents):
    """The pairs of the critical cell of a word with these descents, or None.

    The descents split into maximal runs {m, ..., m + q} of consecutive
    positions.  The word has a critical cell iff q is not 0 mod 3 for every
    run, and the cell's pairs sit at m + 3j + 1 for 0 <= j < ceil(q / 3):
    every third descent of a run is free, starting with m.
    """
    pairs = []
    k = 0
    while k < len(descents):
        m = descents[k]
        while k + 1 < len(descents) and descents[k + 1] == descents[k] + 1:
            k += 1
        q = descents[k] - m
        if q % 3 == 0:
            return None
        pairs.extend(range(m + 1, m + q + 1, 3))
        k += 1
    return tuple(pairs)


# -- enumeration ----------------------------------------------------------


def enumerate_words(spec, cap=DEFAULT_CAP):
    """All multiset permutations for the spec, lexicographically.

    Steps from the sorted word by the next-permutation rule (Knuth's
    Algorithm L): swap the last ascent's left letter with the last letter
    greater than it, then reverse the suffix after it.  Nothing recurses,
    so the word length is not bounded by the recursion limit.  Raises
    CapExceeded, before any word is built, when the letters of one word or
    the number of words exceed `cap`.
    """
    spec = as_spec(spec)
    if spec.ell > cap:
        raise CapExceeded(f"words of {spec.ell} letters exceed the cap {cap}")
    count = spec.multinomial()
    if count > cap:
        raise CapExceeded(f"{count} words exceed the cap {cap}")
    w = list(spec.sorted_word())
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = w[:i:-1]


class Placements(NamedTuple):
    """The pair placements of one descent set, grouped by dimension.

    by_dim[d] lists the placements with d pairs in enumeration order, masks[d]
    the same placements as bitmasks of their positions, and rank maps a mask
    to its placement's index within its dimension.
    """

    descents: tuple
    by_dim: tuple
    masks: tuple
    rank: dict


def placements(descents):
    """The Placements of a sorted tuple of descent positions.

    A placement of d pairs is a combination of d descents no two of which
    are adjacent; combinations lists each dimension in lexicographic order,
    and the first dimension that has none ends the list.
    """
    by_dim = []
    for d in count():
        ps = tuple(c for c in combinations(descents, d)
                   if all(q - p > 1 for p, q in zip(c, c[1:])))
        if not ps:
            break
        by_dim.append(ps)
    masks = tuple(tuple(sum(1 << p for p in pairs) for pairs in ps) for ps in by_dim)
    rank = {m: r for ms in masks for r, m in enumerate(ms)}
    return Placements(descents, tuple(by_dim), masks, rank)


def word_placements(words, cap=DEFAULT_CAP):
    """(word, Placements of its descents) for each word, in order.

    Words with the same descent set share one Placements.  Raises
    CapExceeded before the word whose cells take the total past `cap`.
    """
    memo = {}
    total = 0
    for w in words:
        des = descents(w)
        info = memo.get(des)
        if info is None:
            info = memo[des] = placements(des)
        total += sum(map(len, info.by_dim))
        if total > cap:
            raise CapExceeded(f"cell enumeration exceeds the cap {cap}")
        yield w, info


# -- critical cells of Hom(r, s, t) ---------------------------------------


def count_critical_rst(r, s, t, k):
    """Number of critical k-cells in Hom(r, s, t): C(r,k) C(s,k) C(t,k)."""
    if not (0 <= k <= r <= s <= t):
        raise ValueError("need 0 <= k <= r <= s <= t")
    return math.comb(r, k) * math.comb(s, k) * math.comb(t, k)


def rst_cell_from_selections(r, s, t, ones, twos, threes):
    """The critical cell built from k-element selections of 1's, 2's and 3's.

    The n-th selected 1 and 2 form the n-th joined pair (2 1); the n-th
    selected 3 is the free entry immediately before that pair; unselected
    letters fill the weakly increasing free runs in occurrence order.
    """
    ones, twos, threes = tuple(sorted(ones)), tuple(sorted(twos)), tuple(sorted(threes))
    k = len(ones)
    if not (len(twos) == len(threes) == k):
        raise ValueError("selections must have equal size")
    for sel, bound in ((ones, r), (twos, s), (threes, t)):
        if sel and not (1 <= sel[0] and sel[-1] <= bound):
            raise ValueError("selection index out of range")
        if len(set(sel)) != len(sel):
            raise ValueError("repeated selection index")
    word = []
    pairs = []
    a0 = b0 = c0 = 0
    for a, b, c in zip(ones, twos, threes):
        word += [1] * (a - a0 - 1) + [2] * (b - b0 - 1) + [3] * (c - c0)
        pairs.append(len(word) + 1)
        word += [2, 1]
        a0, b0, c0 = a, b, c
    word += [1] * (r - a0) + [2] * (s - b0) + [3] * (t - c0)
    return cellword(word, pairs)


def rst_selections_from_cell(cw):
    """Inverse of rst_cell_from_selections; requires a 3(21)-shaped critical cell."""
    word = cw.word
    ones = []
    twos = []
    threes = []
    for p in cw.pairs:
        if word[p - 1] != 2 or word[p] != 1:
            raise ValueError("joined pair is not (2 1)")
        if p < 2 or word[p - 2] != 3:
            raise ValueError("pair is not preceded by a free 3")
        twos.append(sum(1 for x in word[:p] if x == 2))
        ones.append(sum(1 for x in word[:p + 1] if x == 1))
        threes.append(sum(1 for x in word[:p - 1] if x == 3))
    return tuple(ones), tuple(twos), tuple(threes)
