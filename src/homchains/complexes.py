"""Homomorphism complexes of posets and the cubical cell-word model for chain products.

A cell of Hom(A, B) is a tuple of nonempty subsets of B, one per element
of A, all of whose representative systems are strictly order-preserving
maps A -> B; the generic complexes key cells by tuples of sorted tuples.
For a product of chains the complex is cubical and a cell is a
parenthesized multiset permutation (CellWord): a word plus a placement of
pairs among its descents.  maximal_chain_complex builds that model for
every poset that posets.chain_factors proves a product of chains.

A CellComplex indexes each cell by its position in the sequence cells[d],
and every builder lists cells[d] sorted: a spec complex its words in
lexicographic order and each word's placements in combinations order,
hom_complex_generic and the key-level constructor by sorting, and
chains.morse_complex its critical cells in their parent's order.  locate,
and through it MorseMatching.from_pairs, finds a key by one bisect of each
dimension.  The boundary of the d-cells is a FaceTable: face indices into
cells[d - 1] and signs in compressed sparse rows.  The generic complexes
keep cells[d] as a tuple of keys.  A spec complex keeps its cells
implicit: a WordTable holds its chain spec and its words, all in one bytes
of their letters (so a spec has at most 255 chains), with each word's
shared Placements and its start in each dimension, and cells[d] is a
WordCells view over it that builds a CellWord, with a tuple word, only
when one is read.  The keys name cells
in rendering, digests and per-cell traces.  The build finds the word of
each alpha face by rank arithmetic, not by a search of the words.

cellword_to_multihom is the one bridge from a cell word to its multihom.
The cubicality suite of `verify` does not call it: it decides each cell
from its pair mask, as is_cubical reads on the bridge's image.  The tests
check the bridge against a per-position map and the cell-word model
against hom_complex_generic.  Homology, and the fold check that compares it
across a fold removal, live in chains, which builds on this module.
"""

from __future__ import annotations

import bisect
import itertools
import math
import struct
from array import array
from collections.abc import Sequence
from operator import itemgetter
from typing import NamedTuple

from .posets import CapExceeded, GradedPoset, _bits, chain, chain_factors
from .words import (
    DEFAULT_CAP,
    CellWord,
    as_spec,
    check_content,
    enumerate_words,
    face_signs,
    word_placements,
)


class FaceTable(NamedTuple):
    """The faces of the d-cells in compressed sparse rows: the only boundary
    representation, read by the d o d checks and by Smith normal form.

    Cell j has the (d-1)-cells idx[ptr[j]:ptr[j + 1]] as its faces, with
    incidence numbers sgn[ptr[j]:ptr[j + 1]].  In a cell complex they are
    +1 or -1; in a Morse complex (chains.morse_complex) sgn is a list of
    nonzero integers of any size.  A spec complex, whose d-cells all have
    2d faces, keeps ptr as the range of that stride, not as a copy of it,
    and lists them pair by pair: position 2t + x releases the t-th pair
    (0-based), alpha for x = 0 and beta for x = 1, an order
    chains.check_squared reads.  It is read by stride, any other through ptr.
    """

    ptr: array  # 'i', one more entry than there are d-cells; a range in a spec complex
    idx: array  # 'i', indices into cells[d - 1]
    sgn: array  # 'b', +1 or -1; a list of ints in a Morse complex

    @property
    def nnz(self):
        return len(self.idx)


class CellComplex:
    """A polyhedral cell complex: cell keys per dimension plus index-based signed faces.

    `cells` maps each dimension to its cell keys, which must compare with
    one another, and `boundary` maps each cell of dimension >= 1 to its
    ((face, sign), ...); the keys are sorted and turned into indices once,
    here.  Builders that already hold indices use from_faces.
    `word_table` is the WordTable behind the cells of a spec complex, which
    also holds its chain spec, and None for every other complex.
    """

    def __init__(self, cells, boundary):
        self.cells = cells = {d: tuple(sorted(cells[d])) for d in sorted(cells)}
        self.boundary = {d: _face_table(cells[d], boundary,
                                        {cell: i for i, cell in enumerate(cells[d - 1])})
                         for d in cells if d}
        self.word_table = None

    @classmethod
    def from_faces(cls, cells, faces, word_table=None):
        """A complex from cell sequences, each already sorted, and a
        FaceTable per dimension >= 1."""
        cx = cls.__new__(cls)
        cx.cells, cx.boundary, cx.word_table = cells, faces, word_table
        return cx

    @property
    def dim(self):
        return max(self.cells) if self.cells else -1

    def f_vector(self):
        return tuple(len(self.cells[d]) for d in range(self.dim + 1))

    def n_cells(self):
        return sum(len(v) for v in self.cells.values())

    def euler_characteristic(self):
        return sum((-1) ** d * len(cs) for d, cs in self.cells.items())

    def faces(self, d, j):
        """The faces of the j-th d-cell as (index into cells[d - 1], sign) pairs."""
        if d == 0:
            return ()
        ptr, idx, sgn = self.boundary[d]
        lo, hi = ptr[j], ptr[j + 1]
        return tuple(zip(idx[lo:hi], sgn[lo:hi]))

    def locate(self, cell):
        """(dimension, index) of a cell key, by a bisect of each sorted
        cells[d], or KeyError.  A key that does not compare with the keys
        of a dimension is not one of them."""
        for d, cs in self.cells.items():
            try:
                i = bisect.bisect_left(cs, cell)
            except TypeError:
                continue
            if i < len(cs) and cs[i] == cell:
                return d, i
        raise KeyError(cell)

    def __repr__(self):
        return f"CellComplex(f={self.f_vector()})"


def _face_table(cells, boundary, lower):
    """The FaceTable of `cells` from their ((face, sign), ...) in `boundary`;
    `lower` maps each face key to its index."""
    ptr, idx, sgn = array("i", [0]), array("i"), array("b")
    for cell in cells:
        for face, sign in boundary[cell]:
            i = lower.get(face)
            if i is None:
                raise ValueError(f"face {face!r} missing from the complex")
            idx.append(i)
            sgn.append(sign)
        ptr.append(len(idx))
    return FaceTable(ptr, idx, sgn)


# -- the cubical model for products of chains -------------------------------

MAX_CHAINS = 255  # a word's letters 1..n are stored one byte each


class Words(Sequence):
    """The words of a spec complex in lexicographic order, all kept in one
    bytes of their letters: item k is the bytes letters[k*ell:(k + 1)*ell].

    A read-only sequence that slices a word out only when one is read; a
    slice of it is a tuple of such bytes.  bytes compare as tuples of
    letters do, so the items are sorted.
    """

    __slots__ = ("letters", "ell", "_n")

    def __init__(self, letters, ell):
        self.letters = letters
        self.ell = ell
        self._n = len(letters) // ell

    def __len__(self):
        return self._n

    def __getitem__(self, k):
        k = range(self._n)[k]  # a range for a slice; raises as a tuple index would
        if type(k) is range:
            return tuple(map(self.__getitem__, k))
        return self.letters[k * self.ell:(k + 1) * self.ell]

    def __iter__(self):
        return map(itemgetter(0), struct.iter_unpack(f"{self.ell}s", self.letters))

    def __repr__(self):
        return f"Words(n={self._n}, ell={self.ell})"


class WordTable(NamedTuple):
    """The chain spec of a spec complex and its words, each stored once.

    spec is the ChainSpec, words the Words view of its words in
    lexicographic order (one bytes of all their letters), placements[k] the
    shared Placements of word k's descents, and starts[d][k] the index in
    cells[d] of word k's first d-cell, for each dimension d of the complex.
    A cell's index is its word's start plus the rank of its pair placement.
    Swapping x > y at a descent p of word k gives word k - N [(L(x) - L(y))
    (s - 1) + m_x L(y) - m_y (L(x) - 1)] / (s (s - 1)), where the s
    letters from p on hold m_c of letter c, L(c) below c, and have N
    arrangements (_alpha_shift).  Cell keys keep tuple words: WordCells
    converts.
    """

    spec: object  # words.ChainSpec
    words: Words
    placements: list
    starts: list


class WordCells(Sequence):
    """The d-cells of a spec complex: a read-only sequence of CellWord keys
    over its WordTable, which builds a key only when one is read.

    Cell i belongs to the last word whose start is at most i, and is that
    word's placement i - start in Placements.by_dim[d]; its key holds the
    word as a tuple.  Iteration goes word by word; a slice is a tuple, as
    cells[d] of a generic complex is.
    """

    __slots__ = ("table", "d", "_starts", "_n")

    def __init__(self, table, d, n):
        self.table = table
        self.d = d
        self._starts = table.starts[d]
        self._n = n

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        i = range(self._n)[i]  # a range for a slice; raises as a tuple index would
        if type(i) is range:
            return tuple(map(self.__getitem__, i))
        starts, table = self._starts, self.table
        k = bisect.bisect_right(starts, i) - 1
        return CellWord(tuple(table.words[k]), table.placements[k].by_dim[self.d][i - starts[k]])

    def __iter__(self):
        d = self.d
        for w, info in zip(self.table.words, self.table.placements):
            if d < len(info.by_dim):
                w = tuple(w)
                for pairs in info.by_dim[d]:
                    yield CellWord(w, pairs)

    def __repr__(self):
        return f"WordCells(d={self.d}, n={self._n})"


def _alpha_shift(suffix):
    """How far a word's alpha word at a descent lies before it, from the
    word's letters from the descent on: suffix = (x, y, ...) with x > y.

    The words share what comes before, so this is the rank of x y R less
    that of y x R among the N = s! / prod m_c! arrangements of the
    suffix's s letters, N m_c / s of which start with c: those that start
    with a letter from y up to below x, plus those that start with x then
    a letter below y, less those that start with y then a letter below x.
    Each term counts arrangements, so the division is exact.
    """
    x, y, s = suffix[0], suffix[1], len(suffix)
    n = math.factorial(s)
    for c in set(suffix):
        n //= math.factorial(suffix.count(c))
    lx = sum(c < x for c in suffix)
    ly = sum(c < y for c in suffix)
    return n * ((lx - ly) * (s - 1) + suffix.count(x) * ly
                - suffix.count(y) * (lx - 1)) // (s * (s - 1))


def chain_product_complex(spec, cap=DEFAULT_CAP):
    """Hom of a product of chains, built directly from parenthesized words.

    word_placements lists the words in lexicographic order with their pair
    placements by dimension, each dimension in lexicographic order, so the
    cells of each dimension come sorted, all cells of one word together,
    and a cell's index is its word's start in its dimension plus the rank
    of its pair placement among that word's.  The cells stay implicit: the
    complex keeps a WordTable, whose words are one bytes, and a WordCells
    view per dimension.  A spec of more than MAX_CHAINS chains raises
    CapExceeded before any word is built.

    The alpha face of a pair x > y at positions p, p + 1 of word k lies in
    the word with that pair swapped: word k - N [(L(x) - L(y))(s - 1)
    + m_x L(y) - m_y (L(x) - 1)] / (s (s - 1)) for the s letters from p on
    (_alpha_shift).  That depends only on x, y and the multiset of those
    letters, so it is memoized by x, y and the multiset's code, the sum of
    base^(c - 1) over its letters for base = max(i) + 1; one accumulate
    gives the codes of every suffix of a word.  Alpha words come earlier,
    so one pass over the words builds the table and the faces.  A d-cell j
    has 2d faces: its t-th pair released in the alpha order (the word with
    the pair swapped) at ptr[j] + 2(t - 1), then in the beta order (the
    same word) right after, with the signs of words.face_signs.
    morse.match_product_of_chains reads each matched partner from this
    order.
    """
    spec = as_spec(spec)
    if spec.n > MAX_CHAINS:
        raise CapExceeded(f"a spec of {spec.n} chains exceeds the limit of {MAX_CHAINS} chains")
    ell, base = spec.ell, spec.i[-1] + 1
    power = [0] + [base ** c for c in range(spec.n)]  # letter c -> base^(c - 1)
    shifts = {}  # (suffix code, x, y) -> _alpha_shift of that suffix
    letters, infos, starts, sizes, idx = bytearray(), [], [], [], []
    for k, (w, info) in enumerate(word_placements(enumerate_words(spec, cap=cap), cap=cap)):
        for d in range(len(starts), len(info.by_dim)):  # a dimension met first here
            starts.append(array("i", [0]) * k)
            sizes.append(0)
            idx.append(array("i"))
        letters.extend(w)
        infos.append(info)
        for d, out in enumerate(starts):
            out.append(sizes[d])
        for d, ps in enumerate(info.by_dim):
            sizes[d] += len(ps)
        # codes[ell - p] is the code of w[p - 1:]
        codes = list(itertools.accumulate(map(power.__getitem__, reversed(w))))
        alpha = {}
        for p in info.descents:
            key = (codes[ell - p], w[p - 1], w[p])
            a = shifts.get(key)
            if a is None:
                a = shifts[key] = _alpha_shift(w[p - 1:])
            alpha[p] = (k - a, infos[k - a])
        for d in range(1, len(info.by_dim)):
            out = idx[d]
            lower = starts[d - 1]
            beta_start = lower[k]
            for ps, m in zip(info.by_dim[d], info.masks[d]):
                for p in ps:
                    q = m & ~(1 << p)
                    a, a_info = alpha[p]
                    out.append(lower[a] + a_info.rank[q])
                    out.append(beta_start + info.rank[q])
    table = WordTable(spec, Words(bytes(letters), ell), infos, starts)
    del letters
    faces = {}
    for d in range(1, len(sizes)):
        n = sizes[d]
        faces[d] = FaceTable(range(0, 2 * d * n + 1, 2 * d), idx[d], array("b", face_signs(d)) * n)
    cells = {d: WordCells(table, d, n) for d, n in enumerate(sizes)}
    return CellComplex.from_faces(cells, faces, word_table=table)


def cellword_to_multihom(cw, spec):
    """The ideal chain in J of a disjoint union of chains encoded by a cell word.

    Ideals are rendered as sorted tuples of 1-based positions under the block
    linear extension (all of chain 1 bottom-to-top, then chain 2, ...); the
    s-th occurrence of letter t is position i_1 + ... + i_{t-1} + s.
    Coordinate p is (I_p,) for I_p the ideal of the first p letters, except
    that a pair at p makes it (I_{p-1} plus the element of letter p + 1,
    I_p).  Each pair sets its own coordinate, so overlapping pairs give
    adjacent doubled coordinates, which is_cubical rejects.  Raises
    ValueError for a word whose letters are not the spec's, or a pair
    outside positions 1..ell - 1.
    """
    spec = as_spec(spec)
    check_content(cw.word, spec)
    nxt = [0, *itertools.accumulate(spec.i[:-1], initial=0)]
    elems, ideal, ideals = [], [], [()]
    for t in cw.word:
        nxt[t] += 1
        e = nxt[t]
        elems.append(e)
        bisect.insort(ideal, e)
        ideals.append(tuple(ideal))
    image = [(v,) for v in ideals]
    for p in cw.pairs:
        if not 0 < p < len(elems):
            raise ValueError(f"pair position {p} out of range")
        prev, e = ideals[p - 1], elems[p]
        k = bisect.bisect(prev, e)
        image[p] = (prev[:k] + (e,) + prev[k:], ideals[p])
    return tuple(image)


# -- generic homomorphism complexes -----------------------------------------


def _heights(P):
    """Per element, the length of the longest chain below it and above it."""
    order = P.linear_extension()
    below = [0] * P.n
    for x in order:
        for a in P.down_covers[x]:
            below[x] = max(below[x], below[a] + 1)
    above = [0] * P.n
    for x in reversed(order):
        for b in P.up_covers[x]:
            above[x] = max(above[x], above[b] + 1)
    return below, above


def _strict_maps(A, B, cap):
    """All strictly order-preserving maps A -> B, as tuples indexed by A's ids.

    f[x] ranges only over the elements above f[a] for every down-cover a of
    x whose longest chains below and above are at least as long as x's.
    Raises CapExceeded as soon as more than `cap` maps are found.
    """
    order = A.linear_extension()
    a_below, a_above = _heights(A)
    b_below, b_above = _heights(B)
    fits = [sum(1 << b for b in range(B.n)
                if b_below[b] >= a_below[x] and b_above[b] >= a_above[x])
            for x in range(A.n)]
    out = []
    f = [None] * A.n

    def candidates(k):
        """The values f[order[k]] may take; once f is complete, records it
        and offers none."""
        if k == len(order):
            if len(out) == cap:
                raise CapExceeded(f"more than {cap} homomorphisms")
            out.append(tuple(f))
            return iter(())
        x = order[k]
        allowed = fits[x]
        for a in A.down_covers[x]:
            allowed &= B.above(f[a])
        return _bits(allowed)

    # stack[k] iterates the values of f[order[k]], so the depth of A is not
    # bounded by the recursion limit
    stack = [candidates(0)]
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
        else:
            f[order[len(stack) - 1]] = b
            stack.append(candidates(len(stack)))
    return out


def hom_complex_generic(A, B, cap=DEFAULT_CAP):
    """Hom(A, B): all multihoms whose representative systems are strictly
    order-preserving maps A -> B.

    Cells are built bottom-up: vertices are the strict maps, and each
    (d+1)-cell is a d-cell with one element b added to a coordinate i.  A
    candidate only tries the b above every element of each down-cover's
    coordinate and below every element of each up-cover's coordinate (B's
    above/below masks).  Every candidate is therefore a cell, since a map
    is strict when it is strict on each cover of A; and every cell is
    found, since dropping one element from a coordinate that holds several
    leaves a cell one dimension down.  So each candidate is tested once,
    with no facet check: the facets of a cell are cells of the level below,
    and _face_table raises should one ever be missing.
    """
    verts = _strict_maps(A, B, cap)
    m = A.n
    full = (1 << B.n) - 1
    level = sorted(tuple((f[i],) for i in range(m)) for f in verts)
    cells = {0: tuple(level)}
    faces = {}
    total = len(level)
    d = 0
    while level:
        prev = {X: i for i, X in enumerate(level)}
        found = {}        # cell -> its signed facets
        for X in level:
            for i in range(m):
                allowed = full
                for a in A.down_covers[i]:
                    for x in X[a]:
                        allowed &= B.above(x)
                for a in A.up_covers[i]:
                    for y in X[a]:
                        allowed &= B.below(y)
                for b in X[i]:
                    allowed &= ~(1 << b)
                for b in _bits(allowed):
                    coord = tuple(sorted(X[i] + (b,)))
                    X2 = X[:i] + (coord,) + X[i + 1:]
                    if X2 not in found:
                        found[X2] = _generic_signed_faces(X2)
                        if total + len(found) > cap:
                            raise CapExceeded(f"cell count exceeds the cap {cap}")
        level = sorted(found)
        if not level:
            break
        d += 1
        total += len(level)
        cells[d] = tuple(level)
        faces[d] = _face_table(level, found, prev)
    return CellComplex.from_faces(cells, faces)


def _generic_signed_faces(X):
    out = []
    for t, coord in enumerate(X):
        if len(coord) < 2:
            continue
        before = sum(len(X[j]) for j in range(t))
        for idx, v in enumerate(coord):
            face = X[:t] + (coord[:idx] + coord[idx + 1:],) + X[t + 1:]
            sign = -1 if (t + idx + before) % 2 else 1
            out.append((face, sign))
    return tuple(out)


def maximal_chain_complex(P, cap=DEFAULT_CAP):
    """Hom(P) = Hom(C_m, P) for a graded poset P of rank m.

    Vertices are the maximal chains of P.  When chain_factors finds P
    isomorphic to a product of chains, however it was built and its ids
    assigned, the cubical cell-word model of the sorted lengths is used,
    under the same caps as a spec: the factors of a product may be
    permuted.  Otherwise the complex is built generically from strict maps,
    and checked cubical when P is an ideal lattice (it has ideal_masks).
    """
    if not isinstance(P, GradedPoset):
        raise ValueError("maximal_chain_complex needs a graded poset")
    if (lengths := chain_factors(P)) is not None:
        return chain_product_complex(lengths, cap=cap)
    cx = hom_complex_generic(chain(P.top_rank), P, cap=cap)
    if P.ideal_masks is not None:
        _assert_cubical(cx)
    return cx


def is_cubical(X):
    """Whether a cell of Hom(C_m, P) has the shape of a cell of a cubical complex.

    Every coordinate has 1 or 2 elements and no two doubled coordinates are
    adjacent; every cell of Hom(C_m, L) has this shape for a distributive
    lattice L.  The coordinates are read once, stopping at the first that
    breaks the rule.  On the image of a cell word with pair mask m it reads
    as not m & (m >> 1).
    """
    doubled = False
    for c in X:
        n = len(c)
        if n == 1:
            doubled = False
        elif n == 2 and not doubled:
            doubled = True
        else:
            return False
    return True


def _assert_cubical(cx):
    for cs in cx.cells.values():
        for X in cs:
            if not is_cubical(X):
                raise AssertionError(f"non-cubical cell {X!r}")
