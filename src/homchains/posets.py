"""Finite graded posets: chains, products, disjoint unions, ideal lattices, folds.

A poset is its covers over dense integer ids 0..n-1, and a graded poset
adds its ranks; every outward reference is an id.  Whatever else is known
of a poset is read off its covers, however its ids run: chain_factors,
for one, decides whether it is a product of chains.  Instances are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math


class CapExceeded(RuntimeError):
    """A construction or enumeration would exceed its configured size cap."""


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(order, covers, n):
    """Per element, the bitmask of all elements reached along its covers;
    order lists every element after those its covers lead to."""
    reach = [0] * n
    for x in order:
        for y in covers[x]:
            reach[x] |= reach[y] | 1 << y
    return tuple(reach)


class FinitePoset:
    """A finite poset on elements ``0..n-1``, given by its cover relations alone.

    ``covers`` holds pairs ``(a, b)`` with ``b`` covering ``a``.  The cover
    digraph must be acyclic and transitively irredundant; both are checked.
    """

    def __init__(self, n, covers):
        self.n = int(n)
        seen = set()
        for a, b in covers:
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise ValueError(f"bad cover ({a}, {b})")
            if (a, b) in seen:
                raise ValueError(f"duplicate cover ({a}, {b})")
            seen.add((a, b))
        self.covers = tuple(sorted(seen))

        up = [[] for _ in range(self.n)]
        down = [[] for _ in range(self.n)]
        for a, b in self.covers:
            up[a].append(b)
            down[b].append(a)
        self.up_covers = tuple(tuple(sorted(v)) for v in up)
        self.down_covers = tuple(tuple(sorted(v)) for v in down)

        order = self._toposort()
        self._above = above = _reach(reversed(order), self.up_covers, self.n)
        self._below = below = _reach(order, self.down_covers, self.n)
        for a, b in self.covers:
            if above[a] & below[b]:
                raise ValueError(f"({a}, {b}) is not a cover: an element lies between")

    def _toposort(self):
        import heapq

        indeg = [len(v) for v in self.down_covers]
        ready = [x for x in range(self.n) if indeg[x] == 0]  # ascending, so a heap
        out = []
        while ready:
            x = heapq.heappop(ready)
            out.append(x)
            for b in self.up_covers[x]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(ready, b)
        if len(out) != self.n:
            raise ValueError("cover relation contains a cycle")
        self._linext = tuple(out)
        return out

    # -- order queries ----------------------------------------------------

    def above(self, x):
        """Bitmask of all elements strictly above x."""
        return self._above[x]

    def below(self, x):
        return self._below[x]

    def lt(self, a, b):
        return bool(self._above[a] >> b & 1)

    def le(self, a, b):
        return a == b or self.lt(a, b)

    def minimals(self):
        return tuple(x for x in range(self.n) if not self.down_covers[x])

    def maximals(self):
        return tuple(x for x in range(self.n) if not self.up_covers[x])

    def linear_extension(self):
        """A fixed linear extension (smallest-id-first topological order)."""
        return self._linext

    def maximal_chains(self, cap=None):
        """All maximal chains, as tuples of ids, by DFS from the minimal elements.

        The walk keeps its own stack, so chain length is not bounded by the
        recursion limit.
        """
        chains = []
        up = self.up_covers
        acc = []  # the chain so far; stack[k + 1] iterates the up-covers of acc[k]
        stack = [iter(self.minimals())]
        while stack:
            x = next(stack[-1], None)
            if x is None:
                stack.pop()
                if acc:
                    acc.pop()
            elif up[x]:
                acc.append(x)
                stack.append(iter(up[x]))
            else:
                chains.append((*acc, x))
                if cap is not None and len(chains) > cap:
                    raise CapExceeded(f"more than {cap} maximal chains")
        return chains

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, covers={len(self.covers)})"


class GradedPoset(FinitePoset):
    """A finite poset with a rank function making every maximal chain the same length.

    Validated on construction: covers raise rank by exactly one, all minimal
    elements have rank 0 and all maximal elements share the top rank.
    ideal_lattice records the ideal behind each element in ideal_masks;
    whether P is a product of chains is read off its covers (chain_factors).
    """

    def __init__(self, n, covers, rank, ideal_masks=None):
        super().__init__(n, covers)
        self.rank = tuple(int(r) for r in rank)
        if len(self.rank) != self.n:
            raise ValueError("rank length mismatch")
        if any(r < 0 for r in self.rank):
            raise ValueError("ranks must be nonnegative")
        for a, b in self.covers:
            if self.rank[b] != self.rank[a] + 1:
                raise ValueError(f"cover ({a}, {b}) does not raise rank by one")
        if self.n:
            if any(self.rank[x] != 0 for x in self.minimals()):
                raise ValueError("not graded: a minimal element has nonzero rank")
            top = max(self.rank)
            if any(self.rank[x] != top for x in self.maximals()):
                raise ValueError("not graded: maximal elements of unequal rank")
        # ideal_masks maps lattice element -> bitmask of base-poset elements.
        self.ideal_masks = ideal_masks

    @property
    def top_rank(self):
        return max(self.rank) if self.n else 0


# -- constructors ---------------------------------------------------------


def chain(m):
    """The chain C_m = 0 < 1 < ... < m, with rank(i) = i."""
    if m < 0:
        raise ValueError("chain length must be nonnegative")
    return GradedPoset(m + 1, [(i, i + 1) for i in range(m)], rank=range(m + 1))


def antichain(k):
    """k pairwise incomparable elements."""
    return FinitePoset(k, [])


def product(ps):
    """Componentwise-order product of graded posets, with mixed-radix ids (the
    last factor's fastest); rank of a tuple is the rank sum.  A product of
    chains is not tagged: chain_factors reads it back off the covers."""
    ps = list(ps)
    if not ps:
        raise ValueError("product of an empty list of posets")
    for p in ps:
        if not isinstance(p, GradedPoset):
            raise ValueError("product factors must be graded posets")
    sizes = [p.n for p in ps]
    strides = [math.prod(sizes[j + 1:]) for j in range(len(ps))]
    n = math.prod(sizes)
    ranks = [0] * n
    covers = []
    for tup in itertools.product(*(range(s) for s in sizes)):
        i = sum(t * strides[j] for j, t in enumerate(tup))
        ranks[i] = sum(ps[j].rank[t] for j, t in enumerate(tup))
        for j, p in enumerate(ps):
            for b in p.up_covers[tup[j]]:
                covers.append((i, i + (b - tup[j]) * strides[j]))
    return GradedPoset(n, covers, rank=ranks)


def product_of_chains(lengths):
    """The lattice C_{i_1} x ... x C_{i_n} for positive lengths i_j."""
    lengths = tuple(int(v) for v in lengths)
    if not lengths or any(v < 1 for v in lengths):
        raise ValueError("chain lengths must be positive")
    return product([chain(v) for v in lengths])


def disjoint_union(ps):
    """Side-by-side union with no relations between components (not rank-validated)."""
    ps = list(ps)
    n = sum(p.n for p in ps)
    covers = []
    off = 0
    for p in ps:
        covers.extend((a + off, b + off) for a, b in p.covers)
        off += p.n
    return FinitePoset(n, covers)


# J(P) can have 2^|P| elements, so larger P are refused before any is built
IDEAL_LATTICE_MAX_BASE = 20


def ideal_lattice(P):
    """The distributive lattice J(P) of lower order ideals of P, ordered by inclusion.

    Elements are materialized as bitsets over P and listed in graded
    lexicographic order under the canonical linear extension of P; the rank
    of an ideal is its cardinality.  When P is a disjoint union of chains,
    J(P) is the product of chains with as many steps as they have elements,
    which chain_factors reads off its covers.
    """
    if P.n > IDEAL_LATTICE_MAX_BASE:
        raise CapExceeded(f"|P| = {P.n} exceeds the ideal-lattice guard {IDEAL_LATTICE_MAX_BASE}")
    ext = P.linear_extension()
    pos = {el: i for i, el in enumerate(ext)}
    down_masks = [sum(1 << a for a in P.down_covers[x]) for x in range(P.n)]
    levels = [[0]]
    for _size in range(P.n):
        nxt = set()
        for I in levels[-1]:
            for x in range(P.n):
                if not (I >> x) & 1 and down_masks[x] & I == down_masks[x]:
                    nxt.add(I | (1 << x))
        levels.append(sorted(nxt, key=lambda I: tuple(sorted(pos[e] for e in _bits(I)))))
    masks = [I for level in levels for I in level]
    index = {I: i for i, I in enumerate(masks)}
    covers = []
    for J in masks:
        for x in _bits(J):
            if P.above(x) & J == 0:  # x maximal in J, so J - x is an ideal
                covers.append((index[J ^ (1 << x)], index[J]))
    ranks = [bin(I).count("1") for I in masks]
    return GradedPoset(len(masks), covers, rank=ranks, ideal_masks=tuple(masks))


def chain_factors(P):
    """The lengths i_1 <= ... <= i_n, n >= 1, when P is isomorphic to the
    product of chains C_{i_1} x ... x C_{i_n}, and None otherwise.

    Such a P is J(Q) for Q a disjoint union of chains (Birkhoff), and its
    join-irreducibles (the elements with one lower cover) are Q: a chain
    of them rises from each atom.  Each x is sent to the number of
    join-irreducibles at or below it in each chain.  The answer is yes only
    when that map is a bijection onto the grid prod_k [0, i_k] that takes
    each cover to a unit step, and P has as many covers as the grid; it then
    carries covers onto covers, so it is an isomorphism.
    """
    down = P.down_covers
    irr = [x for x in range(P.n) if len(down[x]) == 1]
    atoms = sum(1 << x for x in irr if not down[down[x][0]])
    chains = dict.fromkeys(_bits(atoms), 0)  # atom -> its chain of join-irreducibles
    for x in irr:
        roots = (P.below(x) | 1 << x) & atoms
        if not roots or roots & (roots - 1):  # above no atom, or above two
            return None
        chains[roots.bit_length() - 1] |= 1 << x
    lengths = sorted(c.bit_count() for c in chains.values())
    size = math.prod(i + 1 for i in lengths)
    if not chains or P.n != size or len(P.covers) != sum(size // (i + 1) * i for i in lengths):
        return None
    point = [tuple(((P.below(x) | 1 << x) & c).bit_count() for c in chains.values())
             for x in range(P.n)]
    # counts only grow along a cover, so a unit step is one of sum 1
    if len(set(point)) != P.n or any(sum(point[b]) - sum(point[a]) != 1 for a, b in P.covers):
        return None
    return tuple(lengths)


# -- folds ----------------------------------------------------------------


def find_folds(P):
    """All ordered pairs (x, y), x != y, with cover-up-set and cover-down-set containment.

    For any reported pair, P - x is a fold of P.
    """
    out = []
    up = [set(v) for v in P.up_covers]
    down = [set(v) for v in P.down_covers]
    for x in range(P.n):
        for y in range(P.n):
            if y != x and up[x] <= up[y] and down[x] <= down[y]:
                out.append((x, y))
    return out


def delete_element(P, x):
    """The induced subposet P - x with dense ids; returns (poset, old_id -> new_id).

    A cover of P - x is a cover of P that misses x, or a down-cover a and an
    up-cover b of x with nothing but x between them.
    """
    if not 0 <= x < P.n:
        raise ValueError(f"no element {x}")
    remap = {old: new for new, old in enumerate(i for i in range(P.n) if i != x)}
    covers = [(a, b) for a, b in P.covers if x not in (a, b)]
    covers += [(a, b) for a in P.down_covers[x] for b in P.up_covers[x]
               if P.above(a) & P.below(b) == 1 << x]
    return FinitePoset(P.n - 1, [(remap[a], remap[b]) for a, b in covers]), remap


def is_chain(P):
    """True when P is a single totally ordered chain."""
    return P.n <= 1 or len(chain_factors(P) or ()) == 1


# -- text format ----------------------------------------------------------


def parse_poset_text(text):
    """Parse the CLI poset format: lines `id rank` for elements, then `lower upper` covers.

    Element ids must appear in order 0, 1, 2, ...; the cover section starts at
    the first line whose leading token is an already-defined id.  A text
    without elements, empty or comments only, raises ValueError.
    """
    ranks = []
    covers = []
    in_covers = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            a, b = map(int, line.split())
        except ValueError:  # not two tokens, or one that is no integer
            raise ValueError(f"line {lineno}: expected two integers") from None
        if not in_covers and a == len(ranks):
            ranks.append(b)
            continue
        in_covers = True
        if not (0 <= a < len(ranks) and 0 <= b < len(ranks)):
            raise ValueError(f"line {lineno}: cover references undefined element")
        covers.append((a, b))
    if not ranks:
        raise ValueError("no elements")
    return GradedPoset(len(ranks), covers, rank=ranks)


def format_poset_text(P):
    lines = [f"{x} {P.rank[x]}" for x in range(P.n)]
    lines += [f"{a} {b}" for a, b in P.covers]
    return "\n".join(lines) + "\n"
