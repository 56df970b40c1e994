"""Homomorphism complexes of posets and the cubical cell-word model for chain products.

A cell of Hom_M(A, B) is a tuple of nonempty subsets of B, one per element
of A, all of whose representative systems lie in M; cells are keyed by
tuples of sorted tuples.  For a product of chains the complex is cubical and
cells are keyed by parenthesized multiset permutations (CellWord).
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from dataclasses import dataclass

from .posets import CapExceeded, GradedPoset, _bits, chain, delete_element, find_folds
from .words import (
    DEFAULT_CAP,
    CellWord,
    as_spec,
    check_content,
    enumerate_cellwords,
    render_cellword,
    signed_faces,
)
from . import chains as _chains


class CellComplex:
    """A polyhedral cell complex: canonical cell keys per dimension plus signed facets."""

    def __init__(self, cells, boundary, spec=None, target=None):
        self.cells = {d: tuple(cells[d]) for d in sorted(cells)}
        self.boundary = boundary
        self.spec = spec
        self.target = target
        index = set()
        for d, cs in self.cells.items():
            index.update(cs)
        for cell, faces in boundary.items():
            for face, _sign in faces:
                if face not in index:
                    raise ValueError(f"face {face!r} missing from the complex")

    @property
    def dim(self):
        return max(self.cells) if self.cells else -1

    def f_vector(self):
        return tuple(len(self.cells[d]) for d in range(self.dim + 1))

    def n_cells(self):
        return sum(len(v) for v in self.cells.values())

    def euler_characteristic(self):
        return sum((-1) ** d * len(cs) for d, cs in self.cells.items())

    def cover_pairs(self):
        """All (face, cell) cover pairs of the face poset."""
        for d in range(1, self.dim + 1):
            for cell in self.cells[d]:
                for face, _ in self.boundary[cell]:
                    yield face, cell

    def render_key(self, key):
        if isinstance(key, CellWord):
            return render_cellword(key)
        return render_multihom(key, self.target)

    def to_json_dict(self):
        faces = {}
        for d in range(1, self.dim + 1):
            for cell in self.cells[d]:
                faces[self.render_key(cell)] = [
                    [self.render_key(f), s] for f, s in self.boundary[cell]]
        return {
            "dims": list(range(self.dim + 1)),
            "cells": {str(d): [self.render_key(c) for c in self.cells[d]]
                      for d in range(self.dim + 1)},
            "faces": faces,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self):
        return f"CellComplex(f={self.f_vector()})"


def render_multihom(mh, target=None):
    def one(coord):
        names = [target.label(x) if target is not None and isinstance(x, int)
                 else _render_atom(x) for x in coord]
        return names[0] if len(names) == 1 else "{" + ",".join(names) + "}"

    return "(" + ",".join(one(c) for c in mh) + ")"


def _render_atom(x):
    if isinstance(x, tuple):
        if not x:
            return "{}"
        if max(x) <= 9:
            return "".join(str(v) for v in x)
        return "{" + ",".join(str(v) for v in x) + "}"
    return str(x)


# -- the cubical model for products of chains -------------------------------


def chain_product_complex(spec, cap=DEFAULT_CAP):
    """Hom of a product of chains, built directly from parenthesized words."""
    spec = as_spec(spec)
    cells = defaultdict(list)
    boundary = {}
    for cw in enumerate_cellwords(spec, cap=cap):
        cells[cw.dim].append(cw)
        boundary[cw] = signed_faces(cw)
    return CellComplex({d: sorted(v) for d, v in cells.items()}, boundary, spec=spec)


def cellword_to_multihom(cw, spec):
    """The ideal chain in J of a disjoint union of chains encoded by a cell word.

    Ideals are rendered as sorted tuples of 1-based positions under the block
    linear extension (all of chain 1 bottom-to-top, then chain 2, ...); the
    s-th occurrence of letter t contributes position offset_t + s.
    """
    spec = as_spec(spec)
    check_content(cw, spec)
    offsets = [0] * (spec.n + 1)
    for t in range(2, spec.n + 1):
        offsets[t] = offsets[t - 1] + spec.i[t - 2]
    seen = [0] * (spec.n + 1)
    pairset = set(cw.pairs)
    ideal = []
    assign = [(tuple(ideal),)]
    p = 1
    ell = spec.ell
    while p <= ell:
        if p in pairset:
            beta, alpha = cw.word[p - 1], cw.word[p]
            eb = offsets[beta] + seen[beta] + 1
            ea = offsets[alpha] + seen[alpha] + 1
            lo = tuple(sorted(ideal + [ea]))
            hi = tuple(sorted(ideal + [eb]))
            assign.append((lo, hi))
            ideal = sorted(ideal + [ea, eb])
            assign.append((tuple(ideal),))
            seen[beta] += 1
            seen[alpha] += 1
            p += 2
        else:
            t = cw.word[p - 1]
            ideal = sorted(ideal + [offsets[t] + seen[t] + 1])
            assign.append((tuple(ideal),))
            seen[t] += 1
            p += 1
    return tuple(assign)


# -- generic homomorphism complexes -----------------------------------------


def _strict_maps(A, B, cap):
    """All strictly order-preserving maps A -> B, as tuples indexed by A's ids.

    f[x] ranges only over the elements above f[a] for every down-cover a of
    x.  Raises CapExceeded as soon as more than `cap` maps are found.
    """
    order = A.linear_extension()
    full = (1 << B.n) - 1
    out = []
    f = [None] * A.n

    def rec(k):
        if k == len(order):
            if len(out) == cap:
                raise CapExceeded(f"more than {cap} homomorphisms")
            out.append(tuple(f))
            return
        x = order[k]
        allowed = full
        for a in A.down_covers[x]:
            allowed &= B.above(f[a])
        for b in _bits(allowed):
            f[x] = b
            rec(k + 1)
        f[x] = None

    rec(0)
    return out


def hom_complex_generic(A, B, maps="strict", cap=DEFAULT_CAP):
    """Hom_M(A, B): all multihoms whose representative systems lie in M.

    `maps` is either 'strict' (strictly order-preserving maps) or a predicate
    on tuples indexed by A's ids.  Cells are built bottom-up: vertices are
    the homomorphisms, and a candidate cell enters when all its facets are
    present (equivalent to the representative-system condition).  For strict
    maps, coordinate i only tries the elements of B above every element of
    each down-cover's coordinate and below every element of each up-cover's
    coordinate (B's above/below masks); the facet check still admits every
    cell.
    """
    if callable(maps):
        if B.n ** A.n > cap:
            raise CapExceeded(f"|B|^|A| = {B.n}^{A.n} exceeds the cap {cap}")
        verts = [f for f in itertools.product(range(B.n), repeat=A.n) if maps(f)]
        if len(verts) > cap:
            raise CapExceeded(f"{len(verts)} homomorphisms exceed the cap {cap}")
    elif maps == "strict":
        verts = _strict_maps(A, B, cap)
    else:
        raise ValueError("maps must be 'strict' or a predicate")
    m = A.n
    strict = not callable(maps)
    full = (1 << B.n) - 1
    level = sorted(tuple((f[i],) for i in range(m)) for f in verts)
    cells = {0: tuple(level)}
    boundary = {v: () for v in level}
    total = len(level)
    d = 0
    while level:
        prev = set(level)
        nxt = set()
        for X in level:
            for i in range(m):
                allowed = full
                if strict:
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
                    if X2 in nxt:
                        continue
                    if all(f in prev for f, _ in _generic_signed_faces(X2)):
                        nxt.add(X2)
                        if total + len(nxt) > cap:
                            raise CapExceeded(f"cell count exceeds the cap {cap}")
        level = sorted(nxt)
        if not level:
            break
        d += 1
        total += len(level)
        cells[d] = tuple(level)
        for X in level:
            boundary[X] = _generic_signed_faces(X)
    return CellComplex(cells, boundary, target=B)


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

    Vertices are the maximal chains of P.  For a product of chains
    (chain_spec tag with nondecreasing lengths) the cubical cell-word model
    is used; otherwise the complex is built generically from strict maps.
    """
    if not isinstance(P, GradedPoset):
        raise ValueError("maximal_chain_complex needs a graded poset")
    spec = getattr(P, "chain_spec", None)
    if spec is not None and all(a <= b for a, b in zip(spec, spec[1:])):
        cx = chain_product_complex(as_spec(spec), cap=cap)
        cx.target = P
        return cx
    cx = hom_complex_generic(chain(P.top_rank), P, maps="strict", cap=cap)
    if getattr(P, "ideal_masks", None) is not None or spec is not None:
        _assert_cubical(cx)
    return cx


def is_cubical(X):
    """Whether a cell of Hom(C_m, P) has the shape of a cell of a cubical complex.

    Every coordinate has 1 or 2 elements and no two doubled coordinates are
    adjacent; every cell of Hom(C_m, L) has this shape for a distributive
    lattice L.
    """
    sizes = [len(c) for c in X]
    return (all(s in (1, 2) for s in sizes)
            and not any(a == 2 == b for a, b in zip(sizes, sizes[1:])))


def _assert_cubical(cx):
    for cs in cx.cells.values():
        for X in cs:
            if not is_cubical(X):
                raise AssertionError(f"non-cubical cell {X!r}")


# -- fold consequences -------------------------------------------------------


@dataclass(frozen=True)
class FoldReport:
    """Homology comparison of Hom(Q, P) and Hom(Q, P - x) for a fold removal."""

    removed: int
    witnesses: tuple
    before: object
    after: object
    agree: bool


def verify_fold_consequence(Q, P, x, cap=DEFAULT_CAP):
    """Check the homological consequence of the collapse Hom(Q,P) -> Hom(Q,P-x).

    P - x must be a fold of P (witnessed by some y); builds both strict-map
    homomorphism complexes and reports whether all Betti numbers and torsion
    agree.
    """
    witnesses = tuple(y for xx, y in find_folds(P) if xx == x)
    if not witnesses:
        raise ValueError(f"removing element {x} is not a fold of P")
    before = _chains.homology(hom_complex_generic(Q, P, maps="strict", cap=cap))
    P2, _ = delete_element(P, x)
    after = _chains.homology(hom_complex_generic(Q, P2, maps="strict", cap=cap))
    width = max(len(before.betti), len(after.betti))

    def pad(t, fill):
        return tuple(t) + (fill,) * (width - len(t))

    agree = (pad(before.betti, 0) == pad(after.betti, 0)
             and pad(before.torsion, ()) == pad(after.torsion, ()))
    return FoldReport(x, witnesses, before, after, agree)
