"""Integer cellular chain complexes: the d o d = 0 check on face tables,
Smith-normal-form homology, the fold check built on it, and the Morse
complex of an acyclic matching.

A boundary is always a FaceTable (complexes.FaceTable): check_squared and
Smith normal form read it as written, and the Morse complex is a
CellComplex whose tables hold its integer incidences.  check_squared is the
one d o d check, on a full complex and on a Morse complex alike; the +1/-1
incidences that the Morse complex relies on are checked with the matching,
by morse.validate_acyclic.  On tables that list faces pair by pair, the
column pass of the columns module clears each cell whose d o d cancels as
in a cube: pairs t and u released in either order meet with opposite
signs.  A per-cell loop checks the rest, and only it raises.  Cell-word
faces and their signs come from
words.signed_faces.  The Morse complex sweeps the acyclicity
certificate's order twice per dimension, forward to mark the pairs the
critical cells reach and back to give each its flow, its image in the
critical cells, once; it lists no path.  A flow of +-1 times one cell is
folded in a plain loop, and only a wide flow is summed in a dict.
Alternating paths are walked through a match oracle of two methods:
facets(cell), the cell's (face, sign) pairs, and up(cell), its up-partner
or None.  A path is the tuple of its cells.  path_censuses walks cell
indices, through ComplexMatchContext on the same face tables and up arrays
that the Morse complex reads, and keys only the paths it keeps; it sums
their weights and pairs them by the sign-reversing involution, which reads
cell-word face positions: an independent account of the same incidences.
morse.SpecMatchContext is the same oracle on cell words, without a complex.
verify_fold_consequence compares the homology of Hom(Q, P) and Hom(Q, P - x)
for a fold removal, by SNF on both whole complexes: the independent check
that the command line never runs.
morse_complex, path_censuses and ComplexMatchContext take the certificate:
it holds its matching, and the matching holds its complex, so a
certificate reaches only the tables it certified, and no path is walked on
a matching that was not certified acyclic.
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from itertools import chain, zip_longest
from typing import NamedTuple

from .columns import pairwise, uncleared
from .complexes import CellComplex, FaceTable, hom_complex_generic
from .posets import delete_element, find_folds
from .words import DEFAULT_CAP


# -- Smith normal form ----------------------------------------------------


class SNFResult(NamedTuple):
    factors: tuple  # nonzero invariant factors d_1 | d_2 | ...
    rank: int


def _eliminate_unit(rowdata, cols, heap, r0, c0):
    """Clear row r0 and column c0 against the unit pivot at (r0, c0).

    Every entry that becomes +-1 is pushed onto the pivot heap with its
    Markowitz cost at that moment.
    """
    v = rowdata[r0][c0]  # +-1
    row0 = rowdata.pop(r0)
    for c in row0:
        cols[c].discard(r0)
    for r in list(cols[c0]):
        row = rowdata[r]
        a = row.pop(c0)
        cols[c0].discard(r)
        f = a * v
        for c, w in row0.items():
            if c == c0:
                continue
            nv = row.get(c, 0) - f * w
            if nv:
                row[c] = nv
                col = cols[c]
                col.add(r)
                if nv in (1, -1):
                    heapq.heappush(heap, ((len(row) - 1) * (len(col) - 1), r, c))
            elif c in row:
                del row[c]
                cols[c].discard(r)
        if not row:
            del rowdata[r]
    cols.pop(c0, None)


def _dense_snf(A):
    """Textbook SNF of a small dense integer matrix, a list of row lists
    that it consumes: the nonzero invariant factors, positive, each dividing
    the next.

    Each pass moves an entry of least |v| to the corner and subtracts
    multiples of the pivot row and column from the other rows and columns.
    A remainder left in them is the next, smaller pivot.  Otherwise a row
    the pivot does not divide is added to the pivot row; once there is none,
    |pivot| is emitted and its row and column dropped.
    """
    out = []
    while nonzero := [(abs(v), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v]:
        _, i, j = min(nonzero)
        A[0], A[i] = A[i], A[0]
        for row in A:
            row[0], row[j] = row[j], row[0]
        top, p = A[0], A[0][0]
        for row in A[1:]:
            if q := row[0] // p:
                row[:] = [x - q * y for x, y in zip(row, top)]
        qs = [(j, v // p) for j, v in enumerate(top) if j and v // p]
        for row in A:
            for j, q in qs:
                row[j] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in A[1:]):
            continue
        bad = next((row for row in A[1:] if any(x % p for x in row)), None)
        if bad is not None:
            A[0] = [x + y for x, y in zip(top, bad)]
            continue
        out.append(abs(p))
        A = [row[1:] for row in A[1:]]
    return out


def smith_normal_form(table):
    """Invariant factors d_1 | d_2 | ... (nonzero only) and the rank of a
    FaceTable, whose rows are the faces and whose columns are the cells.

    Unit pivots are eliminated sparsely, cheapest first: a lazy min-heap
    holds every +-1 entry keyed by its Markowitz cost (row length - 1) *
    (column length - 1), with ties broken by (row, col).  A popped entry that
    is no longer +-1 is dropped, and one whose cost has grown since it was
    pushed goes back with its current cost.  Each unit pivot contributes the
    factor 1.  Once no +-1 entry is left, the residue is reduced densely; its
    factors are positive and already form a divisibility chain.
    """
    ptr, idx, sgn = table
    rows = defaultdict(dict)
    for j in range(len(ptr) - 1):
        for k in range(ptr[j], ptr[j + 1]):
            rows[idx[k]][j] = sgn[k]
    rowdata = dict(rows)
    cols = defaultdict(set)
    for r, row in rowdata.items():
        for c in row:
            cols[c].add(r)
    heap = [((len(row) - 1) * (len(cols[c]) - 1), r, c)
            for r, row in rowdata.items() for c, v in row.items() if v in (1, -1)]
    heapq.heapify(heap)
    n_units = 0
    while heap:
        cost, r, c = heapq.heappop(heap)
        row = rowdata.get(r)
        if row is None or row.get(c) not in (1, -1):
            continue
        now = (len(row) - 1) * (len(cols[c]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, r, c))
            continue
        _eliminate_unit(rowdata, cols, heap, r, c)
        n_units += 1
    # dense residue (no +-1 entries left)
    rest = []
    if rowdata:
        act_rows = sorted(rowdata)
        act_cols = sorted({c for row in rowdata.values() for c in row})
        dense = [[rowdata[r].get(c, 0) for c in act_cols] for r in act_rows]
        rest = _dense_snf(dense)
    factors = (1,) * n_units + tuple(rest)
    return SNFResult(factors, len(factors))


# -- chain complexes ------------------------------------------------------


def check_squared(cx):
    """Verify d o d = 0 on the face tables of a cell complex, whatever its
    integer incidences; raises ArithmeticError otherwise, and when a face
    index is out of range or a cell lists a face twice.

    The one d o d check: run on the full complex before its homology is taken
    from the Morse complex, and by homology on the complex it is given.  Cell
    by cell, the incidence products along each face's own faces are summed
    per (d-2)-cell and must all vanish.  It reads the tables as written and
    derives no face anew.

    The loop runs over the cells that columns.uncleared leaves.  On a table
    that lists faces pair by pair, as a spec complex's does, that column
    pass clears each cell whose faces differ and whose d o d cancels as in
    a cube: releasing pairs t < u in either order reaches one (d-2)-cell
    with opposite signs, and these 4 C(d, 2) pairs of composites split all
    4d(d - 1) of them.  It never rejects a cell.  A Morse complex or a
    generic Hom, whose ptr is an array, gets every cell checked here, and
    only this loop raises, so every verdict and message is the loop's.
    """
    for d in sorted(cx.boundary):
        ptr, idx, sgn = cx.boundary[d]
        if idx and not (min(idx) >= 0 and max(idx) < len(cx.cells[d - 1])):
            raise ArithmeticError(f"face index out of range at dimension {d}")
        lower = cx.boundary.get(d - 1)
        for j in uncleared(cx, d):
            lo, hi = ptr[j], ptr[j + 1]
            if len(set(idx[lo:hi])) != hi - lo:
                raise ArithmeticError(f"repeated facet in boundary at dimension {d}")
            if lower is not None:
                lptr, lidx, lsgn = lower
                acc = {}
                get = acc.get
                for f, s in zip(idx[lo:hi], sgn[lo:hi]):
                    for k in range(lptr[f], lptr[f + 1]):
                        g = lidx[k]
                        acc[g] = get(g, 0) + s * lsgn[k]
                if any(acc.values()):
                    raise ArithmeticError(f"boundary squared is nonzero at dimension {d}")


class HomologyReport(NamedTuple):
    """Betti numbers and torsion invariant factors per dimension."""

    betti: tuple
    torsion: tuple  # per dimension: tuple of invariant factors > 1
    euler: int

    @property
    def torsion_free(self):
        return all(not t for t in self.torsion)


def homology(cx):
    """Integer homology of a CellComplex via Smith normal form of its face tables.

    d o d = 0 is checked first, by check_squared, on whatever complex is
    given.  The command line passes only Morse complexes of certified
    matchings, which are small, after check_squared has passed on the full
    complex; SNF on a whole cell complex is left to the independent
    cross-checks, verify_fold_consequence and the tests.
    """
    check_squared(cx)
    snf = {d: smith_normal_form(cx.boundary[d]) for d in range(1, cx.dim + 1)}
    empty = SNFResult((), 0)
    betti = tuple(len(cx.cells[d]) - snf.get(d, empty).rank - snf.get(d + 1, empty).rank
                  for d in range(cx.dim + 1))
    torsion = tuple(tuple(f for f in snf.get(d + 1, empty).factors if f > 1)
                    for d in range(cx.dim + 1))
    return HomologyReport(betti, torsion, sum((-1) ** d * b for d, b in enumerate(betti)))


# -- fold consequences ---------------------------------------------------


class FoldReport(NamedTuple):
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
    agree, each taken by SNF on the whole complex.
    """
    witnesses = tuple(y for xx, y in find_folds(P) if xx == x)
    if not witnesses:
        raise ValueError(f"removing element {x} is not a fold of P")
    before = homology(hom_complex_generic(Q, P, cap=cap))
    P2, _ = delete_element(P, x)
    after = homology(hom_complex_generic(Q, P2, cap=cap))
    agree = all(x == y for x, y in zip_longest(zip(before.betti, before.torsion),
                                               zip(after.betti, after.torsion), fillvalue=(0, ())))
    return FoldReport(x, witnesses, before, after, agree)


# -- Morse complex, alternating paths and censuses ------------------------


class ComplexMatchContext:
    """The match oracle between dimensions d and d - 1 of the matching a
    certificate holds, on cell indices: facets(j) lists the d-cell j's
    (face, sign) pairs, a slice of the complex's face table, and up(i) is
    the (d-1)-cell i's up-partner, or None."""

    def __init__(self, certificate, d):
        matching = certificate.matching
        self.cx, self.d, self._up = matching.cx, d, matching.up[d - 1]

    def facets(self, j):
        return self.cx.faces(self.d, j)

    def up(self, i):
        u = self._up[i]
        return None if u < 0 else u


def _position(faces, face):
    """The position of face among faces, a cell's (face, sign) pairs; ValueError if absent."""
    return [f for f, _ in faces].index(face)


def path_steps(path, ctx):
    """The (position, sign) of each step of path among the faces of the
    higher of its two cells, each read from ctx.facets once."""
    steps = []
    for k in range(1, len(path)):
        face, cell = (path[k], path[k - 1]) if k % 2 else (path[k - 1], path[k])
        faces = ctx.facets(cell)
        p = _position(faces, face)
        steps.append((p, faces[p][1]))
    return steps


def path_weight(path, ctx, steps=None):
    """w(c) = (-1)^t [a_1:sigma][tau:u(a_t)] prod [a_i:u(a_i)] prod [a_{i+1}:u(a_i)]
    of the path c = (sigma, a_1, u(a_1), ..., a_t, u(a_t), tau), a tuple of
    cells: (-1)^t times the incidence of each cell in its neighbours one
    dimension up, the signs of its path_steps."""
    t = (len(path) - 2) // 2
    if t < 1:
        raise ValueError("alternating path needs at least one matched step")
    sign = -1 if t % 2 else 1
    for _, s in steps or path_steps(path, ctx):
        sign *= s
    return sign

def alternating_paths_from(sigma, ctx, targets):
    """The alternating paths from sigma to the targets, as tuples of cells,
    listed by target in depth-first order; a target no path reaches is absent.

    The walk keeps its own stack, so path length is not bounded by the
    recursion limit.  A frame is a trail, the cell a whose up-partner ends
    it (None for sigma alone, whose faces in targets are direct incidences,
    not paths), and an iterator over the faces of the trail's last cell.
    """
    paths = {}
    stack = [((sigma,), None, iter(ctx.facets(sigma)))]
    while stack:
        trail, a, facets = stack[-1]
        for g, _sign in facets:
            if g in targets:
                if a is not None:
                    paths.setdefault(g, []).append(trail + (g,))
            elif g != a and (u := ctx.up(g)) is not None:
                stack.append((trail + (g, u), g, iter(ctx.facets(u))))
                break
        else:
            stack.pop()
    return paths


def involution_partner(path, ctx, steps=None):
    """The sign-reversing partner path: re-release the pivot pair in the other order.

    A cell word lists its faces pair by pair, the t-th pair's alpha release
    at position 2(t - 1) and its beta release after it, as
    words.signed_faces and complexes.chain_product_complex do.  So the
    other release of the pair behind face position k is position k ^ 1,
    and two faces release the same pair when their positions agree in
    k >> 1.  The pivot is the last non-swap step, whose faces a_i and
    a_{i+1} of u(a_i) release different pairs (the initial release from
    sigma when every matched step is a swap, as always happens between
    dimensions 1 and 0); after it the partner path is forced, each matched
    join being undone by its other release, until the target critical cell
    is reached.  A walk that leaves the matched region or comes back to a
    cell raises ValueError.  It reads path's positions from steps.
    """
    tau = path[-1]
    pos = [p for p, _ in steps or path_steps(path, ctx)]
    j = 0  # pivot 0 means the release from sigma itself
    for i in range(1, len(path) // 2):
        if pos[2 * i - 1] >> 1 != pos[2 * i] >> 1:
            j = i
    partner, u, k, seen = list(path[:2 * j + 1]), path[2 * j], pos[2 * j], set()
    faces = ctx.facets(u)
    while True:
        x = faces[k ^ 1][0]
        partner.append(x)
        if x == tau:
            return tuple(partner)
        if x in seen:
            raise ValueError("partner walk does not terminate")
        seen.add(x)
        u = ctx.up(x)
        if u is None:
            raise ValueError("partner walk left the matched region")
        partner.append(u)
        faces = ctx.facets(u)
        k = _position(faces, x)


class PathCensus(NamedTuple):
    """The alternating paths between one critical pair, as tuples of cells,
    with their weights, their total and the sign-reversing pairing."""

    paths: tuple
    weights: tuple
    pairing: tuple  # index pairs (i, j), i < j, or None when no involution exists
    total: int


def _pairing(paths, steps, weights, ctx):
    """The sign-reversing pairing of the paths by involution_partner, as
    sorted index pairs, or None when it is not a weight-reversing
    involution on them."""
    index = {p: k for k, p in enumerate(paths)}
    try:
        partner = [index.get(involution_partner(p, ctx, s)) for p, s in zip(paths, steps)]
    except ValueError:
        return None
    if any(m is None or m == k or partner[m] != k or weights[k] * weights[m] != -1
           for k, m in enumerate(partner)):
        return None
    return tuple((k, m) for k, m in enumerate(partner) if k < m)


def path_censuses(certificate):
    """The path census of every pair of critical cells (sigma, tau) with
    dim sigma = dim tau + 1 that at least one alternating path joins, keyed
    by cell keys, in the order the paths are found.

    The certificate of validate_acyclic holds the matching, acyclic so that
    every walk ends, and the matching its complex.  Paths are walked on cell
    indices, through ComplexMatchContext on the face tables and up arrays
    that validate_acyclic and morse_complex read, and each found path is
    then keyed through cells[d] and cells[d - 1] alternately.  The Morse
    incidence of tau in sigma, which morse_complex computes from flows,
    is the census total plus the direct incidence, the sign of tau among
    sigma's faces or 0.  The sign-reversing pairing reads cell-word face
    positions, so it is made on a spec complex only; elsewhere it is None.
    """
    matching = certificate.matching
    cx = matching.cx
    censuses = {}
    for d in range(1, cx.dim + 1):
        targets = set(matching.critical.get(d - 1, ()))
        if not targets:
            continue
        ctx = ComplexMatchContext(certificate, d)
        keys = (cx.cells[d], cx.cells[d - 1])
        for sigma in matching.critical.get(d, ()):
            for tau, paths in alternating_paths_from(sigma, ctx, targets).items():
                steps = [path_steps(p, ctx) for p in paths]
                weights = tuple(path_weight(p, ctx, s) for p, s in zip(paths, steps))
                pairing = None if cx.word_table is None else _pairing(paths, steps, weights, ctx)
                paths = tuple(tuple(keys[k % 2][c] for k, c in enumerate(p)) for p in paths)
                censuses[(keys[0][sigma], keys[1][tau])] = PathCensus(
                    paths, weights, pairing, sum(weights))
    return censuses


def _image(table, j, flow, wide, c=1):
    """c times the sum of [g:j] flow(g) over the faces g of cell j, as
    {row: coefficient}, nonzero entries only."""
    ptr, idx, sgn = table
    acc = defaultdict(int)
    for g, t in zip(idx[ptr[j]:ptr[j + 1]], sgn[ptr[j]:ptr[j + 1]]):
        if f := flow[g]:
            acc[abs(f) - 1] += t if f > 0 else -t
        elif g in wide:
            for r, v in wide[g].items():
                acc[r] += t * v
    return {r: c * v for r, v in acc.items() if v}


def morse_complex(certificate):
    """The chain complex on the critical cells of a certified matching, as a
    CellComplex keyed by the critical cells' keys, with the homology of the
    complex cx the matching holds.

    Takes the certificate validate_acyclic issued, which holds the matching,
    which holds cx: only the certified tables are read.  The flow of a
    (d-1)-cell is its image in the critical (d-1)-cells: tau for a critical
    tau, 0 for a cell matched downward, and -[a:u] times the sum of
    [g:u] flow(g) over the faces g != a of u for a pair (a, u); [a:u] is
    +1 or -1, which validate_acyclic certifies, and so its own inverse.  A
    forward sweep of certificate.orders[d] marks the pairs the critical
    d-cells reach, and a backward sweep gives each its flow once, after the
    flows it reads.  The column of a critical sigma is the sum of
    [g:sigma] flow(g), in row order, nonzero entries only: the direct
    incidence plus the weights of all alternating paths from sigma to tau,
    as path_censuses counts them, without listing a path.  A flow is kept
    as a code, 0 or +-(r + 1) for +-1 times row r, as every flow of the
    spec complexes measured is, folded from its faces' codes in a plain
    loop, and any other, wide, in a dict.  homology checks d o d = 0 on
    the result before its SNF.
    """
    matching = certificate.matching
    cx = matching.cx
    tables = {d: _morse_table(certificate, d) for d in range(1, cx.dim + 1)}
    cells = {d: tuple(cx.cells[d][i] for i in matching.critical.get(d, ()))
             for d in range(cx.dim + 1)}
    return CellComplex.from_faces(cells, tables)


def _morse_table(certificate, d):
    """The Morse boundary of the critical d-cells, by the sweeps of
    morse_complex.  A pair's own flow is still 0 when its flow is taken,
    so the image of its partner u sums over the faces g != a of u."""
    matching = certificate.matching
    rows, cols = matching.critical.get(d - 1, ()), matching.critical.get(d, ())
    table = ptr, idx, sgn = matching.cx.boundary[d]
    w = 2 * d if pairwise(table, 2 * d, len(matching.cx.cells[d])) else 0
    up, order = matching.up[d - 1], certificate.orders[d]
    flow, wide, reached = array("i", [0]) * len(up), {}, bytearray(len(up))
    for r, tau in enumerate(rows):
        flow[tau] = r + 1
    for u in chain(cols, (up[a] for a in order if reached[a])):
        for g in idx[w * u:w * u + w] if w else idx[ptr[u]:ptr[u + 1]]:
            reached[g] = 1
    for a in reversed(order):
        if reached[a]:
            u = up[a]
            lo, hi = (w * u, w * u + w) if w else (ptr[u], ptr[u + 1])
            c = -sgn[idx.index(a, lo)]
            # fold the faces' flows into v times one row; else the dict route
            code = v = 0
            for g, t in zip(idx[lo:hi], sgn[lo:hi]):
                if f := flow[g]:
                    if code and abs(f) != code:
                        break
                    code, v = abs(f), v + (t if f > 0 else -t)
                elif wide and g in wide:
                    break
            else:
                if v in (0, 1, -1):
                    flow[a] = c * v * code
                    continue
            acc = _image(table, u, flow, wide, c)
            if len(acc) == 1 and (v := sum(acc.values())) in (1, -1):
                flow[a] = v * (min(acc) + 1)
            elif acc:
                wide[a] = acc
    mptr, midx, msgn = array("i", [0]), array("i"), []
    for j in cols:
        acc = _image(table, j, flow, wide)
        midx.extend(sorted(acc))
        msgn.extend(map(acc.get, sorted(acc)))
        mptr.append(len(midx))
    return FaceTable(mptr, midx, msgn)
