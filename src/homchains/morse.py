"""The discrete Morse matching on products of chains, and matching validation.

The matching processes letters r = n down to 1 and occurrences s = i_r down
to 1.  On each loop a surviving cell is classified by the position j of the
s-th r in its underlying word and by a two-valued fiber map: class `a`
requires (1) a free left neighbor to be <= r, (2) a right neighbor strictly
below r, and (3) the entry at j and its right neighbor to be both free or
joined with each other.  Class-`a` cells are matched by joining/releasing
that pair; cells never classified `a` are critical.

Rather than materializing the shrinking domains of the fiber maps, each cell
carries its own loop state: a cell survives to a loop exactly when every
earlier loop classified it `b`.  Only the pairs vary between the cells of a
word, so a word's schedule (_schedule) keeps the loops that pass (2), its
descents, with the word half of (1), and a cell's pair bitmask decides its
outcome against it (_classify).  Words share schedules, and with them their
descents and every outcome, so the matching classifies each distinct
schedule's placements once: 210 schedules serve the 5,040 words of B_7, 727
the 7,560 of (2,2,2,3), 733 the 40,320 of B_8 and 2,781 the 362,880 of B_9,
whose 4.74 million cells take 55,126 classifications.

The matching runs on the complex built by complexes.chain_product_complex,
whose cells are implicit: it walks the complex's word table once, each word
with its placements of every dimension, and builds a cell key only for an
error message.  A cell that releases a pair takes that pair's beta face
from the complex's face table as its partner, so the complex is the only
owner of cell indices.  A MorseMatching holds the complex it was built on
and refers to cells by their index in its cells[d]; it records each pair
once: per dimension, a read-only array of up-partners, -1 where a cell is
not matched up, kept without a copy when handed over as bytes (as the
matching hands each dimension over) and copied otherwise.  Its
constructor checks that no cell is claimed twice, or both claimed and
matched up, and derives the sorted indices of the critical cells once;
the record cannot change after that.  Keys are read
from cells[d] only for the critical cells, which are printed.  Acyclicity
is certified by Kahn's algorithm on the matched pairs alone, through the up
arrays and the complex's face tables: the certificate keeps, per
dimension, the pairs' lower cells in a topological order, in an
array('i'), and the matching it was issued for.  So each stage takes one
object, complex -> matching -> certificate, and a certificate reaches only
the tables it certified.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .columns import pairwise
from .words import CellWord, as_spec, check_content, descents, signed_faces


def loop_schedule(spec):
    """The (r, s) loops in processing order: r = n..1, s = i_r..1."""
    spec = as_spec(spec)
    return tuple((r, s) for r in range(spec.n, 0, -1)
                 for s in range(spec.i[r - 1], 0, -1))


def _schedule(word, descents):
    """The loops of a word that can classify a cell `a`, in processing order.

    Loop (r, s) looks at the position j of the s-th r and passes (2), a
    right neighbor below r, exactly when j is a descent; every other loop
    classifies every cell `b`.  So the schedule lists the descents j by
    their letter r = word[j - 1] from n down, equal letters from the right,
    each as the character chr(2j + left), with `left` the word half of (1):
    j is 1 or the letter left of j is <= r.  A str holds a schedule in one
    object; tuples kept as cache keys would stay in the tuple free lists.
    """
    return "".join(chr(2 * j + (j == 1 or word[j - 2] <= r))
                   for r, j in sorted(((word[j - 1], j) for j in descents), reverse=True))


def _classify(schedule, mask):
    """The outcome of a cell with pair bitmask `mask` (bit p for a pair at p).

    j when the first loop of the schedule that classifies it `a` finds the
    entries at j, j + 1 free (matched upward by joining them), -j when it
    finds them joined (matched downward by releasing the pair at j), and 0
    when no loop does (critical).
    """
    for c in schedule:
        j, left = ord(c) >> 1, ord(c) & 1
        if ((mask >> j & 1 or not mask >> (j - 1) & 7)  # (3) both free or joined together
                and (left or mask >> (j - 2) & 3)):     # (1) left neighbor joined or <= r
            return -j if mask >> j & 1 else j
    return 0


def _trace(word, pairs, spec):
    """A cell's outcome (_classify) and its (r, s, j, klass) row for each
    loop it reaches: every loop up to the one that classifies it `a`."""
    out = _classify(_schedule(word, descents(word)), sum(1 << p for p in pairs))
    rows = []
    for r, s in loop_schedule(spec):
        j = [p for p, x in enumerate(word, start=1) if x == r][s - 1]
        rows.append((r, s, j, "a" if j == abs(out) else "b"))
        if j == abs(out):
            break
    return out, rows


def _partner(cell, out):
    """The matched partner of a cell word: its pair at |out| joined or released."""
    return CellWord(cell.word, tuple(sorted(set(cell.pairs) ^ {abs(out)}))) if out else None


class Mates:
    """The up side of a matching, per dimension.

    mates[d] holds, for each d-cell, the index of its partner in
    cells[d + 1], or -1.  len() counts the matched pairs.
    """

    __slots__ = ("by_dim", "n_matched")

    def __init__(self, by_dim, n_matched):
        self.by_dim = by_dim
        self.n_matched = n_matched

    def __getitem__(self, d):
        return self.by_dim[d]

    def __len__(self):
        return self.n_matched


def _unmatched(cells):
    return {d: array("i", [-1]) * len(cs) for d, cs in cells.items()}


class MorseMatching(NamedTuple("MorseMatching",
                                [("cx", object), ("up", Mates), ("critical", dict)])):
    """A partial pairing of the cells of a complex, by cell index.

    `cx` is the complex the matching was built on, and the indices refer
    to its cells[d].  `up` is given as one array('i') per dimension of cx,
    each d-cell's partner in cells[d + 1] or -1, and kept as a Mates of
    read-only views: the one record of the pairs.  An exact bytes of the
    array's machine values, which cannot change, is kept as it is; any
    other input is copied into one.  The constructor raises
    ValueError on dimensions other than those of cx, a wrong length, a
    partner out of range, or a cell that is claimed twice or both claimed
    and matched up, and derives critical[d], the indices of the unmatched
    d-cells in increasing order, for the dimensions that have any.
    Nothing of the record can change afterwards, and _make refuses to build
    one around the constructor, so a certificate binds to the object, and
    through it to the complex.  Each matching holds its own Mates, so two
    matchings are equal only when they are one object.
    """

    __slots__ = ()

    def __new__(cls, cx, up):
        ups, critical = {}, {}
        claimed = {d: bytearray(len(cs)) for d, cs in cx.cells.items()}
        if set(up) != set(claimed):
            raise ValueError(f"up partners for dimensions {sorted(up)} of a "
                             f"complex with cells of dimensions {sorted(claimed)}")
        for d in sorted(claimed):
            below, mates = claimed[d], memoryview(bytes(up[d])).cast("i")
            if len(mates) != len(below):
                raise ValueError(f"{len(mates)} up partners for the {len(below)} "
                                 f"cells of dimension {d}")
            above, free = claimed.get(d + 1, b""), []
            for i, u in enumerate(mates):
                if u == -1:
                    if not below[i]:
                        free.append(i)
                elif not 0 <= u < len(above):
                    raise ValueError(f"up partner out of range at dimension {d}")
                elif above[u]:
                    raise ValueError(f"cell {u} of dimension {d + 1} is claimed twice")
                elif below[i]:
                    raise ValueError(f"cell {i} of dimension {d} is claimed and matched up")
                else:
                    above[u] = 1
            ups[d] = mates
            if free:
                critical[d] = tuple(free)
        n_pairs = sum(c.count(1) for c in claimed.values())
        return super().__new__(cls, cx, Mates(ups, n_pairs), critical)

    @classmethod
    def _make(cls, iterable):
        raise ValueError("a matching is built from its complex and up partners alone")

    @classmethod
    def from_pairs(cls, cx, up):
        """The matching of `cx` that pairs each key of `up` with its value.

        Keys and values are cell keys, each value one dimension above its
        key; every cell left unpaired is critical.
        """
        ups = _unmatched(cx.cells)
        for lower, upper in up.items():
            d, i = cx.locate(lower)
            e, j = cx.locate(upper)
            if e != d + 1:
                raise ValueError(f"{upper!r} is not one dimension above {lower!r}")
            ups[d][i] = j
        return cls(cx, ups)

    def critical_count(self):
        return {d: len(v) for d, v in sorted(self.critical.items())}


def match_product_of_chains(cx):
    """Run the matching over every cell of a built cell-word complex.

    `cx` comes from complexes.chain_product_complex, whose d-cell i lists
    its t-th pair's faces at ptr[i] + 2(t - 1): the alpha release, then the
    beta release.  A cell is a word and a pair placement, never a stored
    key.  A cell that releases its pair at j takes that pair's beta face
    (same word, pair removed) as its partner, and records itself as that
    face's up-partner.  The assembly asserts an involution: the face is a
    cell of the same word classified lower at the same j, no lower cell is
    claimed twice, and every lower cell is claimed, so the cells no loop
    classifies `a` are exactly the ones MorseMatching finds critical.
    """
    table = cx.word_table
    if table is None:
        raise ValueError("the matching needs the cell-word complex of a chain spec")
    cells = cx.cells
    up = _unmatched(cells)
    # per dimension, the face table and its stride, or 0 to read through ptr
    faces_at = {d: (t, 2 * d if pairwise(t, 2 * d, len(cells[d])) else 0)
                for d, t in cx.boundary.items()}
    # a schedule's outcomes, dimension by dimension, from offsets[schedule] on:
    # one array, since an object per schedule leaves its small-object pages behind
    outcomes, offsets = array("i"), {}
    n_lower = n_pairs = 0
    for k, (word, info) in enumerate(zip(table.words, table.placements)):
        schedule = _schedule(word, info.descents)
        end = offsets.get(schedule)
        if end is None:
            end = offsets[schedule] = len(outcomes)
            outcomes.extend([_classify(schedule, m) for ms in info.masks for m in ms])
        for d, ms in enumerate(info.masks):
            row, start = outcomes[end:end + len(ms)], table.starts[d][k]
            end += len(ms)
            for i, out in enumerate(row, start):
                if out > 0:
                    n_lower += 1
                elif out:
                    pairs = info.by_dim[d][i - start]
                    (ptr, idx, _), w = faces_at[d]
                    f = idx[(w * i if w else ptr[i]) + 2 * pairs.index(-out) + 1]
                    if not (0 <= f - base < len(at) and at[f - base] == -out
                            and up[d - 1][f] < 0):
                        cell = CellWord(tuple(word), pairs)
                        raise AssertionError(f"inconsistent pair: {cell} / {f}")
                    up[d - 1][f] = i
                    n_pairs += 1
            at, base = row, start  # the outcomes and first cell one dimension down
    if n_lower != n_pairs:
        raise AssertionError("matching is not an involution")
    for d in up:  # handed over as bytes, which MorseMatching keeps without a copy
        up[d] = up[d].tobytes()
    return MorseMatching(cx, up)


def critical_cells(matching):
    """Unmatched cells grouped by dimension, as cell keys."""
    return {d: tuple(matching.cx.cells[d][i] for i in v)
            for d, v in sorted(matching.critical.items())}


class FiberTrace(NamedTuple):
    """Per-loop record of one cell through the matching algorithm."""

    cell: CellWord
    steps: tuple   # (r, s, j, 'a' | 'b') per executed loop
    outcome: str   # 'matched' | 'critical'
    partner: object
    matched_loop: object  # (r, s) or None

    def rows(self):
        return [f"({r},{s}): j={j} rho={k}" for r, s, j, k in self.steps]


def fiber_trace(spec, cell):
    """Full per-loop trace of one cell, mirroring the worked-example format."""
    spec = as_spec(spec)
    check_content(cell.word, spec)
    out, rows = _trace(cell.word, cell.pairs, spec)
    return FiberTrace(cell, tuple(rows), "matched" if out else "critical",
                      _partner(cell, out), rows[-1][:2] if out else None)


class SpecMatchContext:
    """The match oracle on CellWord keys of Hom(spec), which never builds
    the complex: facets(cell) lists its (face, sign) pairs, from
    words.signed_faces, and up(cell) is its up-partner, from its outcome,
    or None.  Suitable for alternating-path computations in complexes too
    large to store.
    """

    def __init__(self, spec):
        self.spec = as_spec(spec)

    def facets(self, cell):
        return signed_faces(cell)

    def up(self, cell):
        out = _classify(_schedule(cell.word, descents(cell.word)), sum(1 << p for p in cell.pairs))
        return _partner(cell, out) if out > 0 else None


# -- structural checks ------------------------------------------------------


def check_fiber_monotonicity(cx):
    """Counterexample counts for the order-preservation of the fiber maps.

    Over every loop and every cover pair with both cells still in the loop's
    domain: the position of the tracked letter must not grow upward (first
    count), and within a position fiber class `a` must be inherited downward
    (second count).  Both counts are zero for the matching algorithm.
    """
    spec = cx.word_table.spec
    records = {d: [_trace(cw.word, cw.pairs, spec)[1] for cw in cells]
               for d, cells in cx.cells.items()}
    bad_phi = 0
    bad_rho = 0
    for d in range(1, cx.dim + 1):
        ptr, idx, _ = cx.boundary[d]
        lower = records[d - 1]
        for j, rc in enumerate(records[d]):
            for f in idx[ptr[j]:ptr[j + 1]]:
                rf = lower[f]
                for k in range(min(len(rf), len(rc))):
                    jf, kf = rf[k][2], rf[k][3]
                    jc, kc = rc[k][2], rc[k][3]
                    if jf < jc:
                        bad_phi += 1
                    if jf == jc and kc == "a" and kf != "a":
                        bad_rho += 1
    return bad_phi, bad_rho


def check_critical_structure(matching):
    """Violations of the structural description of critical cells.

    Checks, on every critical cell: descent-run starts are free entries; a
    free descent is followed by a joined pair; three positions after a free
    descent is free again; consecutive free entries are weakly increasing and
    every pair is preceded by a larger free entry.
    """
    bad = []
    for cells in critical_cells(matching).values():
        for cw in cells:
            word = cw.word
            ell = len(word)
            des = set(descents(word))
            pairset = set(cw.pairs)
            joined = set()
            for p in cw.pairs:
                joined.update((p, p + 1))
            for j in des:
                if j - 1 not in des and j in joined:
                    bad.append(("run-start-free", cw, j))
                if j not in joined and j + 1 not in pairset:
                    bad.append(("pair-after-free-descent", cw, j))
                if j not in joined and j + 3 in des and j + 3 in joined:
                    bad.append(("free-three-later", cw, j))
            for p in range(1, ell):
                if p not in joined and p + 1 not in joined and word[p - 1] > word[p]:
                    bad.append(("free-run-increasing", cw, p))
            for p in cw.pairs:
                if p < 2 or p - 1 in joined or not word[p - 2] > word[p - 1]:
                    bad.append(("pair-predecessor", cw, p))
    return bad


# -- acyclicity -----------------------------------------------------------


class CertificationError(ValueError):
    """Raised by validate_acyclic when a matching cannot be certified on
    the complex it holds: a face index outside cells[d - 1], a pair that is
    no cover, or an alternating cycle.  Partners need no check here: a
    MorseMatching is one read-only up record, checked and its critical
    cells derived once when it was built.  The command line reports it as a
    failed internal check."""


class AcyclicityError(CertificationError):
    """Raised when a matching admits an alternating directed cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"alternating cycle through {len(self.cycle)} cells")


class MatchingCertificate(NamedTuple):
    """Per dimension pair, a topological order of the matched pairs.

    orders[d] lists, once each, the (d-1)-cells a matched up to a d-cell
    u(a), by index, so that a comes before every other face of u(a) that is
    matched up.  So chains.morse_complex reads orders[d] forward to mark
    the pairs the critical d-cells reach, as a pair comes before the pairs
    it reaches, and backward to give each pair its flow after the flows it
    reads.  The certificate holds the matching it was issued for, which
    holds its complex: the stages after it take the certificate alone.
    """

    orders: dict  # d -> array('i') of the lower cells of the pairs
    matching: MorseMatching


def validate_acyclic(matching):
    """Certify that a matching is acyclic on its complex (Patchwork-compatible).

    Per adjacent dimension pair, matched covers point up and all others
    down.  A (d-1)-cell's only way up is to its partner, so an alternating
    cycle runs through matched pairs alone: the digraph has one node per
    pair (a, u(a)), read from the matching's one read-only up record, and
    an arc to (b, u(b)) for each face b != a of u(a) that is matched up.
    Its topological order by Kahn's algorithm is the certificate, which
    holds the matching, and through it the complex whose face tables were
    read, by stride if they pass columns.pairwise and else through ptr.  A
    face index outside cells[d - 1] or a pair that is no cover raises
    CertificationError, and an alternating cycle its subclass
    AcyclicityError (both are ValueErrors).  An
    incidence other than +1 or -1 raises ArithmeticError, as a failed d o d
    check does: chains.morse_complex, which sweeps the certified pairs,
    takes each [a:u] as its own inverse.
    """
    cx = matching.cx
    orders = {}
    for d in range(1, cx.dim + 1):
        table = ptr, idx, sgn = cx.boundary[d]
        w = 2 * d if pairwise(table, 2 * d, len(cx.cells[d])) else 0
        lo_up = matching.up[d - 1]
        n0 = len(cx.cells[d - 1])
        if idx and not (min(idx) >= 0 and max(idx) < n0):
            raise CertificationError(f"face index out of range at dimension {d}")
        # indeg[b]: the matched d-cells u that have b as a face other than their partner
        indeg = array("i", [0]) * n0
        n_matched = 0
        for a, u in enumerate(lo_up):
            if u >= 0:
                faces = idx[w * u:w * u + w] if w else idx[ptr[u]:ptr[u + 1]]
                if a not in faces:
                    raise CertificationError(f"matched pair {cx.cells[d - 1][a]} / "
                                             f"{cx.cells[d][u]} is not a cover in the complex")
                for b in faces:
                    indeg[b] += 1
                indeg[a] -= 1
                n_matched += 1
        # Kahn's algorithm from the sources in index order, so the result is
        # deterministic; iterating an array sees the pairs appended during the loop
        order = array("i", (a for a, u in enumerate(lo_up) if u >= 0 and not indeg[a]))
        for a in order:
            u = lo_up[a]
            for b in idx[w * u:w * u + w] if w else idx[ptr[u]:ptr[u + 1]]:
                if b != a and lo_up[b] >= 0:
                    indeg[b] -= 1
                    if not indeg[b]:
                        order.append(b)
        if len(order) != n_matched:
            raise AcyclicityError(_extract_cycle(matching, d, indeg))
        if not set(sgn) <= {1, -1}:
            raise ArithmeticError(f"incidence other than +1 or -1 at dimension {d}")
        orders[d] = order
    return MatchingCertificate(orders, matching)


def _extract_cycle(matching, d, indeg):
    """An alternating cycle a_1, u(a_1), a_2, u(a_2), ... among the pairs
    Kahn's algorithm left over, with a_(i+1) a face of u(a_i).  Each of them
    keeps a predecessor among them, so walking predecessors closes a cycle."""
    cx = matching.cx
    ptr, idx, _ = cx.boundary[d]
    lo_up = matching.up[d - 1]
    pred = {}
    for a, u in enumerate(lo_up):
        if u >= 0 and indeg[a] > 0:
            for b in idx[ptr[u]:ptr[u + 1]]:
                if b != a and lo_up[b] >= 0 and indeg[b] > 0:
                    pred.setdefault(b, a)
    node, seen = next(iter(pred)), {}  # node -> its step on the walk
    while node not in seen:
        seen[node] = len(seen)
        node = pred[node]
    cycle = list(seen)[seen[node]:]
    cycle.reverse()
    return [c for a in cycle for c in (cx.cells[d - 1][a], cx.cells[d][lo_up[a]])]
