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
earlier loop classified it `b`, so a single left-to-right scan of the loop
schedule decides each cell independently.

The matching runs on the complex built by complexes.chain_product_complex,
whose cells are implicit: it walks the complex's word table, each word's
placements in turn, and builds a cell key only for an error message.  A
cell that releases a pair takes that pair's beta face from the complex's
face table as its partner, so the complex is the only owner of cell
indices.  A MorseMatching refers to cells by their index in the cells[d] of
its complex: per dimension, an array of up-partners and one of
down-partners, -1 where a cell is not matched that way, and the sorted
indices of the critical cells.  Keys are read from cells[d] only for the
cells that are printed: the critical cells and the streamed matched pairs.
Acyclicity is certified by Kahn's algorithm on those arrays and the
complex's face tables, with the order kept in an array('i').
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

from .words import CellWord, as_spec, check_content, signed_faces


def loop_schedule(spec):
    """The (r, s) loops in processing order: r = n..1, s = i_r..1."""
    spec = as_spec(spec)
    return tuple((r, s) for r in range(spec.n, 0, -1)
                 for s in range(spec.i[r - 1], 0, -1))


def _occurrences(word, n):
    occ = [None] + [[] for _ in range(n)]
    for p, letter in enumerate(word, start=1):
        occ[letter].append(p)
    return occ


def _part_array(ell, pairs):
    # 0 free, 1 joined with the right neighbor, 2 joined with the left
    part = bytearray(ell + 2)
    for p in pairs:
        part[p] = 1
        part[p + 1] = 2
    return part


def _run_cell(word, pairs, spec_i, record=None, occ=None):
    """Scan the loop schedule for one cell.

    Returns (status, loop_index, j) with status 'lower' (matched upward by
    joining the entries at j, j + 1), 'upper' (matched downward by releasing
    the pair at j) or 'critical' (j is None).  When `record` is a list it
    receives (r, s, j, klass) rows.  `occ` is _occurrences(word, n), for
    callers that scan many cells of one word.
    """
    ell = len(word)
    n = len(spec_i)
    if occ is None:
        occ = _occurrences(word, n)
    part = _part_array(ell, pairs)
    idx = 0
    for r in range(n, 0, -1):
        for s in range(spec_i[r - 1], 0, -1):
            j = occ[r][s - 1]
            klass = "b"
            if j < ell and word[j] < r:                      # (2) right neighbor below r
                pj = part[j]
                if pj == 0 and part[j + 1] == 0 or pj == 1:  # (3) both free or joined together
                    if j == 1 or part[j - 1] != 0 or word[j - 2] <= r:  # (1)
                        klass = "a"
            if record is not None:
                record.append((r, s, j, klass))
            if klass == "a":
                return ("lower" if part[j] == 0 else "upper"), idx, j
            idx += 1
    return "critical", idx, None


def _partner(cell, status, j):
    """The matched partner of a cell word, from its _run_cell outcome."""
    if status == "lower":
        return CellWord(cell.word, tuple(sorted(cell.pairs + (j,))))
    if status == "upper":
        return CellWord(cell.word, tuple(p for p in cell.pairs if p != j))
    return None


class Mates:
    """One side of a matching, per dimension.

    mates[d] is an array('i') holding, for each d-cell, the index of its
    partner on this side (in cells[d + 1] for up, in cells[d - 1] for down),
    or -1.  len() counts the cells matched on this side: the matched pairs.
    """

    __slots__ = ("by_dim", "n_matched")

    def __init__(self, by_dim):
        self.by_dim = by_dim
        self.n_matched = sum(len(a) - a.count(-1) for a in by_dim.values())

    def __getitem__(self, d):
        return self.by_dim[d]

    def __len__(self):
        return self.n_matched


def _unmatched(cells):
    return {d: array("i", [-1]) * len(cs) for d, cs in cells.items()}


@dataclass
class MorseMatching:
    """A partial pairing of the cells of a complex, by cell index.

    `cells` is the cell basis the indices refer to: the cells[d] of the
    complex the matching belongs to.  critical[d] lists the indices of the
    unmatched d-cells in increasing order, for the dimensions that have any.
    """

    cells: dict = field(repr=False)
    up: Mates       # lower cell -> index of its joined partner
    down: Mates     # upper cell -> index of its released partner
    critical: dict  # dim -> sorted tuple of cell indices
    n_cells: int

    @classmethod
    def from_pairs(cls, cx, up):
        """The matching of `cx` that pairs each key of `up` with its value.

        Keys and values are cell keys, each value one dimension above its
        key; every cell left unpaired is critical.
        """
        ups, downs = _unmatched(cx.cells), _unmatched(cx.cells)
        for lower, upper in up.items():
            d, i = cx.locate(lower)
            e, j = cx.locate(upper)
            if e != d + 1:
                raise ValueError(f"{upper!r} is not one dimension above {lower!r}")
            if downs[e][j] >= 0 or ups[e][j] >= 0 or downs[d][i] >= 0:
                raise ValueError(f"a cell of the pair {lower!r} / {upper!r} is matched twice")
            ups[d][i] = j
            downs[e][j] = i
        critical = {}
        for d, cs in cx.cells.items():
            free = tuple(i for i in range(len(cs)) if ups[d][i] < 0 and downs[d][i] < 0)
            if free:
                critical[d] = free
        return cls(cx.cells, Mates(ups), Mates(downs), critical, cx.n_cells())

    def critical_count(self):
        return {d: len(v) for d, v in sorted(self.critical.items())}

    def pairs(self):
        """The matched pairs as (lower, upper) cell keys, streamed in sorted order.

        Each cells[d] must be sorted, as in every complex built by
        complexes.  Each dimension then lists its pairs sorted by their lower
        cell, no lower cell has two partners, and merging the dimensions
        gives the sorted order of all pairs.
        """
        cells = self.cells

        def stream(d, mates):
            upper = cells[d + 1]
            for cell, u in zip(cells[d], mates):
                if u >= 0:
                    yield cell, upper[u]

        return heapq.merge(*(stream(d, mates) for d, mates in self.up.by_dim.items()
                             if d + 1 in cells))


def match_product_of_chains(cx):
    """Run the matching over every cell of a built cell-word complex.

    `cx` comes from complexes.chain_product_complex, whose d-cell i lists
    its t-th pair's faces at ptr[i] + 2(t - 1): the alpha release, then the
    beta release.  Each dimension walks the words of the complex's word
    table, and each word's d-placements, so cell i is a word and a pair
    tuple, never a stored key.  Each cell is simulated independently.  A
    cell that releases its pair at j takes that pair's beta face (same
    word, pair removed) as its partner; the up arrays are the inverse of
    the down arrays.  The assembly asserts that the pairing is an
    involution: the face was classified lower at the same j, no lower cell
    is claimed twice, and every lower cell is claimed, so matched and
    critical cells partition the cell set.
    """
    spec, table = cx.spec, cx.word_table
    if spec is None or table is None:
        raise ValueError("the matching needs the cell-word complex of a chain spec")
    cells = cx.cells
    up, down = _unmatched(cells), _unmatched(cells)
    critical = defaultdict(list)
    n_lower = n_pairs = 0
    at = None
    for d, cs in cells.items():
        # at[i]: the j at which the lower d-cell i joins, else 0
        below_at, at = at, array("i", [0]) * len(cs)
        if d:
            ptr, idx, _ = cx.boundary[d]
            below = up[d - 1]
        for word, info, start in zip(table.words, table.placements, table.starts[d]):
            if d >= len(info.by_dim):
                continue
            occ = _occurrences(word, spec.n)
            for i, pairs in enumerate(info.by_dim[d], start):
                status, _idx, j = _run_cell(word, pairs, spec.i, occ=occ)
                if status == "lower":
                    at[i] = j
                    n_lower += 1
                elif status == "upper":
                    f = idx[ptr[i] + 2 * pairs.index(j) + 1]
                    if below_at[f] != j or below[f] >= 0:
                        raise AssertionError(f"inconsistent pair {cells[d - 1][f]} / "
                                             f"{CellWord(word, pairs)}")
                    below[f] = i
                    down[d][i] = f
                    n_pairs += 1
                else:
                    critical[d].append(i)
    if n_lower != n_pairs:
        raise AssertionError("matching is not an involution")
    return MorseMatching(
        cells=cells,
        up=Mates(up),
        down=Mates(down),
        critical={d: tuple(v) for d, v in sorted(critical.items())},
        n_cells=cx.n_cells(),
    )


def critical_cells(matching):
    """Unmatched cells grouped by dimension, as cell keys."""
    return {d: tuple(matching.cells[d][i] for i in v)
            for d, v in sorted(matching.critical.items())}


@dataclass(frozen=True)
class FiberTrace:
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
    check_content(cell, spec)
    record = []
    status, idx, j = _run_cell(cell.word, cell.pairs, spec.i, record=record)
    if status == "critical":
        return FiberTrace(cell, tuple(record), "critical", None, None)
    r, s, _, _ = record[-1]
    return FiberTrace(cell, tuple(record), "matched", _partner(cell, status, j), (r, s))


class SpecMatchContext:
    """Facet/matching oracle for Hom(spec) that never materializes the complex.

    Cells are CellWord keys.  Faces and their signs come from
    words.signed_faces; matched partners come from per-cell simulation.
    Suitable for alternating-path computations in complexes too large to
    store.
    """

    def __init__(self, spec):
        self.spec = as_spec(spec)
        self._cache = {}

    def _outcome(self, cell):
        got = self._cache.get(cell)
        if got is None:
            got = _run_cell(cell.word, cell.pairs, self.spec.i)
            self._cache[cell] = got
        return got

    def facets(self, cell):
        return signed_faces(cell)

    def dim_of(self, cell):
        return cell.dim

    def up(self, cell):
        status, _, j = self._outcome(cell)
        return _partner(cell, status, j) if status == "lower" else None

    def down(self, cell):
        status, _, j = self._outcome(cell)
        return _partner(cell, status, j) if status == "upper" else None


# -- structural checks ------------------------------------------------------


def check_fiber_monotonicity(cx):
    """Counterexample counts for the order-preservation of the fiber maps.

    Over every loop and every cover pair with both cells still in the loop's
    domain: the position of the tracked letter must not grow upward (first
    count), and within a position fiber class `a` must be inherited downward
    (second count).  Both counts are zero for the matching algorithm.
    """
    spec = cx.spec
    records = {}
    for d, cells in cx.cells.items():
        records[d] = rows = []
        for cw in cells:
            rec = []
            _run_cell(cw.word, cw.pairs, spec.i, record=rec)
            rows.append(rec)
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
    from .words import descent_set

    bad = []
    for cells in critical_cells(matching).values():
        for cw in cells:
            word = cw.word
            ell = len(word)
            des = descent_set(word)
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


class AcyclicityError(ValueError):
    """Raised when a matching admits an alternating directed cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"alternating cycle through {len(self.cycle)} cells")


def _same_basis(a, b):
    return a is b or a == b


def _pairs_fingerprint(matching):
    return hash(b"".join(matching.up[d].tobytes() for d in sorted(matching.cells)))


def _is_partition(matching):
    """Whether the up-matched, down-matched and critical cells partition the cells."""
    if (matching.n_cells != sum(map(len, matching.cells.values()))
            or not set(matching.critical) <= set(matching.cells)):
        return False
    for d, cs in matching.cells.items():
        up, down = matching.up[d], matching.down[d]
        crit = matching.critical.get(d, ())
        n = len(cs)
        if (len(up) != n or len(down) != n
                or (n - up.count(-1)) + (n - down.count(-1)) + len(crit) != n
                or len(set(crit)) != len(crit)
                or any(not 0 <= i < n or up[i] >= 0 or down[i] >= 0 for i in crit)
                or any(u >= 0 and v >= 0 for u, v in zip(up, down))):
            return False
    return True


@dataclass(frozen=True)
class MatchingCertificate:
    """Per dimension pair, a topological order of the matched cover digraph.

    orders[d] lists the (d-1)-cells by their index i and the d-cells j as
    len(cells[d - 1]) + j.  The certificate is bound to the cell basis and
    to the matched pairs it was issued for, through a fingerprint of the up
    arrays' bytes; check_matches rejects any other matching.
    """

    orders: dict  # d -> array('i') of node numbers
    n_pairs: int
    fingerprint: int
    cells: dict = field(repr=False, compare=False)

    def check_matches(self, matching):
        if not _same_basis(matching.cells, self.cells):
            raise ValueError("certificate was issued for another cell basis")
        if (len(matching.up) != self.n_pairs
                or _pairs_fingerprint(matching) != self.fingerprint):
            raise ValueError("certificate does not match this matching")
        if not _is_partition(matching):
            raise ValueError("up, down and critical cells do not partition the cells")


def validate_acyclic(matching, cx):
    """Certify that a matching on a complex is acyclic (Patchwork-compatible).

    Per adjacent dimension pair, matched covers are oriented upward and all
    other covers downward: a d-cell's successors are its faces other than
    its matched face, and a (d-1)-cell's only successor is its up-partner.
    A topological order of each digraph, found by Kahn's algorithm, is
    returned as the certificate.  A matching built on another cell basis
    raises ValueError, and an alternating cycle raises AcyclicityError.
    """
    if not _same_basis(matching.cells, cx.cells):
        raise ValueError("matching was built on another cell basis")
    orders = {}
    for d in range(1, cx.dim + 1):
        ptr, idx, _ = cx.boundary[d]
        lo_up, hi_down = matching.up[d - 1], matching.down[d]
        n0 = len(cx.cells[d - 1])
        indeg = array("i", [0]) * (n0 + len(cx.cells[d]))
        for f in idx:
            indeg[f] += 1
        n_matched = 0
        for j, i in enumerate(hi_down):
            if i >= 0:
                if lo_up[i] != j or i not in idx[ptr[j]:ptr[j + 1]]:
                    raise ValueError(f"matched pair {cx.cells[d - 1][i]} / {cx.cells[d][j]} "
                                     "is not a cover in the complex")
                indeg[i] -= 1
                indeg[n0 + j] = 1
                n_matched += 1
        if n_matched != len(lo_up) - lo_up.count(-1):
            raise ValueError(f"up and down partners disagree between dimensions {d - 1} and {d}")
        # Kahn's algorithm, lower cells first, so the result is deterministic;
        # iterating an array sees the nodes appended during the loop
        order = array("i", (v for v in range(len(indeg)) if not indeg[v]))
        for v in order:
            if v < n0:
                u = lo_up[v]
                if u >= 0:
                    u += n0
                    indeg[u] -= 1
                    if not indeg[u]:
                        order.append(u)
            else:
                j = v - n0
                m = hi_down[j]
                for f in idx[ptr[j]:ptr[j + 1]]:
                    if f != m:
                        indeg[f] -= 1
                        if not indeg[f]:
                            order.append(f)
        if len(order) != len(indeg):
            raise AcyclicityError(_extract_cycle(cx, matching, d, indeg))
        orders[d] = order
    return MatchingCertificate(orders, len(matching.up), _pairs_fingerprint(matching),
                               matching.cells)


def _extract_cycle(cx, matching, d, indeg):
    # every un-eliminated node keeps an un-eliminated predecessor, so walking
    # predecessors from any of them must close a cycle
    ptr, idx, _ = cx.boundary[d]
    lo_up, hi_down = matching.up[d - 1], matching.down[d]
    n0 = len(cx.cells[d - 1])
    remaining = [v for v in range(len(indeg)) if indeg[v] > 0]
    preds = defaultdict(list)
    for v in remaining:
        if v < n0:
            succ = [n0 + lo_up[v]] if lo_up[v] >= 0 else []
        else:
            j = v - n0
            succ = [f for f in idx[ptr[j]:ptr[j + 1]] if f != hi_down[j]]
        for w in succ:
            if indeg[w] > 0:
                preds[w].append(v)
    node = remaining[0]
    seen = {}
    path = []
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = preds[node][0]
    cycle = path[seen[node]:]
    cycle.reverse()
    return [cx.cells[d - 1][v] if v < n0 else cx.cells[d][v - n0] for v in cycle]
