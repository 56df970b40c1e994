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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .words import (
    DEFAULT_CAP,
    CellWord,
    as_spec,
    check_content,
    enumerate_cellwords,
    signed_faces,
)


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


def _run_cell(word, pairs, spec_i, record=None):
    """Scan the loop schedule for one cell.

    Returns (status, loop_index, partner) with status 'lower' (matched
    upward by joining), 'upper' (matched downward by releasing) or
    'critical'.  When `record` is a list it receives (r, s, j, klass) rows.
    """
    ell = len(word)
    n = len(spec_i)
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
                if part[j] == 0:
                    partner = CellWord(word, tuple(sorted(pairs + (j,))))
                    return "lower", idx, partner
                partner = CellWord(word, tuple(p for p in pairs if p != j))
                return "upper", idx, partner
            idx += 1
    return "critical", idx, None


@dataclass
class MorseMatching:
    """A partial pairing of cells of Hom(spec): up/down maps plus critical cells."""

    spec: object
    up: dict        # lower cell -> joined partner
    down: dict      # upper cell -> released partner
    critical: dict  # dim -> sorted tuple of cells
    n_cells: int

    def is_critical(self, cell):
        return cell not in self.up and cell not in self.down

    def critical_count(self):
        return {d: len(v) for d, v in sorted(self.critical.items())}

    def pairs(self):
        """The matched pairs as (lower, upper), in canonical order."""
        return tuple(sorted(self.up.items()))


def match_product_of_chains(spec, cap=DEFAULT_CAP, cells=None):
    """Run the matching over every cell of Hom(spec) and assemble the pairing.

    `cells` are the cells of Hom(spec) when the caller already holds them,
    e.g. those of a built complex; otherwise they are enumerated.  Each cell
    is simulated independently; the assembly asserts that the per-cell
    outcomes agree (partners pair with each other), so matched and critical
    cells partition the cell set.
    """
    spec = as_spec(spec)
    if cells is None:
        cells = enumerate_cellwords(spec, cap=cap)
    up = {}
    down = {}
    critical = defaultdict(list)
    n_cells = 0
    for cw in cells:
        n_cells += 1
        status, _idx, partner = _run_cell(cw.word, cw.pairs, spec.i)
        if status == "critical":
            critical[cw.dim].append(cw)
        elif status == "lower":
            up[cw] = partner
        else:
            down[cw] = partner
    if len(up) != len(down):
        raise AssertionError("matching is not an involution")
    for a, b in up.items():
        if down.get(b) != a:
            raise AssertionError(f"inconsistent pair {a} / {b}")
    return MorseMatching(
        spec=spec,
        up=up,
        down=down,
        critical={d: tuple(sorted(v)) for d, v in critical.items()},
        n_cells=n_cells,
    )


def critical_cells(matching):
    """Unmatched cells grouped by dimension."""
    return {d: matching.critical[d] for d in sorted(matching.critical)}


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
    status, idx, partner = _run_cell(cell.word, cell.pairs, spec.i, record=record)
    if status == "critical":
        return FiberTrace(cell, tuple(record), "critical", None, None)
    r, s, _, _ = record[-1]
    return FiberTrace(cell, tuple(record), "matched", partner, (r, s))


class SpecMatchContext:
    """Facet/matching oracle for Hom(spec) that never materializes the complex.

    Faces and their signs come from words.signed_faces; matched partners come
    from per-cell simulation.  Suitable for alternating-path computations in
    complexes too large to store.
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
        status, _, partner = self._outcome(cell)
        return partner if status == "lower" else None

    def down(self, cell):
        status, _, partner = self._outcome(cell)
        return partner if status == "upper" else None


# -- acyclicity -----------------------------------------------------------


# -- structural checks ------------------------------------------------------


def check_fiber_monotonicity(spec, cx):
    """Counterexample counts for the order-preservation of the fiber maps.

    Over every loop and every cover pair with both cells still in the loop's
    domain: the position of the tracked letter must not grow upward (first
    count), and within a position fiber class `a` must be inherited downward
    (second count).  Both counts are zero for the matching algorithm.
    """
    spec = as_spec(spec)
    records = {}
    for cells in cx.cells.values():
        for cw in cells:
            rec = []
            _run_cell(cw.word, cw.pairs, spec.i, record=rec)
            records[cw] = rec
    bad_phi = 0
    bad_rho = 0
    for face, cell in cx.cover_pairs():
        rf = records[face]
        rc = records[cell]
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
    for cells in matching.critical.values():
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


class AcyclicityError(ValueError):
    """Raised when a matching admits an alternating directed cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"alternating cycle through {len(self.cycle)} cells")


def _pairs_fingerprint(matching):
    return hash(frozenset(matching.up.items()))


@dataclass(frozen=True)
class MatchingCertificate:
    """Per dimension pair, a topological order of the matched cover digraph.

    The certificate is bound to the matched pairs it was issued for by a
    fingerprint of the pair set; check_matches rejects any other matching.
    """

    orders: dict  # d -> tuple of cells (dims d-1 and d interleaved)
    n_pairs: int
    fingerprint: int

    def check_matches(self, matching):
        if (len(matching.up) != self.n_pairs
                or _pairs_fingerprint(matching) != self.fingerprint):
            raise ValueError("certificate does not match this matching")
        parts = (matching.up.keys(), matching.down.keys(),
                 [c for cells in matching.critical.values() for c in cells])
        if not sum(map(len, parts)) == len(set().union(*parts)) == matching.n_cells:
            raise ValueError("up, down and critical cells do not partition the cells")


def validate_acyclic(matching, cx):
    """Certify that a matching on a complex is acyclic (Patchwork-compatible).

    Per adjacent dimension pair, matched covers are oriented upward and all
    other covers downward; a topological order of each digraph is returned
    as the certificate.  An alternating cycle raises AcyclicityError.
    """
    for a, b in matching.up.items():
        if all(f != a for f, _ in cx.boundary[b]):
            raise ValueError(f"matched pair {a} / {b} is not a cover in the complex")
    orders = {}
    top = max(cx.cells)
    for d in range(1, top + 1):
        succ = defaultdict(list)
        indeg = defaultdict(int)
        nodes = list(cx.cells[d - 1]) + list(cx.cells[d])
        for node in nodes:
            indeg[node] = 0
        for upper in cx.cells[d]:
            for f, _ in cx.boundary[upper]:
                if matching.up.get(f) == upper:
                    succ[f].append(upper)
                    indeg[upper] += 1
                else:
                    succ[upper].append(f)
                    indeg[f] += 1
        # Kahn's algorithm, in the order of cx.cells, so the result is deterministic
        order = [node for node in nodes if indeg[node] == 0]
        for node in order:
            for nxt in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
        if len(order) != len(nodes):
            raise AcyclicityError(_extract_cycle(succ, indeg))
        orders[d] = tuple(order)
    return MatchingCertificate(orders, len(matching.up), _pairs_fingerprint(matching))


def _extract_cycle(succ, indeg):
    # every un-eliminated node keeps an un-eliminated predecessor, so walking
    # predecessors from any of them must close a cycle
    remaining = {node for node, k in indeg.items() if k > 0}
    preds = defaultdict(list)
    for u, vs in succ.items():
        if u in remaining:
            for v in vs:
                if v in remaining:
                    preds[v].append(u)
    node = min(remaining)
    seen = {}
    path = []
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = preds[node][0]
    cycle = path[seen[node]:]
    cycle.reverse()
    return cycle
