"""The matching algorithm, fiber traces, acyclicity validation."""

import random
import tracemalloc
from array import array

import pytest

from homchains import (
    AcyclicityError,
    CellComplex,
    FinitePoset,
    antichain,
    as_spec,
    cellword,
    chain,
    chain_product_complex,
    check_critical_structure,
    check_fiber_monotonicity,
    critical_cells,
    critical_pairs,
    descents,
    enumerate_words,
    fiber_trace,
    hom_complex_generic,
    homology,
    ideal_lattice,
    loop_schedule,
    match_product_of_chains,
    morse_complex,
    parse_cellword,
    render_cellword,
    validate_acyclic,
)
from homchains import morse
from homchains.complexes import FaceTable
from homchains.morse import MorseMatching, SpecMatchContext, _trace
from test_chains import random_acyclic_matching, shuffled_covers


def matching_of(spec):
    return match_product_of_chains(chain_product_complex(spec))


def key_partners(m):
    """The up and down partners of a matching as dicts of cell keys."""
    cells = m.cx.cells
    up = {cells[d][i]: cells[d + 1][u]
          for d, mates in m.up.by_dim.items() for i, u in enumerate(mates) if u >= 0}
    return up, {b: a for a, b in up.items()}


def test_loop_schedule():
    assert loop_schedule((2, 2, 2, 2)) == tuple(
        (r, s) for r in (4, 3, 2, 1) for s in (2, 1))
    assert loop_schedule((1, 1, 3)) == ((3, 3), (3, 2), (3, 1), (2, 1), (1, 1))


def test_paper_worked_trace():
    tr = fiber_trace((2, 2, 2, 2), parse_cellword("(21)1(32)344"))
    assert [(r, s, k) for r, s, _, k in tr.steps] == [
        (4, 2, "b"), (4, 1, "b"), (3, 2, "b"), (3, 1, "a")]
    assert [j for _, _, j, _ in tr.steps] == [8, 7, 6, 4]
    assert tr.outcome == "matched"
    assert render_cellword(tr.partner) == "(21)132344"
    assert tr.matched_loop == (3, 1)


def test_paper_worked_pairing_in_matching():
    m = matching_of((2, 2, 2, 2))
    upper = parse_cellword("(21)1(32)344")
    lower = parse_cellword("(21)132344")
    up, down = key_partners(m)
    assert down[upper] == lower
    assert up[lower] == upper


def test_trace_of_sorted_word_is_critical():
    tr = fiber_trace((1, 1, 2), parse_cellword("1233"))
    assert tr.outcome == "critical"
    assert all(k == "b" for _, _, _, k in tr.steps)
    assert len(tr.steps) == 4  # every loop executed


def test_trace_of_paper_critical_cell():
    tr = fiber_trace((1,) * 9, parse_cellword("237(64)9(85)1"))
    assert tr.outcome == "critical"


def test_critical_cells_s3():
    m = matching_of((1, 1, 1))
    crit = {render_cellword(c) for v in critical_cells(m).values() for c in v}
    assert crit == {"123", "3(21)"}
    assert {w for w in (c.word for v in critical_cells(m).values() for c in v)} == {
        (1, 2, 3), (3, 2, 1)}


def test_single_chain_single_critical_vertex():
    for r in (1, 3, 5):
        m = matching_of((r,))
        assert m.critical_count() == {0: 1}
        assert sum(map(len, m.cx.cells.values())) == 1


def test_critical_counts_b4():
    m = matching_of((1, 1, 1, 1))
    assert m.critical_count() == {0: 1, 1: 7}


def test_critical_counts_112():
    m = matching_of((1, 1, 2))
    assert m.critical_count() == {0: 1, 1: 2}


def test_matched_plus_critical_partitions():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2), (2, 2, 2)]:
        m = matching_of(spec)
        up, down = key_partners(m)
        ncrit = sum(len(v) for v in m.critical.values())
        assert len(m.up) == len(up) == len(down)
        assert 2 * len(m.up) + ncrit == sum(map(len, m.cx.cells.values()))
        for a, b in up.items():
            assert down[b] == a
            assert b.dim == a.dim + 1
            assert b.word == a.word


def test_pairs_respect_fibers():
    # matched cells share the loop and position at which they were classified
    for spec in [(1, 1, 1), (1, 1, 2), (2, 2, 2)]:
        m = matching_of(spec)
        for a, b in key_partners(m)[0].items():
            ra = _trace(a.word, a.pairs, as_spec(spec))[1]
            rb = _trace(b.word, b.pairs, as_spec(spec))[1]
            assert ra[-1][:3] == rb[-1][:3]  # same (r, s, j)
            assert len(ra) == len(rb)


# -- the per-cell rule the matching's schedules and classification replace --


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
    """Scan the loop schedule for one cell: (status, loop_index, j) with
    status 'lower', 'upper' or 'critical' (j is None); `record` receives
    (r, s, j, klass) rows."""
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


@pytest.mark.parametrize("spec", [(1, 1, 1, 1, 1), (2, 2, 2), (1, 2, 3), (2, 2, 3), (3, 3, 3)])
def test_matching_agrees_with_the_per_cell_rule(spec):
    cx = chain_product_complex(spec)
    m = match_product_of_chains(cx)
    spec_i = as_spec(spec).i
    critical = {(d, i) for d, v in m.critical.items() for i in v}
    down = key_partners(m)[1]
    for d, cells in cx.cells.items():
        for i, cell in enumerate(cells):
            record = []
            status, _, j = _run_cell(cell.word, cell.pairs, spec_i, record=record)
            if status == "lower":
                partner = cx.cells[d + 1][m.up[d][i]]
                assert partner == (cell.word, tuple(sorted(cell.pairs + (j,))))
            elif status == "upper":
                partner = down[cell]
                assert partner == (cell.word, tuple(p for p in cell.pairs if p != j))
            else:
                assert (d, i) in critical
            assert fiber_trace(spec, cell).steps == tuple(record)


def test_critical_cells_op():
    m = matching_of((1, 1, 2))
    crit = critical_cells(m)
    assert {d: len(v) for d, v in crit.items()} == m.critical_count() == {0: 1, 1: 2}
    for d, v in crit.items():
        assert v == tuple(m.cx.cells[d][i] for i in m.critical[d])
        assert m.critical[d] == tuple(sorted(m.critical[d]))


def test_bijection_small():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2), (1, 1, 1, 1), (2, 3)]:
        m = matching_of(spec)
        rule = {w: critical_pairs(descents(w)) for w in enumerate_words(spec)}
        from_words = {cellword(w, ps) for w, ps in rule.items() if ps is not None}
        from_match = {c for v in critical_cells(m).values() for c in v}
        assert from_words == from_match


@pytest.mark.parametrize("spec", [(1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 3), (1, 1, 1, 1, 1)])
def test_validate_acyclic_and_spec_context(spec):
    cx = chain_product_complex(spec)
    m = match_product_of_chains(cx)
    cert = validate_acyclic(m)
    assert cert.matching is m
    assert sum(map(len, cert.orders.values())) == len(m.up)
    assert set(cert.orders) == set(range(1, cx.dim + 1))
    # the spec oracle finds every cell's up-partner, or None, without the complex
    ctx = SpecMatchContext(spec)
    for d, cells in cx.cells.items():
        for c, u in zip(cells, m.up[d]):
            assert ctx.up(c) == (cx.cells[d + 1][u] if u >= 0 else None)


def test_certificate_orders_are_topological():
    for spec in [(1, 1, 2), (1, 1, 1, 1), (2, 2, 2)]:
        cx = chain_product_complex(spec)
        m = match_product_of_chains(cx)
        cert = validate_acyclic(m)
        assert set(cert.orders) == set(range(1, cx.dim + 1))
        n_arcs = 0
        for d, order in cert.orders.items():
            # each (d-1)-cell matched up is listed once, and before every
            # other face of its partner that is matched up
            up = m.up[d - 1]
            assert sorted(order) == [a for a, u in enumerate(up) if u >= 0]
            pos = {a: k for k, a in enumerate(order)}
            for a in order:
                for b, _ in cx.faces(d, up[a]):
                    if b != a and up[b] >= 0:
                        assert pos[a] < pos[b]
                        n_arcs += 1
        assert n_arcs > 0


def test_validate_acyclic_empty_matching():
    cx = chain_product_complex((1, 1, 1))
    empty = MorseMatching.from_pairs(cx, {})
    assert critical_cells(empty) == {d: tuple(cs) for d, cs in cx.cells.items()}
    cert = validate_acyclic(empty)
    assert len(empty.up) == sum(map(len, cert.orders.values())) == 0


def square_complex():
    verts = ["v0", "v1", "v2", "v3"]
    edges = ["e01", "e12", "e23", "e30"]
    boundary = {v: () for v in verts}
    boundary["e01"] = (("v0", -1), ("v1", 1))
    boundary["e12"] = (("v1", -1), ("v2", 1))
    boundary["e23"] = (("v2", -1), ("v3", 1))
    boundary["e30"] = (("v3", -1), ("v0", 1))
    return CellComplex({0: verts, 1: edges}, boundary)


def test_cyclic_matching_rejected():
    cx = square_complex()
    up = {"v0": "e01", "v1": "e12", "v2": "e23", "v3": "e30"}
    m = MorseMatching.from_pairs(cx, up)
    assert m.critical == {}
    with pytest.raises(AcyclicityError) as err:
        validate_acyclic(m)
    assert len(err.value.cycle) == 8
    assert_alternating_cycle(cx, up, err.value.cycle)


def assert_alternating_cycle(cx, up, cycle):
    """cycle is a_1, u(a_1), a_2, u(a_2), ... with a_(i+1) != a_i a face of u(a_i)."""
    lowers, uppers = cycle[0::2], cycle[1::2]
    assert len(lowers) == len(uppers) >= 2
    for i, (a, u) in enumerate(zip(lowers, uppers)):
        assert up[a] == u
        d, j = cx.locate(u)
        nxt = lowers[(i + 1) % len(lowers)]
        assert nxt != a and nxt in {cx.cells[d - 1][f] for f, _ in cx.faces(d, j)}


def test_acyclic_matching_on_square_accepted():
    cx = square_complex()
    up = {"v1": "e01", "v2": "e12", "v3": "e23"}
    m = MorseMatching.from_pairs(cx, up)
    assert critical_cells(m) == {0: ("v0",), 1: ("e30",)}
    cert = validate_acyclic(m)
    assert len(m.up) == sum(map(len, cert.orders.values())) == 3


def test_matching_must_lie_in_face_relation():
    cx = square_complex()
    up = {"v2": "e01"}
    m = MorseMatching.from_pairs(cx, up)
    with pytest.raises(ValueError, match="not a cover"):
        validate_acyclic(m)


def test_fiber_monotonicity_small():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1)]:
        cx = chain_product_complex(spec)
        assert check_fiber_monotonicity(cx) == (0, 0)


def test_critical_structure_small():
    for spec in [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1, 1)]:
        m = matching_of(spec)
        assert check_critical_structure(m) == []


def test_critical_structure_reports_a_dropped_pair():
    # Hom(B_3) without the pair 132 / 1(32): both cells are left critical,
    # and neither has the structure of a critical cell
    cx = chain_product_complex((1, 1, 1))
    up, _ = key_partners(match_product_of_chains(cx))
    del up[parse_cellword("132")]
    bad = check_critical_structure(MorseMatching.from_pairs(cx, up))
    assert sorted((kind, render_cellword(cw), j) for kind, cw, j in bad) == [
        ("free-run-increasing", "132", 2), ("pair-after-free-descent", "132", 2),
        ("pair-predecessor", "1(32)", 2), ("run-start-free", "1(32)", 2)]


def test_critical_structure_reports_a_free_descent_three_later():
    # Hom(B_5) without the pair 21354 / 213(54): the free descent at 1 of
    # 213(54) has a joined descent three positions later
    cx = chain_product_complex((1, 1, 1, 1, 1))
    up, _ = key_partners(match_product_of_chains(cx))
    assert up.pop(parse_cellword("21354")) == parse_cellword("213(54)")
    bad = check_critical_structure(MorseMatching.from_pairs(cx, up))
    assert [(kind, render_cellword(cw), j) for kind, cw, j in bad] == [
        ("pair-after-free-descent", "21354", 1), ("pair-after-free-descent", "21354", 4),
        ("free-run-increasing", "21354", 1), ("free-run-increasing", "21354", 4),
        ("pair-after-free-descent", "213(54)", 1), ("free-three-later", "213(54)", 1),
        ("run-start-free", "213(54)", 4), ("free-run-increasing", "213(54)", 1),
        ("pair-predecessor", "213(54)", 4)]


def test_fiber_monotonicity_reports_a_position_that_grows_upward(monkeypatch):
    # B_3 with the vertices of 213's schedule, 213 and 312, classified
    # critical: 312 reaches loop (1, 1) with its 1 left of where its coface
    # 3(21) has it, and `a` is not inherited downward from (21)3 and (31)2
    cx = chain_product_complex((1, 1, 1))
    word = parse_cellword("213").word
    planted = (morse._schedule(word, descents(word)), 0)
    real = morse._classify
    monkeypatch.setattr(morse, "_classify", lambda schedule, mask:
                        0 if (schedule, mask) == planted else real(schedule, mask))
    assert check_fiber_monotonicity(cx) == (1, 2)


def test_fiber_monotonicity_reports_a_misclassified_cell(monkeypatch):
    # B_4 with the cell 4321 classified critical: class `a` is then not
    # inherited downward from two of its cofaces
    cx = chain_product_complex((1, 1, 1, 1))
    word = parse_cellword("4321").word
    planted = (morse._schedule(word, descents(word)), 0)
    real = morse._classify
    monkeypatch.setattr(morse, "_classify", lambda schedule, mask:
                        0 if (schedule, mask) == planted else real(schedule, mask))
    assert check_fiber_monotonicity(cx) == (0, 2)


def test_certificate_rejects_swapped_pair():
    # Hom(B_3): pair 123 with (21)3 instead of 213; the pair count is unchanged
    spec = (1, 1, 1)
    cx = chain_product_complex(spec)
    m = match_product_of_chains(cx)
    cert = validate_acyclic(m)
    up, down = key_partners(m)
    upper = parse_cellword("(21)3")
    old, new = down[upper], parse_cellword("123")
    assert new in critical_cells(m)[0]
    assert new in {cx.cells[0][f] for f, _ in cx.faces(*cx.locate(upper))}
    up = {a: b for a, b in up.items() if a != old}
    up[new] = upper
    swapped = MorseMatching.from_pairs(cx, up)
    assert critical_cells(swapped) == {0: (old,), 1: critical_cells(m)[1]}
    assert len(swapped.up) == len(m.up)
    # each certificate reaches only the matching it was issued for
    swapped_cert = validate_acyclic(swapped)
    assert cert.matching is m and swapped_cert.matching is swapped
    assert morse_complex(cert).cells[0] == (new,)
    assert morse_complex(swapped_cert).cells[0] == (old,)


def test_matching_requires_partition():
    # Hom(B_4): each cell is matched at most once, to a cell that exists
    cx = chain_product_complex((1, 1, 1, 1))
    m = match_product_of_chains(cx)
    (crit,) = m.critical[0]
    lower = next(i for i, u in enumerate(m.up[0]) if u >= 0)
    edge = next(j for j, u in enumerate(m.up[1]) if u >= 0)

    def copy_up():
        return {d: array("i", m.up[d]) for d in cx.cells}

    claimed_twice, claimed_up, past_end, short = (copy_up() for _ in range(4))
    claimed_twice[0][crit] = m.up[0][lower]
    claimed_up[0][crit] = edge
    past_end[0][crit] = len(cx.cells[1])
    short[0].pop()
    for ups, message in [(claimed_twice, "claimed twice"),
                         (claimed_up, "claimed and matched up"),
                         (past_end, "up partner out of range at dimension 0"),
                         (short, "up partners for the 24 cells of dimension 0")]:
        with pytest.raises(ValueError, match=message):
            MorseMatching(cx, ups)
    assert MorseMatching(cx, copy_up()).critical == m.critical


def test_matching_cannot_change():
    cx = chain_product_complex((1, 1, 1, 1))
    m = match_product_of_chains(cx)
    lower = next(i for i, u in enumerate(m.up[0]) if u >= 0)
    critical, up = dict(m.critical), {d: bytes(m.up[d]) for d in cx.cells}

    def unchanged():
        return m.critical == critical and {d: bytes(m.up[d]) for d in cx.cells} == up

    with pytest.raises(TypeError):
        m.up[0][lower] = -1
    assert unchanged()
    with pytest.raises(ValueError):
        m._replace(critical={**m.critical, 0: m.critical[0] + (lower,)})
    assert unchanged()
    with pytest.raises(AttributeError):
        m.critical = {}
    assert unchanged()


def test_certificate_is_bound_to_its_matching_object():
    # a second run of the matching has the same pairs, but the certificate
    # was issued for the first object alone
    cx = chain_product_complex((1, 1, 1, 1))
    first, second = match_product_of_chains(cx), match_product_of_chains(cx)
    assert second is not first
    assert key_partners(second) == key_partners(first)
    assert second.critical == first.critical
    cert, second_cert = validate_acyclic(first), validate_acyclic(second)
    assert cert.matching is first and second_cert.matching is second
    assert morse_complex(cert).f_vector() == morse_complex(second_cert).f_vector() == (1, 7, 0)


def test_certificate_is_bound_to_its_complex():
    # a second complex on the same cells with one incidence of dimension 1
    # doubled: the same pairs on it fail the +1/-1 rule, and the certificate
    # of the first complex still reduces the first complex's tables alone
    cx = chain_product_complex((1, 1, 1, 1))
    m = match_product_of_chains(cx)
    tables = {d: FaceTable(array("i", t.ptr), array("i", t.idx), array("b", t.sgn))
              for d, t in cx.boundary.items()}
    tables[1].sgn[0] *= 2
    doubled = CellComplex.from_faces(cx.cells, tables, cx.word_table)
    with pytest.raises(ArithmeticError, match="incidence other than"):
        validate_acyclic(MorseMatching(doubled, {d: array("i", m.up[d]) for d in cx.cells}))
    mc = morse_complex(validate_acyclic(m))
    assert mc.f_vector() == (1, 7, 0)
    assert homology(mc).betti == (1, 7, 0)


def test_matching_refuses_a_missing_dimension():
    cx = chain_product_complex((1, 1, 1))
    m = match_product_of_chains(cx)
    with pytest.raises(ValueError, match=r"dimensions \[0\] of a complex with cells "
                                         r"of dimensions \[0, 1\]"):
        MorseMatching(cx, {0: array("i", m.up[0])})


def test_matching_refuses_an_extra_dimension():
    cx = chain_product_complex((1, 1, 1))
    m = match_product_of_chains(cx)
    ups = {d: array("i", m.up[d]) for d in cx.cells}
    with pytest.raises(ValueError, match=r"dimensions \[0, 1, 2\] of a complex"):
        MorseMatching(cx, {**ups, 2: array("i", [0])})


def test_matching_rejects_a_complex_without_a_spec():
    # Hom(C_3, B_3) built generically: the cells are multihoms, not cell words
    hexagon = hom_complex_generic(chain(3), ideal_lattice(antichain(3)))
    assert hexagon.word_table is None
    with pytest.raises(ValueError, match="chain spec"):
        match_product_of_chains(hexagon)


def test_matching_rejects_swapped_alpha_and_beta_faces():
    # 1(32) releases its pair to its beta face 132; its alpha face 123 is critical
    cx = chain_product_complex((1, 1, 1))
    d, j = cx.locate(parse_cellword("1(32)"))
    ptr, idx, _ = cx.boundary[d]
    assert [render_cellword(cx.cells[0][f]) for f in idx[ptr[j]:ptr[j + 1]]] == ["123", "132"]
    idx[ptr[j]], idx[ptr[j] + 1] = idx[ptr[j] + 1], idx[ptr[j]]
    with pytest.raises(AssertionError, match="inconsistent pair"):
        match_product_of_chains(cx)


def test_matching_rejects_an_unclaimed_lower_cell(monkeypatch):
    # classify the upper cell 1(32) as critical, leaving its lower partner 132 unclaimed
    real = morse._classify
    schedule = morse._schedule((1, 3, 2), (2,))

    def classify(sched, mask):
        return 0 if (sched, mask) == (schedule, 1 << 2) else real(sched, mask)

    monkeypatch.setattr(morse, "_classify", classify)
    with pytest.raises(AssertionError, match="not an involution"):
        matching_of((1, 1, 1))


def test_matching_rejects_a_face_claimed_twice():
    # 1(32) and 2(31) both release the pair at 2; point 2(31)'s beta face at 132 too
    cx = chain_product_complex((1, 1, 1))
    d, j = cx.locate(parse_cellword("2(31)"))
    ptr, idx, _ = cx.boundary[d]
    assert render_cellword(cx.cells[0][idx[ptr[j] + 1]]) == "231"
    idx[ptr[j] + 1] = cx.locate(parse_cellword("132"))[1]
    with pytest.raises(AssertionError, match="inconsistent pair"):
        match_product_of_chains(cx)


def test_complex_and_matching_memory_per_cell():
    # net bytes per cell of the complex and its matching on B_6 (3,690 cells)
    spec = (1,) * 6
    chain_product_complex(spec)  # warm caches of the interpreter
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx = chain_product_complex(spec)
        m = match_product_of_chains(cx)
        net = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 2 * len(m.up) + sum(map(len, m.critical.values())) == cx.n_cells() == 3690
    assert net / cx.n_cells() < 120


def test_matching_memory_per_cell():
    # net heap of the matching alone on B_6 (3,690 cells): one read-only
    # up array of 4 bytes a cell, and the critical cells
    cx = chain_product_complex((1,) * 6)
    match_product_of_chains(cx)  # warm caches of the interpreter
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = match_product_of_chains(cx)
        net = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(m.up) == 1779
    assert net / cx.n_cells() < 7


def test_matching_peak_memory_per_cell():
    # the heap peak of the matching on (2,2,2,3) (72,750 cells): each
    # dimension's up array is handed over as bytes, which MorseMatching
    # keeps without a copy
    cx = chain_product_complex((2, 2, 2, 3))
    match_product_of_chains(cx)  # warm caches of the interpreter
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = match_product_of_chains(cx)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(m.up) == 36178
    assert peak / cx.n_cells() < 9


def test_matching_keeps_bytes_and_copies_anything_else():
    # an exact bytes cannot change, so it is kept; an array is copied
    cx = chain_product_complex((1, 1, 1))
    up = match_product_of_chains(cx).up
    handed = {d: bytes(up[d]) for d in cx.cells}
    assert all(MorseMatching(cx, handed).up[d].obj is handed[d] for d in cx.cells)
    given_arrays = {d: array("i", up[d]) for d in cx.cells}
    m = MorseMatching(cx, given_arrays)
    i = next(i for i, u in enumerate(up[0]) if u >= 0)
    given_arrays[0][i] = -1
    assert m.up[0][i] == up[0][i] >= 0


def all_cells_acyclic(matching, cx):
    """The all-cells rule that validate_acyclic replaced, kept as its
    reference: Kahn's algorithm over every cell of both dimensions of each
    dimension pair, a (d-1)-cell i as node i and a d-cell j as n0 + j."""
    for d in range(1, cx.dim + 1):
        ptr, idx, _ = cx.boundary[d]
        lo_up = matching.up[d - 1]
        n0 = len(cx.cells[d - 1])
        hi_down = [-1] * len(cx.cells[d])
        for i, u in enumerate(lo_up):
            if u >= 0:
                hi_down[u] = i
        indeg = [0] * (n0 + len(cx.cells[d]))
        for f in idx:
            indeg[f] += 1
        for j, i in enumerate(hi_down):
            if i >= 0:
                indeg[i] -= 1
                indeg[n0 + j] = 1
        order = [v for v in range(len(indeg)) if not indeg[v]]
        for v in order:
            if v < n0:
                succ = [n0 + lo_up[v]] if lo_up[v] >= 0 else []
            else:
                j = v - n0
                succ = [f for f in idx[ptr[j]:ptr[j + 1]] if f != hi_down[j]]
            for w in succ:
                indeg[w] -= 1
                if not indeg[w]:
                    order.append(w)
        if len(order) != len(indeg):
            return False
    return True


def random_matching(cx, rng):
    """Every cover in random order that finds both its cells free: a maximal
    matching, which may have cycles."""
    up, used = {}, set()
    for lower, upper in shuffled_covers(cx, rng):
        if lower not in used and upper not in used:
            up[lower] = upper
            used |= {lower, upper}
    return up


def test_pair_digraph_agrees_with_all_cells_kahn():
    rng = random.Random(1812)
    zigzag = ideal_lattice(FinitePoset(5, [(0, 1), (2, 1), (2, 3), (4, 3)]))
    complexes = [chain_product_complex(spec) for spec in [(1, 1, 1), (1, 1, 2), (1, 1, 1, 1)]]
    complexes.append(hom_complex_generic(chain(5), zigzag))
    verdicts = []
    for cx in complexes:
        for k in range(64):
            if k % 4:
                up = random_matching(cx, rng)
                m = MorseMatching.from_pairs(cx, up)
            else:
                m = random_acyclic_matching(cx, rng)
                up = key_partners(m)[0]
            try:
                cert = validate_acyclic(m)
            except AcyclicityError as err:
                assert_alternating_cycle(cx, up, err.cycle)
                cert = None
            assert (cert is not None) == all_cells_acyclic(m, cx)
            verdicts.append(cert is not None)
    assert len(verdicts) >= 200
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 40


def test_validate_acyclic_memory_per_cell():
    # heap peak of certifying B_6's matching (3,690 cells); the certificate
    # keeps one entry per matched pair
    cx = chain_product_complex((1,) * 6)
    m = match_product_of_chains(cx)
    validate_acyclic(m)  # warm caches of the interpreter
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = validate_acyclic(m)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, cert.orders.values())) == len(m.up)
    assert peak / cx.n_cells() < 8
