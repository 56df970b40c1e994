"""The matching algorithm, fiber traces, acyclicity validation."""

import pytest

from homchains import (
    AcyclicityError,
    CellComplex,
    chain_product_complex,
    check_critical_structure,
    check_fiber_monotonicity,
    critical_cells,
    critical_cellword_from_word,
    decompose_descents,
    enumerate_words,
    fiber_trace,
    loop_schedule,
    match_product_of_chains,
    morse_complex,
    parse_cellword,
    render_cellword,
    validate_acyclic,
)
from homchains.morse import MorseMatching, SpecMatchContext


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
    m = match_product_of_chains((2, 2, 2, 2))
    upper = parse_cellword("(21)1(32)344")
    lower = parse_cellword("(21)132344")
    assert m.down[upper] == lower
    assert m.up[lower] == upper


def test_trace_of_sorted_word_is_critical():
    tr = fiber_trace((1, 1, 2), parse_cellword("1233"))
    assert tr.outcome == "critical"
    assert all(k == "b" for _, _, _, k in tr.steps)
    assert len(tr.steps) == 4  # every loop executed


def test_trace_of_paper_critical_cell():
    tr = fiber_trace((1,) * 9, parse_cellword("237(64)9(85)1"))
    assert tr.outcome == "critical"


def test_critical_cells_s3():
    m = match_product_of_chains((1, 1, 1))
    crit = {render_cellword(c) for v in m.critical.values() for c in v}
    assert crit == {"123", "3(21)"}
    assert {w for w in (c.word for v in m.critical.values() for c in v)} == {
        (1, 2, 3), (3, 2, 1)}


def test_single_chain_single_critical_vertex():
    for r in (1, 3, 5):
        m = match_product_of_chains((r,))
        assert m.critical_count() == {0: 1}
        assert m.n_cells == 1


def test_critical_counts_b4():
    m = match_product_of_chains((1, 1, 1, 1))
    assert m.critical_count() == {0: 1, 1: 7}


def test_critical_counts_112():
    m = match_product_of_chains((1, 1, 2))
    assert m.critical_count() == {0: 1, 1: 2}


def test_matched_plus_critical_partitions():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2), (2, 2, 2)]:
        m = match_product_of_chains(spec)
        ncrit = sum(len(v) for v in m.critical.values())
        assert len(m.up) == len(m.down)
        assert 2 * len(m.up) + ncrit == m.n_cells
        for a, b in m.up.items():
            assert m.down[b] == a
            assert b.dim == a.dim + 1
            assert b.word == a.word


def test_pairs_respect_fibers():
    # matched cells share the loop and position at which they were classified
    from homchains.morse import _run_cell
    from homchains import as_spec

    for spec in [(1, 1, 1), (1, 1, 2), (2, 2, 2)]:
        m = match_product_of_chains(spec)
        i = as_spec(spec).i
        for a, b in m.up.items():
            ra, rb = [], []
            _run_cell(a.word, a.pairs, i, record=ra)
            _run_cell(b.word, b.pairs, i, record=rb)
            assert ra[-1][:3] == rb[-1][:3]  # same (r, s, j)
            assert len(ra) == len(rb)


def test_matching_on_given_cells_equals_enumeration():
    for spec in [(1, 1, 2), (2, 2, 2)]:
        cx = chain_product_complex(spec)
        m1 = match_product_of_chains(spec)
        m2 = match_product_of_chains(spec, cells=(c for cs in cx.cells.values() for c in cs))
        assert (m1.up, m1.down, m1.critical, m1.n_cells) == (m2.up, m2.down, m2.critical,
                                                            m2.n_cells)


def test_critical_cells_op():
    m = match_product_of_chains((1, 1, 2))
    assert critical_cells(m) == {0: m.critical[0], 1: m.critical[1]}


def test_bijection_small():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2), (1, 1, 1, 1), (2, 3)]:
        m = match_product_of_chains(spec)
        from_words = {critical_cellword_from_word(w) for w in enumerate_words(spec)
                      if decompose_descents(w).valid}
        from_match = {c for v in m.critical.values() for c in v}
        assert from_words == from_match


def test_validate_acyclic_and_spec_context():
    spec = (1, 1, 2)
    cx = chain_product_complex(spec)
    m = match_product_of_chains(spec)
    cert = validate_acyclic(m, cx)
    assert cert.n_pairs == len(m.up)
    assert set(cert.orders) == {1, 2}
    ctx = SpecMatchContext(spec)
    for a, b in m.up.items():
        assert ctx.up(a) == b and ctx.down(b) == a
    for v in m.critical.values():
        for c in v:
            assert ctx.up(c) is None and ctx.down(c) is None


def test_certificate_orders_are_topological():
    for spec in [(1, 1, 2), (1, 1, 1, 1), (2, 2, 2)]:
        cx = chain_product_complex(spec)
        m = match_product_of_chains(spec)
        cert = validate_acyclic(m, cx)
        for d, order in cert.orders.items():
            pos = {cell: k for k, cell in enumerate(order)}
            assert len(pos) == len(cx.cells[d - 1]) + len(cx.cells[d])
            for upper in cx.cells[d]:
                for f, _ in cx.boundary[upper]:
                    if m.up.get(f) == upper:
                        assert pos[f] < pos[upper]
                    else:
                        assert pos[upper] < pos[f]


def test_validate_acyclic_empty_matching():
    cx = chain_product_complex((1, 1, 1))
    empty = MorseMatching(spec=None, up={}, down={}, critical={}, n_cells=cx.n_cells())
    cert = validate_acyclic(empty, cx)
    assert cert.n_pairs == 0


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
    down = {b: a for a, b in up.items()}
    m = MorseMatching(spec=None, up=up, down=down, critical={}, n_cells=8)
    with pytest.raises(AcyclicityError) as err:
        validate_acyclic(m, cx)
    assert len(err.value.cycle) >= 4


def test_acyclic_matching_on_square_accepted():
    cx = square_complex()
    up = {"v1": "e01", "v2": "e12", "v3": "e23"}
    down = {b: a for a, b in up.items()}
    m = MorseMatching(spec=None, up=up, down=down,
                      critical={0: ("v0",), 1: ("e30",)}, n_cells=8)
    cert = validate_acyclic(m, cx)
    assert cert.n_pairs == 3


def test_matching_must_lie_in_face_relation():
    cx = square_complex()
    up = {"v2": "e01"}
    m = MorseMatching(spec=None, up=up, down={"e01": "v2"}, critical={}, n_cells=8)
    with pytest.raises(ValueError):
        validate_acyclic(m, cx)


def test_fiber_monotonicity_small():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1)]:
        cx = chain_product_complex(spec)
        assert check_fiber_monotonicity(spec, cx) == (0, 0)


def test_critical_structure_small():
    for spec in [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1, 1)]:
        m = match_product_of_chains(spec)
        assert check_critical_structure(m) == []


def test_certificate_rejects_swapped_pair():
    # Hom(B_3): pair 123 with (21)3 instead of 213; the pair count is unchanged
    spec = (1, 1, 1)
    cx = chain_product_complex(spec)
    m = match_product_of_chains(spec)
    cert = validate_acyclic(m, cx)
    cert.check_matches(m)
    upper = parse_cellword("(21)3")
    old, new = m.down[upper], parse_cellword("123")
    assert new in m.critical[0] and new in dict(cx.boundary[upper])
    up = {a: b for a, b in m.up.items() if a != old}
    up[new] = upper
    swapped = MorseMatching(spec=m.spec, up=up, down={b: a for a, b in up.items()},
                            critical={0: (old,), 1: m.critical[1]}, n_cells=m.n_cells)
    assert len(swapped.up) == cert.n_pairs
    with pytest.raises(ValueError, match="certificate"):
        cert.check_matches(swapped)
    with pytest.raises(ValueError, match="certificate"):
        morse_complex(cx, swapped, cert)


def test_certificate_requires_partition():
    spec = (1, 1, 1)
    cx = chain_product_complex(spec)
    m = match_product_of_chains(spec)
    cert = validate_acyclic(m, cx)
    lower = next(iter(m.up))
    overlapping = MorseMatching(spec=m.spec, up=m.up, down=m.down,
                                critical={**m.critical, 0: m.critical[0] + (lower,)},
                                n_cells=m.n_cells + 1)
    short = MorseMatching(spec=m.spec, up=m.up, down=m.down,
                          critical=m.critical, n_cells=m.n_cells + 1)
    for bad in (overlapping, short):
        with pytest.raises(ValueError, match="partition"):
            cert.check_matches(bad)
