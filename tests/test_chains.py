"""Incidence numbers, the d o d check, Smith normal form, homology, and
Morse-complex incidences."""

import heapq
import inspect
import itertools
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from homchains import (
    AcyclicityError,
    CellComplex,
    ComplexMatchContext,
    FinitePoset,
    GradedPoset,
    cellword_to_multihom,
    chain,
    chain_product_complex,
    check_squared,
    critical_cells,
    hom_complex_generic,
    homology,
    ideal_lattice,
    involution_partner,
    match_product_of_chains,
    maximal_chain_complex,
    morse_complex,
    parse_cellword,
    path_censuses,
    render_cellword,
    signed_faces,
    smith_normal_form,
    validate_acyclic,
)
from homchains import chains
from homchains.chains import _dense_snf, path_steps, path_weight
from homchains.columns import pairwise, uncleared
from homchains.complexes import FaceTable, _generic_signed_faces
from homchains.morse import CertificationError, MorseMatching, SpecMatchContext
from homchains.words import release


# -- incidence ------------------------------------------------------------


def test_pair_incidence_worked_example():
    cw = parse_cellword("(64)5(32)(71)")
    signs = {render_cellword(f): s for f, s in signed_faces(cw)}
    assert signs["(64)532(71)"] == -1   # pair 2, beta
    assert signs["(64)523(71)"] == 1    # pair 2, alpha
    assert len(signs) == 2 * len(cw.pairs)


def test_pair_incidence_opposite_signs():
    cw = parse_cellword("(64)5(32)(71)")
    got = signed_faces(cw)
    assert [f for f, _ in got] == [release(cw, t, order) for t in (1, 2, 3)
                                   for order in ("alpha", "beta")]
    for t in (1, 2, 3):
        (_, s_alpha), (_, s_beta) = got[2 * t - 2:2 * t]
        assert s_alpha == -s_beta


def generic_signs(eta):
    """The facets of a multihom and their signs under the generic Hom's rule."""
    return dict(_generic_signed_faces(eta))


def test_incidence_worked_example():
    spec = (1,) * 7
    eta = cellword_to_multihom(parse_cellword("(64)5(32)(71)"), spec)
    tau_beta = cellword_to_multihom(parse_cellword("(64)532(71)"), spec)
    tau_alpha = cellword_to_multihom(parse_cellword("(64)523(71)"), spec)
    assert generic_signs(eta)[tau_beta] == -1
    assert generic_signs(eta)[tau_alpha] == 1


def test_incidence_non_facet_is_zero():
    spec = (1, 1, 1)
    a = cellword_to_multihom(parse_cellword("123"), spec)
    b = cellword_to_multihom(parse_cellword("213"), spec)
    assert generic_signs(b).get(a, 0) == 0


@pytest.mark.parametrize("spec", [(1, 1, 1), (2, 2), (1, 1, 2), (1, 1, 1, 1)])
def test_pair_incidence_agrees_with_multihom_incidence(spec):
    for cells in chain_product_complex(spec).cells.values():
        for cw in cells:
            want = generic_signs(cellword_to_multihom(cw, spec))
            got = signed_faces(cw)
            assert len(got) == 2 * len(cw.pairs) == len(want)
            for face, sign in got:
                assert sign == want[cellword_to_multihom(face, spec)]


# -- Smith normal form ----------------------------------------------------


def face_table(rows):
    """The FaceTable whose column j lists the nonzero entries of column j of rows."""
    ptr, idx, sgn = [0], [], []
    for col in zip(*rows):
        for i, v in enumerate(col):
            if v:
                idx.append(i)
                sgn.append(v)
        ptr.append(len(idx))
    return FaceTable(ptr, idx, sgn)


def test_snf_trivial_examples():
    assert smith_normal_form(face_table([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == ((1, 1, 1), 3)
    assert smith_normal_form(face_table([[2, 0], [0, 0]])) == ((2,), 1)
    assert smith_normal_form(face_table([[0, 0], [0, 0]])) == ((), 0)


def test_snf_classic():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_normal_form(face_table(rows)).factors == (2, 2, 156)


def test_snf_divisibility_mix():
    assert smith_normal_form(face_table([[2, 0], [0, 3]])).factors == (1, 6)


def sympy_factors(rows):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d = sympy_snf(Matrix(rows), domain=ZZ)
    return sorted(abs(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_against_sympy(rows):
    from sympy import Matrix

    got = smith_normal_form(face_table(rows))
    assert list(got.factors) == sympy_factors(rows)
    assert got.rank == Matrix(rows).rank()


# mostly zeros, so that unit pivots meet fill-in and leave non-unit residues
SPARSE_ENTRY = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3))


@st.composite
def sparse_rows(draw, max_rows=10, max_cols=12):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return draw(st.lists(st.lists(SPARSE_ENTRY, min_size=n, max_size=n),
                         min_size=m, max_size=m))


def dense(table, nrows):
    """The face table as a dense matrix with one row per face."""
    ptr, idx, sgn = table
    out = [[0] * (len(ptr) - 1) for _ in range(nrows)]
    for j in range(len(ptr) - 1):
        for k in range(ptr[j], ptr[j + 1]):
            out[idx[k]][j] = sgn[k]
    return out


@settings(max_examples=80, deadline=None)
@given(sparse_rows())
def test_snf_sparse_against_sympy(rows):
    got = smith_normal_form(face_table(rows))
    assert list(got.factors) == sympy_factors(rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_snf_invariant_under_permutation_and_transpose(data):
    rows = data.draw(sparse_rows())
    rperm = data.draw(st.permutations(range(len(rows))))
    cperm = data.draw(st.permutations(range(len(rows[0]))))
    want = smith_normal_form(face_table(rows))
    permuted = [[rows[i][j] for j in cperm] for i in rperm]
    transposed = [list(col) for col in zip(*rows)]
    assert smith_normal_form(face_table(permuted)) == want
    assert smith_normal_form(face_table(transposed)) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_dense_snf_returns_a_positive_divisibility_chain(rows):
    factors = _dense_snf([list(r) for r in rows])
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def block_diagonal(*blocks):
    n = sum(len(b[0]) for b in blocks)
    out = []
    offset = 0
    for b in blocks:
        for row in b:
            out.append([0] * offset + list(row) + [0] * (n - offset - len(row)))
        offset += len(b[0])
    return out


@pytest.mark.parametrize("rows, factors", [
    # a unit block beside residues that no unit pivot touches
    (block_diagonal([[1, 1, 0], [0, 1, -1]], [[2, 4], [6, 8]]), (1, 1, 2, 4)),
    (block_diagonal([[1, -1], [0, 1]], [[2, 0], [0, 3]]), (1, 1, 1, 6)),  # residue factor 1
    (block_diagonal([[-1]], [[2, 0], [0, 3]], [[4]]), (1, 1, 2, 12)),
    # the residue appears only through elimination: 1 - 2*2 = -3
    ([[1, 2], [2, 1]], (1, 3)),
    ([[1, 1, 1], [1, -1, 1], [1, 1, -1]], (1, 2, 2)),
])
def test_snf_unit_elimination_leaves_residue(rows, factors):
    got = smith_normal_form(face_table(rows))
    assert got.factors == factors
    assert list(got.factors) == sympy_factors(rows)


# -- face tables and homology -----------------------------------------------


def test_hexagon_boundary():
    cx = chain_product_complex((1, 1, 1))
    m = dense(cx.boundary[1], len(cx.cells[0]))
    assert (len(m), len(m[0])) == (6, 6)
    for j in range(6):
        assert sum(m[i][j] for i in range(6)) == 0
    assert smith_normal_form(cx.boundary[1]).rank == 5


def test_b4_boundary_shapes_and_square():
    cx = chain_product_complex((1, 1, 1, 1))
    d1 = dense(cx.boundary[1], len(cx.cells[0]))
    d2 = dense(cx.boundary[2], len(cx.cells[1]))
    assert (len(d1), len(d1[0])) == (24, 36)
    assert (len(d2), len(d2[0])) == (36, 6)
    assert all(sum(a * b for a, b in zip(row, col)) == 0 for row in d1 for col in zip(*d2))


def test_b6_boundary_snf_ranks_pinned():
    cx = chain_product_complex((1,) * 6)
    assert cx.f_vector() == (720, 1800, 1080, 90)
    ranks = {}
    for d, table in cx.boundary.items():
        snf = smith_normal_form(table)
        assert set(snf.factors) == {1}
        ranks[d] = snf.rank
    assert ranks == {1: 719, 2: 970, 3: 90}


@pytest.mark.parametrize("spec", [(1,) * 6, (1,) * 7, (2, 2, 2, 3), (3, 3, 3)])
def test_unit_pass_leaves_no_dense_residue_on_spec_tables(spec, monkeypatch):
    # the column pass reaches full rank with unit pivots alone, so the dense
    # O(n^3) reduction gets an empty matrix from every boundary table
    seen = []

    def dense_snf(A):
        seen.append(A)
        return _dense_snf(A)

    monkeypatch.setattr(chains, "_dense_snf", dense_snf)
    cx = chain_product_complex(spec)
    for table in cx.boundary.values():
        assert set(smith_normal_form(table).factors) == {1}
    assert seen == [[]] * len(cx.boundary)


def partition_lattice(n):
    """The partitions of {0, ..., n - 1} ordered by refinement, ranked by n - #blocks."""
    parts = [frozenset()]
    for x in range(n):
        parts = ([p - {b} | {b | {x}} for p in parts for b in p]
                 + [p | {frozenset({x})} for p in parts])
    index = {p: i for i, p in enumerate(parts)}
    covers = [(index[p], index[p - {a, b} | {a | b}])
              for p in parts for a, b in itertools.combinations(p, 2)]
    return GradedPoset(len(parts), covers, [n - len(p) for p in parts])


@pytest.mark.parametrize("build, betti", [
    (lambda: hom_complex_generic(chain(3), ideal_lattice(FinitePoset(4, []))),
     (1, 0, 1, 0, 0, 0)),
    (lambda: hom_complex_generic(chain(4), ideal_lattice(FinitePoset(5, []))),
     (1, 0, 9, 0, 0, 0, 0)),
    (lambda: maximal_chain_complex(partition_lattice(4)), (1, 6, 0)),
    (lambda: maximal_chain_complex(partition_lattice(5)), (1, 86, 0, 0, 0)),
], ids=["Hom(C_4,B_4)", "Hom(C_5,B_5)", "Pi_4", "Pi_5"])
def test_snf_homology_of_complexes_outside_the_cubical_model(build, betti):
    h = homology(build())
    assert h.betti == betti
    assert h.torsion_free


def test_snf_homology_of_spec_2223_equals_its_morse_homology():
    cx = chain_product_complex((2, 2, 2, 3))
    got = homology(cx)
    want = homology(morse_complex(validate_acyclic(match_product_of_chains(cx))))
    assert (got.betti, got.torsion) == (want.betti, want.torsion)
    assert got.betti == (1, 116, 271, 6, 0)
    assert got.torsion_free


def test_single_vertex_no_matrices():
    cx = chain_product_complex((3,))
    assert cx.f_vector() == (1,)
    assert cx.boundary == {}
    assert homology(cx).betti == (1,)


def test_homology_values():
    assert homology(chain_product_complex((1, 1, 1))).betti == (1, 1)
    h4 = homology(chain_product_complex((1, 1, 1, 1)))
    assert h4.betti == (1, 7, 0)
    assert h4.torsion_free
    assert h4.euler == -6
    for spec in [(1, 2), (2, 2), (3, 4)]:
        h = homology(chain_product_complex(spec))
        assert h.betti[0] == 1 and all(b == 0 for b in h.betti[1:])


def test_boundary_squared_check_trips_on_bad_signs():
    cx = chain_product_complex((2, 2))
    ptr, _idx, sgn = cx.boundary[2]
    for k in range(ptr[0], ptr[1]):
        sgn[k] = abs(sgn[k])  # break the orientation of the first 2-cell
    with pytest.raises(ArithmeticError, match="boundary squared is nonzero at dimension 2"):
        check_squared(cx)
    with pytest.raises(ArithmeticError, match="boundary squared is nonzero at dimension 2"):
        homology(cx)


@pytest.mark.parametrize("faces, message", [
    ((("v", -1), ("v", 1)), "repeated facet"),
    ((("v", -1), ("w", 2)), "incidence other than"),
])
def test_malformed_face_table_is_rejected(faces, message):
    # the d o d check rejects a repeated facet; an incidence of 2 passes it,
    # and certifying a matching that pairs w with e along it rejects it
    cx = CellComplex({0: ["v", "w"], 1: ["e"]}, {"v": (), "w": (), "e": faces})
    if message == "repeated facet":
        with pytest.raises(ArithmeticError, match=message):
            check_squared(cx)
    else:
        check_squared(cx)
        with pytest.raises(ArithmeticError, match=message):
            validate_acyclic(MorseMatching.from_pairs(cx, {"w": "e"}))


def test_face_index_out_of_range_is_rejected():
    # every entry of the Hom(B_4) face tables, pointed below and past cells[d - 1]
    cx = chain_product_complex((1, 1, 1, 1))
    m = match_product_of_chains(cx)
    for d, table in cx.boundary.items():
        idx = table.idx
        for k in range(len(idx)):
            kept = idx[k]
            for bad in (-1, len(cx.cells[d - 1])):
                idx[k] = bad
                with pytest.raises(ArithmeticError, match="out of range"):
                    check_squared(cx)
                with pytest.raises(ValueError, match="out of range"):
                    validate_acyclic(m)
            idx[k] = kept
    check_squared(cx)
    validate_acyclic(m)
    # an up partner past cells[1] is caught when the matching is built
    ups = {d: array("i", m.up[d]) for d in cx.cells}
    ups[0][next(a for a, u in enumerate(ups[0]) if u >= 0)] = len(cx.cells[1]) + 5
    with pytest.raises(ValueError, match="up partner out of range at dimension 0"):
        MorseMatching(cx, ups)


def test_homology_rejects_repeated_facets_and_takes_integer_incidences():
    # a face listed twice would be read as one matrix entry, so SNF never sees it
    cx = CellComplex({0: ["v", "w"], 1: ["e"]}, {"v": (), "w": (), "e": (("v", -1), ("v", 1))})
    with pytest.raises(ArithmeticError, match="repeated facet"):
        homology(cx)
    # incidences of +-2, as a Morse complex may have: Z/2 torsion in dimension 0
    cx = CellComplex({0: ["v", "w"], 1: ["e"]}, {"v": (), "w": (), "e": (("v", 2), ("w", -2))})
    h = homology(cx)
    assert (h.betti, h.torsion) == ((1, 0), ((2,), ()))


def squared_verdict(cx):
    """The message check_squared raises on cx, or None when it passes."""
    try:
        check_squared(cx)
    except ArithmeticError as err:
        return str(err)
    return None


def with_array_pointers(cx):
    """cx with every ptr an array('i') copy: tables the column pass of
    check_squared does not read, so the per-cell loop checks every cell."""
    faces = {d: FaceTable(array("i", t.ptr), t.idx, t.sgn) for d, t in cx.boundary.items()}
    return CellComplex.from_faces(cx.cells, faces, cx.word_table)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1, 1, 1), (2, 2, 2), (1, 1, 1, 2), (1, 1, 1, 1, 1)]),
       st.sampled_from(["flip", "move"]), st.data())
def test_face_check_agrees_with_matrix_product(spec, mutation, data):
    # flip one sign of a cell of dimension d >= 2, or move one face of a cell
    # of dimension d >= 1 to another in-range (d-1)-cell.  The column pass
    # and the per-cell loop alone (array pointers) give one verdict: a
    # repeated facet at d, or else the lowest dimension e whose dense
    # product d_(e-1) d_e is nonzero, which is d itself for a flipped sign
    cx = chain_product_complex(spec)
    check_squared(cx)
    d = data.draw(st.integers(2 if mutation == "flip" else 1, cx.dim))
    ptr, idx, sgn = cx.boundary[d]
    k = data.draw(st.integers(0, len(idx) - 1))
    if mutation == "flip":
        sgn[k] = -sgn[k]
    else:
        other = data.draw(st.integers(0, len(cx.cells[d - 1]) - 2))
        idx[k] = other + (other >= idx[k])
    got = squared_verdict(cx)
    assert squared_verdict(with_array_pointers(cx)) == got
    idx.append(0)  # a check that raised leaves no buffer export behind
    idx.pop()
    j = k // (2 * d)
    if len(set(idx[ptr[j]:ptr[j + 1]])) < 2 * d:
        assert got == f"repeated facet in boundary at dimension {d}"
        return
    nonzero = [e for e in range(2, cx.dim + 1)
               if dense_product_is_nonzero(dense(cx.boundary[e - 1], len(cx.cells[e - 2])),
                                           dense(cx.boundary[e], len(cx.cells[e - 1])))]
    assert got == (f"boundary squared is nonzero at dimension {nonzero[0]}" if nonzero else None)
    if mutation == "flip":
        assert nonzero[0] == d


@pytest.mark.parametrize("spec", [(1,) * 5, (2, 2, 2)])
@pytest.mark.parametrize("change", ["negate", "swap"])
def test_tables_the_column_pass_cannot_clear_still_pass(spec, change):
    # in one top-dimensional cell, negate all 2d signs, or swap the face
    # blocks of its first and last pairs, indices and signs together: d o d
    # stays 0 and the homology is unchanged, but the cell no longer lists its
    # faces as the column pass reads them, so the per-cell loop decides it.
    # On B_5 (d = 2) both changes break a sign column; on (2,2,2) (d = 3)
    # the swap keeps them and breaks the pairing of that cell alone
    want = homology(chain_product_complex(spec))
    cx = chain_product_complex(spec)
    assert all(uncleared(cx, e) == [] for e in cx.boundary)
    d = cx.dim
    table = cx.boundary[d]
    j = len(cx.cells[d]) // 2
    lo = table.ptr[j]
    if change == "negate":
        for k in range(lo, lo + 2 * d):
            table.sgn[k] = -table.sgn[k]
    else:
        for x in (0, 1):
            p, q = lo + x, lo + 2 * (d - 1) + x
            table.idx[p], table.idx[q] = table.idx[q], table.idx[p]
            table.sgn[p], table.sgn[q] = table.sgn[q], table.sgn[p]
    assert j in uncleared(cx, d)
    check_squared(cx)
    assert homology(cx) == want
    # a check that raised leaves no buffer export behind: the tables resize
    table.idx[lo] = table.idx[lo + 1]
    with pytest.raises(ArithmeticError, match=f"repeated facet in boundary at dimension {d}"):
        check_squared(cx)
    for t in cx.boundary.values():
        t.idx.append(0)
        t.idx.pop()
        t.sgn.append(0)
        t.sgn.pop()


def dense_product_is_nonzero(lower, upper):
    """Whether the matrix product lower . upper has a nonzero entry; each
    column of upper is multiplied through its nonzero rows only."""
    for col in zip(*upper):
        support = [(f, v) for f, v in enumerate(col) if v]
        if any(sum(row[f] * v for f, v in support) for row in lower):
            return True
    return False


def test_check_squared_memory_per_cell():
    # heap peak of the full-complex d o d check on B_6 (3,690 cells): it keeps
    # one small accumulator per cell, not a copy of a face table
    cx = chain_product_complex((1,) * 6)
    check_squared(cx)  # warm caches of the interpreter
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        check_squared(cx)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / cx.n_cells() < 2


def test_morse_complex_memory_per_cell():
    # heap peak of the Morse complex of B_7 (35,280 cells): one flow code and
    # one mark per (d-1)-cell of one dimension at a time, and the result
    cx = chain_product_complex((1,) * 7)
    cert = validate_acyclic(match_product_of_chains(cx))
    morse_complex(cert)  # warm caches of the interpreter
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        morse_complex(cert)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / cx.n_cells() < 4


@st.composite
def small_specs(draw, max_sum=7):
    """Sorted chain lengths with sum at most max_sum."""
    rest = draw(st.integers(1, max_sum))
    parts = []
    while rest:
        parts.append(draw(st.integers(1, rest)))
        rest -= parts[-1]
    return tuple(sorted(parts))


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_morse_homology_equals_full_homology(spec):
    cx = chain_product_complex(spec)
    m = match_product_of_chains(cx)
    mc = morse_complex(validate_acyclic(m))
    got, want = homology(mc), homology(cx)
    assert (got.betti, got.torsion, got.euler) == (want.betti, want.torsion, want.euler)
    assert got.euler == cx.euler_characteristic()


# -- Morse incidences -------------------------------------------------------


def interval_matching():
    verts = ["v0", "v1", "v2"]
    edges = ["e01", "e12"]
    boundary = {v: () for v in verts}
    boundary["e01"] = (("v0", -1), ("v1", 1))
    boundary["e12"] = (("v1", -1), ("v2", 1))
    cx = CellComplex({0: verts, 1: edges}, boundary)
    m = MorseMatching.from_pairs(cx, {"v1": "e01"})
    assert critical_cells(m) == {0: ("v0", "v2"), 1: ("e12",)}
    return cx, m


def test_morse_incidence_with_direct_and_path_terms():
    cx, m = interval_matching()
    cert = validate_acyclic(m)
    # v2 is a face of e12 that no path reaches, v0 one path's end and no face
    d, j = cx.locate("e12")
    assert {cx.cells[d - 1][i]: s for i, s in cx.faces(d, j)} == {"v1": -1, "v2": 1}
    assert ComplexMatchContext(cert, d).facets(j) == cx.faces(d, j)
    censuses = path_censuses(cert)
    assert list(censuses) == [("e12", "v0")]
    census = censuses[("e12", "v0")]
    assert census.paths == (("e12", "v1", "e01", "v0"),)
    assert census.weights == (-1,) and census.total == -1 and census.pairing is None
    mc = morse_complex(cert)
    assert dense(mc.boundary[1], 2) == [[-1], [1]]
    assert homology(mc).betti == (1, 0) == tuple(homology(cx).betti)


def shuffled_covers(cx, rng):
    """Every (face, cell) pair of cx, as cell keys, in random order."""
    covers = [(cx.cells[d - 1][f], cx.cells[d][j]) for d in range(1, cx.dim + 1)
              for j in range(len(cx.cells[d])) for f, _ in cx.faces(d, j)]
    rng.shuffle(covers)
    return covers


def random_acyclic_matching(cx, rng):
    """A random acyclic matching of cx: the covers are offered in random
    order and each is kept when both its cells are free and the matching
    stays acyclic, until a random number of pairs is reached."""
    covers = shuffled_covers(cx, rng)
    want = rng.randint(1, len(covers))
    up, used = {}, set()
    for lower, upper in covers:
        if lower in used or upper in used:
            continue
        try:
            validate_acyclic(MorseMatching.from_pairs(cx, {**up, lower: upper}))
        except AcyclicityError:
            continue
        up[lower] = upper
        used |= {lower, upper}
        if len(up) == want:
            break
    return MorseMatching.from_pairs(cx, up)


def reduced_morse_complex(certificate):
    """The Morse complex by a per-cell reduction, the reference for
    chains.morse_complex: each critical d-cell's boundary is reduced on a
    heap, pairs in the certificate's order first, then the other (d-1)-cells
    by index.  The
    earliest cell with a nonzero coefficient c is taken off: a critical one
    keeps c as its entry, one matched downward is dropped, and one matched
    up to u adds -c [a:u] [g:u] to each other face g of u."""
    matching = certificate.matching
    cx = matching.cx
    crit = {d: matching.critical.get(d, ()) for d in range(cx.dim + 1)}
    tables = {}
    for d in range(1, cx.dim + 1):
        mptr, midx, msgn = array("i", [0]) * (len(crit[d]) + 1), array("i"), []
        row = {tau: r for r, tau in enumerate(crit[d - 1])}
        ptr, idx, sgn = cx.boundary[d]
        up, order = matching.up[d - 1], certificate.orders[d]
        n = len(order)
        pos = array("i", range(n, n + len(cx.cells[d - 1])))
        for k, a in enumerate(order):
            pos[a] = k
        for col, sigma in enumerate(crit[d] if row else ()):
            coef = {}
            for g, s in cx.faces(d, sigma):
                coef[g] = coef.get(g, 0) + s
            heap = [pos[g] for g in coef]
            heapq.heapify(heap)
            while heap:
                key = heapq.heappop(heap)
                a = order[key] if key < n else key - n
                c = coef.pop(a)
                if c and a in row:
                    midx.append(row[a])
                    msgn.append(c)
                elif c and up[a] >= 0:
                    faces = cx.faces(d, up[a])
                    k = -c * dict(faces)[a]
                    for g, t in faces:
                        if g != a:
                            if g not in coef:
                                coef[g] = 0
                                heapq.heappush(heap, pos[g])
                            coef[g] += k * t
            mptr[col + 1] = len(midx)
        tables[d] = FaceTable(mptr, midx, msgn)
    cells = {d: tuple(cx.cells[d][i] for i in crit[d]) for d in crit}
    return CellComplex.from_faces(cells, tables)


def assert_same_as_reduction(certificate):
    """morse_complex(certificate) has the reduction's cells and, per
    dimension, its ptr, idx and sgn entry for entry."""
    got, want = morse_complex(certificate), reduced_morse_complex(certificate)
    assert got.cells == want.cells
    assert list(got.boundary) == list(want.boundary)
    for d, (ptr, idx, sgn) in want.boundary.items():
        assert got.boundary[d] == (ptr, idx, sgn)
        assert list(map(type, got.boundary[d])) == [array, array, list]
    return got


@pytest.mark.parametrize("spec", [(1,) * 6, (2, 2, 2), (1, 1, 2, 2)])
def test_morse_complex_equals_the_reduction_on_spec_matchings(spec):
    cx = chain_product_complex(spec)
    assert_same_as_reduction(validate_acyclic(match_product_of_chains(cx)))


@pytest.mark.parametrize("spec", [(1,) * 6, (2, 2, 2), (1, 1, 2, 2)])
def test_stride_and_pointer_reads_agree(spec):
    # a spec complex's tables are read by stride, the same tables with array
    # pointers through ptr: given the same up partners, the certificate and
    # the Morse complex come out the same on both
    cx = chain_product_complex(spec)
    ax = with_array_pointers(cx)
    for d in cx.boundary:
        assert pairwise(cx.boundary[d], 2 * d, len(cx.cells[d]))
        assert not pairwise(ax.boundary[d], 2 * d, len(ax.cells[d]))
    m = match_product_of_chains(cx)
    am = MorseMatching(ax, {d: m.up[d] for d in ax.cells})
    cert, acert = validate_acyclic(m), validate_acyclic(am)
    assert cert.orders == acert.orders
    got, want = assert_same_as_reduction(cert), assert_same_as_reduction(acert)
    assert got.cells == want.cells and got.boundary == want.boundary


def test_matching_refuses_tables_not_listed_pair_by_pair():
    # the matching reads each partner by stride alone: the same spec complex
    # with array pointers is refused, as a complex without a word table is
    with pytest.raises(ValueError, match="chain spec"):
        match_product_of_chains(with_array_pointers(chain_product_complex((2, 2, 2))))


def test_stride_reads_reject_a_moved_beta_face():
    # 2-cell u of (2,2,2) releases its second pair to its beta face a, at
    # position 3 of its faces; moved to another 1-cell, a is no face of u
    cx = chain_product_complex((2, 2, 2))
    m = match_product_of_chains(cx)
    ptr, idx, _ = table = cx.boundary[2]
    a, u = next((a, u) for a, u in enumerate(m.up[1]) if u >= 0 and idx[4 * u + 3] == a)
    idx[4 * u + 3] = (a + 1) % len(cx.cells[1])
    assert pairwise(table, 4, len(cx.cells[2])) and ptr[u] == 4 * u
    with pytest.raises(CertificationError, match="is not a cover in the complex"):
        validate_acyclic(m)
    with pytest.raises(AssertionError, match="inconsistent pair"):
        match_product_of_chains(cx)


def test_morse_complex_equals_the_reduction_on_random_matchings():
    # the matchings test_morse_complex_equals_path_sums_on_random_matchings
    # draws: the same seed, complexes and order of draws
    rng = random.Random(20141)
    zigzag = ideal_lattice(FinitePoset(5, [(0, 1), (2, 1), (2, 3), (4, 3)]))
    complexes = [chain_product_complex(spec) for spec in [(1, 1, 1), (1, 1, 2), (1, 1, 1, 1)]]
    complexes.append(hom_complex_generic(chain(5), zigzag))
    n_matchings = 0
    for cx in complexes:
        for _ in range(60):
            assert_same_as_reduction(validate_acyclic(random_acyclic_matching(cx, rng)))
            n_matchings += 1
    assert n_matchings == 240


def assert_sorted_and_located(cx):
    """Each cells[d] of cx is sorted, the rule locate bisects by, and
    locate finds each of its cells where it is."""
    for d, cells in cx.cells.items():
        cells = list(cells)
        assert cells == sorted(cells)
        for i, cell in enumerate(cells):
            assert cx.locate(cell) == (d, i)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=7)
       .map(sorted).filter(lambda spec: sum(spec) <= 7))
def test_spec_cells_are_sorted_and_located(spec):
    cx = chain_product_complex(spec)
    assert_sorted_and_located(cx)
    assert_sorted_and_located(morse_complex(validate_acyclic(match_product_of_chains(cx))))


def test_cells_of_every_builder_are_sorted_and_located():
    rng = random.Random(34)
    zigzag = hom_complex_generic(chain(5), ideal_lattice(
        FinitePoset(5, [(0, 1), (2, 1), (2, 3), (4, 3)])))
    m3 = GradedPoset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], rank=[0, 1, 1, 1, 2])
    assert_sorted_and_located(zigzag)
    assert_sorted_and_located(hom_complex_generic(chain(2), m3))
    for cx in (zigzag, chain_product_complex((1, 1, 2))):
        matching = random_acyclic_matching(cx, rng)
        assert sum(map(len, matching.critical.values())) < cx.n_cells()
        assert_sorted_and_located(morse_complex(validate_acyclic(matching)))
    # the key-level constructor sorts the keys it is given in reverse order
    rp2 = projective_plane()
    cells = {d: cs[::-1] for d, cs in rp2.cells.items()}
    boundary = {c: tuple((rp2.cells[d - 1][f], s) for f, s in rp2.faces(d, i))
                for d, cs in rp2.cells.items() for i, c in enumerate(cs)}
    cx = CellComplex(cells, boundary)
    assert cx.cells == rp2.cells
    assert_sorted_and_located(cx)


class InOrder:
    """A stand-in for random.Random that leaves the covers in order and
    asks for every pair: random_acyclic_matching then makes the greedy
    maximal acyclic matching, covers taken by dimension, cell and face."""

    @staticmethod
    def shuffle(covers):
        pass

    @staticmethod
    def randint(lo, hi):
        return hi


def projective_plane():
    """The 6-vertex triangulation of RP^2, its simplices as sorted vertex
    tuples, with simplicial signs: the face without the k-th vertex has
    sign (-1)^k."""
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    cells = {d: sorted({s for f in facets for s in itertools.combinations(f, d + 1)})
             for d in range(3)}
    boundary = {s: tuple((s[:k] + s[k + 1:], (-1) ** k) for k in range(len(s)) if d)
                for d in cells for s in cells[d]}
    return CellComplex(cells, boundary)


def test_morse_complex_keeps_the_torsion_of_the_projective_plane():
    cx = projective_plane()
    assert cx.f_vector() == (6, 15, 10)
    mc = assert_same_as_reduction(validate_acyclic(random_acyclic_matching(cx, InOrder())))
    got, want = homology(mc), homology(cx)
    assert want.torsion == ((), (2,), ()) and want.betti == (1, 0, 0)
    assert (got.betti, got.torsion) == (want.betti, want.torsion)
    assert any(abs(s) == 2 for t in mc.boundary.values() for s in t.sgn)


def test_morse_complex_equals_path_sums_on_random_matchings():
    rng = random.Random(20141)
    zigzag = ideal_lattice(FinitePoset(5, [(0, 1), (2, 1), (2, 3), (4, 3)]))
    complexes = [chain_product_complex(spec) for spec in [(1, 1, 1), (1, 1, 2), (1, 1, 1, 1)]]
    complexes.append(hom_complex_generic(chain(5), zigzag))
    n_matchings = n_nonzero = n_by_paths = n_generic = 0
    for cx in complexes:
        for _ in range(60):
            m = random_acyclic_matching(cx, rng)
            cert = validate_acyclic(m)
            mc = morse_complex(cert)
            censuses = path_censuses(cert)
            if cx.word_table is None:  # no cell-word face positions to pair by
                n_generic += len(censuses)
                assert all(c.pairing is None for c in censuses.values())
            by_paths = False
            for d in range(1, cx.dim + 1):
                entries = dense(mc.boundary[d], len(mc.cells[d - 1]))
                assert 0 not in mc.boundary[d].sgn
                for c, sigma in enumerate(mc.cells[d]):
                    direct = dict(cx.faces(d, m.critical[d][c]))
                    for r, tau in enumerate(mc.cells[d - 1]):
                        census = censuses.get((sigma, tau))
                        total = 0 if census is None else census.total
                        assert entries[r][c] == direct.get(m.critical[d - 1][r], 0) + total
                        by_paths |= total != 0
            n_matchings += 1
            n_nonzero += any(t.idx for t in mc.boundary.values())
            n_by_paths += by_paths
    assert n_matchings >= 200
    assert 2 * n_nonzero > n_matchings and 2 * n_by_paths > n_matchings
    assert n_generic > 0


def hexagon_fence_matching():
    cx = chain_product_complex((1, 1, 1))
    pc = parse_cellword
    up = {pc("213"): pc("(21)3"), pc("231"): pc("2(31)"), pc("321"): pc("(32)1"),
          pc("312"): pc("3(21)"), pc("132"): pc("(31)2")}
    m = MorseMatching.from_pairs(cx, up)
    assert critical_cells(m) == {0: (pc("123"),), 1: (pc("1(32)"),)}
    return cx, m


def test_morse_complex_on_hand_built_circle_matching():
    cx, m = hexagon_fence_matching()
    cert = validate_acyclic(m)
    mc = morse_complex(cert)
    assert isinstance(mc, CellComplex)
    assert mc.f_vector() == (1, 1)
    assert mc.cells == {0: (parse_cellword("123"),), 1: (parse_cellword("1(32)"),)}
    assert not mc.boundary[1].idx  # direct term cancels the long path
    assert homology(mc).betti == (1, 1)


def test_morse_complex_homology_matches_full():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2), (2, 2, 2), (1, 1, 1, 1)]:
        cx = chain_product_complex(spec)
        m = match_product_of_chains(cx)
        cert = validate_acyclic(m)
        mc = morse_complex(cert)
        censuses = path_censuses(cert)
        assert not any(t.idx for t in mc.boundary.values())
        h_full = homology(cx)
        h_morse = homology(mc)
        assert h_full.betti == h_morse.betti
        assert h_full.torsion_free and h_morse.torsion_free
        for census in censuses.values():
            assert len(census.paths) > 0
            assert census.total == 0
            assert census.pairing is not None
            assert len(census.paths) % 2 == 0


def test_no_census_without_a_certificate():
    # a square v0 v1 v2 v3 with a chord f and an edge g out to w; each v_i is
    # matched to the edge that leaves it, so a walk from g or f along the
    # pairs goes round the square for ever: the matching has no certificate,
    # and a census or a ComplexMatchContext takes nothing else (the context
    # also takes the upper dimension of the cells it walks between)
    ends = {"e01": ("v0", "v1"), "e12": ("v1", "v2"), "e23": ("v2", "v3"),
            "e30": ("v3", "v0"), "f": ("v0", "v2"), "g": ("v0", "w")}
    boundary = {v: () for v in ("v0", "v1", "v2", "v3", "w")}
    boundary.update({e: ((a, -1), (b, 1)) for e, (a, b) in ends.items()})
    cx = CellComplex({0: ["v0", "v1", "v2", "v3", "w"], 1: list(ends)}, boundary)
    m = MorseMatching.from_pairs(cx, {"v0": "e01", "v1": "e12", "v2": "e23", "v3": "e30"})
    assert critical_cells(m) == {0: ("w",), 1: ("f", "g")}
    with pytest.raises(AcyclicityError) as err:
        validate_acyclic(m)
    assert len(err.value.cycle) == 8
    assert list(inspect.signature(path_censuses).parameters) == ["certificate"]
    assert list(inspect.signature(ComplexMatchContext).parameters) == ["certificate", "d"]


def test_paper_alternating_path_involution():
    # the displayed path pair between critical cells of Hom(B_9)
    ctx = SpecMatchContext((1,) * 9)
    pc = parse_cellword
    c = tuple(pc(s) for s in [
        "7(63)9(81)5(42)", "7(63)9(81)542", "7(63)9(81)(54)2",
        "7(63)918(54)2", "7(63)(91)8(54)2", "7(63)198(54)2",
        "7(63)1(98)(54)2", "7(63)189(54)2"])
    c_prime = tuple(pc(s) for s in [
        "7(63)9(81)5(42)", "7(63)9(81)542", "7(63)9(81)(54)2",
        "7(63)981(54)2", "7(63)(98)1(54)2", "7(63)891(54)2",
        "7(63)8(91)(54)2", "7(63)819(54)2", "7(63)(81)9(54)2",
        "7(63)189(54)2"])
    for path in (c, c_prime):
        for a, u in zip(path[1:-1:2], path[2:-1:2]):
            assert ctx.up(a) == u
    assert involution_partner(c, ctx) == c_prime
    assert involution_partner(c_prime, ctx) == c
    assert len(c_prime) - len(c) == 2  # one matched step more
    assert path_weight(c, ctx) * path_weight(c_prime, ctx) == -1


def reference_partner(path, ctx):
    """involution_partner on cell-word keys, by the pairs themselves: the
    pivot pair is re-released in the other order with words.release, and
    each later join undone by its alpha release."""
    def released(lower, upper):  # t of the pair of upper that lower releases
        (p,) = set(upper.pairs) - set(lower.pairs)
        return upper.pairs.index(p) + 1

    j = 0
    for i in range(1, (len(path) - 2) // 2 + 1):
        if released(path[2 * i - 1], path[2 * i]) != released(path[2 * i + 1], path[2 * i]):
            j = i
    u, a = path[2 * j], path[2 * j + 1]
    x = release(u, released(a, u), "beta" if a.word != u.word else "alpha")
    out = list(path[:2 * j + 1])
    for _ in range(4 * len(x.word) ** 2 + 4):
        out.append(x)
        if x == path[-1]:
            return tuple(out)
        u = ctx.up(x)
        out.append(u)
        x = release(u, released(x, u), "alpha")
    raise AssertionError("reference partner walk did not end")


@pytest.mark.parametrize("spec", [(1,) * 6, (2, 2, 3)])
def test_involution_by_face_positions_matches_key_level_release(spec):
    cx = chain_product_complex(spec)
    cert = validate_acyclic(match_product_of_chains(cx))
    spec_ctx = SpecMatchContext(spec)
    n_paths = 0
    for census in path_censuses(cert).values():
        d = census.paths[0][0].dim
        ctx = ComplexMatchContext(cert, d)
        for k, path in enumerate(census.paths):
            want = reference_partner(path, spec_ctx)
            assert involution_partner(path, spec_ctx) == want
            # the same walk on indices, through the face tables
            at = tuple(cx.locate(c)[1] for c in path)
            got = involution_partner(at, ctx)
            assert tuple(cx.cells[d - i % 2][c] for i, c in enumerate(got)) == want
            assert any(k in pair and want == census.paths[sum(pair) - k]
                       for pair in census.pairing)
            n_paths += 1
    assert n_paths > 0


@pytest.mark.parametrize("spec", [(1,) * 6, (2, 2, 2)])
def test_census_reads_each_step_once(spec, monkeypatch):
    # path_censuses reads each path's (position, sign) steps once, through
    # ComplexMatchContext.facets, and its weights and partners read them; the
    # partner walk reads each cell it passes once more.  The walk that finds
    # the paths is not counted.  Weights and partners equal those read anew.
    cert = validate_acyclic(match_product_of_chains(chain_product_complex(spec)))
    facets, walk = ComplexMatchContext.facets, chains.alternating_paths_from
    calls, walking = [0], [False]

    def counted(self, j):
        calls[0] += not walking[0]
        return facets(self, j)

    def uncounted(*args):
        walking[0] = True
        try:
            return walk(*args)
        finally:
            walking[0] = False

    monkeypatch.setattr(ComplexMatchContext, "facets", counted)
    monkeypatch.setattr(chains, "alternating_paths_from", uncounted)
    censuses = path_censuses(cert)
    paths = [p for c in censuses.values() for p in c.paths]
    steps = sum(len(p) - 1 for p in paths)
    # the partner of a path of len(q) cells costs at most len(q) / 2 reads,
    # and partners pair the paths, so their lengths sum to that of the paths
    assert 0 < steps <= calls[0] <= steps + (steps + len(paths)) // 2
    cx = cert.matching.cx
    for (sigma, tau), census in censuses.items():
        d = sigma.dim
        ctx = ComplexMatchContext(cert, d)
        at = [tuple(cx.locate(c)[1] for c in p) for p in census.paths]
        calls[0] = 0
        got = [path_steps(p, ctx) for p in at]
        assert calls[0] == sum(len(p) - 1 for p in at)
        assert tuple(path_weight(p, ctx, s) for p, s in zip(at, got)) == census.weights
        assert calls[0] == sum(len(p) - 1 for p in at)
        assert census.weights == tuple(path_weight(p, ctx) for p in at)
        for p, s in zip(at, got):
            assert involution_partner(p, ctx, s) == involution_partner(p, ctx)


class LoopingOracle:
    """A match oracle whose two matched pairs (a, U) and (b, V) lead into
    each other: the other release of a in U is b, and that of b in V is a."""

    faces = {"S": (("T", 1), ("a", -1)), "U": (("a", 1), ("b", -1)),
             "V": (("b", 1), ("a", -1))}

    def facets(self, cell):
        return self.faces[cell]

    def up(self, cell):
        return {"a": "U", "b": "V"}.get(cell)


def test_partner_walk_that_cycles_raises():
    with pytest.raises(ValueError, match="does not terminate"):
        involution_partner(("S", "T"), LoopingOracle())


def test_spec_complex_face_pointers_are_a_stride():
    cx = chain_product_complex((1, 1, 2, 2))
    for d, (ptr, idx, _) in cx.boundary.items():
        assert ptr == range(0, 2 * d * len(cx.cells[d]) + 1, 2 * d)
        assert ptr[-1] == len(idx)


def _recursion_depth():
    """The recursion depth in use by the caller, as the interpreter counts it
    (which may include C calls as well as Python frames)."""
    def probe(n):
        try:
            return probe(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - probe(0)


def test_morse_complex_census_needs_no_recursion():
    # alternating paths on B_7 run to 17 matched steps; the walk keeps its own stack
    spec = (1,) * 7
    cx = chain_product_complex(spec)
    m = match_product_of_chains(cx)
    cert = validate_acyclic(m)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 10)
    try:
        censuses = path_censuses(cert)
    finally:
        sys.setrecursionlimit(limit)
    assert len(critical_cells(m)[1]) == 351 and len(critical_cells(m)[2]) == 350
    assert max((len(p) - 2) // 2 for c in censuses.values() for p in c.paths) == 17
    assert all(c.pairing is not None and c.total == 0 for c in censuses.values())
