"""Hom complexes: generic construction, the cubical cell-word model, folds."""

import pytest

from homchains import (
    CapExceeded,
    antichain,
    cellword_from_multihom,
    cellword_to_multihom,
    chain,
    chain_product_complex,
    enumerate_cellwords,
    find_folds,
    hom_complex_generic,
    homology,
    ideal_lattice,
    maximal_chain_complex,
    parse_cellword,
    product,
    product_of_chains,
    render_cellword,
    signed_faces,
    verify_fold_consequence,
)
from homchains.complexes import product_cell_to_cellword
from homchains.euler import f_vector_bn


def test_hexagon_generic():
    hx = hom_complex_generic(chain(3), ideal_lattice(antichain(3)), "strict")
    assert hx.f_vector() == (6, 6)
    h = homology(hx)
    assert h.betti == (1, 1) and h.torsion_free


def test_generic_full_product_for_all_maps():
    # vacuous condition: the whole prodsimplicial product, top cell (B, ..., B)
    A = chain(1)
    B = antichain(2)
    cx = hom_complex_generic(A, B, maps=lambda f: True)
    assert cx.n_cells() == 9  # (2^2 - 1)^2 nonempty-subset pairs
    top = ((0, 1), (0, 1))
    assert top in cx.cells[2]


def test_generic_single_strict_map():
    cx = hom_complex_generic(chain(1), chain(1), "strict")
    assert cx.f_vector() == (1,)


def test_maximal_chain_complex_single_chain():
    for r in (1, 2, 5):
        cx = maximal_chain_complex(chain(r))
        assert cx.f_vector() == (1,)


def test_maximal_chain_complex_b4():
    cx = maximal_chain_complex(product([chain(1)] * 4))
    assert cx.f_vector() == (24, 36, 6)
    assert cx.euler_characteristic() == -6


def test_b6_paper_cell():
    cx = chain_product_complex((1,) * 6)
    key = parse_cellword("(21)(43)(65)")
    assert key in cx.cells[3]
    mh = cellword_to_multihom(key, (1,) * 6)
    assert mh == (((),), ((1,), (2,)), ((1, 2),), ((1, 2, 3), (1, 2, 4)),
                  ((1, 2, 3, 4),), ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6)),
                  ((1, 2, 3, 4, 5, 6),))


def test_cellword_to_multihom_examples():
    mh = cellword_to_multihom(parse_cellword("123213"), (2, 2, 2))
    # (0, r, ra, rax, raxb, raxbs, raxbsy) with blocks r,s | a,b | x,y at 1,2 | 3,4 | 5,6
    sets = [c[0] for c in mh]
    assert sets == [(), (1,), (1, 3), (1, 3, 5), (1, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]
    mh = cellword_to_multihom(parse_cellword("3(51)42"), (1,) * 5)
    assert mh == (((),), ((3,),), ((1, 3), (3, 5)), ((1, 3, 5),), ((1, 3, 4, 5),),
                  ((1, 2, 3, 4, 5),))


def test_vertex_multihoms_are_singletons():
    for w in [(1, 2, 3), (3, 1, 2)]:
        mh = cellword_to_multihom(parse_cellword("".join(map(str, w))), (1, 1, 1))
        assert all(len(c) == 1 for c in mh)


@pytest.mark.parametrize("spec", [(1, 1), (1, 1, 1), (2, 2), (1, 1, 2), (1, 2, 2)])
def test_multihom_round_trip(spec):
    for cw in enumerate_cellwords(spec):
        assert cellword_from_multihom(cellword_to_multihom(cw, spec), spec) == cw


def test_faces_example():
    cw = parse_cellword("(64)5(32)(71)")
    got = {(render_cellword(f), sign) for f, sign in signed_faces(cw)}
    assert ("(64)532(71)", -1) in got   # beta keeps the descending pair
    assert ("(64)523(71)", 1) in got    # alpha swaps it
    assert len(got) == 6
    assert signed_faces(parse_cellword("123")) == ()
    got = {(render_cellword(f), sign) for f, sign in signed_faces(parse_cellword("(21)"))}
    assert got == {("12", -1), ("21", 1)}


def test_cubical_size_pattern():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2)]:
        for cw in enumerate_cellwords(spec):
            sizes = [len(c) for c in cellword_to_multihom(cw, spec)]
            assert all(s in (1, 2) for s in sizes)
            assert not any(a == 2 == b for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("spec", [(1, 1), (2, 2), (1, 1, 1), (1, 1, 2), (1, 1, 1, 1), (1, 2, 3)])
def test_generic_equals_cellword_enumeration(spec):
    P = product_of_chains(spec)
    gx = maximal_chain_complex(P, method="generic")
    wx = maximal_chain_complex(P)
    assert gx.f_vector() == wx.f_vector()
    gcells = {product_cell_to_cellword(X, P) for d in gx.cells for X in gx.cells[d]}
    wcells = {c for d in wx.cells for c in wx.cells[d]}
    assert gcells == wcells


def test_f_vector_matches_formula():
    for n in range(1, 7):
        cx = chain_product_complex((1,) * n)
        fv = cx.f_vector()
        assert fv == tuple(f_vector_bn(n, k) for k in range(len(fv)))


def test_closure_under_faces():
    cx = chain_product_complex((2, 2))
    for d in range(1, cx.dim + 1):
        for cell in cx.cells[d]:
            for face, _ in cx.boundary[cell]:
                assert face in set(cx.cells[d - 1])
                for face2, _ in cx.boundary.get(face, ()):
                    assert face2 in set(cx.cells[d - 2])


def test_complex_cap():
    with pytest.raises(CapExceeded):
        chain_product_complex((1,) * 6, cap=100)
    with pytest.raises(CapExceeded):
        hom_complex_generic(chain(3), ideal_lattice(antichain(3)), "strict", cap=4)


def test_json_export_shape():
    cx = chain_product_complex((1, 1))
    d = cx.to_json_dict()
    assert d["dims"] == [0, 1]
    assert d["cells"]["0"] == ["12", "21"]
    assert d["faces"]["(21)"] == [["12", -1], ["21", 1]]


def test_fold_consequence_grid():
    # Hom(C_{r+s}, grid) is homology-trivial before and after a fold removal
    g = product_of_chains((2, 2))
    x, _y = find_folds(g)[0]
    rep = verify_fold_consequence(chain(4), g, x)
    assert rep.agree
    assert rep.before.betti[0] == 1 and all(b == 0 for b in rep.before.betti[1:])


def test_fold_consequence_diamond():
    from homchains import GradedPoset

    D = GradedPoset(4, [(0, 1), (0, 2), (1, 3), (2, 3)], rank=[0, 1, 1, 2])
    for x in (1, 2):
        rep = verify_fold_consequence(chain(2), D, x)
        assert rep.agree


def test_fold_consequence_requires_fold():
    with pytest.raises(ValueError):
        verify_fold_consequence(chain(2), chain(2), 1)
