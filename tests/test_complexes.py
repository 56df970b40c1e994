"""Hom complexes: generic construction, the cubical cell-word model, folds."""

import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homchains import (
    CapExceeded,
    CellWord,
    FinitePoset,
    GradedPoset,
    antichain,
    as_spec,
    cellword_to_multihom,
    chain,
    chain_factors,
    chain_product_complex,
    delete_element,
    disjoint_union,
    enumerate_words,
    find_folds,
    hom_complex_generic,
    homology,
    ideal_lattice,
    is_cubical,
    maximal_chain_complex,
    parse_cellword,
    parse_poset_text,
    product,
    product_of_chains,
    render_cellword,
    signed_faces,
    verify_fold_consequence,
)
from homchains import complexes
from homchains.complexes import _assert_cubical, _strict_maps
from homchains.euler import f_vector_bn

DATA = Path(__file__).parent / "data"


def all_cells(spec):
    """Every cell word of the spec by brute force, sorted by key: each word
    with each set of pairwise non-adjacent descents."""
    out = []
    for w in enumerate_words(spec):
        des = [j for j in range(1, len(w)) if w[j - 1] > w[j]]
        for d in range(len(des) + 1):
            for ps in itertools.combinations(des, d):
                if all(b - a > 1 for a, b in zip(ps, ps[1:])):
                    out.append(CellWord(w, ps))
    return sorted(out)


def key_faces(cx, d, j):
    """The signed faces of the j-th d-cell as cell keys."""
    return tuple((cx.cells[d - 1][f], sign) for f, sign in cx.faces(d, j))


def zigzag_ideal_lattice(n):
    """J(Z_n) for the zigzag 0 < 1 > 2 < 3 > ... on n elements."""
    covers = [(k, k + 1) if k % 2 == 0 else (k + 1, k) for k in range(n - 1)]
    return ideal_lattice(FinitePoset(n, covers))


def test_hexagon_generic():
    hx = hom_complex_generic(chain(3), ideal_lattice(antichain(3)))
    assert hx.f_vector() == (6, 6)
    h = homology(hx)
    assert h.betti == (1, 1) and h.torsion_free


def test_generic_single_strict_map():
    cx = hom_complex_generic(chain(1), chain(1))
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
    cws = [cw for cs in chain_product_complex(spec).cells.values() for cw in cs]
    back = {cellword_to_multihom(cw, spec): cw for cw in cws}
    assert all(back[cellword_to_multihom(cw, spec)] == cw for cw in cws)
    assert len(back) == len(cws)


def test_chain_product_complex_places_each_word_once(monkeypatch):
    from homchains import words

    spec = (1, 2, 2)
    seen = []
    real = words.word_placements

    def recording(*args, **kwargs):
        for item in real(*args, **kwargs):
            seen.append(item[0])
            yield item

    monkeypatch.setattr(words, "word_placements", recording)
    monkeypatch.setattr(complexes, "word_placements", recording)
    cx = chain_product_complex(spec)
    assert len(seen) == len(set(seen)) == 30
    cws = all_cells(spec)
    assert {d: tuple(cs) for d, cs in cx.cells.items()} == {
        d: tuple(c for c in cws if c.dim == d) for d in (0, 1, 2)}


def test_faces_example():
    cw = parse_cellword("(64)5(32)(71)")
    got = {(render_cellword(f), sign) for f, sign in signed_faces(cw)}
    assert ("(64)532(71)", -1) in got   # beta keeps the descending pair
    assert ("(64)523(71)", 1) in got    # alpha swaps it
    assert len(got) == 6
    assert signed_faces(parse_cellword("123")) == ()
    got = {(render_cellword(f), sign) for f, sign in signed_faces(parse_cellword("(21)"))}
    assert got == {("12", -1), ("21", 1)}


def _reference_multihom(cw, spec):
    # the map walked position by position, rebuilding the ideal chain per cell
    offsets = [0] * (len(spec) + 1)
    for t in range(2, len(spec) + 1):
        offsets[t] = offsets[t - 1] + spec[t - 2]
    seen = [0] * (len(spec) + 1)
    ideal = []
    assign = [(tuple(ideal),)]
    p = 1
    while p <= sum(spec):
        if p in cw.pairs:
            beta, alpha = cw.word[p - 1], cw.word[p]
            eb = offsets[beta] + seen[beta] + 1
            ea = offsets[alpha] + seen[alpha] + 1
            assign.append((tuple(sorted(ideal + [ea])), tuple(sorted(ideal + [eb]))))
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


@pytest.mark.parametrize("spec", [(1, 1, 1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 3)])
def test_bulk_map_equals_per_position_reference(spec):
    cx = chain_product_complex(spec)
    for cells in cx.cells.values():
        want = [_reference_multihom(cw, spec) for cw in cells]
        assert [cellword_to_multihom(cw, spec) for cw in cells] == want


def test_overlapping_pairs_map_to_a_non_cubical_cell():
    # each pair sets its own coordinate, so the second pair is not dropped
    mh = cellword_to_multihom(CellWord((3, 2, 1), (1, 2)), (1, 1, 1))
    assert [len(c) for c in mh] == [1, 2, 2, 1]
    assert not is_cubical(mh)


def test_bulk_map_rejects_bad_input():
    with pytest.raises(ValueError, match="content"):
        cellword_to_multihom(parse_cellword("112"), (1, 1))
    with pytest.raises(ValueError, match="outside alphabet"):
        cellword_to_multihom(CellWord((1, 3), ()), (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        cellword_to_multihom(CellWord((2, 1), (2,)), (1, 1))


def test_cubical_size_pattern():
    for spec in [(1, 1, 1), (2, 2), (1, 1, 2)]:
        for cells in chain_product_complex(spec).cells.values():
            for cw in cells:
                assert is_cubical(cellword_to_multihom(cw, spec))


@pytest.mark.parametrize("spec", [(1, 1), (2, 2), (1, 1, 1), (1, 1, 2), (1, 1, 1, 1), (1, 2, 3)])
def test_generic_equals_cellword_enumeration(spec):
    P = product_of_chains(spec)
    gx = hom_complex_generic(chain(sum(spec)), P)
    wx = maximal_chain_complex(P)
    assert gx.f_vector() == wx.f_vector()
    wcells = _cellwords_as_product_cells(wx, spec)
    assert len(wcells) == wx.n_cells()
    assert _cell_set(gx) == wcells


def _cell_set(cx):
    return {tuple(tuple(sorted(coord)) for coord in X)
            for cs in cx.cells.values() for X in cs}


def _cellwords_as_product_cells(wx, spec):
    # an ideal of block positions is the product element whose coordinate j counts
    # the positions in block j; elements are mixed-radix over the sizes spec_j + 1
    block = [j for j, i in enumerate(spec) for _ in range(i)]
    strides = [1] * len(spec)
    for j in range(len(spec) - 2, -1, -1):
        strides[j] = strides[j + 1] * (spec[j + 1] + 1)

    def element(ideal):
        return sum(strides[block[pos - 1]] for pos in ideal)

    return {tuple(tuple(sorted(element(I) for I in coord))
                  for coord in cellword_to_multihom(cw, spec))
            for cs in wx.cells.values() for cw in cs}


@st.composite
def small_specs(draw):
    spec, budget = [], 6
    while budget and (not spec or draw(st.booleans())):
        spec.append(draw(st.integers(1, budget)))
        budget -= spec[-1]
    return tuple(sorted(spec))


@settings(max_examples=60, deadline=None)
@given(small_specs())
def test_generic_hom_is_the_cellword_model_on_random_specs(spec):
    gx = hom_complex_generic(chain(sum(spec)), product_of_chains(spec))
    wx = chain_product_complex(spec)
    assert gx.f_vector() == wx.f_vector()
    assert _cell_set(gx) == _cellwords_as_product_cells(wx, spec)


def _brute_force_hom(A, B):
    """Every tuple of nonempty subsets of B all of whose representative systems
    are strictly order-preserving maps A -> B."""
    subsets = [c for k in range(1, B.n + 1) for c in itertools.combinations(range(B.n), k)]
    relations = [(a, b) for a in range(A.n) for b in range(A.n) if A.lt(a, b)]
    return {X for X in itertools.product(subsets, repeat=A.n)
            if all(B.lt(f[a], f[b]) for f in itertools.product(*X) for a, b in relations)}


M3 = GradedPoset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], rank=[0, 1, 1, 1, 2])


@pytest.mark.parametrize("A, B", [
    (chain(2), M3),  # cells with 3-element coordinates
    (product_of_chains((1, 1)), chain(3)),  # a source that is not a chain
    # an ungraded target: (0,0) < (0,2) < (1,2) is a maximal chain beside one of 4 elements
    (chain(2), delete_element(product_of_chains((1, 2)), 1)[0]),
], ids=["C2-M3", "square-C3", "C2-ungraded"])
def test_generic_matches_definition(A, B, monkeypatch):
    cx = hom_complex_generic(A, B)
    assert _cell_set(cx) == _brute_force_hom(A, B)
    assert all(sum(len(c) - 1 for c in X) == d for d, cs in cx.cells.items() for X in cs)
    # every partial map the search visits extends to a full map on a graded
    # target: no visited node finds its mask of allowed values empty
    masks = []
    real_bits = complexes._bits

    def recording_bits(mask):
        masks.append(mask)
        return real_bits(mask)

    monkeypatch.setattr(complexes, "_bits", recording_bits)
    maps = _strict_maps(A, B, cap=10**6)
    assert sorted(maps) == sorted(tuple(c[0] for c in X) for X in cx.cells[0])
    if isinstance(B, GradedPoset):
        assert masks and all(masks)


@pytest.mark.parametrize("spec", [(1, 1), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2),
                                  (1, 1, 1, 1), (1, 2, 3)])
def test_cellword_model_is_the_generic_hom(spec):
    # J of a disjoint union of chains; bit b of an ideal's mask is block position b + 1
    P = ideal_lattice(disjoint_union([chain(i - 1) for i in spec]))
    gx = hom_complex_generic(chain(sum(spec)), P)
    ideal = [tuple(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)
             for mask in P.ideal_masks]

    def lift(X):
        return tuple(tuple(ideal[e] for e in coord) for coord in X)

    def mh(cw):
        return cellword_to_multihom(cw, spec)

    wx = chain_product_complex(spec)
    generic = {lift(X): {lift(f): sign for f, sign in key_faces(gx, d, j)}
               for d, cs in gx.cells.items() for j, X in enumerate(cs)}
    model = {mh(cw): {mh(f): sign for f, sign in key_faces(wx, d, j)}
             for d, cs in wx.cells.items() for j, cw in enumerate(cs)}
    assert len(model) == wx.n_cells()
    assert model == generic
    assert all(is_cubical(X) for X in model)
    product_hom = hom_complex_generic(chain(sum(spec)), product_of_chains(spec))
    assert product_hom.f_vector() == wx.f_vector()


def test_generic_branch_on_a_distributive_lattice():
    # J(Z_5) for the zigzag 0 < 1 > 2 < 3 > 4 carries no chain spec
    L = ideal_lattice(FinitePoset(5, [(0, 1), (2, 1), (2, 3), (4, 3)]))
    cx = maximal_chain_complex(L)
    assert not any(isinstance(X, CellWord) for cs in cx.cells.values() for X in cs)
    assert cx.f_vector() == (16, 24, 8)
    assert cx.euler_characteristic() == 0


def test_assert_cubical_rejects_m3():
    with pytest.raises(AssertionError, match=r"\(\(0,\), \(1, 2, 3\), \(4,\)\)"):
        _assert_cubical(hom_complex_generic(chain(2), M3))


def test_is_cubical():
    assert is_cubical(((0,), (1, 2), (3,), (4, 5)))
    assert not is_cubical(((0,), (1, 2, 3), (4,)))
    assert not is_cubical(((0,), (1, 2), (3, 4), (5,)))
    assert is_cubical(())
    assert not is_cubical(((),))
    assert not is_cubical(((0,), (1, 2), (3, 4, 5)))


def test_f_vector_matches_formula():
    for n in range(1, 7):
        cx = chain_product_complex((1,) * n)
        fv = cx.f_vector()
        assert fv == tuple(f_vector_bn(n, k) for k in range(len(fv)))


def test_closure_under_faces():
    for spec in [(2, 2), (1, 1, 1, 1, 1), (1, 2, 3)]:
        cx = chain_product_complex(spec)
        for d in range(1, cx.dim + 1):
            assert tuple(cx.cells[d]) == tuple(sorted(cx.cells[d]))
            for j, cell in enumerate(cx.cells[d]):
                assert key_faces(cx, d, j) == signed_faces(cell)
                for face, _ in cx.faces(d, j):
                    assert 0 <= face < len(cx.cells[d - 1])
                    for face2, _ in cx.faces(d - 1, face):
                        assert 0 <= face2 < len(cx.cells[d - 2])


@pytest.mark.parametrize("spec", [(1, 1, 1), (2, 2, 2), (1, 2, 3)])
def test_spec_cells_are_a_sequence_of_cell_words(spec):
    cx = chain_product_complex(spec)
    cws = all_cells(spec)
    assert sorted(cx.cells) == sorted({cw.dim for cw in cws})
    for d, cells in cx.cells.items():
        want = tuple(cw for cw in cws if cw.dim == d)
        assert tuple(cells) == want
        for i, cw in enumerate(want):
            assert cells[i] == cw
            assert cx.locate(cells[i]) == (d, i)
            assert cw in cells
        assert cells[-1] == want[-1] and cells[-len(want)] == want[0]
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                cells[i]


def test_spec_cells_slice_like_a_tuple():
    cells = chain_product_complex((1, 1, 1)).cells[1]
    want = tuple(cells)
    assert cells[:3] == want[:3] and all(type(c) is CellWord for c in cells[:3])
    for s in (slice(None), slice(2, None), slice(None, None, -2), slice(-4, -1),
              slice(5, 2), slice(100, None)):
        assert type(cells[s]) is type(want[s]) is tuple
        assert cells[s] == want[s]
    for bad in ("1", 1.0, None, (1,)):
        with pytest.raises(TypeError):
            cells[bad]


def test_spec_complex_locate_rejects_foreign_keys():
    cx = chain_product_complex((1, 2, 3))
    missing = [
        CellWord((1, 2, 2, 3, 3, 3), (1,)),   # no descent at 1
        CellWord((2, 1, 2, 3, 3, 3), (2,)),   # 1 < 2 at 2
        CellWord((3, 2, 1, 2, 3, 3), (1, 2)),  # overlapping pairs
        CellWord((3, 2, 3, 1, 2, 3), (3, 1)),  # pairs out of order
        CellWord((1, 1, 2, 3, 3, 3), ()),     # content of another spec
        CellWord((3, 3, 3, 3, 2, 1), ()),     # past the last word
        ((1, 2, 2, 3, 3, 3),),                # not a (word, pairs) key
        "123",
        # the table stores words as bytes, but a key's word is a tuple of letters
        CellWord((1, 2, 2, 3, 3, 256), ()),
        CellWord((1, 2, 2, 3, 3, 259), ()),
        CellWord((-1, 2, 2, 3, 3, 3), ()),
        CellWord("122333", ()),
        CellWord(6, ()),
        CellWord(bytes((1, 2, 2, 3, 3, 3)), ()),
        CellWord([1, 2, 2, 3, 3, 3], ()),
    ]
    for key in missing:
        with pytest.raises(KeyError):
            cx.locate(key)
        assert key not in cx.cells[0]
    assert CellWord((3, 2, 3, 1, 2, 3), (1, 3)) not in cx.cells[0]
    assert cx.locate(CellWord((3, 2, 3, 1, 2, 3), (1, 3)))[0] == 2


def test_spec_words_are_stored_as_bytes_and_read_as_tuples():
    # one bytes per word, 42 bytes for the 9 letters of (2,2,2,3); every
    # cell key read back holds a tuple
    cx = chain_product_complex((2, 2, 2, 3))
    words = cx.word_table.words
    assert len(words) == 7560 and all(type(w) is bytes for w in words)
    assert max(map(sys.getsizeof, words)) < 48
    assert [tuple(w) for w in words] == list(enumerate_words((2, 2, 2, 3)))
    for d, cells in cx.cells.items():
        assert type(cells[0].word) is type(cells[-1].word) is tuple
        assert all(type(cw.word) is tuple for cw in cells[:50])
        assert type(next(iter(cells)).word) is tuple


def test_spec_words_are_kept_in_one_bytes():
    # 7,560 words of 9 letters: one bytes of 68,040 letters, sliced on reading
    words = chain_product_complex((2, 2, 2, 3)).word_table.words
    assert type(words.letters) is bytes and len(words.letters) == 68040
    assert len(words) == 7560 and words.ell == 9
    assert words[0] == words[-7560] == bytes((1, 1, 2, 2, 3, 3, 4, 4, 4))
    assert words[-1] == words[7559] == words.letters[-9:]
    assert list(words) == [words[k] for k in range(7560)]
    assert words[2:5] == (words[2], words[3], words[4])
    for k in (7560, -7561):
        with pytest.raises(IndexError):
            words[k]


def test_spec_complex_is_built_without_a_bisect(monkeypatch):
    class NoBisect:
        def __getattr__(self, name):
            raise AssertionError(f"the build called bisect.{name}")

    monkeypatch.setattr(complexes, "bisect", NoBisect())
    assert chain_product_complex((2, 2, 2, 3)).f_vector() == (7560, 25200, 27720, 11100, 1170)


def test_alpha_shift_closed_form():
    # the arrangements of 1223 in order: 1223 1232 1322 2123 2132 2213 2231
    # 2312 2321 3122 3212 3221; 3212 is the 11th, 2312 the 8th
    assert complexes._alpha_shift((3, 2, 1, 2)) == 3
    # words of (2,2,2,3): the swap of x > y at p moves word k to k - shift
    words = list(enumerate_words((2, 2, 2, 3)))
    for w, p, shift in [((4, 4, 4, 3, 3, 2, 2, 1, 1), 3, 90),
                        ((3, 2, 1, 1, 2, 3, 4, 4, 4), 1, 1470),
                        ((1, 1, 4, 3, 2, 2, 4, 3, 4), 4, 24)]:
        v = w[:p - 1] + (w[p], w[p - 1]) + w[p + 1:]
        assert complexes._alpha_shift(w[p - 1:]) == shift == words.index(w) - words.index(v)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=8)
       .map(sorted).filter(lambda spec: sum(spec) <= 8))
def test_alpha_index_holds_the_swapped_word(spec):
    cx = chain_product_complex(spec)
    table = cx.word_table
    words = list(enumerate_words(spec))
    assert [tuple(w) for w in table.words] == words
    for k, w in enumerate(words):
        for p in table.placements[k].descents:
            v = w[:p - 1] + (w[p], w[p - 1]) + w[p + 1:]
            assert words[k - complexes._alpha_shift(w[p - 1:])] == v
    # and the build puts it there: each 1-cell's alpha face is its swapped word
    if 1 in cx.boundary:
        idx = cx.boundary[1].idx
        for j, (w, (p,)) in enumerate(cx.cells[1]):
            v = w[:p - 1] + (w[p], w[p - 1]) + w[p + 1:]
            assert cx.cells[0][idx[2 * j]] == CellWord(v, ())


def test_spec_of_more_than_255_chains_is_refused_before_enumerating():
    with pytest.raises(CapExceeded, match="256 chains exceeds the limit of 255 chains"):
        chain_product_complex((1,) * 256, cap=10**600)
    # 255 chains pass the limit, and meet the cap on words
    with pytest.raises(CapExceeded, match="words exceed the cap 1000"):
        chain_product_complex((1,) * 255, cap=1000)


def test_complex_cap():
    with pytest.raises(CapExceeded):
        chain_product_complex((1,) * 6, cap=100)
    # Hom(B_4) has 66 cells
    assert chain_product_complex((1, 1, 1, 1), cap=66).n_cells() == 66
    with pytest.raises(CapExceeded, match="cell enumeration exceeds the cap 65"):
        chain_product_complex((1, 1, 1, 1), cap=65)
    with pytest.raises(CapExceeded):
        hom_complex_generic(chain(3), ideal_lattice(antichain(3)), cap=4)
    # the hexagon has 6 vertices: the first edge already exceeds a cap of 6
    with pytest.raises(CapExceeded, match="cell count exceeds the cap 6"):
        hom_complex_generic(chain(3), ideal_lattice(antichain(3)), cap=6)


def test_strict_maps_fail_fast_at_the_cap():
    # B_8 has 8! = 40,320 maximal chains; the search stops at the 1,001st
    with pytest.raises(CapExceeded, match="more than 1000 homomorphisms"):
        hom_complex_generic(chain(8), ideal_lattice(antichain(8)), cap=1000)


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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 2), min_size=1, max_size=3), st.data())
def test_ideal_lattice_of_shuffled_chains_is_recognised(lengths, data):
    # chains of the given lengths on randomly permuted ids: J of their union
    # is read off its covers as the product of chains of the sorted lengths
    n = sum(lengths)
    ids = data.draw(st.permutations(range(n)))
    blocks, off = [], 0
    for v in lengths:
        blocks.append(ids[off:off + v])
        off += v
    P = FinitePoset(n, [(b[k], b[k + 1]) for b in blocks for k in range(len(b) - 1)])
    L = ideal_lattice(P)
    assert chain_factors(L) == tuple(sorted(lengths))
    generic = hom_complex_generic(chain(n), L)
    built = maximal_chain_complex(L)
    assert built.word_table is not None  # the cell-word model of the sorted spec
    assert built.f_vector() == generic.f_vector()


def test_parsed_product_with_shuffled_ids_builds_as_its_spec():
    P = parse_poset_text((DATA / "product122.poset").read_text())
    built = maximal_chain_complex(P)
    assert built.word_table is not None
    assert built.word_table.spec == as_spec((1, 2, 2))
    generic = hom_complex_generic(chain(P.top_rank), P)
    assert built.f_vector() == generic.f_vector() == (30, 48, 15)
    assert homology(built).betti == homology(generic).betti


@pytest.mark.parametrize("n, f", [(5, (16, 24, 8)), (7, (272, 680, 490, 85))])
def test_zigzag_ideal_lattice_builds_generically(n, f):
    cx = maximal_chain_complex(zigzag_ideal_lattice(n))
    assert cx.word_table is None
    assert cx.f_vector() == f


def test_strict_maps_need_no_recursion():
    # Hom(C_1199, C_1199): the strict-map search must not recurse once per element
    cx = hom_complex_generic(chain(1199), chain(1199))
    assert cx.f_vector() == (1,)
    assert cx.cells[0] == (tuple((k,) for k in range(1200)),)


def test_ideal_lattice_of_the_empty_poset_is_a_point():
    assert maximal_chain_complex(ideal_lattice(antichain(0))).f_vector() == (1,)


def test_generic_signs_each_candidate_once(monkeypatch):
    # on J(Z_7) every candidate cell is accepted, so one signing per cell of dimension >= 1
    calls = []
    real = complexes._generic_signed_faces

    def counting(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(complexes, "_generic_signed_faces", counting)
    cx = maximal_chain_complex(zigzag_ideal_lattice(7))
    assert cx.f_vector() == (272, 680, 490, 85)
    assert len(calls) == len(set(calls)) == 680 + 490 + 85


def test_strict_maps_prune_by_height(monkeypatch):
    # Hom(C_9, J(Z_9)) has 7,936 vertices; the search visits only prefixes of them
    L = zigzag_ideal_lattice(9)
    masks = []
    real_bits = complexes._bits

    def recording_bits(mask):
        masks.append(mask)
        return real_bits(mask)

    monkeypatch.setattr(complexes, "_bits", recording_bits)
    maps = _strict_maps(chain(L.top_rank), L, cap=10**6)
    assert len(maps) == len(set(maps)) == 7936
    assert all(L.rank[f[k]] == k for f in maps for k in range(len(f)))
    assert all(masks)
    assert len(masks) == len({f[:k] for f in maps for k in range(len(f))})


def test_key_level_constructor_checks_faces():
    with pytest.raises(ValueError, match="missing from the complex"):
        complexes.CellComplex({0: ("a",), 1: ("e",)}, {"e": (("a", 1), ("b", -1))})
