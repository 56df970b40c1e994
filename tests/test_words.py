"""Words, descents, decompositions, cell-word encoding, and the rst count."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from homchains import (
    CapExceeded,
    ChainSpec,
    cellword,
    chain_product_complex,
    count_critical_rst,
    critical_cellword_from_word,
    critical_dimension,
    decompose_descents,
    descent_set,
    enumerate_words,
    parse_cellword,
    render_cellword,
)
from homchains.words import (
    CellWord,
    release,
    rst_cell_from_selections,
    rst_selections_from_cell,
)


def word_of(digits):
    return tuple(int(c) for c in digits)


@st.composite
def spec_and_word(draw):
    parts = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    spec = ChainSpec(tuple(parts))
    word = tuple(draw(st.permutations(list(spec.sorted_word()))))
    return spec, word


def test_chainspec_validation():
    assert ChainSpec((1, 2, 2)).ell == 5
    with pytest.raises(ValueError):
        ChainSpec(())
    with pytest.raises(ValueError):
        ChainSpec((2, 1))
    with pytest.raises(ValueError):
        ChainSpec((0, 1))


def test_descent_set_paper_examples():
    assert descent_set(word_of("237649851")) == frozenset({3, 4, 6, 7, 8})
    assert descent_set((1, 1, 2, 3)) == frozenset()
    # positions 6 and 7 hold equal letters, so 6 is not a (strict) descent
    w = word_of("22232116543213343235")
    assert descent_set(w) == frozenset({4, 5}) | frozenset(range(8, 13)) | frozenset({16, 17})


def naive_runs(word):
    """Independent maximal-run scan over the raw descent positions."""
    des = sorted(j for j in range(1, len(word)) if word[j - 1] > word[j])
    runs = []
    for j in des:
        if runs and runs[-1][0] + runs[-1][1] + 1 == j:
            runs[-1][1] += 1
        else:
            runs.append([j, 0])
    return [tuple(r) for r in runs]


def test_decompose_paper_examples():
    d = decompose_descents(word_of("237649851"))
    assert d.intervals == ((3, 1), (6, 2)) and d.valid
    assert d.starts == (3, 6)
    d = decompose_descents(word_of("22232116543213343235"))
    assert d.starts == (4, 8, 16)
    assert d.intervals == ((4, 1), (8, 4), (16, 1)) and d.valid


def test_decompose_derived_examples():
    assert decompose_descents((3, 2, 1)).intervals == ((1, 1),)
    assert decompose_descents((3, 2, 1)).valid
    # 3214 has the same descent set {1, 2} as 321
    d = decompose_descents((3, 2, 1, 4))
    assert list(d.intervals) == naive_runs((3, 2, 1, 4)) == [(1, 1)]
    assert d.valid
    d = decompose_descents((2, 1, 4, 3))
    assert d.intervals == ((1, 0), (3, 0)) and not d.valid


def test_critical_dimension():
    assert critical_dimension(decompose_descents(word_of("237649851"))) == 2
    assert critical_dimension(decompose_descents((1, 2, 3))) == 0
    from homchains.words import DescentDecomposition

    assert critical_dimension(DescentDecomposition(((4, 2), (8, 4), (16, 1)), True)) == 4
    with pytest.raises(ValueError):
        critical_dimension(DescentDecomposition(((1, 0),), False))


def test_critical_cellword_paper_examples():
    cw = critical_cellword_from_word(word_of("237649851"))
    assert render_cellword(cw) == "237(64)9(85)1"
    cw = critical_cellword_from_word(word_of("22232116543213343235"))
    assert render_cellword(cw) == "2223(21)16(54)3(21)334(32)35"
    assert critical_cellword_from_word((1, 1, 2, 3)).pairs == ()
    with pytest.raises(ValueError):
        critical_cellword_from_word((2, 1, 4, 3))


def test_enumerate_words_counts():
    assert list(enumerate_words((1, 1))) == [(1, 2), (2, 1)]
    assert len(list(enumerate_words((1, 1, 1)))) == 6
    assert len(list(enumerate_words((2, 2, 2)))) == 90
    assert ChainSpec((2, 2, 2)).multinomial() == math.factorial(6) // 8


def test_word_count_takes_no_factorial_of_the_length(monkeypatch):
    # the cap check counts words as a product of binomials
    def no_factorial(n):
        raise AssertionError(f"factorial({n})")

    monkeypatch.setattr(math, "factorial", no_factorial)
    assert ChainSpec((2, 2, 2)).multinomial() == 90
    words = list(enumerate_words((2, 2, 2)))
    assert len(words) == 90 and words[0] == (1, 1, 2, 2, 3, 3)


def test_enumerate_words_lexicographic():
    ws = list(enumerate_words((1, 2)))
    assert ws == sorted(ws)


@pytest.mark.parametrize("spec", [(1,), (3,), (1, 1, 1, 1), (1, 2, 2), (2, 2, 3), (1, 1, 1, 3)])
def test_enumerate_words_are_the_sorted_multiset_permutations(spec):
    want = sorted(set(itertools.permutations(ChainSpec(spec).sorted_word())))
    assert list(enumerate_words(spec)) == want


def test_enumerate_words_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_words((1,) * 8, cap=100))


def test_enumerate_cellwords_counts():
    # cells of Hom(B_3): 6 vertices + 6 edges
    cells = list(chain_product_complex((1, 1, 1)).word_table.cells_by_word())
    assert len(cells) == 12
    dims = [c.dim for c in cells]
    assert dims.count(0) == 6 and dims.count(1) == 6


def test_cellword_validation():
    with pytest.raises(ValueError):
        cellword((1, 2), (1,))  # ascending pair
    with pytest.raises(ValueError):
        cellword((3, 2, 1), (1, 2))  # overlapping pairs
    with pytest.raises(ValueError):
        cellword((2, 1), (2,))  # out of range


def test_render_parse_round_trip():
    for s in ["3(51)42", "(64)5(32)(71)", "123213", "2223(21)16(54)3(21)334(32)35"]:
        assert render_cellword(parse_cellword(s)) == s
    big = cellword((12, 3, 11, 2), (3,))
    assert parse_cellword(render_cellword(big)) == big


def test_release_orders():
    cw = parse_cellword("(64)5(32)(71)")
    assert render_cellword(release(cw, 2, "beta")) == "(64)532(71)"
    assert render_cellword(release(cw, 2, "alpha")) == "(64)523(71)"
    with pytest.raises(ValueError):
        release(cw, 4, "beta")
    with pytest.raises(ValueError):
        release(cw, 1, "gamma")


@given(spec_and_word())
def test_decomposition_covers_descents(sw):
    spec, w = sw
    d = decompose_descents(w)
    covered = set()
    for m, q in d.intervals:
        covered |= set(range(m, m + q + 1))
    assert covered == set(descent_set(w))
    # runs are maximal: separated by a non-descent
    for (m1, q1), (m2, _) in zip(d.intervals, d.intervals[1:]):
        assert m1 + q1 + 1 < m2
    assert d.valid == all(q % 3 for _, q in d.intervals)


@given(spec_and_word())
def test_reconstruction_round_trip(sw):
    spec, w = sw
    d = decompose_descents(w)
    if not d.valid:
        return
    cw = critical_cellword_from_word(w)
    assert cw.word == w
    assert cw.dim == critical_dimension(d)
    # pairs sit on descents, and releasing them in order-preserving fashion
    # recovers the same underlying word
    for p in cw.pairs:
        assert p in descent_set(w)
    released = cw
    while released.pairs:
        released = release(released, 1, "beta")
    assert released.word == w


def test_count_critical_rst_examples():
    assert count_critical_rst(1, 1, 2, 1) == 2
    assert count_critical_rst(3, 4, 5, 0) == 1
    assert count_critical_rst(4, 4, 4, 2) == 6 ** 3
    with pytest.raises(ValueError):
        count_critical_rst(2, 1, 3, 1)
    with pytest.raises(ValueError):
        count_critical_rst(1, 2, 3, 2)


def test_rst_worked_example():
    cw = rst_cell_from_selections(4, 4, 4, (1, 3), (2, 4), (2, 3))
    assert render_cellword(cw) == "233(21)123(21)13"
    assert rst_selections_from_cell(cw) == ((1, 3), (2, 4), (2, 3))


def test_rst_selection_bijection_small():
    r, s, t = 2, 2, 3
    for k in range(r + 1):
        cells = set()
        for ones in itertools.combinations(range(1, r + 1), k):
            for twos in itertools.combinations(range(1, s + 1), k):
                for threes in itertools.combinations(range(1, t + 1), k):
                    cw = rst_cell_from_selections(r, s, t, ones, twos, threes)
                    assert rst_selections_from_cell(cw) == (ones, twos, threes)
                    cells.add(cw)
        assert len(cells) == count_critical_rst(r, s, t, k)
