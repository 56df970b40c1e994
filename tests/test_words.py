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
    critical_pairs,
    descents,
    enumerate_words,
    parse_cellword,
    render_cellword,
)
from homchains.words import (
    CellWord,
    placements,
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
    # _replace builds through the constructor, so it validates and normalises too
    with pytest.raises(ValueError, match="nondecreasing"):
        ChainSpec((1, 2))._replace(i=(2, 1))
    assert ChainSpec((1, 2))._replace(i=["1", 3]).i == (1, 3)


def test_descent_set_paper_examples():
    assert descents(word_of("237649851")) == (3, 4, 6, 7, 8)
    assert descents((1, 1, 2, 3)) == ()
    # positions 6 and 7 hold equal letters, so 6 is not a (strict) descent
    w = word_of("22232116543213343235")
    assert descents(w) == (4, 5, 8, 9, 10, 11, 12, 16, 17)


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
    # runs (3, 1), (6, 2): a pair at m + 1 in each
    w = word_of("237649851")
    assert naive_runs(w) == [(3, 1), (6, 2)]
    assert critical_pairs(descents(w)) == (4, 7)
    # runs (4, 1), (8, 4), (16, 1): the run of q = 4 takes pairs at 9 and 12
    w = word_of("22232116543213343235")
    assert naive_runs(w) == [(4, 1), (8, 4), (16, 1)]
    assert critical_pairs(descents(w)) == (5, 9, 12, 17)


def test_decompose_derived_examples():
    assert critical_pairs(descents((3, 2, 1))) == (2,)
    # 3214 has the same descent set {1, 2} as 321
    assert naive_runs((3, 2, 1, 4)) == [(1, 1)]
    assert critical_pairs(descents((3, 2, 1, 4))) == (2,)
    # two runs with q = 0: no critical cell
    assert critical_pairs(descents((2, 1, 4, 3))) is None
    assert critical_pairs((1, 2, 3, 4)) is None  # q = 3
    assert critical_pairs((1, 2, 3, 4, 5)) == (2, 5)  # q = 4


def test_critical_dimension():
    # the dimension is the sum of ceil(q / 3) over the runs
    assert len(critical_pairs(descents(word_of("237649851")))) == 2
    assert critical_pairs(descents((1, 2, 3))) == ()
    assert len(critical_pairs((4, 5, 6, 8, 9, 10, 11, 12, 16, 17))) == 4
    assert critical_pairs((1,)) is None


def test_critical_cellword_paper_examples():
    w = word_of("237649851")
    cw = cellword(w, critical_pairs(descents(w)))
    assert render_cellword(cw) == "237(64)9(85)1"
    w = word_of("22232116543213343235")
    cw = cellword(w, critical_pairs(descents(w)))
    assert render_cellword(cw) == "2223(21)16(54)3(21)334(32)35"
    assert critical_pairs(descents(word_of("2143"))) is None


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


def test_enumerate_words_caps_the_letters_of_a_word():
    # one word of 5 letters under a cap of 4: the cap fires before the word is built
    with pytest.raises(CapExceeded, match="5 letters"):
        next(enumerate_words((5,), cap=4))


def test_enumerate_cellwords_counts():
    # cells of Hom(B_3): 6 vertices + 6 edges
    cells = chain_product_complex((1, 1, 1)).cells
    assert sorted(cells) == [0, 1]
    assert all(c.dim == d for d, cs in cells.items() for c in cs)
    assert len(cells[0]) == 6 and len(cells[1]) == 6


def test_placements_are_the_nonadjacent_subsets_of_the_descents():
    # every descent set of a word of at most 10 letters, against all subsets
    for ell in range(1, 11):
        for bits in range(1 << (ell - 1)):
            des = tuple(p for p in range(1, ell) if bits >> (p - 1) & 1)
            subsets = [c for d in range(len(des) + 1) for c in itertools.combinations(des, d)
                       if all(q - p >= 2 for p, q in zip(c, c[1:]))]
            want = [sorted(c for c in subsets if len(c) == d)
                    for d in range(max(map(len, subsets)) + 1)]
            info = placements(des)
            assert info.descents == des
            assert [list(ps) for ps in info.by_dim] == want
            assert list(map(list, info.masks)) == [[sum(1 << p for p in c) for c in ps]
                                                    for ps in want]
            assert all(info.rank[m] == r for ms in info.masks for r, m in enumerate(ms))


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
    runs = naive_runs(w)
    assert descents(w) == tuple(j for m, q in runs for j in range(m, m + q + 1))
    # the rule: no run with q = 0 mod 3, and pairs at m + 3j + 1 in each run
    want = None
    if all(q % 3 for _, q in runs):
        want = tuple(m + 3 * j + 1 for m, q in runs for j in range(-(-q // 3)))
    assert critical_pairs(descents(w)) == want


@given(spec_and_word())
def test_reconstruction_round_trip(sw):
    spec, w = sw
    pairs = critical_pairs(descents(w))
    if pairs is None:
        return
    cw = cellword(w, pairs)  # pairs are disjoint and strictly descending
    assert cw.word == w
    assert cw.dim == sum(-(-q // 3) for _, q in naive_runs(w))
    # pairs sit on descents, and releasing them in order-preserving fashion
    # recovers the same underlying word
    for p in cw.pairs:
        assert p in descents(w)
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
