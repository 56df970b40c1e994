"""Poset construction, products, ideal lattices, and fold detection."""

import itertools
import random

import pytest

from homchains import (
    CapExceeded,
    FinitePoset,
    GradedPoset,
    antichain,
    chain,
    delete_element,
    disjoint_union,
    find_folds,
    ideal_lattice,
    parse_poset_text,
    product,
    product_of_chains,
)
from homchains.posets import format_poset_text, is_chain


def brute_maximal_chains(P):
    """Independent oracle: maximal chains as maximal totally ordered subsets."""
    chains = []
    elems = range(P.n)
    for k in range(P.n, 0, -1):
        for sub in itertools.combinations(elems, k):
            if all(P.le(a, b) or P.le(b, a) for a, b in itertools.combinations(sub, 2)):
                srt = tuple(sorted(sub, key=lambda x: sum(P.lt(y, x) for y in sub)))
                if not any(set(sub) < set(c) for c in chains):
                    chains.append(srt)
    return chains


def test_chain_degenerate():
    c0 = chain(0)
    assert c0.n == 1 and c0.covers == ()


def test_chain_three():
    c3 = chain(3)
    assert c3.n == 4
    assert len(c3.covers) == 3
    assert c3.top_rank == 3
    assert c3.rank == (0, 1, 2, 3)


def test_chain_two_unique_maximal_chain():
    c2 = chain(2)
    chains = c2.maximal_chains()
    assert chains == [(0, 1, 2)]
    assert len(chains[0]) - 1 == 2


def test_product_b3():
    b3 = product([chain(1)] * 3)
    assert b3.n == 8
    assert len(b3.covers) == 12
    assert b3.chain_spec == (1, 1, 1)


def test_product_grid():
    g = product([chain(2), chain(2)])
    assert g.n == 9
    assert g.top_rank == 4


def test_product_maximal_chain_count():
    g = product([chain(1), chain(1)])
    assert len(g.maximal_chains()) == 2
    assert sorted(g.maximal_chains()) == sorted(brute_maximal_chains(g))


def test_maximal_chains_need_no_recursion():
    # one chain of 1501 elements, deeper than the default recursion limit
    assert chain(1500).maximal_chains() == [tuple(range(1501))]


def test_maximal_chains_depth_first_order_and_cap():
    g = disjoint_union([product([chain(1), chain(2)]), chain(1)])
    up = g.up_covers

    def extend(acc):
        if not up[acc[-1]]:
            return [tuple(acc)]
        return [c for b in up[acc[-1]] for c in extend(acc + [b])]

    want = [c for m in g.minimals() for c in extend([m])]
    assert len(want) == 4
    assert g.maximal_chains() == want
    assert sorted(want) == sorted(brute_maximal_chains(g))
    assert g.maximal_chains(cap=4) == want
    with pytest.raises(CapExceeded):
        g.maximal_chains(cap=3)


def test_product_empty_errors():
    with pytest.raises(ValueError):
        product([])


def test_product_associative_flattening():
    for a, b, c in [(1, 1, 1), (1, 2, 1), (2, 1, 3)]:
        flat = product([chain(a), chain(b), chain(c)])
        nested = product([chain(a), product([chain(b), chain(c)])])
        # mixed-radix ids agree under flattening
        assert flat.n == nested.n
        assert flat.covers == nested.covers
        assert flat.rank == nested.rank


def test_disjoint_union_antichain():
    u = disjoint_union([chain(0)] * 3)
    assert u.n == 3 and u.covers == ()
    assert u.minimals() == (0, 1, 2)
    assert ideal_lattice(u).chain_spec == (1, 1, 1)


def test_disjoint_union_empty():
    u = disjoint_union([])
    assert u.n == 0 and u.covers == ()


def test_disjoint_union_mixed():
    u = disjoint_union([chain(1), chain(0)])
    assert u.n == 3 and len(u.covers) == 1


def test_ideal_lattice_boolean():
    b3 = ideal_lattice(antichain(3))
    assert b3.n == 8 and b3.top_rank == 3
    ref = product([chain(1)] * 3)
    assert len(b3.covers) == len(ref.covers) == 12


def test_ideal_lattice_of_chain():
    j = ideal_lattice(chain(2))
    # ideals of a chain are prefixes, so J(C_2) is the chain C_3
    assert j.n == 4
    assert is_chain(j)


@pytest.mark.parametrize("lengths", [(1,), (2,), (1, 1), (2, 2), (1, 2), (1, 1, 2)])
def test_ideal_lattice_is_product_of_chains(lengths):
    u = disjoint_union([chain(v - 1) for v in lengths])
    j = ideal_lattice(u)
    p = product_of_chains(lengths)
    assert j.chain_spec == tuple(lengths)
    sizes = [v + 1 for v in lengths]
    strides = [1] * len(sizes)
    for k in range(len(sizes) - 2, -1, -1):
        strides[k] = strides[k + 1] * sizes[k + 1]

    # disjoint_union gives each chain the next contiguous range of ids
    ends = list(itertools.accumulate(lengths))
    blocks = [range(end - v, end) for v, end in zip(lengths, ends)]

    def relabel(i):
        mask = j.ideal_masks[i]
        counts = [sum(1 for e in blk if (mask >> e) & 1) for blk in blocks]
        return sum(c * s for c, s in zip(counts, strides))

    assert sorted((relabel(a), relabel(b)) for a, b in j.covers) == sorted(p.covers)
    assert all(j.rank[i] == p.rank[relabel(i)] for i in range(j.n))


def test_ideal_lattice_reads_chains_off_the_covers():
    # however the ids run, the chains come in increasing order of their bottoms
    assert ideal_lattice(FinitePoset(3, [(1, 2), (2, 0)])).chain_spec == (3,)
    assert ideal_lattice(FinitePoset(3, [(2, 0)])).chain_spec == (1, 2)
    assert ideal_lattice(FinitePoset(3, [(0, 2)])).chain_spec == (2, 1)
    assert ideal_lattice(FinitePoset(3, [(0, 2), (1, 2)])).chain_spec is None
    assert ideal_lattice(FinitePoset(3, [(0, 1), (0, 2)])).chain_spec is None
    assert ideal_lattice(antichain(0)).chain_spec is None


def test_ideal_lattice_lattice_property():
    u = disjoint_union([chain(1), chain(2)])
    j = ideal_lattice(u)
    masks = set(j.ideal_masks)
    for a in j.ideal_masks:
        for b in j.ideal_masks:
            assert (a | b) in masks and (a & b) in masks


def test_ideal_lattice_guard():
    with pytest.raises(CapExceeded):
        ideal_lattice(antichain(21))


def test_find_folds_chain_empty():
    for m in range(5):
        assert find_folds(chain(m)) == []


def test_find_folds_antichain_two():
    assert sorted(find_folds(antichain(2))) == [(0, 1), (1, 0)]


def test_find_folds_grid():
    g = product([chain(2), chain(3)])
    folds = find_folds(g)
    assert folds
    # each reported pair satisfies the containment definition
    for x, y in folds:
        assert set(g.up_covers[x]) <= set(g.up_covers[y])
        assert set(g.down_covers[x]) <= set(g.down_covers[y])


def test_fold_rerouting_property():
    # removing x leaves every maximal chain re-routable through y
    g = product([chain(1), chain(2)])
    for x, y in find_folds(g):
        before = g.maximal_chains()
        q, remap = delete_element(g, x)
        after = set(q.maximal_chains())
        for c in before:
            rerouted = tuple(remap[y if e == x else e] for e in c)
            assert rerouted in after


def test_delete_element_recomputes_covers():
    # removing the middle of a chain creates a new cover
    c = chain(2)
    q, remap = delete_element(c, 1)
    assert q.covers == ((0, 1),)


def transitive_closure(n, relation):
    lt = set(relation)
    for c in range(n):
        lt |= {(a, b) for a in range(n) for b in range(n) if (a, c) in lt and (c, b) in lt}
    return lt


def transitive_reduction(n, lt):
    """The covers of a transitively closed strict order, sorted."""
    return sorted((a, b) for a, b in lt if not any((a, c) in lt and (c, b) in lt for c in range(n)))


def test_delete_element_covers_the_induced_order():
    # random posets on shuffled ids: the covers of P - x are the transitive
    # reduction of the order that P induces on the other elements
    rng = random.Random(1812)
    for _ in range(200):
        n = rng.randint(1, 8)
        ids = rng.sample(range(n), n)
        lt = transitive_closure(n, [(ids[a], ids[b]) for a, b in itertools.combinations(range(n), 2)
                                    if rng.random() < 0.3])
        P = FinitePoset(n, transitive_reduction(n, lt))
        for x in range(n):
            q, remap = delete_element(P, x)
            assert remap == {old: new for new, old in enumerate(v for v in range(n) if v != x)}
            induced = {(remap[a], remap[b]) for a, b in lt if x not in (a, b)}
            assert list(q.covers) == transitive_reduction(n - 1, induced)


def test_graded_validation_rejects_bad_rank():
    with pytest.raises(ValueError):
        GradedPoset(2, [(0, 1)], rank=[0, 2])
    with pytest.raises(ValueError, match="minimal element has nonzero rank"):
        GradedPoset(3, [(0, 1)], rank=[0, 1, 1])
    with pytest.raises(ValueError, match="maximal elements of unequal rank"):
        GradedPoset(3, [(0, 1)], rank=[0, 1, 0])


def test_cyclic_covers_are_rejected():
    with pytest.raises(ValueError, match="contains a cycle"):
        FinitePoset(2, [(0, 1), (1, 0)])


def test_graded_validation_rejects_non_cover():
    with pytest.raises(ValueError):
        FinitePoset(3, [(0, 1), (1, 2), (0, 2)])


def test_maximal_chain_lengths_uniform():
    # gradedness: every maximal chain has length rank(top)
    for P in [chain(4), product([chain(2), chain(2)]), ideal_lattice(antichain(3)),
              product([chain(1), chain(3)])]:
        for c in P.maximal_chains():
            assert len(c) - 1 == P.top_rank


def test_poset_text_round_trip():
    g = product([chain(1), chain(2)])
    text = format_poset_text(g)
    g2 = parse_poset_text(text)
    assert g2.n == g.n and g2.covers == g.covers and g2.rank == g.rank


def test_poset_text_rejects_bad_cover():
    with pytest.raises(ValueError):
        parse_poset_text("0 0\n1 1\n0 5\n")
