"""Poset construction, products, ideal lattices, and fold detection."""

import itertools
import math
import random

import pytest

from homchains import (
    CapExceeded,
    FinitePoset,
    GradedPoset,
    antichain,
    chain,
    chain_factors,
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
    assert chain_factors(b3) == (1, 1, 1)


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
    assert chain_factors(ideal_lattice(u)) == (1, 1, 1)


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
    assert chain_factors(j) == tuple(lengths)
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
    # however the ids run, J of a union of chains is read as a product of chains
    assert chain_factors(ideal_lattice(FinitePoset(3, [(1, 2), (2, 0)]))) == (3,)
    assert chain_factors(ideal_lattice(FinitePoset(3, [(2, 0)]))) == (1, 2)
    assert chain_factors(ideal_lattice(FinitePoset(3, [(0, 2)]))) == (1, 2)
    assert chain_factors(ideal_lattice(FinitePoset(3, [(0, 2), (1, 2)]))) is None
    assert chain_factors(ideal_lattice(FinitePoset(3, [(0, 1), (0, 2)]))) is None
    assert chain_factors(ideal_lattice(antichain(0))) is None


def relabel(P, ids):
    """P with element x renamed ids[x]."""
    rank = [0] * P.n
    for x, r in zip(ids, P.rank):
        rank[x] = r
    return GradedPoset(P.n, [(ids[a], ids[b]) for a, b in P.covers], rank=rank)


def specs(ell):
    """Every chain spec of at most ell letters, each in every factor order."""
    return [(v, *rest) for v in range(1, ell + 1) for rest in [(), *specs(ell - v)]]


# the sorted specs of the products of chains with at most 8 elements
SMALL_SPECS = [s for s in specs(7) if list(s) == sorted(s) and math.prod(v + 1 for v in s) <= 8]


def isomorphic_to_product(P, lengths):
    """Brute force: some rank-preserving bijection carries P's covers onto
    those of the product of chains."""
    Q = product_of_chains(lengths)
    if Q.n != P.n or len(Q.covers) != len(P.covers) or sorted(Q.rank) != sorted(P.rank):
        return False
    levels_p = [[x for x in range(P.n) if P.rank[x] == r] for r in range(P.top_rank + 1)]
    levels_q = [[x for x in range(Q.n) if Q.rank[x] == r] for r in range(Q.top_rank + 1)]
    want = set(Q.covers)
    for images in itertools.product(*map(itertools.permutations, levels_q)):
        f = {x: y for xs, ys in zip(levels_p, images) for x, y in zip(xs, ys)}
        if {(f[a], f[b]) for a, b in P.covers} == want:
            return True
    return False


def random_graded_poset(rng):
    """A graded poset on at most 8 shuffled ids: random covers between
    random rank levels, or a product of chains with a cover added or
    removed (None when that breaks gradedness)."""
    if rng.random() < 0.5:
        n = rng.randint(1, 8)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        levels = [list(range(a, b)) for a, b in zip([0, *cuts], [*cuts, n])]
        p = rng.random()
        covers = set()
        for lo, hi in zip(levels, levels[1:]):
            covers |= {(a, b) for a in lo for b in hi if rng.random() < p}
            covers |= {(rng.choice(lo), b) for b in hi if not any((a, b) in covers for a in lo)}
            covers |= {(a, rng.choice(hi)) for a in lo if not any((a, b) in covers for b in hi)}
        rank = [r for r, level in enumerate(levels) for _ in level]
    else:
        Q = product_of_chains(rng.choice(SMALL_SPECS))
        n, rank, covers = Q.n, Q.rank, set(Q.covers)
        step = rng.randrange(3)
        if step == 1:
            covers.remove(rng.choice(sorted(covers)))
        elif step == 2:
            covers.add(rng.choice([(a, b) for a in range(n) for b in range(n)
                                   if rank[b] == rank[a] + 1]))
    try:
        P = GradedPoset(n, covers, rank=rank)
    except ValueError:
        return None
    return relabel(P, rng.sample(range(n), n))


def test_chain_factors_agrees_with_brute_force_isomorphism():
    rng = random.Random(1812_07335)
    found = tried = 0
    for _ in range(3000):
        P = random_graded_poset(rng)
        if P is None:
            continue
        tried += 1
        want = [s for s in SMALL_SPECS if isomorphic_to_product(P, s)]
        assert chain_factors(P) == (want[0] if want else None), (P.covers, P.rank)
        found += bool(want)
    assert tried > 2000 and 300 < found < tried - 300


@pytest.mark.parametrize("lengths", specs(6))
def test_chain_factors_reads_every_product(lengths):
    want = tuple(sorted(lengths))
    rng = random.Random(hash(lengths))
    P = product_of_chains(lengths)
    J = ideal_lattice(disjoint_union([chain(v - 1) for v in lengths]))
    for L in (P, J):
        assert chain_factors(L) == want
        assert chain_factors(relabel(L, rng.sample(range(L.n), L.n))) == want


def test_chain_factors_refuses_what_is_not_a_product_of_chains():
    def zigzag(n):
        return FinitePoset(n, [(k, k + 1) if k % 2 == 0 else (k + 1, k) for k in range(n - 1)])

    m3 = GradedPoset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], rank=[0, 1, 1, 1, 2])
    for P in (ideal_lattice(zigzag(5)), ideal_lattice(zigzag(7)), m3,
              disjoint_union([chain(2), chain(2)]), disjoint_union([chain(1), chain(3)]),
              chain(0), antichain(0)):
        assert chain_factors(P) is None


def test_chain_factors_trusts_no_constructor():
    # a chain built by hand is the chain C_2, and a chain with a point is still a chain
    assert chain_factors(GradedPoset(3, [(0, 1), (1, 2)], [0, 1, 2])) == (2,)
    assert chain_factors(product([chain(0), chain(2), chain(0)])) == (2,)
    assert chain_factors(product([chain(1), ideal_lattice(antichain(2))])) == (1, 1, 1)
    assert chain_factors(chain(1199)) == (1199,)


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


@pytest.mark.parametrize("text", ["", "\n  \n", "# a comment only\n"])
def test_poset_text_without_elements_is_rejected(text):
    with pytest.raises(ValueError, match="^no elements$"):
        parse_poset_text(text)


@pytest.mark.parametrize("line", ["1 x", "x 1", "1 1.5", "1", "1 1 1", "1 2 x"])
def test_poset_text_names_the_line_of_a_bad_token(tmp_path, line):
    path = tmp_path / "bad.poset"
    path.write_text(f"0 0\n{line}\n")
    with pytest.raises(ValueError, match=r"^line 2: expected two integers$"):
        parse_poset_text(path.read_text())
