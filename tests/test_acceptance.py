"""Acceptance criteria: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Shared artifacts (complexes, matchings, Morse complexes, homology) are built
once per session and reused across criteria.
"""

import itertools
import time

import pytest

import homchains as hc


def partitions_up_to(nmax):
    out = []

    def rec(rest, minp, acc, bucket):
        if rest == 0:
            bucket.append(tuple(acc))
            return
        for p in range(minp, rest + 1):
            acc.append(p)
            rec(rest - p, p, acc, bucket)
            acc.pop()

    for total in range(1, nmax + 1):
        bucket = []
        rec(total, 1, [], bucket)
        out.extend(bucket)
    return out


SPECS7 = partitions_up_to(7)
SPECS8 = partitions_up_to(8)

_cache = {}


def artifacts(spec):
    """complex, matching, certificate, Morse complex (+censuses), homologies."""
    if spec not in _cache:
        cx = hc.chain_product_complex(spec)
        matching = hc.match_product_of_chains(cx)
        cert = hc.validate_acyclic(matching)
        mc = hc.morse_complex(cert)
        _cache[spec] = {
            "cx": cx,
            "matching": matching,
            "cert": cert,
            "morse": mc,
            "censuses": hc.path_censuses(cert),
            "homology": hc.homology(cx),
            "morse_homology": hc.homology(mc),
        }
    return _cache[spec]


def vertex_chain(word):
    mh = hc.cellword_to_multihom(hc.cellword(word), (1,) * len(word))
    return tuple(c[0] for c in mh)


def test_criterion_01_hexagon():
    t0 = time.perf_counter()
    art = artifacts((1, 1, 1))
    cx = art["cx"]
    assert cx.f_vector() == (6, 6)
    cycle = [(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 3, 1), (2, 1, 3)]
    want_vertices = [(((),) + ((w[0],), tuple(sorted(w[:2])), (1, 2, 3)))
                     for w in cycle]
    want_edges = {frozenset((want_vertices[i], want_vertices[(i + 1) % 6]))
                  for i in range(6)}
    got_edges = set()
    for j in range(len(cx.cells[1])):
        ends = [vertex_chain(cx.cells[0][f].word) for f, _ in cx.faces(1, j)]
        got_edges.add(frozenset(ends))
    assert got_edges == want_edges
    h = art["homology"]
    assert h.betti == (1, 1) and h.torsion_free
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 1: PASS - Hom(B_3) hexagon, betti (1,1), no torsion ({dt:.2f}s)")


def test_criterion_02_b4():
    t0 = time.perf_counter()
    art = artifacts((1, 1, 1, 1))
    assert art["cx"].f_vector() == (24, 36, 6)
    assert art["cx"].euler_characteristic() == -6
    assert hc.euler_formula(4) == -6
    assert art["matching"].critical_count() == {0: 1, 1: 7}
    h = art["homology"]
    assert h.betti == (1, 7, 0) and h.torsion_free and h.euler == -6
    assert not any(t.idx for t in art["morse"].boundary.values())
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 2: PASS - Hom(B_4): f=(24,36,6), chi=-6, critical (1,7), "
          f"betti (1,7), zero Morse incidences ({dt:.2f}s)")


def test_criterion_03_euler_identities():
    t0 = time.perf_counter()
    assert [hc.euler_formula(n) for n in (1, 2, 3, 4)] == [1, 1, 0, -6]
    for n in range(1, 21):
        a = hc.euler_formula(n)
        assert a == hc.euler_recursion(n) == hc.euler_closed_form(n)
    for n in range(1, 13):
        alt = sum((-1) ** k * hc.f_vector_bn(n, k) for k in range(n // 2 + 1))
        assert alt == hc.euler_formula(n)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 3: PASS - Euler formula/recursion/closed form agree for n<=20 ({dt:.2f}s)")


def test_criterion_04_bijection():
    t0 = time.perf_counter()
    for spec in SPECS8:
        matching = (artifacts(spec)["matching"] if spec in _cache
                    else hc.match_product_of_chains(hc.chain_product_complex(spec)))
        from_words = {}
        for w in hc.enumerate_words(spec):
            pairs = hc.critical_pairs(hc.descents(w))
            if pairs is not None:
                cw = hc.cellword(w, pairs)
                from_words.setdefault(cw.dim, set()).add(cw)
        from_matching = {d: set(v) for d, v in hc.critical_cells(matching).items()}
        assert from_words == from_matching, spec
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"criterion 4: PASS - critical cells = valid-descent words for all "
          f"{len(SPECS8)} specs with sum <= 8 ({dt:.1f}s)")


def test_criterion_05_optimality():
    t0 = time.perf_counter()
    total_paths = 0
    for spec in SPECS7:
        art = artifacts(spec)
        assert not any(t.idx for t in art["morse"].boundary.values()), spec
        for census in art["censuses"].values():
            assert census.total == 0
            assert census.pairing is not None, spec
            total_paths += len(census.paths)
            for i, j in census.pairing:
                assert census.weights[i] * census.weights[j] == -1
                assert abs(len(census.paths[i]) - len(census.paths[j])) == 2
        h, hm = art["homology"], art["morse_homology"]
        assert h.betti == hm.betti and h.torsion == hm.torsion, spec
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"criterion 5: PASS - zero Morse incidences, sign-reversing involution over "
          f"{total_paths} paths, Morse homology = SNF homology, all specs sum <= 7 ({dt:.1f}s)")


def test_criterion_06_torsion_free():
    t0 = time.perf_counter()
    for spec in SPECS7:
        assert artifacts(spec)["homology"].torsion_free, spec
    dt = time.perf_counter() - t0
    print(f"criterion 6: PASS - torsion-free homology for all specs sum <= 7 ({dt:.1f}s)")


def test_criterion_07_rst_counts():
    t0 = time.perf_counter()
    from homchains.words import rst_cell_from_selections

    for r in range(1, 7):
        for s in range(r, 7):
            for t in range(s, 7):
                if r + s + t > 8:
                    continue
                matching = hc.match_product_of_chains(hc.chain_product_complex((r, s, t)))
                for k in range(r + 1):
                    assert len(matching.critical.get(k, ())) == hc.count_critical_rst(r, s, t, k)
                    cells = {rst_cell_from_selections(r, s, t, o, w, h)
                             for o in itertools.combinations(range(1, r + 1), k)
                             for w in itertools.combinations(range(1, s + 1), k)
                             for h in itertools.combinations(range(1, t + 1), k)}
                    assert cells == set(hc.critical_cells(matching).get(k, ()))
    worked = hc.parse_cellword("233(21)123(21)13")
    assert hc.fiber_trace((4, 4, 4), worked).outcome == "critical"
    assert rst_cell_from_selections(4, 4, 4, (1, 3), (2, 4), (2, 3)) == worked
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"criterion 7: PASS - Hom(r,s,t) critical k-cells = C(r,k)C(s,k)C(t,k) for "
          f"r+s+t <= 8, worked (4,4,4) cell critical ({dt:.1f}s)")


def test_criterion_08_contractible_grids_and_folds():
    t0 = time.perf_counter()
    for r in range(1, 5):
        for s in range(r, 5):
            h = artifacts((r, s))["homology"] if (r, s) in _cache else hc.homology(
                hc.chain_product_complex((r, s)))
            assert h.betti[0] == 1 and all(b == 0 for b in h.betti[1:]), (r, s)
            assert h.torsion_free
    for r, s in [(2, 3), (3, 3)]:
        grid = hc.product_of_chains((r, s))
        Q = hc.chain(r + s)
        current = grid
        steps = 0
        while not hc.posets.is_chain(current):
            folds = hc.find_folds(current)
            assert folds, "stuck before reaching a chain"
            x, _ = folds[0]
            report = hc.verify_fold_consequence(Q, current, x)
            assert report.agree
            current, _ = hc.delete_element(current, x)
            steps += 1
        assert current.n == r + s + 1
        assert steps == (r + 1) * (s + 1) - (r + s + 1)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"criterion 8: PASS - Hom(r,s) contractible for r<=s<=4; fold sequences "
          f"verified to a chain ({dt:.1f}s)")


def test_criterion_09_claims():
    t0 = time.perf_counter()
    for spec in SPECS7:
        art = artifacts(spec)
        assert hc.check_fiber_monotonicity(art["cx"]) == (0, 0), spec
        assert hc.check_critical_structure(art["matching"]) == [], spec
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"criterion 9: PASS - fiber-map monotonicity and critical-cell structure, "
          f"zero counterexamples, all specs sum <= 7 ({dt:.1f}s)")


def test_criterion_10_boundary_squared():
    t0 = time.perf_counter()
    checked = 0
    for spec in SPECS7:
        art = artifacts(spec)
        hc.check_squared(art["cx"])
        hc.check_squared(art["morse"])
        checked += 1
    hexagon = hc.hom_complex_generic(hc.chain(3), hc.ideal_lattice(hc.antichain(3)))
    grid = hc.hom_complex_generic(hc.chain(4), hc.product_of_chains((2, 2)))
    for cx in (hexagon, grid):
        hc.check_squared(cx)
        assert all(set(t.sgn) <= {1, -1} for t in cx.boundary.values())
    dt = time.perf_counter() - t0
    print(f"criterion 10: PASS - boundary squared is zero on {checked + 2} complexes ({dt:.1f}s)")
