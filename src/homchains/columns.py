"""The column pass of chains.check_squared, which clears, column by column,
the cells of face tables that list faces pair by pair.  It is a module of
its own because a module imported without cached bytecode is compiled
whole, and the compile of chains, the package's largest module, sets the
peak of that start-up heap.
"""

from itertools import combinations, compress, count, product
from operator import eq, ne


def pairwise(table, w, n):
    """Whether table lists the faces of n cells, w to a cell, at ptr = range(0, w n + 1, w)."""
    return table.ptr == range(0, w * n + 1, w) and len(table.idx) == len(table.sgn) == w * n


def uncleared(cx, d):
    """The d-cells left to the per-cell loop of chains.check_squared, in
    order: all of them unless the d- and (d-1)-tables list faces pair by
    pair (pairwise) with constant sign columns, else those failing a
    streamed comparison of the column views idx[a::2d], indexed only then.
    A cell is cleared when its faces differ and, position 2t + x releasing
    pair t, for t < u the composites (2t + x, 2(u - 1) + y) and
    (2u + y, 2t + x) meet with opposite signs.  The views are released on
    return, so the tables can still resize.
    """
    table, lower = cx.boundary[d], cx.boundary.get(d - 1)
    w, n = 2 * d, len(table.ptr) - 1
    if not (n and pairwise(table, w, len(cx.cells[d]))
            and (lower is None or pairwise(lower, w - 2, len(cx.cells[d - 1])))):
        return range(n)
    views = []

    def view(buf, *cut):
        views.append(memoryview(buf)[slice(*cut)])
        return views[-1]

    try:
        # a sign column is constant iff each sign equals the one a cell later
        for tab, step in ((table, w), (lower, w - 2)):
            if tab and any(map(ne, view(tab.sgn, step, None), view(tab.sgn, None, -step))):
                return range(n)
        s, ls = table.sgn, lower.sgn if lower else ()
        cols = [view(table.idx, a, None, w) for a in range(w)]
        lower_at = [view(lower.idx, b, None, w - 2).__getitem__ for b in range(w - 2)]
        bad = set()
        for a, b in combinations(range(w), 2):
            if any(map(eq, cols[a], cols[b])):
                bad.update(compress(count(), map(eq, cols[a], cols[b])))
        for t, u in combinations(range(d), 2):
            for x, y in product((0, 1), repeat=2):
                a, b, c = 2 * t + x, 2 * (u - 1) + y, 2 * u + y
                if s[a] * ls[b] != -s[c] * ls[a]:
                    return range(n)
                if any(map(ne, map(lower_at[b], cols[a]), map(lower_at[a], cols[c]))):
                    bad.update(compress(count(), map(
                        ne, map(lower_at[b], cols[a]), map(lower_at[a], cols[c]))))
        return sorted(bad)
    finally:
        for v in views:
            v.release()
