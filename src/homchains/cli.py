"""Command-line frontend: build complexes, run the matching, verify, report.

`report` and the `torsion-free` and `euler` suites of `verify` take homology
from the Morse complex of the certified matching, after chains.check_squared
has checked d o d = 0 on the full complex's face tables; the same check runs
on the Morse complex, and Smith normal form only on its face tables.
Certifying the matching (the `acyclicity` and `zero-incidence` suites too)
also checks that every incidence of the full complex is +1 or -1.
Full-complex homology stays the independent cross-check of the tests and of
chains.verify_fold_consequence.

The matching digest and `match --emit-pairs` stream the pairs word by word
(_matched_pairs), rendering each word's letters once.  Words share descent
sets, so the sorted order of a word's placements is built once per descent
set: 64 serve the 5,040 words of B_7, and 208 the 7,560 of (2,2,2,3).
The digest is hashed by the interpreter's own SHA-256 module, so `report`
and `match` never load OpenSSL's libcrypto (only an interpreter built
without that module falls back to hashlib).

The `cubicality` suite (_cubicality) decides each cell from its pair mask
alone: the pairs must sit on positions 1..ell - 1, no two adjacent, and
the cells decided must be all of the complex's.  That is
complexes.is_cubical on the cell's image under cellword_to_multihom; the
tests hold the evidence that the cell-word model is Hom itself (against
hom_complex_generic and a per-position map).  Words share their
Placements, so it decides each distinct one once: about 0.0013 s on
(2,2,2,3) and 0.005 s on B_8.

The `bijection` suite (_bijection) reads each word's descents from the word
table and compares (dimension, index) pairs, building a cell key only to
name a failure: 0.004 s on (2,2,2,3) and 0.03 s on B_8.

Exit codes: 0 pass, 1 verification failure or failed internal check (a
complex or matching that validate_acyclic cannot certify included, as in a
`report` on a matching with an alternating cycle), 2 usage, cap or
out-of-memory error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import cached_property

from . import chains, complexes, euler, morse, posets, words

SCHEMA = "homchains-report/1"
SUITES = ("cubicality", "acyclicity", "bijection", "zero-incidence",
          "torsion-free", "euler")


def _spec(text):
    """argparse type of --spec: comma-separated chain lengths."""
    try:
        return words.ChainSpec(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad chain spec {text!r}: {exc}") from None


def _poset(path):
    """argparse type of --poset: the graded poset in a poset file."""
    try:
        with open(path) as fh:
            return posets.parse_poset_text(fh.read())
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text):
    """argparse type of a count that must be at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _emit(payload, fmt, table_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def cmd_build(args):
    if args.spec is not None:
        cx = complexes.chain_product_complex(args.spec, cap=args.max_cells)
    else:
        cx = complexes.maximal_chain_complex(args.poset, cap=args.max_cells)
    payload = {"schema": SCHEMA, "f_vector": list(cx.f_vector()), "dim": cx.dim,
               "euler": cx.euler_characteristic()}
    if args.spec is not None:
        payload["spec"] = list(args.spec.i)
    _emit(payload, args.format, [
        f"f-vector: {cx.f_vector()}",
        f"dimension: {cx.dim}",
        f"euler characteristic: {cx.euler_characteristic()}",
    ])
    return 0


def _matched_pairs(matching):
    """The matched pairs as rendered (lower, upper) cell words, in sorted order:
    word by word, each word's placements sorted across dimensions."""
    table = matching.cx.word_table
    up = [matching.up[d] for d in range(len(table.starts))]
    orders = {}  # descents -> the placements as sorted (pairs, d, rank)
    for k, (word, info) in enumerate(zip(table.words, table.placements)):
        by_dim, order = info.by_dim, orders.get(info.descents)
        if order is None:
            order = orders[info.descents] = sorted(
                (ps, d, r) for d, pss in enumerate(by_dim) for r, ps in enumerate(pss))
        letters = list(map(words._render_letter, word))
        starts = [table.starts[d][k] for d in range(len(by_dim))]
        for ps, d, r in order:
            u = up[d][starts[d] + r]
            if u >= 0:
                ru = u - starts[d + 1] if d + 1 < len(by_dim) else -1
                if not 0 <= ru < len(by_dim[d + 1]):
                    raise AssertionError(f"up-partner {u} lies outside the word {''.join(letters)}")
                yield (words._parenthesize(letters.copy(), ps),
                       words._parenthesize(letters.copy(), by_dim[d + 1][ru]))


def _sha256():
    """A SHA-256 hash object from the interpreter's own module, the one
    hashlib itself falls back to: _sha2 from Python 3.12, _sha256 before.
    hashlib.sha256 serves only an interpreter built without either."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def _matching_digest(pairs):
    """sha256 of the rendered matched pairs, one `lower->upper` line each.

    The hash is the interpreter's own (_sha256), not hashlib's, because
    hashlib.sha256 maps OpenSSL's libcrypto: on Python 3.11 that raised the
    peak RSS of a B_7 report from 18.1 to 21.5 MiB (wait4) to hash 387,571
    bytes.  The function is the same; the own module takes 3.2 ms on those
    17,289 lines against OpenSSL's 1.3 ms, and saves the 4 ms import of
    hashlib's OpenSSL module.
    """
    h = _sha256()
    for a, b in pairs:
        h.update(f"{a}->{b}\n".encode())
    return h.hexdigest()


def cmd_match(args):
    run = _Run(args)
    matching = run.matching
    pairs = _matched_pairs(matching)
    if args.emit_pairs:
        pairs = list(pairs)
    payload = {
        "schema": SCHEMA,
        "spec": list(args.spec.i),
        "cells": run.cx.n_cells(),
        "matched_pairs": len(matching.up),
        "critical": {str(d): k for d, k in matching.critical_count().items()},
        "digest": _matching_digest(pairs),
    }
    lines = [f"cells: {payload['cells']}",
             f"matched pairs: {len(matching.up)}",
             "critical cells: " + ", ".join(
                 f"dim {d}: {k}" for d, k in matching.critical_count().items()),
             f"digest: {payload['digest']}"]
    if args.emit_critical:
        payload["critical_cells"] = critical = {
            str(d): [words.render_cellword(c) for c in v]
            for d, v in morse.critical_cells(matching).items()}
        lines.extend(f"dim {d}: " + " ".join(v) for d, v in critical.items())
    if args.emit_pairs:
        payload["pairs"] = [list(pair) for pair in pairs]
        lines.extend(f"{a} <-> {b}" for a, b in pairs)
    if args.emit_trace is not None:
        cell = words.parse_cellword(args.emit_trace)
        trace = morse.fiber_trace(args.spec, cell)
        partner = words.render_cellword(trace.partner) if trace.partner else None
        payload["trace"] = {
            "cell": words.render_cellword(cell),
            "steps": [{"r": r, "s": s, "j": j, "rho": k} for r, s, j, k in trace.steps],
            "outcome": trace.outcome,
            "partner": partner,
        }
        lines.append(f"trace of {words.render_cellword(cell)}:")
        lines.extend("  " + row for row in trace.rows())
        lines.append(f"  outcome: {trace.outcome}" + (f" with {partner}" if partner else ""))
    _emit(payload, args.format, lines)
    return 0


class _Run:
    """The complex of a chain spec and the matching run on its cells, with the
    acyclicity certificate, Morse complex and homology each built at most once."""

    def __init__(self, args):
        self.cx = complexes.chain_product_complex(args.spec, cap=args.max_cells)
        self.matching = morse.match_product_of_chains(self.cx)

    @cached_property
    def cert(self):
        return morse.validate_acyclic(self.matching)

    @cached_property
    def morse_complex(self):
        return chains.morse_complex(self.cert)

    @cached_property
    def homology(self):
        """Homology of the complex, from its Morse complex, once
        chains.check_squared has checked d o d = 0 on the complex itself;
        chains.homology runs the same check on the Morse complex."""
        chains.check_squared(self.cx)
        return chains.homology(self.morse_complex)


def _cubicality(cx):
    """(ok, detail) of the cubicality suite on a spec complex: every pair
    mask m lies on positions 1..ell - 1 with no two bits adjacent.  Words
    share their Placements, so each distinct one is decided once, keyed by
    identity, and adds its cells for every word that shares it; a failure
    names the bad cell of the first word whose Placements has one."""
    table = cx.word_table
    outside = ~((1 << table.spec.ell) - 2)
    sizes, bad = {}, {}  # by id of a Placements: its cell count; its first bad pairs
    for info in {id(info): info for info in table.placements}.values():
        sizes[id(info)] = sum(map(len, info.masks))
        for pairs, m in zip(itertools.chain(*info.by_dim), itertools.chain(*info.masks)):
            if m & outside or m & (m >> 1):
                bad[id(info)] = pairs
                break
    if bad:
        k = next(k for k, info in enumerate(table.placements) if id(info) in bad)
        cell = words.CellWord(tuple(table.words[k]), bad[id(table.placements[k])])
        return False, f"non-cubical cell {words.render_cellword(cell)}"
    checked = sum(map(sizes.__getitem__, map(id, table.placements)))
    if checked != cx.n_cells():
        return False, f"{checked} cells checked of {cx.n_cells()}"
    return True, f"{checked} cells checked"


def _bijection(matching):
    """(ok, detail) of the bijection suite: the cells critical by the paper's
    run rule (words.critical_pairs of each word's descents in the word
    table) against those the matching leaves unmatched, as (dimension,
    index); cell keys are built only to name a failure."""
    cx = matching.cx
    table = cx.word_table
    by_matching = {(d, i) for d, v in matching.critical.items() for i in v}
    detail = f"{len(by_matching)} critical cells"
    by_rule = set()
    for k, info in enumerate(table.placements):
        pairs = words.critical_pairs(info.descents)
        if pairs is None:
            continue
        mask = sum(1 << p for p in pairs)
        r = info.rank.get(mask)
        if r is None or mask.bit_count() != len(pairs):  # no placement of the word
            word = "".join(map(words._render_letter, table.words[k]))
            return False, f"{detail}; the word rule puts pairs at {pairs} in {word}, no cell"
        by_rule.add((len(pairs), table.starts[len(pairs)][k] + r))
    if by_rule != by_matching:
        d, i = min(by_rule ^ by_matching, key=lambda c: cx.cells[c[0]][c[1]])
        cell = words.render_cellword(cx.cells[d][i])
        side = "the word rule" if (d, i) in by_rule else "the matching"
        return False, f"{detail}; {cell} is critical only by {side}"
    return True, detail


def _zero_incidence(mc):
    """(ok, detail) of the zero-incidence suite: the Morse complex mc fails
    it at its first nonzero incidence [tau : sigma], named by cell words."""
    for d in sorted(mc.boundary):
        for j, sigma in enumerate(mc.cells[d]):
            for i, c in mc.faces(d, j):
                tau = words.render_cellword(mc.cells[d - 1][i])
                return False, f"Morse incidence [{tau} : {words.render_cellword(sigma)}] = {c}"
    return True, "all Morse boundaries zero"


def _suite_results(args, names):
    """Run verification suites for a chain spec; yields (name, ok, detail)."""
    spec = args.spec
    run = _Run(args)
    cx, matching = run.cx, run.matching
    results = []
    for name in names:
        if name == "cubicality":
            results.append((name, *_cubicality(cx)))
        elif name == "acyclicity":
            try:
                run.cert  # raises AcyclicityError on an alternating cycle
                results.append((name, True, f"{len(matching.up)} pairs"))
            except morse.AcyclicityError as exc:
                results.append((name, False, str(exc)))
        elif name == "bijection":
            results.append((name, *_bijection(matching)))
        elif name == "zero-incidence":
            results.append((name, *_zero_incidence(run.morse_complex)))
        elif name == "torsion-free":
            hreport = run.homology
            results.append((name, hreport.torsion_free, f"betti {hreport.betti}"))
        elif name == "euler":
            chi = cx.euler_characteristic()
            ok = chi == run.homology.euler
            detail = f"chi = {chi}"
            if all(v == 1 for v in spec.i):
                ok = ok and chi == euler.euler_formula(spec.n)
                detail += f" (formula chi_{spec.n} = {euler.euler_formula(spec.n)})"
            results.append((name, ok, detail))
    return results


def cmd_verify(args):
    names = SUITES if args.suite == "all" else tuple(dict.fromkeys(args.suite.split(",")))
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    results = _suite_results(args, names)
    payload = {"schema": SCHEMA, "spec": list(args.spec.i),
               "results": {name: ok for name, ok, _ in results},
               "details": {name: detail for name, _, detail in results}}
    lines = [f"{name}: {'PASS' if ok else 'FAIL'} ({detail})" for name, ok, detail in results]
    _emit(payload, args.format, lines)
    return 0 if all(ok for _, ok, _ in results) else 1


def cmd_report(args):
    spec = args.spec
    run = _Run(args)
    cx, matching, hreport = run.cx, run.matching, run.homology
    payload = {
        "schema": SCHEMA,
        "spec": list(spec.i),
        "f_vector": list(cx.f_vector()),
        "critical": {str(d): [words.render_cellword(c) for c in v]
                     for d, v in morse.critical_cells(matching).items()},
        "betti": list(hreport.betti),
        "torsion": [list(t) for t in hreport.torsion],
        "euler": hreport.euler,
        "matching": {"pairs": len(matching.up),
                     "digest": _matching_digest(_matched_pairs(matching))},
        "acyclic": True,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_euler(args):
    table = euler.euler_table(args.n_max)
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "chi": {str(n): chi for n, chi in table}},
                         sort_keys=True))
    else:
        for n, chi in table:
            print(f"chi_{n} = {chi}")
    return 0


def _parser():
    ap = argparse.ArgumentParser(prog="homchains",
                                 description="Homomorphism complexes of maximal chains")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--max-cells", type=_positive, default=words.DEFAULT_CAP,
                       help="cap on the cells and on the letters of one word")
        if fmt:
            p.add_argument("--format", choices=("json", "table"), default="table")

    spec_help = "comma-separated chain lengths, e.g. 2,2,2"
    p = sub.add_parser("build", help="build the complex and print its f-vector")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", type=_spec, help=spec_help)
    source.add_argument("--poset", type=_poset,
                        help="poset file: `id rank` lines then `lower upper` covers; "
                             "a product of chains, whatever its ids, builds as the --spec "
                             "of its lengths")
    common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("match", help="run the discrete Morse matching")
    p.add_argument("--spec", type=_spec, required=True, help=spec_help)
    common(p)
    p.add_argument("--emit-critical", action="store_true")
    p.add_argument("--emit-pairs", action="store_true")
    p.add_argument("--emit-trace", metavar="CELL", help="trace one cell, e.g. '(21)1(32)344'")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--spec", type=_spec, required=True, help=spec_help)
    common(p)
    p.add_argument("--suite", default="all",
                   help="comma-separated: " + ", ".join(SUITES) + ", or all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="emit the JSON report bundle")
    p.add_argument("--spec", type=_spec, required=True, help=spec_help)
    common(p, fmt=False)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("euler", help="Euler characteristics of Hom(B_n)")
    p.add_argument("--n-max", type=_positive, default=20)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_euler)

    return ap


def main(argv=None):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (AssertionError, ArithmeticError, morse.CertificationError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, posets.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
