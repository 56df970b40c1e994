"""Benchmark workloads: the CLI argv, the generated input and an output check.

Every reference value is either computed here, without importing
`homchains`, or recorded from the seed commit, so a change to the program
cannot also change what counts as a correct answer.  A check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable

VERIFY_SUITES = "cubicality,acyclicity,bijection,zero-incidence"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple                      # arguments after `python -m homchains.cli`
    setup_code: str                  # body of the set-up child, after `from homchains import ...`
    check: Callable[[str], list]     # stdout of a successful command -> problems


# -- independent combinatorics ------------------------------------------------


def _multiset_words(counts):
    """All words with counts[k] copies of letter k + 1."""
    counts = list(counts)
    total = sum(counts)
    word = []

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for k, c in enumerate(counts):
            if c:
                counts[k] -= 1
                word.append(k + 1)
                yield from rec()
                word.pop()
                counts[k] += 1

    return rec()


def cell_count(spec):
    """Cells of Hom(C_m, C_i1 x ... x C_in): words times non-adjacent descent sets."""
    total = 0
    for w in _multiset_words(spec):
        # independent sets in the path on the descent positions, run by run
        prev, a, b = None, 1, 1   # a: sets avoiding the last descent, b: all sets
        for j in range(1, len(w)):
            if w[j - 1] > w[j]:
                a, b = (b, a + b) if prev == j - 1 else (b, 2 * b)
                prev = j
        total += b
    return total


def boolean_f_vector(n):
    """f-vector of Hom(B_n): f_k = n! / 2^k * C(n - k, k)."""
    return [factorial(n) // 2 ** k * comb(n - k, k) for k in range(n // 2 + 1)]


def zigzag_ideal_lattice(n, seed):
    """Poset text for J(Z_n), the ideal lattice of the zigzag 0 < 1 > 2 < 3 ...

    The seed shuffles the element ids and the order of the cover lines; the
    lattice itself does not change.  Returns (text, number of maximal chains).
    """
    below = [0 if x % 2 == 0 else
             sum(1 << y for y in (x - 1, x + 1) if 0 <= y < n) for x in range(n)]
    ideals = [m for m in range(1 << n)
              if all(not (m >> x) & 1 or m & below[x] == below[x] for x in range(n))]
    ids = list(range(len(ideals)))
    rng = random.Random(seed)
    rng.shuffle(ids)
    id_of = dict(zip(ideals, ids))
    rank = [0] * len(ideals)
    for m in ideals:
        rank[id_of[m]] = bin(m).count("1")
    covers = [(id_of[m], id_of[m | 1 << x]) for m in ideals for x in range(n)
              if not (m >> x) & 1 and (m | 1 << x) in id_of]
    rng.shuffle(covers)
    lines = [f"{i} {r}" for i, r in enumerate(rank)] + [f"{a} {b}" for a, b in covers]
    chains = {0: 1}
    for m in sorted(ideals, key=lambda m: bin(m).count("1")):
        for x in range(n):
            if not (m >> x) & 1 and (m | 1 << x) in id_of:
                chains[m | 1 << x] = chains.get(m | 1 << x, 0) + chains[m]
    return "\n".join(lines) + "\n", chains[(1 << n) - 1]


# -- output checks ------------------------------------------------------------


def _json_out(stdout):
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_report(stdout, n, betti, digest):
    out, problems = _json_out(stdout)
    if out is None:
        return problems
    f = boolean_f_vector(n)
    chi = sum((-1) ** k * v for k, v in enumerate(f))
    _expect(problems, "f_vector", out.get("f_vector"), f)
    _expect(problems, "betti", out.get("betti"), list(betti))
    _expect(problems, "torsion", out.get("torsion"), [[] for _ in betti])
    _expect(problems, "euler", out.get("euler"), chi)
    _expect(problems, "euler of betti", sum((-1) ** k * b for k, b in enumerate(betti)), chi)
    critical = out.get("critical", {})
    _expect(problems, "critical counts",
            [len(critical.get(str(k), ())) for k in range(len(betti))], list(betti))
    matching = out.get("matching", {})
    _expect(problems, "matched pairs", matching.get("pairs"), (sum(f) - sum(betti)) // 2)
    _expect(problems, "matching digest", matching.get("digest"), digest)
    _expect(problems, "acyclic", out.get("acyclic"), True)
    return problems


def check_verify(stdout, spec, cells, pairs, critical):
    problems = []
    _expect(problems, "cells of the spec", cell_count(spec), cells)
    _expect(problems, "cells = 2 pairs + critical", 2 * pairs + critical, cells)
    want = [f"cubicality: PASS ({cells} cells checked)",
            f"acyclicity: PASS ({pairs} pairs)",
            f"bijection: PASS ({critical} critical cells)",
            "zero-incidence: PASS (all Morse boundaries zero)"]
    _expect(problems, "verify lines", stdout.splitlines(), want)
    return problems


def check_build(stdout, f_vector, euler, maximal_chains):
    out, problems = _json_out(stdout)
    if out is None:
        return problems
    _expect(problems, "f_vector", out.get("f_vector"), list(f_vector))
    _expect(problems, "f_0 = maximal chains", f_vector[0], maximal_chains)
    _expect(problems, "euler", out.get("euler"), euler)
    _expect(problems, "euler of f_vector",
            sum((-1) ** k * v for k, v in enumerate(f_vector)), euler)
    _expect(problems, "dim", out.get("dim"), len(f_vector) - 1)
    return problems


# -- workload constructors ----------------------------------------------------


def report(n, betti, digest):
    spec = ",".join(["1"] * n)
    return Workload(
        name=f"report-b{n}",
        argv=("report", "--spec", spec),
        setup_code=f"words.ChainSpec(tuple(int(v) for v in {spec!r}.split(',')))",
        check=lambda stdout: check_report(stdout, n, betti, digest))


def verify(spec, cells, pairs, critical):
    text = ",".join(str(v) for v in spec)
    return Workload(
        name="verify-" + "".join(str(v) for v in spec),
        argv=("verify", "--suite", VERIFY_SUITES, "--spec", text),
        setup_code=f"words.ChainSpec(tuple(int(v) for v in {text!r}.split(',')))",
        check=lambda stdout: check_verify(stdout, spec, cells, pairs, critical))


def build_zigzag(n, f_vector, euler, seed, work_dir):
    text, maximal_chains = zigzag_ideal_lattice(n, seed)
    path = Path(work_dir) / f"zigzag{n}-seed{seed}.poset"
    path.write_text(text)
    return Workload(
        name=f"build-zigzag{n}",
        argv=("build", "--poset", str(path), "--format", "json"),
        setup_code=f"posets.parse_poset_text(pathlib.Path({str(path)!r}).read_text())",
        check=lambda stdout: check_build(stdout, f_vector, euler, maximal_chains))


# Reference values: f-vectors by formula or brute force above, and the rest
# (Betti numbers, matching digest, pair and critical counts) from the seed commit.
B7_DIGEST = "d6886897ce09eecab84c73e57b0b162c7395a2c02d1a710c90a8951c5ae4ef8e"

WORKLOADS = {
    "report-b7": lambda seed, work_dir: report(7, (1, 351, 350, 0), B7_DIGEST),
    "verify-2223": lambda seed, work_dir: verify((2, 2, 2, 3), 72750, 36178, 394),
    "build-zigzag7": lambda seed, work_dir: build_zigzag(
        7, (272, 680, 490, 85), -3, seed, work_dir),
}
