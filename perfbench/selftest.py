"""Self-test of the benchmark harness on tiny inputs: `python3 perfbench/selftest.py`.

Uses B_4, the spec (1,1,2) and J(Z_5) in place of the real workloads and
asserts that
  * every metric named in BENCHMARK.json is printed with its unit,
  * a corrupted reference makes the command count as failed,
  * counters repeat exactly between two traced runs,
  * traced spans nest and counters match the inputs' known sizes,
  * the zigzag input has the same f-vector for every seed,
  * the benchmark exits non-zero, printing no result, without a program.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads as wl

B4_DIGEST = "204dbba700083c553f0a2ed25805e85e55f41be8e69185eb5f5b2f447961341d"

TINY = {
    "report-b4": lambda seed, work: wl.report(4, (1, 7, 0), B4_DIGEST),
    "verify-112": lambda seed, work: wl.verify((1, 1, 2), 29, 13, 3),
    "build-zigzag5": lambda seed, work: wl.build_zigzag(5, (16, 24, 8), 0, seed, work),
}

CORRUPT = {
    "report-b4": lambda seed, work: wl.report(4, (1, 7, 0), "0" * 64),
    "verify-112": lambda seed, work: wl.verify((1, 1, 2), 29, 12, 5),
    "build-zigzag5": lambda seed, work: wl.build_zigzag(5, (16, 25, 9), 0, seed, work),
}

# counters whose values follow from the input alone
EXPECTED_COUNTS = {
    "report-b4": {"words.enumerate_cellwords.items": 2 * 66, "complexes.cells": 66,
                  "morse.validate_acyclic.calls": 1, "morse.critical_cells": 8,
                  "chains.smith_normal_form.calls": 2},
    "verify-112": {"words.enumerate_cellwords.items": 2 * 29, "complexes.cells": 29,
                   "complexes.cellword_to_multihom.calls": 29,
                   "morse.validate_acyclic.calls": 2, "morse.matched_pairs": 13,
                   "chains.smith_normal_form.calls": 0},
    "build-zigzag5": {"complexes.cells": 48, "words.enumerate_cellwords.calls": 0},
}

SECONDS = 0.5


def declared(section):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def result_of(name, traced, table=TINY, seed=1):
    result, lines = run.run(name, seed, SECONDS, traced, table)
    printed = "\n".join(lines)
    for metric, value in result["metrics"].items():
        check(metric in printed, f"{name}: {metric} not printed")
        check(isinstance(value["value"], (int, float)), f"{name}: {metric} is not a number")
    return result


def spans(name, seed=1):
    path = run.WORK / f"trace-{name}-seed{seed}.json"
    return json.loads(path.read_text())["spans"]


def find(node, name):
    if node["name"] == name:
        return node
    for child in node["children"]:
        hit = find(child, name)
        if hit:
            return hit
    return None


def test_metrics_and_units():
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        units = declared(section)
        for name in TINY:
            result = result_of(name, traced)
            check(result["correct"] and result["failed"] == 0, f"{name}: {result}")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == units, f"{name} trace={traced}: metrics differ from BENCHMARK.json")
            if not traced:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{name}: an end-to-end metric is not positive")


def test_corrupted_reference_fails():
    for name in CORRUPT:
        for traced in (False, True):
            result = result_of(name, traced, CORRUPT)
            check(not result["correct"], f"{name}: corrupted reference passed")
            check(result["failed"] == result["attempted"] >= 1,
                  f"{name}: failures not counted: {result['failed']}/{result['attempted']}")


def test_counters_repeat_and_spans_nest():
    counts = {m for m, unit in declared("per_layer").items() if unit == "count"}
    for name in TINY:
        first, second = (result_of(name, True)["metrics"] for _ in range(2))
        for m in counts:
            check(first[m]["value"] == second[m]["value"],
                  f"{name}: {m} changed between traced runs")
        for m, want in EXPECTED_COUNTS[name].items():
            check(first[m]["value"] == want, f"{name}: {m} = {first[m]['value']}, want {want}")
    tree = spans("report-b4")
    homology = find(tree, "chains.homology")
    check(homology is not None, "report-b4: no chains.homology span")
    inner = {c["name"] for c in homology["children"]}
    check({"chains.boundary_matrices", "chains.smith_normal_form"} <= inner,
          f"chains.homology contains {inner}")
    build = find(tree, "complexes.chain_product_complex")
    check(find(build, "words.enumerate_cellwords") is not None,
          "enumerate_cellwords is not inside chain_product_complex")


def test_zigzag_seeds_agree():
    for seed in (1, 2, 3):
        result = result_of("build-zigzag5", False, seed=seed)
        check(result["correct"], f"build-zigzag5 seed {seed}: {result}")


def test_fails_without_program():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "report-b7",
                               "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    tests = [test_metrics_and_units, test_corrupted_reference_fails,
             test_counters_repeat_and_spans_nest, test_zigzag_seeds_agree,
             test_fails_without_program]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
