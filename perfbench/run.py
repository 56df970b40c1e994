"""Benchmark of the homchains command line, one workload per run.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its `src`.
Load is a closed loop with one client: each CLI command runs in a fresh
child process, one at a time, on the one CPU the benchmark pins itself to.

With `--trace 0` the run repeats the workload's command until `--seconds`
is used and reports the median wall time and peak RSS.  Between commands it
times set-up children, which import `homchains.cli`, parse the workload's
input and exit, and reports their median as the set-up time.  The speed of
a shared host drifts by tens of percent within minutes, so between commands
it also times `calibrate.py`, a fixed pure-Python job, and scales every
time to a host on which that job takes `REFERENCE_CALIBRATION_S`: a
command's time is multiplied by that constant over the mean calibration
time of the batches just before and just after it.  With `--trace 1` it
runs the command once in-process under `tracer.py` for the per-layer
metrics, then untraced commands for the rest of the time, and reports the
tracing overhead.
Every command's output is checked; the last line of standard output is the
JSON result.  Exits 2 without a result when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import harness
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

SETUP_BATCH = 3         # set-up children before the first command and after each one
CALIBRATION_BATCH = 2   # calibration children after each set-up batch
REFERENCE_CALIBRATION_S = 0.4   # calibration time of the host that scaled times refer to
MIN_COMMANDS = 3        # untraced commands per run, however short the run
RUN_LIMIT_S = 170.0     # no child starts, and every child is killed, past this
COMMAND_TIMEOUT_S = 120.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

PER_LAYER = {
    "words.self_s": "s",
    "words.enumerate_cellwords.self_s": "s",
    "words.enumerate_cellwords.calls": "count",
    "words.enumerate_cellwords.items": "count",
    "words.enumerate_words.self_s": "s",
    "words.enumerate_words.items": "count",
    "complexes.self_s": "s",
    "complexes.chain_product_complex.self_s": "s",
    "complexes.chain_product_complex.rss_gain_mb": "MiB",
    "complexes.cellword_to_multihom.self_s": "s",
    "complexes.cellword_to_multihom.calls": "count",
    "complexes.hom_complex_generic.self_s": "s",
    "complexes.cells": "count",
    "morse.self_s": "s",
    "morse.match_product_of_chains.self_s": "s",
    "morse.match_product_of_chains.rss_gain_mb": "MiB",
    "morse.validate_acyclic.self_s": "s",
    "morse.validate_acyclic.calls": "count",
    "morse.matched_pairs": "count",
    "morse.critical_cells": "count",
    "chains.self_s": "s",
    "chains.smith_normal_form.self_s": "s",
    "chains.smith_normal_form.calls": "count",
    "chains.smith_normal_form.nnz": "count",
    "chains.smith_normal_form.rank": "count",
    **{f"chains.smith_normal_form.d{d}.{m}": unit
       for d in (1, 2, 3) for m, unit in (("self_s", "s"), ("nnz", "count"), ("rank", "count"))},
    "chains.boundary_matrices.self_s": "s",
    "chains.homology.self_s": "s",
    "chains.homology.rss_gain_mb": "MiB",
    "chains.morse_complex.self_s": "s",
    "posets.self_s": "s",
    "posets.parse_poset_text.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Session:
    """One run of one workload: spawns children one at a time and tallies failures."""

    def __init__(self, workload):
        self.workload = workload
        self.env = harness.child_env(ROOT)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.problems = []          # (what, problem) for every failed check
        self.failed = 0

    def child(self, argv):
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())
        return harness.run_child([sys.executable, *argv], self.env, ROOT, WORK, timeout)

    def record(self, what, problems, command=True):
        if command:
            self.attempted += 1
            self.failed += bool(problems)
        self.problems.extend((what, p) for p in problems)

    def setup(self):
        code = ("import pathlib, homchains; from homchains import cli, posets, words; "
                f"{self.workload.setup_code}; print(homchains.__file__)")
        run = self.child(["-c", code])
        self.record("setup", run.problems(), command=False)
        return run

    def calibrate(self):
        run = self.child([str(ROOT / "perfbench" / "calibrate.py")])
        self.record("calibration", run.problems(), command=False)
        return run

    def command(self):
        run = self.child(["-m", "homchains.cli", *self.workload.argv])
        self.record("command", run.problems(self.workload.check))
        return run

    def commands(self, seconds, start, at_least, after=lambda: None):
        """Repeat the command, then `after`, while the next command should end within `seconds`."""
        runs = []
        while time.perf_counter() < self.deadline:
            if len(runs) >= at_least:
                expected = statistics.median(r.wall_s for r in runs)
                if time.perf_counter() - start + expected > seconds:
                    break
            runs.append(self.command())
            after()
        return runs

    def check_checkout(self, run):
        src = (ROOT / "src").resolve()
        where = Path(run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "")
        if src not in where.resolve().parents:
            self.record("setup", [f"homchains imported from {where}, not {src}"], command=False)


def measure(session, seconds):
    start = time.perf_counter()
    session.check_checkout(session.setup())     # warm-up: fills caches, not timed
    session.calibrate()                         # warm-up, not timed
    setups = []         # (set-up time, index of the calibration batch after it)
    batches = []        # mean calibration time of each batch

    def between():
        setups.extend((session.setup().wall_s, len(batches)) for _ in range(SETUP_BATCH))
        batches.append(statistics.fmean(session.calibrate().wall_s
                                        for _ in range(CALIBRATION_BATCH)))

    between()
    runs = session.commands(seconds, start, MIN_COMMANDS, after=between)
    # command i ran between calibration batches i and i + 1
    scale = [REFERENCE_CALIBRATION_S / statistics.fmean(batches[i:i + 2])
             for i in range(len(runs))]
    metrics = {
        "wall_s": statistics.median(r.wall_s * f for r, f in zip(runs, scale)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(s * REFERENCE_CALIBRATION_S / batches[i]
                                     for s, i in setups),
    }
    notes = [f"wall_s over {len(runs)} commands, unscaled: "
             + " ".join(f"{r.wall_s:.3f}" for r in runs),
             "host speed scale per command: " + " ".join(f"{f:.3f}" for f in scale),
             "calibration batches (s): " + " ".join(f"{b:.3f}" for b in batches),
             f"setup_s over {len(setups)} children, unscaled: "
             + " ".join(f"{s:.3f}" for s, _ in setups)]
    return metrics, END_TO_END, notes


def trace(session, seconds, name, seed):
    start = time.perf_counter()
    session.check_checkout(session.setup())
    result_path = WORK / f"trace-{name}-seed{seed}.json"
    result_path.unlink(missing_ok=True)
    traced = session.child([str(ROOT / "perfbench" / "tracer.py"), str(result_path),
                            *session.workload.argv])
    problems = traced.problems()
    result = {}
    if not problems:
        result = json.loads(result_path.read_text())
        problems = list(result["problems"])
        if result["exit_code"] != 0:
            problems.append(f"traced command exited {result['exit_code']}: {result['stderr']}")
        else:
            problems += session.workload.check(result["stdout"])
    session.record("traced command", problems)
    runs = session.commands(seconds, start, 1)
    values = result.get("metrics", {})
    if runs:
        values["trace.overhead_s"] = traced.wall_s - statistics.median(r.wall_s for r in runs)
    else:
        session.record("untraced command", ["no time left to run one"], command=False)
    metrics = {m: values.get(m, 0) for m in PER_LAYER}
    notes = [f"traced child {traced.wall_s:.3f} s; untraced median over {len(runs)} "
             f"commands; spans written to {result_path.relative_to(ROOT)}"]
    return metrics, PER_LAYER, notes


def run(name, seed, seconds, traced, workloads=WORKLOADS):
    """Run one workload; returns (result dict, human-readable lines)."""
    WORK.mkdir(exist_ok=True)
    session = Session(workloads[name](seed, WORK))
    if traced:
        metrics, units, notes = trace(session, seconds, name, seed)
    else:
        metrics, units, notes = measure(session, seconds)
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    lines = [f"workload {name}, seed {seed}, trace {int(traced)}"]
    lines += [f"  {m:<48} {v['value']!r:>22} {v['unit']}" for m, v in result["metrics"].items()]
    lines.append(f"  {'failed_frac':<48} {session.failed / session.attempted!r:>22} fraction "
                 f"({session.failed} of {session.attempted} commands failed)")
    lines += ["  " + note for note in notes]
    lines += [f"  FAILED {what}: {p}" for what, p in session.problems]
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homchains" / "cli.py").is_file():
        print(f"error: no homchains source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cpu = harness.pin_to_one_cpu()
    print(f"children run on CPU {cpu}")
    for name in names:
        result, lines = run(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
