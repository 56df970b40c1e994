"""Traced run of one CLI command: `python3 tracer.py RESULT.json ARGV...`.

Imports `homchains`, replaces every binding of each public function of its
layer modules with a timing wrapper, calls `homchains.cli.main(ARGV)` in
this process and writes the spans and counters to RESULT.json.

Spans nest by the call stack.  Repeated calls with the same name under the
same parent span merge into one node of the span tree, which keeps the
whole tree in memory at a size independent of the call count.  A generator
is timed only while it runs, that is, inside each `next()`.  Self time is a
span's time minus the time of the spans it contains.  `rss_gain_mb` is how
far the process high-water mark rose during a span entered with no other
span open.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import resource
import sys
import time
from collections import Counter

LAYERS = ("posets", "words", "complexes", "morse", "chains", "euler")


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Node:
    __slots__ = ("name", "children", "calls", "items", "total_s", "child_s", "rss_gain_mb")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.calls = self.items = 0
        self.total_s = self.child_s = self.rss_gain_mb = 0.0

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    @property
    def self_s(self):
        return self.total_s - self.child_s

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()

    def to_json(self):
        return {"name": self.name, "calls": self.calls, "items": self.items,
                "total_s": self.total_s, "self_s": self.self_s,
                "rss_gain_mb": self.rss_gain_mb,
                "children": [c.to_json() for c in self.children.values()]}


class Tracer:
    def __init__(self):
        self.root = Node("cli")
        self.stack = []            # open spans: [node, start, child time, rss at entry]
        self.counters = Counter()
        self.keep = []             # keeps alive the objects whose ids are keys below
        self.matrix_dim = {}       # id(boundary matrix) -> its dimension
        self.seen_complexes = set()

    def node(self, name):
        return (self.stack[-1][0] if self.stack else self.root).child(name)

    def enter(self, node):
        rss = None if self.stack else _max_rss_mb()
        self.stack.append([node, time.perf_counter(), 0.0, rss])

    def exit(self):
        end = time.perf_counter()
        node, start, child, rss = self.stack.pop()
        elapsed = end - start
        node.total_s += elapsed
        node.child_s += child
        if self.stack:
            self.stack[-1][2] += elapsed
        else:
            node.rss_gain_mb += _max_rss_mb() - rss
        return elapsed - child

    def wrap(self, name, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                node = self.node(name)
                node.calls += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        self.enter(node)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.exit()
                        node.items += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = self.node(name)
            node.calls += 1
            self.enter(node)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s = self.exit()
            if hook is not None:
                hook(self, args, result, self_s)
            return result
        return wrapper


# -- counters taken from arguments and results ---------------------------------


def _count_complex(tracer, args, cx, self_s):
    if hasattr(cx, "n_cells") and id(cx) not in tracer.seen_complexes:
        tracer.seen_complexes.add(id(cx))
        tracer.keep.append(cx)
        tracer.counters["complexes.cells"] += cx.n_cells()


def _count_matching(tracer, args, matching, self_s):
    tracer.counters["morse.matched_pairs"] += len(matching.up)
    tracer.counters["morse.critical_cells"] += sum(len(v) for v in matching.critical.values())


def _note_boundaries(tracer, args, icc, self_s):
    tracer.keep.append(icc)
    for d, mat in icc.mats.items():
        tracer.matrix_dim[id(mat)] = d


def _count_snf(tracer, args, snf, self_s):
    matrix = args[0]
    d = tracer.matrix_dim.get(id(matrix), 0)   # 0: not a matrix from boundary_matrices
    for prefix in ("chains.smith_normal_form", f"chains.smith_normal_form.d{d}"):
        tracer.counters[prefix + ".nnz"] += matrix.nnz
        tracer.counters[prefix + ".rank"] += snf.rank
    tracer.counters[f"chains.smith_normal_form.d{d}.self_s"] += self_s


HOOKS = {
    "complexes.chain_product_complex": _count_complex,
    "complexes.maximal_chain_complex": _count_complex,
    "complexes.hom_complex_generic": _count_complex,
    "morse.match_product_of_chains": _count_matching,
    "chains.boundary_matrices": _note_boundaries,
    "chains.smith_normal_form": _count_snf,
}


def install(tracer):
    """Wrap each public function of the layer modules, at every binding in `homchains`."""
    import homchains.cli  # noqa: F401  (loads every layer module)

    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"homchains.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{obj.__name__}"
                wrappers[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    bindings = 0
    for modname, mod in list(sys.modules.items()):
        if modname == "homchains" or modname.startswith("homchains."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    bindings += 1
    return len(wrappers), bindings


def metrics(tracer, wall_s):
    """Per-name totals over the span tree, layer self times and `cli.self_s`."""
    out = Counter()
    spans = [n for n in tracer.root.walk() if n is not tracer.root]
    for n in spans:
        out[f"{n.name}.self_s"] += n.self_s
        out[f"{n.name}.calls"] += n.calls
        out[f"{n.name}.items"] += n.items
        out[f"{n.name}.rss_gain_mb"] += n.rss_gain_mb
        out[n.name.split(".")[0] + ".self_s"] += n.self_s
    out.update(tracer.counters)
    spans_self = sum(n.self_s for n in spans)
    out["cli.self_s"] = wall_s - spans_self
    out["trace.wall_s"] = wall_s
    return dict(out), _problems(tracer, wall_s, spans, spans_self)


def _problems(tracer, wall_s, spans, spans_self):
    """Spans must nest: self times are not negative and sum to the top-level time."""
    problems = []
    tol = 1e-6 * max(1.0, wall_s)
    for n in spans:
        if n.self_s < -tol:
            problems.append(f"span {n.name}: children took longer than the span")
    top = sum(n.total_s for n in tracer.root.children.values())
    if abs(top - spans_self) > tol:
        problems.append(f"self times sum to {spans_self}, top-level spans to {top}")
    if top > wall_s + tol:
        problems.append(f"top-level spans take {top} s of a {wall_s} s run")
    if tracer.stack:
        problems.append("spans left open")
    return problems


def main(argv):
    result_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    n_functions, n_bindings = install(tracer)
    from homchains import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(cli_argv))
        wall_s = time.perf_counter() - start
    values, problems = metrics(tracer, wall_s)
    with open(result_path, "w") as fh:
        json.dump({"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                   "functions": n_functions, "bindings": n_bindings,
                   "metrics": values, "problems": problems,
                   "spans": tracer.root.to_json()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
