"""Command-line frontend: subcommands, exit codes, deterministic reports."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homchains
from homchains import morse
from homchains.cli import main
from homchains.posets import format_poset_text
from homchains import (
    CellWord,
    cellword_to_multihom,
    chain_product_complex,
    is_cubical,
    match_product_of_chains,
    parse_cellword,
    product_of_chains,
    render_cellword,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_spec_table(capsys):
    code, out, _ = run(capsys, "build", "--spec", "1,1,1")
    assert code == 0
    assert "f-vector: (6, 6)" in out


def test_build_spec_json(capsys):
    code, out, _ = run(capsys, "build", "--spec", "1,1,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [24, 36, 6]
    assert payload["euler"] == -6


def test_build_single_chain(capsys):
    code, out, _ = run(capsys, "build", "--spec", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["f_vector"] == [1]


def test_build_poset_file(tmp_path, capsys):
    path = tmp_path / "grid.poset"
    path.write_text(format_poset_text(product_of_chains((2, 2))))
    code, out, _ = run(capsys, "build", "--poset", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["f_vector"] == [6, 6, 1]


def test_build_long_chain_spec(capsys):
    # words of length 1,501: enumeration must not recurse once per letter
    code, out, err = run(capsys, "build", "--spec", "1,1500")
    assert (code, err) == (0, "")
    assert "f-vector: (1501, 1500)" in out


def test_build_poset_long_chain(tmp_path, capsys):
    # Hom(C_1199, C_1199) builds as the spec 1199, under the caps of --spec
    path = tmp_path / "chain1200.poset"
    path.write_text(format_poset_text(product_of_chains((1199,))))
    code, out, err = run(capsys, "build", "--poset", str(path))
    assert (code, err) == (0, "")
    assert "f-vector: (1,)" in out
    for source in (("--poset", str(path)), ("--spec", "1199")):
        code, out, err = run(capsys, "build", *source, "--max-cells", "1000")
        assert (code, out) == (2, "")
        assert err == "error: words of 1199 letters exceed the cap 1000\n"


def test_build_poset_file_with_a_token_that_is_no_integer(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    path.write_text("0 0\n1 x\n")
    code, out, err = run(capsys, "build", "--poset", str(path))
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --poset: line 2: expected two integers\n")
    assert "invalid literal" not in err


def test_spec_of_256_chains_exits_2_before_enumerating(capsys):
    # with bytes words a letter past 255 cannot be stored; the spec is
    # refused before its 256! words are enumerated, whatever the cap
    spec = ",".join(["1"] * 256)
    for command in ("build", "match", "verify", "report"):
        code, out, err = run(capsys, command, "--spec", spec, "--max-cells", "1" + "0" * 600)
        assert (code, out) == (2, "")
        assert err == "error: a spec of 256 chains exceeds the limit of 255 chains\n"


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
# one line per golden file: its name, then the argv that prints it, with
# paths relative to the repository root; CI diffs the same commands
MANIFEST = [(name, tuple(argv)) for name, *argv in
            map(str.split, (GOLDEN / "MANIFEST").read_text().splitlines())]


@pytest.mark.parametrize("name, argv", MANIFEST)
def test_output_matches_golden_file(capsys, monkeypatch, name, argv):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is not in this checkout")
@pytest.mark.parametrize("argv", [
    ("report", "--spec", "1,1,1,1,1"),
    ("verify", "--suite", "cubicality,acyclicity,bijection,zero-incidence", "--spec", "2,2,2"),
])
def test_traced_run_matches_the_untraced_one(capsys, tmp_path, argv):
    # with every public function of the layer modules wrapped at every binding,
    # the command prints what it prints untraced, its spans nest, and the
    # matching it counts is the one an untraced run builds
    code, want, _ = run(capsys, *argv)
    assert code == 0
    src = str(Path(homchains.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = tmp_path / "trace.json"
    done = subprocess.run([sys.executable, str(TRACER), str(result), *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    traced = json.loads(result.read_text())
    assert (traced["exit_code"], traced["problems"]) == (0, [])
    assert traced["stdout"] == want
    m = match_product_of_chains(chain_product_complex(tuple(map(int, argv[-1].split(",")))))
    assert traced["metrics"]["morse.matched_pairs"] == len(m.up)
    assert traced["metrics"]["morse.critical_cells"] == sum(map(len, m.critical.values()))


def test_import_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter, the modules `import homchains.cli` adds to the
    # ones start-up loaded include neither of these two costly imports
    code = ("import sys; before = set(sys.modules); import homchains.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(homchains.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    added = set(done.stdout.split())
    assert "homchains.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("spec", ["1,1,1,1,1", "1,1,1,1,1,1", "2,2,2", "2,2,3", "1,2,3"])
def test_matching_digest_is_sha256_of_sorted_rendered_pairs(capsys, spec):
    # the digest the CLI streams word by word equals one built from sorted cell keys
    cx = chain_product_complex(tuple(map(int, spec.split(","))))
    m = match_product_of_chains(cx)
    pairs = sorted((cx.cells[d][i], cx.cells[d + 1][u])
                   for d, mates in m.up.by_dim.items() for i, u in enumerate(mates) if u >= 0)
    lines = "".join(f"{render_cellword(a)}->{render_cellword(b)}\n" for a, b in pairs)
    code, out, _ = run(capsys, "match", "--spec", spec, "--format", "json")
    assert code == 0
    assert json.loads(out)["digest"] == hashlib.sha256(lines.encode()).hexdigest()
    code, out, _ = run(capsys, "report", "--spec", spec)
    assert json.loads(out)["matching"]["digest"] == hashlib.sha256(lines.encode()).hexdigest()


def has_own_sha256():
    """Whether the interpreter has the SHA-256 module hashlib falls back to."""
    for name in ("_sha2", "_sha256"):
        try:
            importlib.import_module(name)
            return True
        except ImportError:
            pass
    return False


@pytest.mark.skipif(not has_own_sha256(), reason="interpreter built without _sha2 or _sha256")
def test_digests_do_not_load_openssl():
    # in a fresh interpreter, report and match hash without hashlib's OpenSSL module
    child = ("import json, sys\n"
             "from homchains.cli import main\n"
             "assert main(['report', '--spec', '1,1,1,1']) == 0\n"
             "assert main(['match', '--spec', '2,2,3']) == 0\n"
             "print(json.dumps(sorted(m for m in sys.modules if 'hash' in m)))\n")
    src = str(Path(homchains.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert "_hashlib" not in json.loads(done.stdout.splitlines()[-1])


def test_digest_falls_back_to_hashlib(monkeypatch):
    # an interpreter without its own SHA-256 module hashes with hashlib, to the same digest
    from homchains.cli import _matched_pairs, _matching_digest

    cx = chain_product_complex((2, 2, 3))
    m = match_product_of_chains(cx)
    lines = "".join(f"{a}->{b}\n" for a, b in _matched_pairs(m))
    want = hashlib.sha256(lines.encode()).hexdigest()
    monkeypatch.setitem(sys.modules, "_sha2", None)  # import raises ImportError
    monkeypatch.setitem(sys.modules, "_sha256", None)
    real, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda *args: calls.append(args) or real(*args))
    assert _matching_digest(_matched_pairs(m)) == want
    assert calls == [()]


def test_pair_stream_rejects_a_partner_outside_the_word():
    # pair the lower cell 132 with the 1-cell 2(31) of the next word
    from homchains.cli import _matched_pairs
    from homchains.morse import MorseMatching

    cx = chain_product_complex((1, 1, 1))
    m = match_product_of_chains(cx)
    up = {cx.cells[0][i]: cx.cells[1][u] for i, u in enumerate(m.up[0]) if u >= 0}
    lower, upper = parse_cellword("132"), parse_cellword("2(31)")
    assert render_cellword(up[lower]) == "1(32)"
    up = {a: b for a, b in up.items() if b != upper}
    up[lower] = upper
    with pytest.raises(AssertionError, match="outside the word 132"):
        list(_matched_pairs(MorseMatching.from_pairs(cx, up)))


def test_report_heap_peak_per_cell(capsys):
    # the heap peak of a whole B_6 report (3,690 cells), digest included
    argv = ["report", "--spec", "1,1,1,1,1,1"]
    main(argv)  # warm caches of the interpreter
    capsys.readouterr()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "report-111111.json").read_text()
    assert peak / 3690 < 110


def test_build_zigzag5_data_file(capsys):
    # J(Z_5) is not a product of chains, so build takes the generic Hom path
    path = Path(__file__).parent / "data" / "zigzag5.poset"
    code, out, _ = run(capsys, "build", "--poset", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [16, 24, 8]
    assert payload["euler"] == 0


def test_match_trace(capsys):
    code, out, _ = run(capsys, "match", "--spec", "2,2,2,2",
                       "--emit-trace", "(21)1(32)344", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    steps = payload["trace"]["steps"]
    assert steps[0] == {"r": 4, "s": 2, "j": 8, "rho": "b"}
    assert steps[-1] == {"r": 3, "s": 1, "j": 4, "rho": "a"}
    assert payload["trace"]["partner"] == "(21)132344"


def test_match_emit_critical(capsys):
    code, out, _ = run(capsys, "match", "--spec", "1,1,1", "--emit-critical",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["critical_cells"] == {"0": ["123"], "1": ["3(21)"]}


def test_match_emit_pairs(capsys):
    code, out, _ = run(capsys, "match", "--spec", "1,1,1", "--emit-pairs",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 5
    assert ["132", "1(32)"] in payload["pairs"]


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "1,1,2", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out


def test_verify_euler_suite(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "1,1,1,1", "--suite", "euler")
    assert code == 0
    assert "chi = -6" in out


def test_verify_json_keeps_details(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "1,1,1", "--suite",
                       "cubicality,acyclicity", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == {"cubicality": True, "acyclicity": True}
    assert payload["details"]["acyclicity"] == "5 pairs"
    assert payload["details"]["cubicality"] == "12 cells checked"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--spec", "1,1", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_malformed_spec_usage_error(capsys):
    code, _, err = run(capsys, "build", "--spec", "2,1")
    assert code == 2
    assert "error" in err


def test_missing_input_usage_error(capsys):
    for command in ("build", "report", "match", "verify"):
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert "--spec" in err and "required" in err
        assert ("--poset" in err) == (command == "build")


DATA = Path(__file__).parent / "data"
ZIGZAG5 = str(DATA / "zigzag5.poset")


@pytest.mark.parametrize("argv, message", [
    (("build", "--spec", "1,1", "--poset", ZIGZAG5), "not allowed with argument"),
    (("report", "--spec", "1,1", "--format", "table"), "unrecognized arguments"),
    (("report", "--spec", "1,1", "--poset", ZIGZAG5), "unrecognized arguments"),
    (("match", "--spec", "1,1", "--max-cells", "0"), "'0' is not a positive integer"),
    (("verify", "--spec", "1,1", "--max-cells", "x"), "'x' is not a positive integer"),
    (("build", "--poset", "no-such-file.poset"), "No such file"),
    (("euler", "--n-max", "0"), "'0' is not a positive integer"),
    (("euler", "--n-max", "-3"), "'-3' is not a positive integer"),
    (("build", "--poset", str(DATA / "cyclic.poset")),
     "argument --poset: cover relation contains a cycle"),
    (("build", "--poset", str(DATA / "ungraded.poset")),
     "argument --poset: not graded: maximal elements of unequal rank"),
    (("match", "--spec", "1,1,1", "--emit-trace", ""),
     "error: word content does not match the chain spec"),
])
def test_input_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_build_rejects_a_poset_file_without_elements(capsys, tmp_path):
    path = tmp_path / "empty.poset"
    path.write_text("# no elements\n")
    code, out, err = run(capsys, "build", "--poset", str(path))
    assert (code, out) == (2, "")
    assert "argument --poset: no elements" in err


def test_report_deterministic(capsys):
    code1, out1, _ = run(capsys, "report", "--spec", "1,1,2")
    code2, out2, _ = run(capsys, "report", "--spec", "1,1,2")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "homchains-report/1"
    assert payload["betti"] == [1, 2, 0]
    assert payload["f_vector"] == [12, 15, 2]
    assert payload["critical"]["1"] == ["3(21)1", "3(21)2"] or len(payload["critical"]["1"]) == 2
    assert "digest" in payload["matching"]


def test_verify_validates_acyclicity_once(capsys, monkeypatch):
    calls = []
    real = morse.validate_acyclic

    def counting(matching):
        calls.append(1)
        return real(matching)

    monkeypatch.setattr(morse, "validate_acyclic", counting)
    code, out, _ = run(capsys, "verify", "--spec", "1,1,2", "--suite", "acyclicity,zero-incidence")
    assert code == 0
    assert "acyclicity: PASS" in out and "zero-incidence: PASS" in out
    assert len(calls) == 1


def test_verify_runs_a_suite_named_twice_once(capsys):
    argv = ("verify", "--spec", "1,1,2", "--suite", "acyclicity,cubicality,acyclicity")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert [line.split(":")[0] for line in out.splitlines()] == ["acyclicity", "cubicality"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["results"] == {"acyclicity": True, "cubicality": True}
    assert set(payload["details"]) == {"acyclicity", "cubicality"}


def refuse_snf_on_the_full_complex(monkeypatch):
    """Make Smith normal form fail on any face table of a complex that
    chain_product_complex built; returns the list of the tables it ran on."""
    from homchains import chains, complexes

    built, seen = [], []
    real_build, real_snf = complexes.chain_product_complex, chains.smith_normal_form

    def build(spec, **kwargs):
        built.append(real_build(spec, **kwargs))
        return built[-1]

    def snf(table):
        if any(table is t for cx in built for t in cx.boundary.values()):
            raise AssertionError("Smith normal form on the full complex")
        seen.append(table)
        return real_snf(table)

    monkeypatch.setattr(complexes, "chain_product_complex", build)
    monkeypatch.setattr(chains, "smith_normal_form", snf)
    return seen


def test_verify_builds_one_certificate_and_one_morse_complex(capsys, monkeypatch):
    from homchains import chains, morse

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(morse, "validate_acyclic", counting("cert", morse.validate_acyclic))
    monkeypatch.setattr(chains, "morse_complex", counting("morse", chains.morse_complex))
    snf_tables = refuse_snf_on_the_full_complex(monkeypatch)
    code, out, err = run(capsys, "verify", "--spec", "1,1,2", "--suite",
                         "zero-incidence,torsion-free,euler")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["zero-incidence: PASS (all Morse boundaries zero)",
                                "torsion-free: PASS (betti (1, 2, 0))",
                                "euler: PASS (chi = -1)"]
    assert sorted(calls) == ["cert", "morse"]
    assert len(snf_tables) == 2  # the Morse complex's d_1 and d_2


def test_report_needs_no_full_boundary_matrices(capsys, monkeypatch):
    snf_tables = refuse_snf_on_the_full_complex(monkeypatch)
    code, out, err = run(capsys, "report", "--spec", "1,1,1,1,1")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "report-11111.json").read_text()
    assert snf_tables and all(t.nnz == 0 for t in snf_tables)


def test_snf_guard_trips_on_the_full_complex(capsys, monkeypatch):
    # a report that took homology from the full complex must fail the guard
    from homchains import cli

    refuse_snf_on_the_full_complex(monkeypatch)
    monkeypatch.setattr(cli._Run, "morse_complex", property(lambda run: run.cx))
    code, out, err = run(capsys, "report", "--spec", "1,1,1")
    assert (code, out) == (1, "")
    assert err == "error: internal check failed: Smith normal form on the full complex\n"


def test_zero_incidence_failure_names_the_first_nonzero_incidence(capsys, monkeypatch):
    # one pair of the hexagon B_3 matched by hand leaves five critical
    # vertices and five critical edges, with nonzero Morse incidences; the
    # first edge, 1(32), keeps its face 123 with the sign -1
    from homchains import chains, cli

    def hand_built(run):
        m = morse.MorseMatching.from_pairs(run.cx, {parse_cellword("213"): parse_cellword("(21)3")})
        return chains.morse_complex(morse.validate_acyclic(m))

    monkeypatch.setattr(cli._Run, "morse_complex", property(hand_built))
    code, out, err = run(capsys, "verify", "--spec", "1,1,1", "--suite", "zero-incidence")
    assert (code, err) == (1, "")
    assert out == "zero-incidence: FAIL (Morse incidence [123 : 1(32)] = -1)\n"


def test_report_checks_boundary_squared_on_the_full_complex(capsys, monkeypatch):
    from homchains import complexes

    real = complexes.chain_product_complex

    def corrupted(spec, **kwargs):
        cx = real(spec, **kwargs)
        cx.boundary[2].sgn[0] *= -1
        return cx

    # the Morse complex of B_4 has no 2-cells, so only the full complex shows the fault
    monkeypatch.setattr(complexes, "chain_product_complex", corrupted)
    code, out, err = run(capsys, "report", "--spec", "1,1,1,1")
    assert (code, out) == (1, "")
    assert err == "error: internal check failed: boundary squared is nonzero at dimension 2\n"


def test_corrupted_face_index_is_an_internal_check_failure(capsys, monkeypatch):
    # a face index past cells[1] is a corrupted complex, not a usage error
    from homchains import complexes

    real = complexes.chain_product_complex

    def corrupted(spec, **kwargs):
        cx = real(spec, **kwargs)
        cx.boundary[2].idx[0] = len(cx.cells[1])
        return cx

    monkeypatch.setattr(complexes, "chain_product_complex", corrupted)
    for argv in (("verify", "--suite", "acyclicity", "--spec", "1,1,1,1"),
                 ("verify", "--suite", "zero-incidence", "--spec", "1,1,1,1"),
                 ("report", "--spec", "1,1,1,1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: internal check failed: face index out of range at dimension 2\n"


def cyclic(cx):
    """Hom(B_3) is a hexagon: match each vertex to the next edge around it,
    a matching with an alternating cycle through all 12 cells."""
    ends = [[v for v, _ in cx.faces(1, e)] for e in range(len(cx.cells[1]))]
    up, v = {}, 0
    while v not in up:
        up[v] = e = next(e for e, vs in enumerate(ends) if v in vs and e not in up.values())
        v = next(w for w in ends[e] if w != v)
    return morse.MorseMatching.from_pairs(
        cx, {cx.cells[0][v]: cx.cells[1][e] for v, e in up.items()})


def test_report_on_an_alternating_cycle_is_an_internal_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(morse, "match_product_of_chains", cyclic)
    code, out, err = run(capsys, "report", "--spec", "1,1,1")
    assert (code, out) == (1, "")
    assert err == "error: internal check failed: alternating cycle through 12 cells\n"


def test_acyclicity_suite_fails_on_an_alternating_cycle(capsys, monkeypatch):
    # a verification failure, reported on stdout, not an internal check failure
    monkeypatch.setattr(morse, "match_product_of_chains", cyclic)
    code, out, err = run(capsys, "verify", "--suite", "acyclicity", "--spec", "1,1,1")
    assert (code, err) == (1, "")
    assert out == "acyclicity: FAIL (alternating cycle through 12 cells)\n"


def test_euler_command(capsys):
    code, out, _ = run(capsys, "euler", "--n-max", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"]["4"] == -6
    assert payload["chi"]["8"] == 2520


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "build", "--spec", "1,1,1,1,1,1", "--max-cells", "10")
    assert code == 2


def test_internal_check_failure_is_one_line(capsys, monkeypatch):
    from homchains import chains, morse

    def bad_square(cx):
        raise ArithmeticError("boundary squared is nonzero at dimension 2")

    def bad_assembly(spec, **kwargs):
        raise AssertionError("matching is not an involution")

    monkeypatch.setattr(chains, "check_squared", bad_square)
    code, out, err = run(capsys, "report", "--spec", "1,1,1")
    assert (code, out) == (1, "")
    assert err == "error: internal check failed: boundary squared is nonzero at dimension 2\n"

    monkeypatch.setattr(morse, "match_product_of_chains", bad_assembly)
    code, _, err = run(capsys, "match", "--spec", "1,1,1")
    assert code == 1
    assert err == "error: internal check failed: matching is not an involution\n"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=7)
       .map(sorted).filter(lambda spec: sum(spec) <= 7), st.data())
def test_cubicality_suite_equals_is_cubical_on_every_image(spec, data):
    from homchains import cli

    cx = chain_product_complex(spec)
    verdicts = [is_cubical(cellword_to_multihom(cw, spec))
                for cells in cx.cells.values() for cw in cells]
    assert cli._cubicality(cx) == (all(verdicts), f"{len(verdicts)} cells checked")
    # the suite's mask rule is is_cubical on the spliced image for any mask,
    # not only a cell's, and a mask outside 1..ell - 1 is no image at all
    ell = sum(spec)
    word = data.draw(st.sampled_from(cx.word_table.words))
    mask = data.draw(st.integers(0, (1 << (ell + 1)) - 1))
    cw = CellWord(word, tuple(p for p in range(ell + 1) if mask >> p & 1))
    if mask & ~((1 << ell) - 2):
        with pytest.raises(ValueError, match="out of range"):
            cellword_to_multihom(cw, spec)
    else:
        assert (not mask & (mask >> 1)) == is_cubical(cellword_to_multihom(cw, spec))


def test_cubicality_suite_builds_no_multihom(capsys, monkeypatch):
    from homchains import complexes

    def forbidden(*args):
        raise AssertionError("the cubicality suite called the bridge")

    for name in ("cellword_to_multihom", "is_cubical", "word_ideals"):
        monkeypatch.setattr(complexes, name, forbidden, raising=False)
    code, out, err = run(capsys, "verify", "--spec", "2,2,2,3", "--suite", "cubicality")
    assert (code, out, err) == (0, "cubicality: PASS (72750 cells checked)\n", "")


def tamper_last_word(monkeypatch, change):
    """After the matching is built, give the last word of the complex the
    Placements that change(Placements) returns."""
    real = morse.match_product_of_chains

    def tampered(cx):
        matching = real(cx)
        cx.word_table.placements[-1] = change(cx.word_table.placements[-1])
        return matching

    monkeypatch.setattr(morse, "match_product_of_chains", tampered)


def test_cubicality_fails_on_two_adjacent_pairs(capsys, monkeypatch):
    # the one 2-cell of 4321 is (43)(21); pairs at 1 and 2 overlap instead
    tamper_last_word(monkeypatch, lambda info: info._replace(
        by_dim=info.by_dim[:2] + (((1, 2),),), masks=info.masks[:2] + ((0b110,),)))
    code, out, _ = run(capsys, "verify", "--spec", "1,1,1,1", "--suite", "cubicality")
    cell = render_cellword(CellWord((4, 3, 2, 1), (1, 2)))
    assert (code, out) == (1, f"cubicality: FAIL (non-cubical cell {cell})\n")


def test_cubicality_fails_unless_it_decides_every_cell(capsys, monkeypatch):
    tamper_last_word(monkeypatch, lambda info: info._replace(
        by_dim=info.by_dim[:2], masks=info.masks[:2]))
    code, out, _ = run(capsys, "verify", "--spec", "1,1,1,1", "--suite", "cubicality")
    assert (code, out) == (1, "cubicality: FAIL (65 cells checked of 66)\n")


def test_bijection_failure_names_the_first_differing_cell(capsys, monkeypatch):
    # B_3 has the critical cells 123 and 3(21), of the descent sets () and (1, 2)
    from homchains import words

    real = words.critical_pairs
    monkeypatch.setattr(words, "critical_pairs", lambda des: None if des == () else real(des))
    code, out, _ = run(capsys, "verify", "--spec", "1,1,1", "--suite", "bijection")
    assert (code, out) == (1, "bijection: FAIL (2 critical cells; "
                              "123 is critical only by the matching)\n")
    # (32)1 by the rule, 3(21) by the matching: the least by key is named
    monkeypatch.setattr(words, "critical_pairs", lambda des: (1,) if des == (1, 2) else real(des))
    code, out, _ = run(capsys, "verify", "--spec", "1,1,1", "--suite", "bijection")
    assert (code, out) == (1, "bijection: FAIL (2 critical cells; "
                              "(32)1 is critical only by the word rule)\n")


@pytest.mark.parametrize("pairs", [(1, 2), (3,), (1, 1)])
def test_bijection_fails_on_a_rule_placement_that_is_no_cell(capsys, monkeypatch, pairs):
    from homchains import words

    real = words.critical_pairs
    monkeypatch.setattr(words, "critical_pairs", lambda des: pairs if des == (1, 2) else real(des))
    code, out, err = run(capsys, "verify", "--spec", "1,1,1", "--suite", "bijection")
    assert (code, err) == (1, "")
    assert out == (f"bijection: FAIL (2 critical cells; the word rule puts pairs at {pairs} "
                   "in 321, no cell)\n")


def test_a_chain_longer_than_the_cap_fails_fast():
    # 10^20 letters in one word: the cap check comes before the word is built
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from homchains.cli import main\n"
             "sys.exit(main(['report', '--spec', '99999999999999999999']))\n")
    src = str(Path(homchains.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=20)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [("report", "--spec", "1,1,1"), ("build", "--spec", "1,1")])
def test_memory_error_is_one_error_line(capsys, monkeypatch, argv):
    from homchains import complexes

    def exhausted(spec, cap):
        raise MemoryError

    monkeypatch.setattr(complexes, "chain_product_complex", exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: out of memory\n")
