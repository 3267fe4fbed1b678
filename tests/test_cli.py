"""End-to-end checks for the command line interface.

Golden transcripts live in tests/golden/ and are regenerated with
``pytest --update-golden``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from weylgeom import charring, cli
from weylgeom.rootsystem import RootSystem

from root_reference import root_fw

GOLDEN_CASES = [
    ("dims-e6.json", ["dims", "E6"]),
    ("dims-f4.txt", ["--format", "ascii", "dims", "F4"]),
    ("hasse-a2-1.json", ["hasse", "A2", "1"]),
    ("hasse-d4-1.dot", ["--format", "dot", "hasse", "D4", "1"]),
    ("orbit-b3.json", ["orbit", "B3", "1,0,0"]),
    ("invariants-a2.json", ["invariants", "A2", "1,0"]),
    ("invariants-e7-56.json",
     ["invariants", "E7", "0,0,0,0,0,0,1", "--max-degree", "4"]),
    ("branch-e6-levi-d5.json", ["branch", "e6-levi-d5"]),
    ("branch-e6-fold-f4.json", ["branch", "e6-fold-f4"]),
    ("branch-e7-levi-e6.json", ["branch", "e7-levi-e6"]),
    ("triality-table.json", ["triality", "table"]),
    ("triality-table.txt", ["--format", "ascii", "triality", "table"]),
    ("duality-e6-ln.json", ["duality", "e6-ln"]),
    ("incidence-e6.json", ["incidence", "E6"]),
    ("incidence-e7.json", ["incidence", "E7"]),
    ("incidence-f4.json", ["incidence", "F4"]),
    ("hasse-a2-1.txt", ["--format", "ascii", "hasse", "A2", "1"]),
    ("triality-psi.json", ["triality", "psi"]),
    ("triality-triples.json", ["triality", "triples"]),
    ("duality-e6-chamber.json", ["duality", "e6-chamber"]),
    ("duality-e6-extra.json", ["duality", "e6-extra"]),
    ("duality-e6-brace-dims.json", ["duality", "e6-brace-dims"]),
    ("duality-automorphisms.json", ["duality", "automorphisms"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_transcript(golden, capsys, name, argv):
    assert cli.main(argv) == 0
    golden(name, capsys.readouterr().out)


def test_goldens_cover_every_command_and_choice():
    # every command that prints a payload, and every value of its what or
    # rule, has a transcript; verify prints PASS lines and has its own tests.
    # Each command's entry names the function that runs it; the global
    # options' entry names none
    assert cli.SYNTAX[None][0] is None
    commands = [c for c in cli.SYNTAX if c not in (None, "verify")]
    assert all(callable(cli.SYNTAX[c][0]) for c in commands + ["verify"])
    lines = [argv[2:] if argv[0] == "--format" else argv
             for _, argv in GOLDEN_CASES]
    assert {line[0] for line in lines} == set(commands)
    for command in commands:
        for values in cli.SYNTAX[command][3].values():
            for value in values:
                assert [command, value] in lines, (command, value)


def test_json_output_parses(capsys):
    assert cli.main(["dims", "E7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"] == "E7"
    assert payload["beta"] == 7


def test_output_is_deterministic(capsys):
    cli.main(["incidence", "D5"])
    first = capsys.readouterr().out
    cli.main(["incidence", "D5"])
    assert capsys.readouterr().out == first


def test_usage_error_no_default_node(capsys):
    assert cli.main(["dims", "E8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_bad_weight(capsys):
    assert cli.main(["orbit", "A2", "1,2,3"]) == 2


def _one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_usage_error_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert "frobnicate" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", "E6"],
    ["triality", "square"],
    ["duality", "e7-chamber"],
    ["branch", "e8-levi-e7"],
    ["verify", "all", "orbits"],
    ["dims"],
    ["hasse", "E6"],
    ["orbit", "A2"],
    ["dims", "E6", "2"],
    ["triality", "table", "psi"],
    ["dims", "E6", "--beta", "two"],
    ["dims", "E6", "--beta=1.5"],
    ["incidence", "A3", "--beta", ""],
    ["invariants", "A2", "1,0", "--max-degree", "3x"],
    ["hasse", "E6", "one"],
    ["dims", "E6", "--format", "ascii"],
    ["dims", "E6", "--cache-dir", "x"],
    ["dims", "E6", "--beta"],
    ["--format", "yaml", "dims", "E6"],
    ["dims", "E6", "--bet", "1"],
    ["invariants", "A2", "1,0", "--max", "2"],
    ["dims", "E6", "--be\nta", "2"],
    ["frob\nnicate"],
    # A and ARABIC-INDIC DIGIT THREE: no system name, as the JSON output
    # could not echo it
    ["dims", "A\u0663"],
    ["hasse", "A\u0663", "1"],
    ["orbit", "A\u0663", "1,0,0"],
    ["invariants", "A\u0663", "1,0,0"],
    ["incidence", "A\u0663"],
    # integers are an optional - and ASCII digits; int() takes more
    ["orbit", "A2", "1_0,0"],
    ["orbit", "A2", "\u0661,\u0660"],
    ["orbit", "A2", "+1,0"],
    ["orbit", "A2", " 1,0"],
    ["orbit", "A2", "--1,0"],
    ["dims", "E6", "--beta", "\u0665"],
    ["dims", "E6", "--beta=+5"],
    ["dims", "E6", "--beta", "5 "],
    ["hasse", "A2", "+1"],
    ["hasse", "A2", "\uff11"],
    ["invariants", "A2", "1,0", "--max-degree", "\u0663"],
    ["invariants", "A2", "1,0", "--max-degree", "1_0"],
    ["hasse", "E6", "0"],
])
def test_usage_error_is_one_line(capsys, argv):
    assert cli.main(argv) == 2
    _one_line_error(capsys)


def test_option_value_after_an_equals_sign(capsys):
    assert cli.main(["dims", "E6", "--beta=5"]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] == 5
    assert cli.main(["--format=ascii", "dims", "E6", "--beta", "5"]) == 0
    assert "beta: 5\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["dims", "-h"],
                                  ["--format", "ascii", "verify", "--help"]])
def test_help_lists_every_command(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: weylgeom ")
    for command in filter(None, cli.SYNTAX):
        assert "\n  %s " % command in captured.out


def test_help_transcript(golden, capsys):
    # the usage text, choice lists in their order included, is a transcript
    assert cli.main(["--help"]) == 0
    golden("help.txt", capsys.readouterr().out)


def test_refused_exit_code(capsys):
    # V(omega_4) of E8 has 6,899,079,264 weights
    assert cli.main(["dims", "E8", "--beta", "4"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_dot_unavailable(capsys):
    assert cli.main(["--format", "dot", "dims", "A3"]) == 2


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "weylgeom.cli", "dims", "A3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["system"] == "A3"


@pytest.mark.parametrize("argv", [["dims", "E6"],
                                  ["invariants", "E7", "0,0,0,0,0,0,1"]])
@pytest.mark.parametrize("plain_file", [False, True], ids=["absent", "file"])
def test_cache_dir_and_its_variable_change_nothing(tmp_path, capsys,
                                                   monkeypatch, argv,
                                                   plain_file):
    # there is no disk cache: the kept option and the old variable are inert
    monkeypatch.delenv("WEYLGEOM_CACHE", raising=False)
    assert cli.main(argv) == 0
    want = capsys.readouterr()
    path = tmp_path / "cache"
    if plain_file:
        path.write_text("not a directory\n")
    assert cli.main(["--cache-dir", str(path)] + argv) == 0
    assert capsys.readouterr() == want
    monkeypatch.setenv("WEYLGEOM_CACHE", str(path))
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert list(tmp_path.iterdir()) == ([path] if plain_file else [])
    if plain_file:
        assert path.read_text() == "not a directory\n"


def test_verify_single_check(capsys):
    assert cli.main(["verify", "standard-dimensions"]) == 0
    out = capsys.readouterr().out
    assert "PASS standard-dimensions" in out


def test_verify_unknown_name(capsys):
    assert cli.main(["verify", "no-such-check"]) == 2
    assert "no-such-check" in _one_line_error(capsys)


def test_hasse_index_off_the_diagram(capsys):
    assert cli.main(["hasse", "E6", "0"]) == 2
    assert _one_line_error(capsys) == "error: index out of range\n"


def test_verify_reports_a_failed_check(capsys, monkeypatch):
    def fail():
        raise cli.CheckFailure("planted")

    checks = list(cli.ACCEPTANCE_CHECKS)
    name = checks[3][0]
    checks[3] = (name, fail)
    monkeypatch.setattr(cli, "ACCEPTANCE_CHECKS", tuple(checks))
    assert cli.main(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "FAIL %s: planted" % name
    assert len(lines) == 10
    assert [line.split()[0] for line in lines].count("PASS") == 9


def _wrong_psi_y(monkeypatch):
    extra = cli.DUALITY["e6-extra"]

    def wrong(dual):
        payload, renderings = extra(dual)
        payload["psi_y"] = [[0, 0, 0, 0, 0, 1]]
        return payload, renderings
    monkeypatch.setitem(cli.DUALITY, "e6-extra", wrong)


def _one_triple_dropped(monkeypatch):
    triples = cli.TRIALITY["triples"]

    def wrong(tri):
        payload, renderings = triples(tri)
        del payload["triples"][0]
        return payload, renderings
    monkeypatch.setitem(cli.TRIALITY, "triples", wrong)


def _doubled_multiplicity(monkeypatch):
    branch = cli.branch_payload

    def wrong(*args):
        payload = branch(*args)
        payload["decomposition"][0]["multiplicity"] *= 2
        return payload
    monkeypatch.setattr(cli, "branch_payload", wrong)


def _no_cubic(monkeypatch):
    invariants = cli.invariants_payload

    def wrong(*args):
        payload = invariants(*args)
        payload["symmetric_trivial"]["3"] = 0
        return payload
    monkeypatch.setattr(cli, "invariants_payload", wrong)


def _no_chirality_swap(monkeypatch):
    automorphisms = cli.DUALITY["automorphisms"]

    def wrong(dual):
        payload, renderings = automorphisms(dual)
        payload["d5-chirality-swap"] = False
        return payload, renderings
    monkeypatch.setitem(cli.DUALITY, "automorphisms", wrong)


@pytest.mark.parametrize("check,argv,plant", [
    ("e6-duality", ["duality", "e6-extra"], _wrong_psi_y),
    ("triality", ["triality", "triples"], _one_triple_dropped),
    ("branchings", ["branch", "e6-levi-d5"], _doubled_multiplicity),
    ("invariant-forms", ["invariants", "E6", "1,0,0,0,0,0"], _no_cubic),
    ("triality", ["duality", "automorphisms"], _no_chirality_swap),
], ids=lambda v: v if isinstance(v, str) else None)
def test_verify_reads_the_printed_payload(capsys, monkeypatch, check, argv,
                                          plant):
    # a wrong producer changes what the command prints and fails the check
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    plant(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out != printed
    assert cli.main(["verify", check]) == 1
    assert capsys.readouterr().out.startswith("FAIL %s: " % check)


def test_inconsistency_exits_one(capsys, monkeypatch):
    def inconsistent(*args):
        raise cli.ConsistencyError("planted")

    monkeypatch.setattr(cli, "hasse_diagram", inconsistent)
    assert cli.main(["hasse", "A2", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "inconsistent: planted\n"


def test_verify_lists_every_check(capsys):
    names = [name for name, _ in cli.ACCEPTANCE_CHECKS]
    assert len(names) == 10
    assert len(set(names)) == 10


@pytest.mark.parametrize("argv", [
    ["dims", "E6", "--beta", "0"],
    ["dims", "E6", "--beta", "-1"],
    ["dims", "E6", "--beta", "9"],
    ["incidence", "A3", "--beta", "0"],
    ["incidence", "A3", "--beta", "-2"],
    ["incidence", "A3", "--beta", "7"],
])
def test_usage_error_beta_out_of_range(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_usage_error_max_degree_below_one(capsys, degree):
    assert cli.main(["invariants", "A2", "1,1", "--max-degree", degree]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["invariants", "A2", "-1,0"],
    ["branch", "e6-levi-d5", "--weight", "-1,0,0,0,0,0"],
])
def test_negative_weight_is_a_value(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: weight must be dominant\n"


def test_orbit_of_a_negative_weight(capsys):
    assert cli.main(["orbit", "A2", "-1,0"]) == 0
    negative = json.loads(capsys.readouterr().out)
    assert cli.main(["orbit", "A2", "0,1"]) == 0
    assert negative["orbit"] == json.loads(capsys.readouterr().out)["orbit"]


def test_incidence_does_not_depend_on_numbering(capsys):
    # E6 with beta 6 is E6 with beta 1 under the diagram flip
    assert cli.main(["incidence", "E6", "--beta", "6"]) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert counts == {"incident": 15, "not_incident": 0}


def test_regular_e8_orbit_is_refused_at_once(capsys):
    start = time.perf_counter()
    assert cli.main(["orbit", "E8", "1,1,1,1,1,1,1,1"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:")
    assert captured.err.count("\n") == 1


def _no_klimyk(*args, **kwargs):
    raise AssertionError("Klimyk product called")


@pytest.mark.parametrize("argv", [["dims", "A100000"],
                                  ["orbit", "A100000", "1"]])
def test_a_rank_past_the_limit_is_refused_at_once(capsys, argv):
    # its Cartan matrix alone would hold 10^10 entries
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("refused: the Cartan matrix of A100000 has "
                            "10000000000 entries, more than 1000000\n")


def test_oversized_invariants_are_refused_at_once(capsys, monkeypatch):
    # the guard refuses from k * |wt V| * #dom(k*lam) before any product
    monkeypatch.setattr(charring, "_times", _no_klimyk)
    for argv, top, cost in (
            (["E8", "0,0,0,0,0,0,0,1", "--max-degree", "1000"],
             "(0, 0, 0, 0, 0, 0, 0, 1000)", 1000 * 241),
            (["A2", "1,0", "--max-degree", "9999999"], "(9999999, 0)",
             9999999 * 3)):
        start = time.perf_counter()
        assert cli.main(["invariants", *argv]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("refused: the dominant weights below %s, at "
                                "%d steps each, need more than 1000000\n"
                                % (top, cost))


def test_invariants_guard_only_the_asked_degree(capsys, monkeypatch):
    # the bilinear type is read off the root data, so --max-degree 1 runs
    # no degree 2 recursion: it answers with 1 * 7 * 2 = 14 steps, although
    # degree 2 would take 2 * 7 * 5 = 70
    monkeypatch.setattr(charring, "MAX_WEIGHTS", 18)
    assert cli.main(["invariants", "A2", "1,1", "--max-degree", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["bilinear"] == "Symmetric"
    assert payload["symmetric_trivial"] == {"1": 0}
    assert cli.main(["invariants", "A2", "1,1", "--max-degree", "2"]) == 3
    assert capsys.readouterr().err == ("refused: the dominant weights below "
                                       "(2, 2), at 14 steps each, need more "
                                       "than 18\n")


def _product(polys, top):
    """Coefficients of t^0..t^top in a product of polynomials, each given
    as {power: coefficient}."""
    out = [1] + [0] * top
    for poly in polys:
        out = [sum(c * out[k - e] for e, c in poly.items() if e <= k)
               for k in range(top + 1)]
    return out


@pytest.mark.parametrize("name,top", [
    ("A1", 6), ("A2", 6), ("B2", 6), ("G2", 6), ("A3", 5),
    ("B3", 4), ("C3", 4), ("D4", 4), ("F4", 3), ("E6", 3),
    ("A4", 8), ("A5", 8), ("A6", 8), ("A7", 6), ("A8", 6),
    ("B4", 8), ("B5", 8), ("B6", 8), ("B7", 6), ("B8", 6),
    ("C4", 8), ("C5", 8), ("C6", 8), ("C7", 6), ("C8", 6),
    ("D5", 8), ("D6", 8), ("D7", 6), ("D8", 6),
    ("E7", 8), ("E8", 8),
])
def test_invariants_of_the_adjoint_are_chevalley_and_hks(name, top):
    # invariants of S(g) are polynomials in generators of degrees
    # d_i = e_i + 1 (Chevalley), those of Lambda(g) an exterior algebra on
    # degrees 2d_i - 1 (Hopf, Koszul-Samelson)
    rs = RootSystem.named(name)
    degrees = [e + 1 for e in rs.exponents]
    # 1/(1 - t^d) truncated at t^top
    sym = _product([dict.fromkeys(range(0, top + 1, d), 1) for d in degrees],
                   top)
    ext = _product([{0: 1, 2 * d - 1: 1} for d in degrees], top)
    adjoint = ",".join(map(str, root_fw(rs, rs.highest_root)))
    args = cli.parse_args(["invariants", name, adjoint,
                           "--max-degree", str(top)])
    payload, _ = cli.SYNTAX["invariants"][0](args)
    assert payload["symmetric_trivial"] == {str(k): sym[k]
                                            for k in range(1, top + 1)}
    assert payload["exterior_trivial"] == {str(k): ext[k]
                                           for k in range(1, top + 1)}


# -- the json emitter against the json module ------------------------------

EMITTER_CASES = [
    {}, [], (), {"a": {}}, {"a": []}, [[]], [{}], [[], {}], {"a": [[], {}]},
    True, False, None, 0, -7, 10 ** 30, "", "a b-c_d.e:f",
    [True, 1, False, 0, None], {"b": True, "a": 1, "c": [1, True]},
    {"z": [1, [2, [3, []]]], "y": {"x": {"w": None}}}, (1, (2, 3), [4]),
    [[1, -2], [0, 3]], [1, True, 0], [[True]],
]


@pytest.mark.parametrize("payload", EMITTER_CASES)
def test_emit_json_is_json_dumps(payload):
    assert cli.emit_json(payload) == json.dumps(payload, sort_keys=True,
                                                indent=2) + "\n"


@pytest.mark.parametrize("name,argv", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_emit_json_on_every_golden_payload(name, argv):
    args = cli.parse_args(argv)
    payload, _ = cli.SYNTAX[args.command][0](args)
    assert cli.emit_json(payload) == json.dumps(payload, sort_keys=True,
                                                indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    1.5, [0.0], {"a": float("nan")}, "caf\u00e9", ["\u2202"], 'say "hi"',
    "back\\slash", "tab\t", "new\nline", "\x7f", {1: 2}, {"a": {None: 1}},
    {("a",): 1}, frozenset(), {1, 2}, b"bytes",
])
def test_emit_json_refuses_what_it_cannot_render_as_json_does(payload):
    with pytest.raises((TypeError, ValueError)):
        cli.emit_json(payload)


# -- what the command line imports ------------------------------------------

FOOTPRINT = """
import io, sys
before = set(sys.modules)
from weylgeom import cli
imported = set(sys.modules)
out, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(sys.argv[1:])
sys.stdout = out
print(code)
print(" ".join(sorted(imported - before)))
print(" ".join(sorted(set(sys.modules) - imported)))
"""


def _footprint(*argv):
    """The exit code of a command in a fresh python -S, with the modules
    that importing weylgeom.cli and running the command add to those of
    the interpreter."""
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, at_import, in_main = proc.stdout.split("\n")[:3]
    return int(code), set(at_import.split()), set(in_main.split())


def test_cli_imports_no_heavy_stdlib_module(tmp_path):
    # no standard-library module at all, at import or in main; duality is
    # loaded only by the commands that use it
    cache = tmp_path / "cache"
    lines = [argv for _, argv in GOLDEN_CASES]
    lines += [["--cache-dir", str(cache), "dims", "E6"], ["verify", "all"]]
    for argv in lines:
        code, at_import, in_main = _footprint(*argv)
        assert code == 0, argv
        assert "weylgeom.cli" in at_import
        stdlib = {m for m in at_import | in_main
                  if m != "weylgeom" and not m.startswith("weylgeom.")}
        assert not stdlib, (argv, stdlib)
        command = next(a for a in argv if a in cli.SYNTAX)
        assert "weylgeom.duality" not in at_import, argv
        assert ("weylgeom.duality" in in_main) == (
            command in ("triality", "duality", "verify")), argv
    assert not cache.exists()


def test_src_imports_only_sys():
    # static, so an import in a branch no command reaches is caught too
    files = sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
    assert {p.name for p in files} >= {"__init__.py", "cli.py", "charring.py"}
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Name) and node.id == "__import__":
                names = [node.id]
            else:
                continue
            assert set(names) <= {"sys"}, (
                "%s:%d imports %s" % (path.name, node.lineno, names))
            found.update(names)
    assert found == {"sys"}


def test_every_file_parses_as_python_3_10():
    # pyproject.toml promises Python 3.10: no grammar of a later release
    root = pathlib.Path(__file__).parents[1]
    files = sorted((root / "src" / "weylgeom").glob("*.py"))
    files += sorted((root / "tests").glob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_only_check_node_decides_a_node():
    # static, so that no private node check or node range comes back: the
    # node set is spelled once, as RootSystem.nodes, and refused once
    files = sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
    ranges, refusals = [], []
    for path in files:
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owner[child] = node if isinstance(
                    node, ast.FunctionDef) else owner.get(node)
        for node in ast.walk(tree):
            where = (path.name, getattr(owner.get(node), "name", None))
            text = ast.unparse(node) if isinstance(node, ast.Call) else ""
            if text.startswith("range(") and text.endswith("rank + 1)"):
                ranges.append(where)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = ast.unparse(node.exc)
                if exc.startswith("ValueError(") and "out of range" in exc:
                    refusals.append(where)
    assert ranges == [("rootsystem.py", "__init__")]
    assert refusals == [("rootsystem.py", "check_node")]
    assert not hasattr(RootSystem, "alpha_fw")


@pytest.mark.parametrize("argv,system", [
    (["dims", "E\t6"], "E6"),
    (["dims", "E 6"], "E6"),
    (["dims", "e6"], "E6"),
    (["orbit", "B\t3", "1,0,0"], "B3"),
    (["hasse", " a 2\n", "1"], "A2"),
    (["invariants", "A\t2", "1,0"], "A2"),
    (["incidence", "f\t4"], "F4"),
], ids=repr)
def test_commands_echo_the_canonical_system_name(capsys, argv, system):
    # any spelling RootSystem.named accepts prints as its canonical name
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["system"] == system
    assert cli.main([argv[0], system] + argv[2:]) == 0
    assert capsys.readouterr().out == out


def test_no_default_node_names_the_canonical_system(capsys):
    assert cli.main(["dims", "e\t8"]) == 2
    assert _one_line_error(capsys) == (
        "error: no default node for E8; pass --beta\n")
