"""End-to-end checks for the command line interface.

Golden transcripts live in tests/golden/ and are regenerated with
``pytest --update-golden``.
"""

import json
import subprocess
import sys

import pytest

from weylgeom import charring, cli

GOLDEN_CASES = [
    ("dims-e6.json", ["dims", "E6"]),
    ("dims-f4.txt", ["--format", "ascii", "dims", "F4"]),
    ("hasse-a2-1.json", ["hasse", "A2", "1"]),
    ("hasse-d4-1.dot", ["--format", "dot", "hasse", "D4", "1"]),
    ("orbit-b3.json", ["orbit", "B3", "1,0,0"]),
    ("invariants-a2.json", ["invariants", "A2", "1,0"]),
    ("branch-e6-levi-d5.json", ["branch", "e6-levi-d5"]),
    ("triality-table.json", ["triality", "table"]),
    ("triality-table.txt", ["--format", "ascii", "triality", "table"]),
    ("duality-e6-ln.json", ["duality", "e6-ln"]),
    ("incidence-e6.json", ["incidence", "E6"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_transcript(golden, capsys, name, argv):
    assert cli.main(argv) == 0
    golden(name, capsys.readouterr().out)


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


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_refused_exit_code(capsys):
    # the B4 vector representation has a zero weight, so no apartment
    assert cli.main(["incidence", "B4"]) == 3
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


def test_cache_dir_plumbing(tmp_path, capsys, monkeypatch):
    # main swaps in a store on the directory; put the current one back after
    monkeypatch.setattr(charring, "STORE", charring.STORE)
    assert cli.main(["--cache-dir", str(tmp_path), "dims", "E6"]) == 0
    capsys.readouterr()
    assert charring.STORE.directory == str(tmp_path)
    assert any(tmp_path.iterdir()), "cache directory stayed empty"


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(charring, "STORE", charring.STORE)
    monkeypatch.setenv("WEYLGEOM_CACHE", str(tmp_path))
    assert cli.main(["dims", "A3"]) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("domchar-*.json"))


def test_verify_single_check(capsys):
    assert cli.main(["verify", "standard-dimensions"]) == 0
    out = capsys.readouterr().out
    assert "PASS standard-dimensions" in out


def test_verify_unknown_name():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "no-such-check"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("sub,via_env", [("", False), ("below", False),
                                         ("", True)])
def test_usage_error_cache_dir_is_a_file(tmp_path, capsys, monkeypatch, sub,
                                         via_env):
    path = tmp_path / "plain"
    path.write_text("not a directory\n")
    argv = ["dims", "A2"]
    if via_env:
        monkeypatch.setenv("WEYLGEOM_CACHE", str(path / sub))
    else:
        argv = ["--cache-dir", str(path / sub)] + argv
    monkeypatch.setattr(charring, "STORE", charring.STORE)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert path.read_text() == "not a directory\n"


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
    assert counts == {"incident": 15, "not_incident": 0, "no_rule": 0}
