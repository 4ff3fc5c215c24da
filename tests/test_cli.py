import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import incalg
from incalg import fia
from incalg.cli import COMMANDS, _read_args, build_parser, main
from incalg.errors import (IncalgError, NotADerivation, NotAMorphism, NotAUnit,
                           SizeLimit)
from incalg.fia import IncidenceAlgebra
from incalg.fields import QQ, PrimeField, parse_field
from incalg.idealization import (DElem, factor_inner, inner_auto, lift_anti,
                                 lift_derivation)
from incalg.involutions import (InvolutionSpec, base_involution, classify,
                                equivalent_inner, rho_eps, sigma_lambda)
from incalg.morphisms import FiaMorphism, FiLinearMap, multiplicative_is_inner
from incalg.posets import Poset
from incalg.snf import check_hypotheses

from conftest import chain, suspension
from test_hypotheses_reference import moore3_face_poset


@pytest.fixture
def poset_files(tmp_path):
    files = {}
    files["chain2"] = tmp_path / "chain2.json"
    files["chain2"].write_text(json.dumps(
        {"elements": ["a", "b"], "covers": [["a", "b"]]}))
    files["chain3"] = tmp_path / "chain3.json"
    files["chain3"].write_text(json.dumps(
        {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}))
    files["diamond"] = tmp_path / "diamond.json"
    files["diamond"].write_text(json.dumps(
        {"elements": ["0", "a", "b", "1"],
         "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}))
    files["vee"] = tmp_path / "vee.txt"
    files["vee"].write_text("a<b\na<c\n")
    files["fence"] = tmp_path / "fence.json"
    files["fence"].write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "covers": [["a", "c"], ["b", "c"], ["b", "d"]]}))
    files["crown"] = tmp_path / "crown.json"
    files["crown"].write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "covers": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}))
    return files


def test_poset_info_diamond(poset_files, capsys):
    assert main(["poset-info", "--poset", str(poset_files["diamond"])]) == 0
    out = capsys.readouterr().out
    assert "connected: yes" in out
    assert "all-comparable: 0, 1" in out
    assert "involutions" in out


def test_poset_info_fence_has_no_anchor(poset_files, capsys):
    assert main(["poset-info", "--poset", str(poset_files["fence"])]) == 0
    out = capsys.readouterr().out
    assert "all-comparable: none" in out


def test_poset_info_vee_notes_missing_involutions(poset_files, capsys):
    assert main(["poset-info", "--poset", str(poset_files["vee"])]) == 0
    out = capsys.readouterr().out
    assert "admits no involution" in out


def test_poset_info_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": ["a", "a"], "covers": []}')
    assert main(["poset-info", "--poset", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["poset-info", "--poset", str(missing)]) == 2


def _unreadable(tmp_path):
    """A directory and a file that is not UTF-8 text."""
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"elements": ["\u00e9"], "covers": []}'.encode("latin-1"))
    return {"directory": tmp_path, "not-utf8": latin}


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_inputs_exit_2(poset_files, tmp_path, capsys, kind):
    path = str(_unreadable(tmp_path)[kind])
    for argv in (["poset-info", "--poset", path],
                 ["classify", "--poset", str(poset_files["chain2"]),
                  "--field", "F3", "--lambda", path],
                 ["equivalent", "--poset", str(poset_files["chain2"]),
                  "--field", "F3", path, path]):
        if kind == "directory" and argv[0] == "classify":
            continue  # a directory is no map file; it parses as an inline map
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: "), err
        assert "Traceback" not in err


def test_long_inline_lambda_is_not_a_file_name(poset_files, capsys):
    """An inline map longer than the system's file-name limit is parsed, not
    probed as a path (which raised OSError: file name too long)."""
    lam = json.dumps({"a": "b", "b": "a"})
    argv = ["classify", "--poset", str(poset_files["chain2"]), "--field", "F3",
            "--json", "--lambda"]
    assert main(argv + [lam]) == 0
    short = capsys.readouterr().out
    assert main(argv + [lam + " " * 300]) == 0
    assert capsys.readouterr().out == short


def test_paths_read_as_pathlib_names_them(poset_files, tmp_path, capsys,
                                         monkeypatch):
    """A trailing slash and a ``.`` part drop, and an empty path is ``.``."""
    chain2 = str(poset_files["chain2"])
    assert main(["poset-info", "--poset", chain2 + "/"]) == 0
    assert "connected: yes" in capsys.readouterr().out
    (tmp_path / "lam.txt").write_text("a:b,b:a")
    assert main(["classify", "--poset", chain2, "--field", "F3", "--lambda",
                 f"{tmp_path}/./lam.txt/"]) == 0
    assert "count: " in capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert main(["poset-info", "--poset", ""]) == 2
    assert capsys.readouterr().err == "error: cannot read : Is a directory\n"


@pytest.mark.parametrize("obj, named", [
    ({"elements": ["a", "b", "c"], "covers": [["a", "b", "c"]]},
     "['a', 'b', 'c']"),
    ({"elements": ["a", "b"], "covers": [["a"]]}, "['a']"),
    ({"elements": ["a", "b"], "covers": "ab"}, "'ab'"),
    ({"elements": ["a", "b"], "covers": [["a", 2]]}, "['a', 2]"),
    ({"elements": "ab", "covers": []}, "'ab'"),
    ({"elements": [1, 2], "covers": [[1, 2]]}, "1"),
    ({"elements": ["a", ["b"]], "covers": []}, "['b']"),
    # incidence-function JSON keys are "x,y", so "x,y" would not round-trip
    ({"elements": ["x,y", "z"], "covers": []}, "'x,y'"),
], ids=["long-cover", "short-cover", "covers-string", "cover-int-label",
        "elements-string", "int-labels", "list-label", "comma-label"])
def test_poset_info_rejects_malformed_shapes(tmp_path, capsys, obj, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["poset-info", "--poset", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, code", [
    ("classify", 2), ("equivalent", 2), ("verify", 0)])
def test_empty_poset_exits_cleanly(tmp_path, capsys, command, code):
    """The empty poset is not connected: classify and equivalent refuse it
    with NotConnected, and verify skips the classification checks."""
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps(
        {"theta": {"f": {}, "i": {}}, "lambda": {}, "k": 1}))
    extra = {"classify": ["--lambda", "{}"],
             "equivalent": [str(inv), str(inv)], "verify": []}[command]
    argv = [command, "--poset", str(empty), "--field", "F3", *extra]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("error: ")
        assert "a connected poset" in captured.err
    else:
        assert "classification checks skipped" in captured.out


def test_huge_modulus_is_refused_at_once(poset_files):
    """Primality is trial division, so a 31-digit modulus would spin for
    hours; PrimeField refuses it before the loop (SizeLimit, exit 2)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(incalg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "incalg.cli", "hypotheses", "--poset",
         str(poset_files["chain2"]), "--field",
         "F1000000000000000000000000000057"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: modulus ")
    assert "Traceback" not in proc.stderr


CLOSED_EARLY = "error: output closed before it was all written\n"


def _close_early(argv, unbuffered, lines):
    """Run the CLI in a subprocess with stdout on a pipe, with
    PYTHONUNBUFFERED set or unset; read ``lines`` lines, then close the
    read end.  Returns (exit code, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(incalg.__file__).resolve().parents[1])
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "incalg.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(
        poset_files, tmp_path, unbuffered):
    """``incalg verify ... | head -1``: a run whose output meets the
    closed pipe exits 2 with one ``error:`` line and no traceback.  Closed
    before anything is read, the first write meets it, or, buffered, the
    flush at the end.  Closed after the first line, ``verify``'s few short
    lines may all be in the pipe already (buffered, they always are): then
    nothing was lost and the run exits 0.  ``poset-info --json`` on susp6
    prints 130 kB, more than a pipe holds, so its write is still waiting
    when the reader closes after the first line."""
    verify = ["verify", "--poset", str(poset_files["chain3"]), "--field", "F3"]
    assert _close_early(verify, unbuffered, 0) == (2, CLOSED_EARLY)
    assert _close_early(verify, unbuffered, 1) in {(2, CLOSED_EARLY), (0, "")}
    path = tmp_path / "susp6.json"
    path.write_text(json.dumps(suspension(6).to_json()))
    info = ["poset-info", "--poset", str(path), "--json"]
    assert _close_early(info, unbuffered, 1) == (2, CLOSED_EARLY)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_running_out_of_memory_exits_2_in_one_line(
        poset_files, monkeypatch, capsys, command):
    """A subcommand that raises MemoryError exits 2 with the one stderr
    line ``error: out of memory`` and no traceback, on the argparse-free
    reader's path and on argparse's (an abbreviated option)."""
    def exhaust(args):
        raise MemoryError

    text, _, arguments = COMMANDS[command]
    monkeypatch.setitem(COMMANDS, command, (text, exhaust, arguments))
    argv = {"poset-info": [], "hypotheses": ["--field", "F3"],
            "classify": ["--field", "F3", "--lambda", "a:b,b:a"],
            "equivalent": ["--field", "F3", "x.json", "y.json"],
            "verify": ["--field", "F3"]}[command]
    poset = ["--poset", str(poset_files["chain2"])]
    for given in (poset, ["--pos", poset[1]]):
        assert main([command, *given, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory\n"
        assert captured.out == ""


def test_a_modulus_past_the_int_digit_limit_exits_2(poset_files, capsys):
    """A 5,000-digit modulus is past the digit count int() converts; it is
    refused by its length, before any conversion, in one stderr line."""
    start = time.perf_counter()
    assert main(["hypotheses", "--poset", str(poset_files["chain2"]),
                 "--field", "F" + "9" * 5000]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == ("error: modulus of 5000 digits exceeds the "
                            "bound 1000000000000\n")
    assert captured.out == ""


def test_a_rational_exponent_exits_2_before_the_value_is_built(
        poset_files, tmp_path, capsys):
    """Fraction("1e9999999") builds a 33-million-bit numerator; a scalar
    with an exponent is refused first, in one stderr line."""
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps(
        {"lambda": {"0": "1", "1": "0", "a": "a", "b": "b"}, "k": 1,
         "theta": {"f": {"entries": {"0,0": "1", "a,a": "1e9999999",
                                     "b,b": "1", "1,1": "1"}},
                   "i": {"entries": {}}}}))
    start = time.perf_counter()
    assert main(["equivalent", "--poset", str(poset_files["diamond"]),
                 "--field", "Q", str(inv), str(inv)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: bad involution object in {inv}: "
                            "bad rational scalar '1e9999999'\n")
    assert captured.out == ""


def test_equivalent_has_no_inner_flag(poset_files, capsys):
    """Inner equivalence is the default and ``--general`` the one mode
    flag, so ``--inner`` is an unknown option: a usage error, exit 2."""
    with pytest.raises(SystemExit) as info:
        main(["equivalent", "--poset", str(poset_files["diamond"]),
              "--field", "F5", "--inner", "inv1.json", "inv2.json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --inner" in capsys.readouterr().err


def test_hypotheses_exit_codes(poset_files, capsys):
    assert main(["hypotheses", "--poset", str(poset_files["fence"]),
                 "--field", "F5"]) == 0
    out = capsys.readouterr().out
    assert "mult_subset_inn: True" in out
    assert "der_equals_ider: True" in out

    assert main(["hypotheses", "--poset", str(poset_files["crown"]),
                 "--field", "F5"]) == 3
    out = capsys.readouterr().out
    assert "mult_subset_inn: False" in out
    assert "der_equals_ider: False" in out
    assert "non_inner_cocycle" in out
    assert "non_inner_additive_cocycle" in out

    assert main(["hypotheses", "--poset", str(poset_files["crown"]),
                 "--field", "F2"]) == 3
    out = capsys.readouterr().out
    assert "mult_subset_inn: True" in out
    assert "der_equals_ider: False" in out


@pytest.mark.parametrize("spec", ["F05", " F5"])
def test_hypotheses_echoes_the_parsed_field(poset_files, capsys, spec):
    """A spec is stripped and its digits read as a number, so "F05" and
    " F5" both run over F5, and both outputs say so."""
    argv = ["hypotheses", "--poset", str(poset_files["fence"]), "--field", spec]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "field: F5"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["field"] == "F5"


def test_verify_echoes_the_parsed_field(poset_files, capsys):
    """The diamond's flip fixes its two middle points, so over Q its
    classes form an infinite family, and the line naming the field is
    printed."""
    assert main(["verify", "--poset", str(poset_files["diamond"]),
                 "--field", " Q"]) == 0
    out = capsys.readouterr().out
    assert "info classification over Q: infinite family\n" in out


def _certified_non_inner(poset, field, entries):
    """Whether printed {"x,y": value} entries form a multiplicative cocycle
    with no inner witness."""
    alg = IncidenceAlgebra(poset, field)
    sigma = {tuple(key.split(",")): field.parse(v) for key, v in entries.items()}
    return multiplicative_is_inner(alg, sigma) is None


@pytest.mark.parametrize("spec", ["F7", "F13"])
def test_hypotheses_prints_an_order_three_counterexample(tmp_path, capsys,
                                                         spec):
    """The mod-3 Moore space's only obstruction is Z/3, so over F7 and F13
    the counterexample is a character of order 3, not a sign pattern."""
    poset = moore3_face_poset()
    path = tmp_path / "moore3.json"
    path.write_text(json.dumps(poset.to_json()))
    assert main(["hypotheses", "--poset", str(path), "--field", spec,
                 "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["mult_subset_inn"] is False
    assert payload["der_equals_ider"] is True
    assert _certified_non_inner(poset, parse_field(spec),
                                payload["non_inner_cocycle"])


def test_hypotheses_over_a_large_prime(poset_files):
    """The primitive root of a ten-digit modulus is found from the prime
    factors of p - 1, not by listing powers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(incalg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "incalg.cli", "hypotheses", "--poset",
         str(poset_files["crown"]), "--field", "F1000000007", "--json"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    crown = Poset.from_json(json.loads(poset_files["crown"].read_text()))
    assert _certified_non_inner(crown, PrimeField(1000000007),
                                payload["non_inner_cocycle"])
    assert "non_inner_additive_cocycle" in payload


def test_hypotheses_compiles_kernels_only_for_a_counterexample(
        poset_files, capsys, monkeypatch):
    """The decision needs no incidence algebra: a passing poset compiles no
    product kernel, and a failing one builds its algebra for the
    counterexample search but multiplies nothing in it, so it compiles no
    kernel either (each is compiled on first use)."""
    compiled = []
    kernel = fia._kernel
    monkeypatch.setattr(
        fia, "_kernel", lambda name, *rest: compiled.append(name)
        or kernel(name, *rest))
    assert main(["hypotheses", "--poset", str(poset_files["fence"]),
                 "--field", "F5"]) == 0
    assert "der_equals_ider: True" in capsys.readouterr().out
    assert compiled == []
    assert main(["hypotheses", "--poset", str(poset_files["crown"]),
                 "--field", "F5"]) == 3
    out = capsys.readouterr().out
    assert "non_inner_cocycle: {" in out
    assert "non_inner_additive_cocycle: {" in out
    assert compiled == []


def test_classify_chain3(poset_files, capsys):
    assert main(["classify", "--poset", str(poset_files["chain3"]),
                 "--field", "F5", "--lambda", "a:c,b:b,c:a", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert payload["fixed_points"] == ["b"]
    assert len(payload["representatives"]) == 2


def test_classify_diamond_f3(poset_files, capsys):
    lam = json.dumps({"0": "1", "1": "0", "a": "a", "b": "b"})
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--lambda", lam, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    assert len(payload["invariants"]) == 4


def test_classify_chain2_named_representatives(poset_files, capsys):
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", "--lambda", "a:b,b:a", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    kinds = {(inv.get("kind"), inv["sign"]) for inv in payload["invariants"]}
    assert kinds == {("plain", 1), ("plain", -1), ("skew", 1), ("skew", -1)}


def test_classify_rejects_bad_inputs(poset_files, capsys):
    assert main(["classify", "--poset", str(poset_files["crown"]),
                 "--field", "F5", "--lambda", "a:c,c:a,b:d,d:b"]) == 3
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F2", "--lambda", "a:b,b:a"]) == 4
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", "--lambda", "a:a,b:b"]) == 2
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F6", "--lambda", "a:b,b:a"]) == 2


def test_classify_rational_family(poset_files, capsys):
    lam = json.dumps({"0": "1", "1": "0", "a": "a", "b": "b"})
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "Q", "--lambda", lam, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == "infinite"
    assert "family" in payload


def test_equivalent_command(poset_files, tmp_path, capsys):
    chain2 = json.loads(poset_files["chain2"].read_text())
    from incalg.posets import Poset
    poset = Poset.from_json(chain2)
    alg = IncidenceAlgebra(poset, PrimeField(3))
    lam = poset.involutions()[0]
    rho_plus = base_involution(alg, lam, 1)
    rho_minus = base_involution(alg, lam, -1)
    sig = sigma_lambda(alg, lam, 1)
    f1 = tmp_path / "inv1.json"
    f2 = tmp_path / "inv2.json"
    f3 = tmp_path / "inv3.json"
    f1.write_text(json.dumps(rho_plus.to_json()))
    f2.write_text(json.dumps(rho_minus.to_json()))
    f3.write_text(json.dumps(sig.to_json()))

    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(f1), str(f2)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["distinguisher"] == "sign"

    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(f1), str(f3), "--general"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["distinguisher"] == "chi"

    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", "--check", str(f1), str(f1)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["equivalent"] is True
    assert out["witness"]["kind"] == "inner"


def test_equivalent_witness_round_trip(poset_files, tmp_path, capsys):
    from incalg.posets import Poset
    poset = Poset.from_json(json.loads(poset_files["diamond"].read_text()))
    alg = IncidenceAlgebra(poset, PrimeField(3))
    from incalg.involutions import rho_eps
    flip = next(m for m in poset.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})
    s1 = rho_eps(alg, flip, {"a": 1, "b": 1}, 1)
    s2 = rho_eps(alg, flip, {"a": 2, "b": 2}, 1)
    f1 = tmp_path / "e1.json"
    f2 = tmp_path / "e2.json"
    f1.write_text(json.dumps(s1.to_json()))
    f2.write_text(json.dumps(s2.to_json()))
    code = main(["equivalent", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--check", str(f1), str(f2)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["witness"]["conjugator"]["f"]["entries"]


def test_equivalent_rejects_non_involution(poset_files, tmp_path, capsys):
    f1 = tmp_path / "bad.json"
    f1.write_text(json.dumps({
        "theta": {"f": {"entries": {"a,a": "1", "b,b": "1"}},
                  "i": {"entries": {"a,b": "1"}}},
        "lambda": {"a": "b", "b": "a"},
        "k": "-1"}))
    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(f1), str(f1)])
    assert code == 2


def _set_f(value):
    def edit(obj):
        obj["theta"]["f"] = value
    return edit


def _set_entries(value):
    def edit(obj):
        obj["theta"]["f"]["entries"] = value
    return edit


def _set_value(value):
    def edit(obj):
        obj["theta"]["f"]["entries"]["a,a"] = value
    return edit


def _set_lambda(value):
    def edit(obj):
        obj["lambda"] = value
    return edit


@pytest.mark.parametrize("field", ["F5", "Q"])
@pytest.mark.parametrize("edit, named", [
    (_set_f(42), "42"),
    (_set_entries([["a,a", "1"]]), "[['a,a', '1']]"),
    (_set_value(17), "17"),
    (_set_value(None), "None"),
    (_set_value(1.5), "1.5"),
    (_set_lambda("ab"), "'ab'"),
    (_set_lambda([[1]]), "[[1]]"),
    (_set_lambda([["a", "c"], ["b", "b"], ["c", "a"]]),
     "[['a', 'c'], ['b', 'b'], ['c', 'a']]"),
    (_set_lambda({"a": ["c"], "b": "b", "c": "a"}), "['c']"),
    (_set_lambda({"a": 3, "b": "b", "c": "a"}), "3"),
], ids=["f-number", "entries-list", "value-number", "value-null",
        "value-float", "lambda-string", "lambda-nested-list",
        "lambda-pair-list", "lambda-list-label", "lambda-int-label"])
def test_equivalent_rejects_malformed_involution_shapes(
        poset_files, tmp_path, capsys, field, edit, named):
    poset = Poset.from_json(json.loads(poset_files["chain3"].read_text()))
    alg = IncidenceAlgebra(poset, parse_field(field))
    obj = base_involution(alg, poset.involutions()[0], 1).to_json()
    edit(obj)
    bad = tmp_path / "inv.json"
    bad.write_text(json.dumps(obj))
    assert main(["equivalent", "--poset", str(poset_files["chain3"]),
                 "--field", field, str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_equivalent_names_the_file_missing_a_key(poset_files, tmp_path,
                                                 capsys):
    poset = Poset.from_json(json.loads(poset_files["chain2"].read_text()))
    obj = base_involution(IncidenceAlgebra(poset, PrimeField(3)),
                          poset.involutions()[0], 1).to_json()
    del obj["theta"]
    bad = tmp_path / "inv.json"
    bad.write_text(json.dumps(obj))
    assert main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad involution object in {bad}: involution has no 'theta'\n")


@pytest.mark.parametrize("edit, message", [
    (_set_f([1]), "incidence function [1] is not an object"),
    (_set_lambda([1]), "poset map [1] is not an object"),
], ids=["f-list", "lambda-list"])
def test_non_object_function_and_map_exit_2(poset_files, tmp_path, capsys,
                                            edit, message):
    """The incidence-function and poset-map readers share the poset
    reader's "is not an object" check; each message reads as before."""
    poset = Poset.from_json(json.loads(poset_files["chain2"].read_text()))
    obj = base_involution(IncidenceAlgebra(poset, PrimeField(3)),
                          poset.involutions()[0], 1).to_json()
    edit(obj)
    bad = tmp_path / "inv.json"
    bad.write_text(json.dumps(obj))
    assert main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad involution object in {bad}: {message}\n")


def test_inline_list_lambda_is_a_bad_map_entry(poset_files, capsys):
    """Inline ``--lambda`` text is JSON only when it opens with "{"; "[1]"
    is read as a:b pairs and refused there, before the map reader."""
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F5", "--lambda", "[1]"]) == 2
    assert capsys.readouterr().err == "error: bad map entry '[1]'\n"


def test_verify_commands(poset_files, capsys):
    assert main(["verify", "--poset", str(poset_files["chain2"]),
                 "--field", "F3"]) == 0
    out = capsys.readouterr().out
    assert "oracle orbit count matches classification" in out
    assert "FAIL" not in out

    assert main(["verify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3"]) == 0
    out = capsys.readouterr().out
    assert "classification for" in out

    assert main(["verify", "--poset", str(poset_files["crown"]),
                 "--field", "F5"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_verify_reports_a_skipped_oracle(poset_files, capsys):
    from incalg.oracle import count_units
    units = count_units(IncidenceAlgebra(
        Poset.from_covers(["a", "b"], [("a", "b")]), PrimeField(3)), "D")
    argv = ["verify", "--poset", str(poset_files["chain2"]), "--field", "F3"]
    assert main(argv + ["--oracle-limit", str(units - 1)]) == 0
    out = capsys.readouterr().out
    assert (f"info oracle check skipped: {units} units exceed "
            f"--oracle-limit {units - 1}\n") in out
    assert "oracle orbit count" not in out and "FAIL" not in out
    assert main(argv + ["--oracle-limit", str(units)]) == 0
    out = capsys.readouterr().out
    assert "ok   oracle orbit count matches classification" in out
    assert "skipped" not in out


def test_verify_runs_the_oracle_on_chain3(poset_files, capsys):
    """chain3 over F3 has 157,464 unit pairs, the whole unit group."""
    assert main(["verify", "--poset", str(poset_files["chain3"]),
                 "--field", "F3", "--oracle-limit", "157464"]) == 0
    out = capsys.readouterr().out
    assert "ok   oracle orbit count matches classification" in out
    assert "FAIL" not in out


VERIFY_CHAIN2_F3 = """\
ok   algebra ring axioms
ok   idealization ring axioms
ok   unit inverses
ok   inner decomposition round-trip
info mult_subset_inn: True
info der_equals_ider: True
ok   classification for {"a": "b", "b": "a"}
ok   oracle orbit count matches classification
"""


def test_verify_classifies_each_lambda_once(poset_files, capsys, monkeypatch):
    """The oracle check sums the class counts of the classification loop:
    one ``_classify`` call per poset involution, in order, all on the one
    algebra ``verify`` builds, and the same stdout."""
    import incalg.involutions as involutions
    calls, built = [], []
    real, real_init = involutions._classify, IncidenceAlgebra.__init__

    def counting(alg, lam, general):
        calls.append((alg, lam))
        return real(alg, lam, general)

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(involutions, "_classify", counting)
    monkeypatch.setattr(IncidenceAlgebra, "__init__", counting_init)
    assert main(["verify", "--poset", str(poset_files["chain2"]),
                 "--field", "F3"]) == 0
    assert capsys.readouterr().out == VERIFY_CHAIN2_F3
    lams = Poset.from_covers(["a", "b"], [("a", "b")]).involutions()
    assert [lam.mapping for _, lam in calls] == [lam.mapping for lam in lams]
    assert len(built) == 1 and all(alg is built[0] for alg, _ in calls)


@pytest.mark.parametrize("kernel, line", [
    ("_compile_product", "FAIL algebra ring axioms\n"),
    ("_compile_dproduct", "FAIL idealization ring axioms\n"),
], ids=["convolution", "idealization"])
def test_verify_fails_on_a_corrupted_product_kernel(poset_files, capsys,
                                                    monkeypatch, kernel, line):
    """A kernel compiled with one term of its longest entry dropped is still
    bilinear but not the algebra's product: the basis-pair check prints
    FAIL for its ring, and verify exits 2."""
    real = getattr(fia, kernel)

    def corrupted(conv, modulus):
        k = max(range(len(conv)), key=lambda k: len(conv[k]))
        return real(conv[:k] + (conv[k][1:],) + conv[k + 1:], modulus)

    monkeypatch.setattr(fia, kernel, corrupted)
    assert main(["verify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("ok   " if kernel == "_compile_dproduct" else "FAIL")
    assert line in out


def _verify_with_representatives(poset_files, capsys, monkeypatch, edit):
    """verify on the diamond over F5, with ``edit`` applied to each
    classification's representative list; (exit code, stdout, the FAIL
    line each classified involution must then print)."""
    import incalg.involutions as involutions
    real, fails = involutions._classify, []

    def edited(alg, lam, general):
        res = real(alg, lam, general)
        fails.append("FAIL classification for "
                     f"{json.dumps(lam.to_json(), sort_keys=True)}\n")
        return involutions.Classification(alg.field, lam,
                                          edit(res.representatives), general)

    monkeypatch.setattr(involutions, "_classify", edited)
    code = main(["verify", "--poset", str(poset_files["diamond"]), "--field", "F5",
                 "--oracle-limit", "0"])
    return code, capsys.readouterr().out, fails


def test_verify_fails_on_a_repeated_representative(poset_files, capsys,
                                                   monkeypatch):
    """Two representatives of one class share their (k, key) pair, so the
    classification line of every involution reads FAIL, and verify exits 2."""
    code, out, fails = _verify_with_representatives(
        poset_files, capsys, monkeypatch, lambda reps: reps + reps[-1:])
    assert code == 2 and len(fails) == 2
    assert all(line in out for line in fails)


def test_verify_fails_on_a_representative_that_is_not_involutive(
        poset_files, capsys, monkeypatch):
    """A spec built past its involution check (``_validated``) whose square
    is conjugation by a non-central unit fails the dense square check: a
    FAIL line, not an ok line, for its involution, and verify exits 2."""

    def spoiled(reps):
        alg, lam = reps[0].alg, reps[0].lam
        top = alg.poset.elements[-1]
        theta = DElem(alg.diagonal({x: 2 if x == top else 1
                                    for x in alg.poset.elements}), alg.zero())
        bad = InvolutionSpec(alg, theta, lam, 1, _validated=True)
        assert not bad._ratio.is_central()
        return [bad] + reps[1:]

    code, out, fails = _verify_with_representatives(poset_files, capsys,
                                                    monkeypatch, spoiled)
    assert code == 2 and len(fails) == 2
    assert all(line in out for line in fails)


def _finite_classifications():
    """classify on every involution of the pinned posets and chain4 over
    F3, F5 and Q, where the hypotheses hold and the answer is a finite
    list."""
    from test_cli_pinned import POSETS
    posets = [chain(4)] + [Poset.from_covers(*POSETS[name]) for name in POSETS]
    for poset in posets:
        for field in (PrimeField(3), PrimeField(5), parse_field("Q")):
            if not all(check_hypotheses(poset, field).values()):
                continue
            for lam in poset.involutions():
                res = classify(poset, lam, field)
                if res.representatives is not None:
                    yield res.representatives


@pytest.mark.parametrize("extra", [0, 1], ids=["classify", "one repeated"])
def test_key_set_decides_as_the_pairwise_loop(extra):
    """verify reads pairwise inequivalence off the set of (k, key) pairs;
    the pairwise ``equivalent_inner`` loop it replaced is the reference, on
    classify's representatives and with one of them repeated."""
    cases = 0
    for reps in _finite_classifications():
        reps = reps + reps[:extra]
        pairwise = all(not equivalent_inner(a, b).equivalent
                       for i, a in enumerate(reps) for b in reps[i + 1:])
        keys = len({(s.k, s.invariant().key()) for s in reps}) == len(reps)
        assert keys == pairwise == (extra == 0)
        cases += 1
    assert cases == 31


@pytest.mark.parametrize("limit", ["-1", "ten", "٢", "1_000"])
def test_verify_rejects_a_bad_oracle_limit(poset_files, capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--poset", str(poset_files["chain2"]), "--field", "F3",
              "--oracle-limit", limit])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--oracle-limit" in err and repr(limit) in err


@pytest.mark.parametrize("lam, named", [
    ({"0": ["1"], "1": "0", "a": "a", "b": "b"}, "['1']"),
    ({"0": 1, "1": "0", "a": "a", "b": "b"}, "1"),
    ({"0": None, "1": "0", "a": "a", "b": "b"}, "None"),
    ({"0": {"1": "1"}, "1": "0", "a": "a", "b": "b"}, "{'1': '1'}"),
], ids=["list-label", "int-label", "null-label", "object-label"])
def test_classify_rejects_malformed_lambda_shapes(poset_files, capsys, lam,
                                                  named):
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--lambda", json.dumps(lam)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lam, message", [
    ({"0": "1", "1": "0", "a": "a", "b": "b", "c": "c"},
     "map label 'c' is not an element"),
    ({"0": "1", "1": "0", "c": "a", "b": "b"},
     "map must be defined on every element: missing 'a'"),
], ids=["stray-label", "missing-label"])
def test_classify_names_the_label_a_lambda_gets_wrong(poset_files, capsys, lam,
                                                      message):
    """A map with a label that is no element says so, even when it is
    defined on every element; one that misses an element names the
    first it misses."""
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F5", "--lambda", json.dumps(lam)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _raised(call):
    """The type and message of the IncalgError ``call()`` raises, or None."""
    try:
        call()
    except IncalgError as exc:
        return type(exc), str(exc)
    return None


def _chain2(field):
    return IncidenceAlgebra(chain(2), field)


def _zero_pair():
    alg = _chain2(QQ)
    return DElem(alg.zero(), alg.zero())


# guard: (a call given the poset files and capsys, what it gives)
UNREACHED_GUARDS = {
    # the bowtie's order-4 anti-automorphism a -> c -> b -> d -> a
    "cli-order-4-lambda": (
        lambda files, capsys: (
            main(["classify", "--poset", str(files["crown"]), "--field", "F5",
                  "--lambda", json.dumps({"a": "c", "c": "b", "b": "d",
                                          "d": "a"})]),
            capsys.readouterr().err),
        (2, "error: map is not an order-reversing involution\n")),
    "Q-square-class-reps": (
        lambda files, capsys: _raised(QQ.square_class_reps),
        (SizeLimit, "S_Q is infinite; no finite list of representatives")),
    "lift-anti-of-an-automorphism": (
        lambda files, capsys: _raised(
            lambda: lift_anti(FiaMorphism(_chain2(PrimeField(5))))),
        (NotAMorphism, "expected an anti-automorphism")),
    "lift-derivation-of-the-identity": (
        lambda files, capsys: _raised(lambda: lift_derivation(
            _chain2(PrimeField(5)), FiLinearMap.identity(_chain2(PrimeField(5))))),
        (NotADerivation, "lift requires a derivation")),
    "inner-auto-of-zero": (
        lambda files, capsys: _raised(lambda: inner_auto(_zero_pair())),
        (NotAUnit, "inner automorphism needs a unit")),
    "factor-inner-of-zero": (
        lambda files, capsys: _raised(lambda: factor_inner(_zero_pair())),
        (NotAUnit, "inner automorphism needs a unit")),
}


@pytest.mark.parametrize("case", sorted(UNREACHED_GUARDS))
def test_guards_no_other_test_reaches(poset_files, capsys, case):
    """Error branches that no other test, demo or bench run executes: an
    order-reversing map that is not an involution on the command line,
    the list of Q's square classes, and the lifts and inner maps given
    what they refuse, each with its typed error and message."""
    call, want = UNREACHED_GUARDS[case]
    assert call(poset_files, capsys) == want


@pytest.mark.parametrize("line", ["a<b<c", "a<<b", "a<b<"])
def test_poset_info_rejects_a_line_with_two_relations(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"x<y\n{line}\n")
    assert main(["poset-info", "--poset", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(line) in err
    assert "Traceback" not in err


def test_classify_lambda_from_file(poset_files, tmp_path, capsys):
    lam_file = tmp_path / "lam.json"
    lam_file.write_text(json.dumps({"a": "c", "b": "b", "c": "a"}))
    assert main(["classify", "--poset", str(poset_files["chain3"]),
                 "--field", "F5", "--lambda", str(lam_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_classify_general_flag(poset_files, capsys):
    lam = json.dumps({"0": "1", "1": "0", "a": "a", "b": "b"})
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--lambda", lam, "--general", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "general"
    assert payload["count"] == 4


@pytest.mark.parametrize("label", [" a", "a ", "\ta", "a\n"])
@pytest.mark.parametrize("command", ["poset-info", "hypotheses", "classify"])
def test_json_label_with_surrounding_whitespace_exits_2(tmp_path, capsys,
                                                         label, command):
    """Incidence-function keys "x,y" are read back stripped, so a label
    " a" would not survive its own output: ``classify --json`` used to exit
    0 on it, and feeding a representative back to ``equivalent`` exited 2
    with "'a' is not below 'a'".  The label is now refused on input."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"elements": [label, "b", "c"], "covers": [[label, "b"], ["b", "c"]]}))
    extra = {"poset-info": [], "hypotheses": ["--field", "F5"],
             "classify": ["--field", "F5", "--json", "--lambda",
                          json.dumps({label: "c", "b": "b", "c": label})]}
    assert main([command, "--poset", str(bad), *extra[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad poset file {bad}: label ")
    assert repr(label) in captured.err
    assert "Traceback" not in captured.err


def test_line_format_strips_label_whitespace_so_output_round_trips(
        tmp_path, capsys):
    """The line format strips each label before building the poset, so it
    cannot carry a label with surrounding whitespace: the same chain written
    with padded labels reads as a, b, c, and each ``classify --json``
    representative reads back through ``equivalent --check`` as equivalent
    to itself."""
    padded = tmp_path / "padded.txt"
    padded.write_text(" a <b\n\tb< c \n")
    assert main(["poset-info", "--poset", str(padded)]) == 0
    assert "elements: a, b, c" in capsys.readouterr().out
    assert main(["classify", "--poset", str(padded), "--field", "F5",
                 "--lambda", " a : c , b : b , c : a ", "--json"]) == 0
    representatives = json.loads(capsys.readouterr().out)["representatives"]
    assert len(representatives) == 2
    for n, rep in enumerate(representatives):
        inv = tmp_path / f"rep{n}.json"
        inv.write_text(json.dumps(rep))
        assert main(["equivalent", "--poset", str(padded), "--field", "F5",
                     "--check", str(inv), str(inv)]) == 0
        assert json.loads(capsys.readouterr().out)["equivalent"] is True


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_equivalent_reduces_over_a_prime_above_10_000(poset_files, tmp_path,
                                                      capsys, check):
    """Reducing a representative takes a square root of each fixed-point
    diagonal entry, so over F10007 the first ``classify`` representative of
    the diamond's flip reads back as equivalent to itself."""
    argv = ["--poset", str(poset_files["diamond"]), "--field", "F10007"]
    assert main(["classify", *argv, "--lambda", "0:1,1:0,a:a,b:b",
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)["representatives"][0]
    inv = tmp_path / "rep.json"
    inv.write_text(json.dumps(rep))
    assert main(["equivalent", *argv, *check, str(inv), str(inv)]) == 0
    assert json.loads(capsys.readouterr().out)["equivalent"] is True


@pytest.mark.parametrize("spec", ["F²", "F٣", "F５"])
def test_field_spec_takes_ascii_digits_only(poset_files, capsys, spec):
    """str.isdigit accepts superscripts and other scripts' digits: int()
    refuses the first and reads the second as an ASCII prime."""
    assert main(["hypotheses", "--poset", str(poset_files["chain2"]),
                 "--field", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad field spec {spec!r}\n"
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("field", ["F5", "Q"])
@pytest.mark.parametrize("scalar", ["٢", "1_2"])
def test_involution_scalar_takes_ascii_digits_only(poset_files, tmp_path,
                                                    capsys, field, scalar):
    """An entry "٢" or "1_2" in an involution file is refused with exit 2,
    as a field spec "F٣" is, rather than read as 2 or 12."""
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps(
        {"lambda": {"0": "1", "1": "0", "a": "a", "b": "b"}, "k": 1,
         "theta": {"f": {"entries": {"0,0": "1", "a,a": scalar, "b,b": "1",
                                     "1,1": "1"}},
                   "i": {"entries": {}}}}, ensure_ascii=False),
        encoding="utf-8")
    assert main(["equivalent", "--poset", str(poset_files["diamond"]),
                 "--field", field, str(inv), str(inv)]) == 2
    captured = capsys.readouterr()
    kind = "residue" if field == "F5" else "rational scalar"
    assert captured.err == (f"error: bad involution object in {inv}: "
                            f"bad {kind} {scalar!r}\n")
    assert captured.out == "" and "Traceback" not in captured.err


def test_classify_text_builds_each_invariant_once(poset_files, capsys,
                                                  monkeypatch):
    """The text output prints from the JSON payload: one ``invariant()``
    call per representative, and the same lines as before."""
    import incalg.involutions as involutions
    calls = []
    real = involutions.InvolutionSpec.invariant
    monkeypatch.setattr(involutions.InvolutionSpec, "invariant",
                        lambda self: calls.append(self) or real(self))
    lam = json.dumps({"0": "1", "1": "0", "a": "a", "b": "b"})
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--lambda", lam]) == 0
    out = capsys.readouterr().out.splitlines()
    reps = [line for line in out if line.startswith("  representative: ")]
    assert out[:3] == ["mode: inner", "fixed points: a, b", "count: 4"]
    assert len(reps) == 4 and len(calls) == 4
    assert len({id(spec) for spec in calls}) == 4


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("site", ["poset", "lambda-inline", "lambda-file",
                                  "involution"])
def test_deeply_nested_json_exits_2(poset_files, tmp_path, capsys, site):
    """json.loads raises RecursionError, not JSONDecodeError, on deep
    nesting; each JSON input site reads it as a ParseError."""
    deep = tmp_path / "deep.json"
    if site == "poset":
        deep.write_text('{"elements": ' + DEEP + "}")
        argv = ["poset-info", "--poset", str(deep)]
        named = f"bad poset file {deep}: JSON nested too deeply"
    elif site.startswith("lambda"):
        deep.write_text('{"a": ' + DEEP + "}")
        lam = str(deep) if site == "lambda-file" else deep.read_text()
        argv = ["classify", "--poset", str(poset_files["chain2"]),
                "--field", "F3", "--lambda", lam]
        named = "bad map: JSON nested too deeply"
    else:
        deep.write_text(DEEP)
        argv = ["equivalent", "--poset", str(poset_files["chain2"]),
                "--field", "F3", str(deep), str(deep)]
        named = f"bad involution file {deep}: JSON nested too deeply"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {named}\n"
    assert "Traceback" not in captured.err


BIG = "1" + "0" * 5000  # past Python's 4,300-digit int conversion limit


@pytest.mark.parametrize("value", [BIG, "NaN", "1e400", DEEP],
                         ids=["5001-digits", "nan", "1e400", "deep"])
@pytest.mark.parametrize("site", ["poset", "lambda", "involution"])
def test_json_values_past_python_limits_exit_2(poset_files, tmp_path, capsys,
                                               site, value):
    """Each JSON reader turns a value json.loads cannot hold (an integer
    of more than 4,300 digits raises ValueError, deep nesting
    RecursionError) or a label or sign it reads as a float into one
    error line and exit 2."""
    bad = tmp_path / "bad.json"
    chain2 = str(poset_files["chain2"])
    if site == "poset":
        bad.write_text('{"elements": ["a", ' + value + "]}")
        argv = ["poset-info", "--poset", str(bad)]
        named = f"bad poset file {bad}: "
    elif site == "lambda":
        argv = ["classify", "--poset", chain2, "--field", "F3",
                "--lambda", '{"a": "b", "b": ' + value + "}"]
        named = "bad map: "
    else:
        poset = Poset.from_json(json.loads(poset_files["chain2"].read_text()))
        inv = base_involution(IncidenceAlgebra(poset, PrimeField(3)),
                              poset.involutions()[0], 1)
        bad.write_text(json.dumps(inv.to_json()).replace('"k": 1',
                                                         '"k": ' + value))
        argv = ["equivalent", "--poset", chain2, "--field", "F3",
                str(bad), str(bad)]
        named = f"bad involution file {bad}: "
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    if value == BIG:
        assert captured.err.startswith(f"error: {named}Exceeds the limit")


@pytest.mark.parametrize("key", ["a", "a,b,c", "b,a", "a,x"],
                         ids=["one-label", "three-labels", "incomparable",
                              "unknown-label"])
def test_involution_entry_keys_name_the_file(poset_files, tmp_path, capsys,
                                             key):
    """An entry key must be two comparable labels joined by one comma;
    any other key exits 2 with a message that names the key and the
    file."""
    poset = Poset.from_json(json.loads(poset_files["chain3"].read_text()))
    obj = base_involution(IncidenceAlgebra(poset, PrimeField(3)),
                          poset.involutions()[0], 1).to_json()
    obj["theta"]["f"]["entries"][key] = "1"
    bad = tmp_path / "inv.json"
    bad.write_text(json.dumps(obj))
    assert main(["equivalent", "--poset", str(poset_files["chain3"]),
                 "--field", "F3", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad involution object in {bad}: entry key {key!r} is not "
        f"two comparable labels joined by one comma\n")


def test_malformed_poset_file_names_the_file(tmp_path, capsys):
    """Poset JSON is read by the same reader as the other JSON inputs, so
    a decode error names the file it came from."""
    bad = tmp_path / "cut.json"
    bad.write_text('{"elements": [')
    assert main(["poset-info", "--poset", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: bad poset file {bad}: Expecting value: "
                            f"line 1 column 15 (char 14)\n")
    assert captured.out == ""


@pytest.mark.parametrize("name, text, message", [
    ("labels.json", '{"elements": [1, "b"], "covers": []}',
     "poset label 1 is not a string"),
    ("cycle.txt", "a<b\nb<a\n", "a and b are in a cycle"),
    ("cycle.json", '{"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}',
     "a and b are in a cycle"),
    ("twice.json", '{"elements": ["a", "a"], "covers": []}',
     "duplicate label 'a'"),
    ("list.json", "[1]", "poset [1] is not an object"),
    ("empty-list.json", " []\n", "poset [] is not an object"),
    ("string.json", '"a"', "poset 'a' is not an object"),
    ("deep.json", DEEP, "JSON nested too deeply"),
], ids=["parse", "cycle-lines", "cycle-json", "duplicate", "json-list",
        "json-empty-list", "json-string", "json-too-deep"])
def test_poset_content_errors_name_the_file(tmp_path, capsys, name, text,
                                            message):
    """A poset file that reads but holds no poset exits 2 with a message
    that names the file, as a malformed one does."""
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["poset-info", "--poset", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad poset file {bad}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, elements", [
    ('"a"<b\n', '"a", b'),
    ("[x]<[y]\n[z]\n", "[x], [y], [z]"),
], ids=["quote-led", "bracket-led"])
def test_non_json_text_led_by_a_json_opener_is_read_as_lines(
        tmp_path, capsys, text, elements):
    path = tmp_path / "poset.txt"
    path.write_text(text)
    assert main(["poset-info", "--json", "--poset", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["elements"] == elements


@pytest.mark.parametrize("entry, k, message", [
    (("a,a", "0"), 1, "factored form needs a unit"),
    (None, 2, "sign must square to one"),
    (("b,b", "2"), 1, "square of the map is conjugation by the "
                      "non-central unit base(theta) theta^-1"),
], ids=["not-a-unit", "bad-sign", "not-involutive"])
def test_involution_content_errors_name_the_file(poset_files, tmp_path, capsys,
                                                 entry, k, message):
    """An involution file that parses but holds no involution exits 2 with
    a message that names which of the two files is at fault."""
    chain2 = poset_files["chain2"]
    poset = Poset.from_json(json.loads(chain2.read_text()))
    obj = base_involution(IncidenceAlgebra(poset, PrimeField(5)),
                          poset.involutions()[0], 1).to_json()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(obj))
    if entry is not None:
        obj["theta"]["f"]["entries"][entry[0]] = entry[1]
    obj["k"] = k
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["equivalent", "--poset", str(chain2), "--field", "F5",
                 str(good), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad involution object in {bad}: {message}\n")


def test_char2_involution_file_keeps_its_exit(poset_files, tmp_path, capsys):
    """Characteristic 2 is the field's fault, not the file's: it keeps exit
    4 and its own message."""
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"theta": {"f": {}, "i": {}},
                               "lambda": {"a": "b", "b": "a"}, "k": 1}))
    assert main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F2", str(inv), str(inv)]) == 4
    assert capsys.readouterr().err == (
        "unsupported characteristic: characteristic 2 is construction-only "
        "and not accepted here\n")


# ten points whose anti-automorphisms are alpha = (p0 p1 p2 p3)(p4 p5 p6 p7)
# (p8 p9) and alpha^3, both of order 4, so neither is an involution
QUARTER_TURN = {"elements": [f"p{i}" for i in range(10)], "covers": [
    ["p0", "p7"], ["p0", "p9"], ["p1", "p7"], ["p2", "p5"], ["p2", "p9"],
    ["p3", "p5"], ["p4", "p1"], ["p4", "p2"], ["p6", "p0"], ["p6", "p3"],
    ["p8", "p1"], ["p8", "p3"]]}


def test_poset_info_searches_each_group_once(poset_files, tmp_path, capsys,
                                             monkeypatch):
    """Aut(X) is listed once, and anti-Aut(X) never: every
    anti-automorphism search is pruned (``_accept``) or stops at its first
    map (``_first``).  The involutions come from the search pruned by the
    involution rule; only a poset with none asks a first-hit search for
    any anti-automorphism: the vee has none, and ``QUARTER_TURN`` has two,
    neither an involution.  The anti-automorphism count is |Aut(X)| or 0."""
    poset_files["quarter-turn"] = tmp_path / "quarter-turn.json"
    poset_files["quarter-turn"].write_text(json.dumps(QUARTER_TURN))
    calls = []
    real = Poset.maps_to

    def counting(self, other, anti=False, *args, **kwargs):
        calls.append((anti, kwargs.get("_accept") is not None
                      or kwargs.get("_first", False)))
        return real(self, other, anti, *args, **kwargs)

    monkeypatch.setattr(Poset, "maps_to", counting)
    # poset: automorphisms, anti-automorphisms, involutions, anti searches
    for name, autos, antis, invs, searches in (("diamond", 2, 2, 2, 1),
                                               ("vee", 2, 0, 0, 2),
                                               ("quarter-turn", 2, 2, 0, 2)):
        calls.clear()
        assert main(["poset-info", "--poset", str(poset_files[name]),
                     "--json"]) == 0
        assert calls.count((False, False)) == 1
        anti_calls = [pruned for anti, pruned in calls if anti]
        assert len(anti_calls) == searches and all(anti_calls)
        payload = json.loads(capsys.readouterr().out)
        assert payload["automorphisms"] == autos
        assert payload["anti-automorphisms"] == antis
        assert len(payload["involution_maps"]) == invs


def test_equivalent_tells_large_prime_scalings_apart(poset_files, tmp_path,
                                                     capsys):
    poset = Poset.from_json(json.loads(poset_files["diamond"].read_text()))
    alg = IncidenceAlgebra(poset, parse_field("Q"))
    flip = next(m for m in poset.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})
    files = []
    for prime in (999999999989, 999999999959):
        path = tmp_path / f"eps{prime}.json"
        path.write_text(json.dumps(
            rho_eps(alg, flip, {"a": 1, "b": prime}, 1).to_json()))
        files.append(str(path))
    code = main(["equivalent", "--poset", str(poset_files["diamond"]),
                 "--field", "Q", *files])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert json.loads(captured.out) == {"equivalent": False,
                                        "distinguisher": "chi"}


# -- the command-line reader against argparse ---------------------------------

PARSER = build_parser()
# option values argparse reads as values: not led by "-"
VALUES = st.text(max_size=6).filter(lambda v: not v.startswith("-"))
COUNTS = st.integers(0, 10**6).map(str)
DASHED = st.sampled_from(["-", "-1", "-a:b", "--", "--json", "-h"])


def argparse_reading(argv):
    """``vars`` of argparse's namespace for argv, or None where it prints
    help or a usage error and exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@st.composite
def command_lines(draw):
    """(argv, well_formed): a command line drawn from ``COMMANDS``, each
    argument a group of tokens, the groups in any order; then, for about
    half the draws, one mutation (a group dropped or repeated, an option
    abbreviated, a flag given ``=``, a value led by "-", a positional
    missing or extra, or ``-h``), after which the line may or may not be
    well formed."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    groups = []
    for name, keywords in COMMANDS[command][2]:
        if not name.startswith("--"):
            groups.append([draw(VALUES)])
        elif "action" in keywords:
            groups += [[name]] * draw(st.booleans())
        elif keywords.get("required") or draw(st.booleans()):
            value = draw(COUNTS if "type" in keywords else VALUES)
            groups.append(draw(st.sampled_from(
                [[name, value], [f"{name}={value}"]])))
    groups = draw(st.permutations(groups))
    mutation = draw(st.sampled_from(
        [None] * 8 + ["drop", "repeat", "abbreviate", "flag=", "dashed",
                      "positional", "help"]))
    at = draw(st.integers(0, len(groups)))
    if mutation == "drop" and groups:
        del groups[min(at, len(groups) - 1)]
    elif mutation == "repeat" and groups:
        groups.insert(at, groups[min(at, len(groups) - 1)])
    elif mutation in ("abbreviate", "flag=", "dashed"):
        names = [g[0].partition("=")[0] for g in groups if g[0].startswith("--")]
        if names:
            name = draw(st.sampled_from(names))
            if mutation == "abbreviate":
                name = name[:draw(st.integers(3, len(name) - 1))]
                groups.insert(at, [name, draw(VALUES)])
            elif mutation == "flag=":
                groups.insert(at, [f"{name}={draw(VALUES)}"])
            else:
                groups.insert(at, [name, draw(DASHED)])
    elif mutation == "positional":
        if draw(st.booleans()):
            groups.insert(at, [draw(VALUES)])
        else:
            groups = [g for g in groups if g[0].startswith("--")]
    elif mutation == "help":
        groups.insert(at, ["-h"])
    argv = [command] + [token for group in groups for token in group]
    return argv, mutation is None


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_reader_agrees_with_argparse(drawn):
    """The reader gives argparse's namespace or leaves the line to
    argparse, and it reads every well-formed line itself."""
    argv, well_formed = drawn
    got = _read_args(argv)
    assert got is None or vars(got) == argparse_reading(argv), argv
    assert got is not None or not well_formed, argv


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["order-info"], ["classify", "--poset", "p"],
    ["poset-info", "--poset", "p", "--poset", "q"],
    ["poset-info", "--poset", "p", "--json=1"],
    ["poset-info", "--pos", "p"], ["poset-info", "--poset", "-p"],
    ["poset-info", "--poset"], ["poset-info", "--poset", "p", "x"],
    ["verify", "--poset", "p", "--field", "F5", "--oracle-limit", "1_000"],
    ["verify", "--poset", "p", "--field", "F5", "--oracle-limit=-1"],
    ["equivalent", "--poset", "p", "--field", "F5", "a"],
])
def test_reader_leaves_help_abbreviations_and_usage_errors_to_argparse(argv):
    assert _read_args(argv) is None


def test_reader_reads_equals_forms_and_interleaved_positionals():
    argv = ["equivalent", "a.json", "--field=F5", "b.json", "--poset", "p",
            "--check"]
    assert vars(_read_args(argv)) == argparse_reading(argv) == {
        "command": "equivalent", "fn": COMMANDS["equivalent"][1],
        "poset": "p", "field": "F5", "inv1": "a.json", "inv2": "b.json",
        "general": False, "check": True}
    argv = ["verify", "--oracle-limit=0", "--poset=", "--field", "Q"]
    assert vars(_read_args(argv)) == argparse_reading(argv)
    assert _read_args(argv).oracle_limit == 0
