"""The CLI output of every command that stands on the poset symmetry
search, pinned byte for byte on four posets with many symmetries.

``tests/data/cli_pinned.json`` holds, for each poset, the exit code, stdout
and stderr of ``poset-info`` (text and ``--json``), ``classify --general``
over F5 (text and ``--json``) for its first two involutions, and
``equivalent --general --check`` between general representatives of those
involutions: the first, second and last of the first involution's, the
first of the second's.  Any change to the search order, the groups, the
carrier test, the χ-fold or the λ-split that reaches the user shows here.

The same file pins inner ``classify`` (text and ``--json``) over F3, F5
and Q for one involution with each number of fixed points that picks a
different shape of answer: chain3's reversal (one fixed point), chain4's
(none) and the diamond's flip of 0 and 1 (two, so a family over Q).  Any
change to which representative a class gets, or to their order, shows
here.

It also pins ``verify`` on the four posets above over F3, F5 and Q, and
on susp4 and susp5 over F5: its classification lines, oracle count and
FAIL lines are all in stdout.

Last, it pins ``equivalent --general --check`` over F5 on susp5's
involution that fixes every a_i, from each of its 32 inner
representatives to each general one of the same sign: 96 runs, of which
26 are positive through a carrier other than the identity, 6 through the
identity, and 64 are told apart by "chi".  So the carrier that moves χ,
and the witness it gives, show here.

It pins ``classify --general --json`` over F5 on two involutions with
large centralizers: susp7's that fixes every a_i (128 keys, 8
representatives) and lvl444's first with four fixed points, the middle
level (8 keys, 6 representatives).  So the χ-fold's kept keys, and their
order, show here on more than small groups.

It pins ``classify --general`` over Q (text and ``--json``) on the
diamond's flip of 0 and 1, which fixes a and b: with two fixed points
over Q the count is infinite, so the family prints, with the ``general``
entry only the folded mode adds.

Then it pins what argparse prints, with ``COLUMNS=80``: the help of
``incalg`` and of each subcommand, and each usage error and each command
line that only argparse reads (an abbreviation, a repeated option).  A
well-formed command line is read without argparse, so these show any
drift between the two readers.  argparse words its messages as the
interpreter that ran it does; they are pinned as Python 3.11 prints them.
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from incalg.cli import main
from incalg.posets import Poset

from conftest import levels, suspension

PINNED = Path(__file__).parent / "data" / "cli_pinned.json"

SUBSETS = ["e", "1", "2", "3", "12", "13", "23", "123"]
POSETS = {
    "diamond": (["0", "a", "b", "1"],
                [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    "wide-diamond": (["0", "a", "b", "c", "1"],
                     [("0", x) for x in "abc"] + [(x, "1") for x in "abc"]),
    "crown3": (["a0", "a1", "a2", "b0", "b1", "b2"],
               [(f"a{i}", f"b{i}") for i in range(3)]
               + [(f"a{i}", f"b{(i + 1) % 3}") for i in range(3)]),
    "B3": (SUBSETS, [(s, t) for s in SUBSETS for t in SUBSETS
                     if len(t.strip("e")) == len(s.strip("e")) + 1
                     and set(s.strip("e")) <= set(t)]),
}

# name: (elements, covers, involution)
INNER = {
    "chain3": (["a", "b", "c"], [("a", "b"), ("b", "c")],
               {"a": "c", "b": "b", "c": "a"}),
    "chain4": (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")],
               {"a": "d", "b": "c", "c": "b", "d": "a"}),
    "diamond-flip": (["0", "a", "b", "1"],
                     [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
                     {"0": "1", "a": "a", "b": "b", "1": "0"}),
}


# name: (poset, fields ``verify`` is pinned over)
VERIFY = {
    **{name: (Poset.from_covers(*POSETS[name]), ("F3", "F5", "Q"))
       for name in POSETS},
    "susp4": (suspension(4), ("F5",)),
    "susp5": (suspension(5), ("F5",)),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def pinned_runs(tmp_path, name):
    """{case: {exit, stdout, stderr}} for one poset; the involution files
    for ``equivalent`` are general representatives from ``classify``."""
    elements, covers = POSETS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"elements": elements,
                                "covers": [list(c) for c in covers]}))
    poset = Poset.from_covers(elements, covers)
    runs = {}
    for flag in ([], ["--json"]):
        runs[" ".join(["poset-info", *flag])] = _run(
            ["poset-info", "--poset", str(path), *flag])
    reps = []
    for li, lam in enumerate(poset.involutions()[:2]):
        lam_text = json.dumps(lam.to_json(), sort_keys=True)
        for flag in ([], ["--json"]):
            run = _run(["classify", "--poset", str(path), "--field", "F5",
                        "--lambda", lam_text, "--general", *flag])
            runs[" ".join([f"classify --general lam{li}", *flag])] = run
        if run["exit"] == 0:
            found = json.loads(run["stdout"])["representatives"]
            picked = {0, 1, len(found) - 1} if li == 0 else {0}
            reps += [(f"lam{li}-rep{ri}", found[ri])
                     for ri in sorted(picked) if ri < len(found)]
    files = {}
    for label, rep in reps:
        files[label] = tmp_path / f"{label}.json"
        files[label].write_text(json.dumps(rep))
    for a, b in itertools.product(files, repeat=2):
        runs[f"equivalent --general --check {a} {b}"] = _run(
            ["equivalent", "--general", "--check", "--poset", str(path),
             "--field", "F5", str(files[a]), str(files[b])])
    return runs


def inner_runs(tmp_path, name):
    """{case: {exit, stdout, stderr}} of inner ``classify`` for one
    poset's involution over F3, F5 and Q, as text and ``--json``."""
    elements, covers, lam = INNER[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"elements": elements,
                                "covers": [list(c) for c in covers]}))
    runs = {}
    for field in ("F3", "F5", "Q"):
        for flag in ([], ["--json"]):
            runs[" ".join(["classify", field, *flag])] = _run(
                ["classify", "--poset", str(path), "--field", field,
                 "--lambda", json.dumps(lam), *flag])
    return runs


def verify_runs(tmp_path, name):
    """{field: {exit, stdout, stderr}} of ``verify`` on one poset."""
    poset, fields = VERIFY[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(poset.to_json()))
    return {field: _run(["verify", "--poset", str(path), "--field", field])
            for field in fields}


def general_susp5_runs(tmp_path):
    """{case: {exit, stdout, stderr}} of ``equivalent --general --check``
    from each inner representative of susp5's all-fixed involution over F5
    to each general representative of the same sign."""
    poset = suspension(5)
    path = tmp_path / "susp5.json"
    path.write_text(json.dumps(poset.to_json()))
    lam = next(m for m in poset.involutions() if len(m.fixed_points()) == 5)
    reps = {}
    for mode, flag in (("inner", []), ("general", ["--general"])):
        run = _run(["classify", "--poset", str(path), "--field", "F5",
                    "--lambda", json.dumps(lam.to_json()), "--json", *flag])
        for ri, rep in enumerate(json.loads(run["stdout"])["representatives"]):
            reps[f"{mode}{ri}"] = rep["k"], tmp_path / f"{mode}{ri}.json"
            reps[f"{mode}{ri}"][1].write_text(json.dumps(rep))
    runs = {}
    for a, b in itertools.product(reps, repeat=2):
        if a.startswith("inner") and b.startswith("general") \
                and reps[a][0] == reps[b][0]:
            runs[f"equivalent --general --check {a} {b}"] = _run(
                ["equivalent", "--general", "--check", "--poset", str(path),
                 "--field", "F5", str(reps[a][1]), str(reps[b][1])])
    return runs


# name: (poset, number of fixed points of the pinned involution)
GENERAL_FOLD = {"susp7": (suspension(7), 7), "lvl444": (levels(4, 4, 4), 4)}


def general_fold_runs(tmp_path):
    """{case: {exit, stdout, stderr}} of ``classify --general --json`` over
    F5 on the first involution of each ``GENERAL_FOLD`` poset with its
    number of fixed points."""
    runs = {}
    for name, (poset, nfixed) in GENERAL_FOLD.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(poset.to_json()))
        lam = next(m for m in poset.involutions()
                   if len(m.fixed_points()) == nfixed)
        runs[f"classify --general --json {name}"] = _run(
            ["classify", "--poset", str(path), "--field", "F5", "--lambda",
             json.dumps(lam.to_json()), "--general", "--json"])
    return runs


def general_q_runs(tmp_path):
    """{case: {exit, stdout, stderr}} of ``classify --general`` over Q on
    the diamond's flip, as text and ``--json``."""
    elements, covers, lam = INNER["diamond-flip"]
    path = tmp_path / "diamond-flip.json"
    path.write_text(json.dumps({"elements": elements,
                                "covers": [list(c) for c in covers]}))
    return {" ".join(["classify --general Q", *flag]): _run(
        ["classify", "--poset", str(path), "--field", "Q",
         "--lambda", json.dumps(lam), "--general", *flag])
        for flag in ([], ["--json"])}


CHAIN4_LAM = "a:d,b:c,c:b,d:a"
# case: argv, "P" standing for chain4's poset file
ARGPARSE = {
    "--help": ["--help"],
    **{f"{cmd} --help": [cmd, "--help"] for cmd in (
        "poset-info", "hypotheses", "classify", "equivalent", "verify")},
    "no subcommand": [],
    "unknown subcommand": ["order-info", "--poset", "P"],
    "missing --poset": ["classify", "--field", "F5", "--lambda", CHAIN4_LAM],
    "classify --inner": ["classify", "--poset", "P", "--field", "F5",
                         "--lambda", CHAIN4_LAM, "--inner"],
    "repeated --field": ["hypotheses", "--poset", "P", "--field", "F3",
                         "--field", "F5"],
    "--json=1": ["poset-info", "--poset", "P", "--json=1"],
    **{f"--oracle-limit {v}": ["verify", "--poset", "P", "--field", "F5",
                               "--oracle-limit", v]
       for v in ("1_000", "-1", "\u0662")},
    "--lambda -a:b": ["classify", "--poset", "P", "--field", "F5",
                      "--lambda", "-a:b"],
    "classify --gen": ["classify", "--poset", "P", "--field", "F5",
                       "--lambda", CHAIN4_LAM, "--gen"],
}


def argparse_runs(tmp_path):
    """{case: {exit, stdout, stderr}} of each ``ARGPARSE`` command line;
    run with ``COLUMNS=80``, which argparse wraps its help to."""
    elements, covers, _ = INNER["chain4"]
    path = tmp_path / "chain4.json"
    path.write_text(json.dumps({"elements": elements,
                                "covers": [list(c) for c in covers]}))
    return {case: _run([str(path) if a == "P" else a for a in argv])
            for case, argv in ARGPARSE.items()}


@pytest.mark.parametrize("name", sorted(POSETS))
def test_symmetry_commands_stay_pinned(tmp_path, name):
    want = json.loads(PINNED.read_text())[name]
    got = pinned_runs(tmp_path, name)
    assert list(got) == list(want)
    for case in want:
        assert got[case] == want[case], case


@pytest.mark.parametrize("name", sorted(INNER))
def test_inner_classify_stays_pinned(tmp_path, name):
    want = json.loads(PINNED.read_text())[f"inner {name}"]
    got = inner_runs(tmp_path, name)
    assert list(got) == list(want)
    for case in want:
        assert got[case] == want[case], case


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_stays_pinned(tmp_path, name):
    want = json.loads(PINNED.read_text())[f"verify {name}"]
    assert verify_runs(tmp_path, name) == want


def test_general_verdicts_through_moving_carriers_stay_pinned(tmp_path):
    want = json.loads(PINNED.read_text())["general susp5"]
    got = general_susp5_runs(tmp_path)
    assert list(got) == list(want)
    for case in want:
        assert got[case] == want[case], case


def test_general_fold_on_large_centralizers_stays_pinned(tmp_path):
    want = json.loads(PINNED.read_text())["general fold"]
    got = general_fold_runs(tmp_path)
    assert list(got) == list(want)
    for case in want:
        assert got[case] == want[case], case


def test_general_family_over_q_stays_pinned(tmp_path):
    want = json.loads(PINNED.read_text())["general Q diamond-flip"]
    assert general_q_runs(tmp_path) == want


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's wording is pinned as Python 3.11 prints it")
def test_argparse_help_and_usage_errors_stay_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(PINNED.read_text())["argparse"]
    got = argparse_runs(tmp_path)
    assert list(got) == list(want)
    for case in want:
        assert got[case] == want[case], case
