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
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from incalg.cli import main
from incalg.posets import Poset

from conftest import suspension

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
        code = main(argv)
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
