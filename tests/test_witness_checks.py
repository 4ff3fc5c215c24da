"""Internal checks on returned witnesses must survive ``python -O``: they
raise WitnessFailed, never ``assert``, and the CLI maps that to exit 2.
The same holds for the whole-basis check that certifies ``recognize``.
Every ``raise WitnessFailed`` in the library has a negative control: a row
here that makes it fire, the older test that does, or the reason nothing
can."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import incalg
from incalg import derivations, involutions, morphisms
from incalg.cli import main
from incalg.derivations import find_non_inner_additive
from incalg.errors import WitnessFailed
from incalg.fia import IncidenceAlgebra
from incalg.fields import PrimeField, parse_field
from incalg.idealization import DElem, DLinearMap, d_one, inner_auto
from incalg.involutions import (
    Verdict, classify, equivalent, equivalent_inner,
    recognize, rho_eps, verify_witness,
)
from incalg.morphisms import find_non_inner_cocycle
from incalg.posets import Poset

SRC = Path(incalg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DIAMOND = {"elements": ["0", "a", "b", "1"],
           "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
FLIP = {"0": "1", "1": "0", "a": "a", "b": "b"}
CROWN = {"elements": ["a", "b", "c", "d"],
         "covers": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


@pytest.fixture
def diamond_pair():
    """Two inner-equivalent involutions on the diamond over F5 whose
    fixed-point scalings differ by a global non-square shift."""
    poset = Poset.from_json(DIAMOND)
    alg = IncidenceAlgebra(poset, PrimeField(5))
    flip = next(m for m in poset.involutions() if m.mapping == FLIP)
    return rho_eps(alg, flip, {"a": 1, "b": 1}, 1), \
        rho_eps(alg, flip, {"a": 2, "b": 2}, 1)


@pytest.fixture
def diamond_files(tmp_path, diamond_pair):
    poset = tmp_path / "diamond.json"
    poset.write_text(json.dumps(DIAMOND))
    s1, s2 = diamond_pair
    f1, f2 = tmp_path / "s1.json", tmp_path / "s2.json"
    f1.write_text(json.dumps(s1.to_json()))
    f2.write_text(json.dumps(s2.to_json()))
    return poset, f1, f2


def test_verify_witness_accepts_and_rejects(diamond_pair):
    s1, s2 = diamond_pair
    for verdict in (equivalent_inner(s1, s2), equivalent(s1, s2)):
        assert verdict.equivalent
        verify_witness(s1, s2, verdict)
        # the identity does not intertwine two different involutions
        verdict.conjugator = d_one(s1.alg)
        with pytest.raises(WitnessFailed):
            verify_witness(s1, s2, verdict)


def test_failed_intertwiner_raises(diamond_pair, monkeypatch):
    monkeypatch.setattr(involutions, "_verify_intertwiner",
                        lambda *args: False)
    with pytest.raises(WitnessFailed):
        equivalent_inner(*diamond_pair)


def test_cli_check_failure_exits_2(diamond_files, monkeypatch, capsys):
    monkeypatch.setattr(involutions, "_verify_intertwiner",
                        lambda *args: False)
    poset, f1, f2 = diamond_files
    code = main(["equivalent", "--poset", str(poset), "--field", "F5",
                 "--check", str(f1), str(f2)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


# -- negative controls: one row per ``raise WitnessFailed`` site --------------
#
# Each row of NEGATIVE_CONTROLS names one site by its message, a patch that
# breaks what the site guards, and the library call and CLI command that
# reach it (None where no command does).  A check that cannot fail any more
# fails its row.  CONTROLLED_BY_TESTS names the older test that makes each
# other site fire, and UNREACHABLE says why nothing can reach the rest.


def _no_inner_witness(monkeypatch):
    """The inner attempt finds no witness for a carrier whose χ key
    matched."""
    monkeypatch.setattr(involutions, "_equivalent_inner",
                        lambda s1, s2: Verdict(False, distinguisher="chi"))


def _one_square_class(monkeypatch):
    """The field lists one square-class representative where it has two."""
    monkeypatch.setattr(PrimeField, "square_class_reps", lambda self: [1])


def _every_character_inner(monkeypatch):
    """Every multiplicative cocycle has an inner witness."""
    monkeypatch.setattr(morphisms, "multiplicative_is_inner",
                        lambda alg, sigma: {x: 1 for x in alg.poset.elements})


def _every_functional_inner(monkeypatch):
    """Every additive cocycle has an inner witness."""
    monkeypatch.setattr(derivations, "additive_is_inner",
                        lambda alg, tau: alg.zero())


def _no_witness(additive):
    """A patch under which the spanning-tree solve that ``recognize``'s
    factoring step runs, ``morphisms._coboundary``, finds no witness for
    the additive cocycles (``additive``) or for the multiplicative ones."""
    def patch(monkeypatch):
        solve = morphisms._coboundary
        monkeypatch.setattr(morphisms, "_coboundary", lambda alg, vals, kind: (
            None if kind == additive else solve(alg, vals, kind)))
    return patch


_no_additive_witness = _no_witness(True)
_no_multiplicative_witness = _no_witness(False)


def _non_root_sqrt(monkeypatch):
    """The prime field's square root returns a nonzero non-root."""
    monkeypatch.setattr(PrimeField, "sqrt", lambda self, a: next(
        s for s in range(1, self.p) if (s * s - a) % self.p))


def _crown_f5():
    return IncidenceAlgebra(Poset.from_json(CROWN), PrimeField(5))


def _diamond_flip():
    poset = Poset.from_json(DIAMOND)
    return poset, next(m for m in poset.involutions() if m.mapping == FLIP)


def _diamond_spec(a, b):
    """rho_eps over F5 on the diamond's flip, scaled by a and b at the
    fixed points."""
    poset, flip = _diamond_flip()
    alg = IncidenceAlgebra(poset, PrimeField(5))
    return rho_eps(alg, flip, {"a": a, "b": b}, 1)


# (message, patch, library call, CLI arguments: the subcommand, the poset
# object, then the arguments after --poset and --field F5, where a scaling
# pair stands for the file of its ``_diamond_spec``)
NEGATIVE_CONTROLS = [
    ("matching carrier key gives no inner witness", _no_inner_witness,
     lambda: equivalent(_diamond_spec(1, 1), _diamond_spec(2, 2)),
     ["equivalent", DIAMOND, "--general", (1, 1), (2, 2)]),
    ("representative count disagrees with theory", _one_square_class,
     lambda: classify(*_diamond_flip(), PrimeField(5)),
     ["classify", DIAMOND, "--lambda", json.dumps(FLIP)]),
    ("no Smith-form character is a non-inner cocycle", _every_character_inner,
     lambda: find_non_inner_cocycle(_crown_f5()), ["hypotheses", CROWN]),
    ("no Smith-form functional is a non-inner cocycle", _every_functional_inner,
     lambda: find_non_inner_additive(_crown_f5()), ["hypotheses", CROWN]),
    ("symmetric table does not factor the unit", _non_root_sqrt,
     lambda: equivalent_inner(_diamond_spec(1, 1), _diamond_spec(2, 2)),
     ["equivalent", DIAMOND, (1, 1), (2, 2)]),
    ("hypothesis check admitted a bad poset: no additive witness",
     _no_additive_witness,
     lambda: recognize(_diamond_spec(1, 1).to_linear()), None),
    ("hypothesis check admitted a bad poset: no multiplicative witness",
     _no_multiplicative_witness,
     lambda: recognize(_diamond_spec(1, 1).to_linear()), None),
]

# (message, the test that makes the site fire)
CONTROLLED_BY_TESTS = [
    ("witness failed re-verification",
     "test_witness_checks.py::test_verify_witness_accepts_and_rejects"),
    ("constructed witness fails to intertwine",
     "test_witness_checks.py::test_failed_intertwiner_raises"),
    ("relabel conjugation mismatch",
     "test_involutions.py::test_relabel_mismatch_raises_witness_failed"),
    ("items are not closed under conjugation",
     "test_oracle.py::test_orbit_partition_rejects_a_set_that_is_not_closed"),
]

# (message, why no input or patch reaches the site)
UNREACHABLE = [
    ("F{p} has no primitive root",
     "F_p* is cyclic, so a generator exists for every prime p"),
    ("F{self.p} has no non-square",
     "an odd prime p has (p - 1) / 2 non-squares, and p = 2 returns first"),
]


@pytest.mark.parametrize("message, patch, call, argv", NEGATIVE_CONTROLS,
                         ids=[row[0] for row in NEGATIVE_CONTROLS])
def test_negative_control_fires(tmp_path, monkeypatch, capsys, message,
                                patch, call, argv):
    patch(monkeypatch)
    with pytest.raises(WitnessFailed) as info:
        call()
    assert str(info.value) == message
    if argv is None:
        return

    def written(arg):
        if isinstance(arg, str):
            return arg
        if isinstance(arg, dict):
            path = tmp_path / "poset.json"
            path.write_text(json.dumps(arg))
            return str(path)
        path = tmp_path / "eps{}-{}.json".format(*arg)
        path.write_text(json.dumps(_diamond_spec(*arg).to_json()))
        return str(path)

    code = main([argv[0], "--poset", written(argv[1]), "--field", "F5",
                 *map(written, argv[2:])])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("message, test", CONTROLLED_BY_TESTS,
                         ids=[row[0] for row in CONTROLLED_BY_TESTS])
def test_named_control_exists(message, test):
    module, _, name = test.partition("::")
    tree = ast.parse((TESTS / module).read_text())
    assert name in {node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef)}


def witness_messages(sources):
    """The message of each ``raise WitnessFailed(...)`` in ``sources`` as
    written: an f-string keeps its replacement fields as source text, so
    f"F{p} ..." reads "F{p} ..."."""
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func) == "WitnessFailed"):
                continue
            arg = node.exc.args[0] if node.exc.args else ast.Constant("")
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            found.append("".join(
                part.value if isinstance(part, ast.Constant)
                else "{" + ast.unparse(part.value) + "}" for part in parts))
    return found


def missing_controls(sources, rows):
    """(site messages with no row, rows that name no site)."""
    sites = witness_messages(sources)
    return ([m for m in sites if m not in rows],
            [m for m in rows if m not in sites])


def test_every_witness_check_has_a_control():
    rows = [row[0] for row in
            (*NEGATIVE_CONTROLS, *CONTROLLED_BY_TESTS, *UNREACHABLE)]
    assert len(rows) == len(set(rows))
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert missing_controls(sources, rows) == ([], [])


def test_uncontrolled_witness_check_is_reported():
    sources = ["def f(p, ok):\n"
               "    if not ok:\n"
               "        raise WitnessFailed('known ' 'check')\n"
               "    raise WitnessFailed(f'F{p} lost its {ok!r} root')\n"
               "    raise ParseError('not a witness check')\n",
               "def g(x):\n"
               "    raise WitnessFailed(f'new {x.y} check')\n"]
    assert missing_controls(sources, ["known check", "F{p} lost its {ok} root",
                                      "gone check"]) == (
        ["new {x.y} check"], ["gone check"])


def _run_python(argv, optimize, timeout=120, stream="stdout"):
    """(exit code, the named output stream) of a fresh interpreter, run
    with ``-O`` when ``optimize``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    return proc.returncode, getattr(proc, stream)


def test_optimized_interpreter_gives_same_output(diamond_files):
    poset, f1, f2 = diamond_files
    base = ["--poset", str(poset), "--field", "F5"]
    commands = [
        ["classify", *base, "--lambda", json.dumps(FLIP), "--json"],
        ["equivalent", *base, "--check", str(f1), str(f2)],
        ["equivalent", *base, "--general", "--check", str(f1), str(f2)],
    ]
    for args in commands:
        argv = ["-m", "incalg.cli", *args]
        plain = _run_python(argv, optimize=False)
        assert plain[0] == 0 and plain[1]
        assert _run_python(argv, optimize=True) == plain, args


def _first_error_line(argv, optimize):
    code, err = _run_python(argv, optimize, stream="stderr")
    return code, err.partition("\n")[0]


def test_optimized_interpreter_refuses_non_involutive_file(diamond_files):
    """theta = [1 + e_0a; 0] is not symmetric up to the centre for the
    flip, so loading it fails the closed-form square check, with or
    without -O."""
    poset, f1, _ = diamond_files
    bad = f1.with_name("not-involutive.json")
    bad.write_text(json.dumps({
        "theta": {"f": {"entries": {"0,0": "1", "a,a": "1", "b,b": "1",
                                    "1,1": "1", "0,a": "1"}},
                  "i": {"entries": {}}},
        "lambda": FLIP, "k": 1}))
    argv = ["-m", "incalg.cli", "equivalent", "--poset", str(poset),
            "--field", "F5", str(bad), str(f1)]
    plain = _first_error_line(argv, optimize=False)
    assert plain == (2, f"error: bad involution object in {bad}: square of "
                        "the map is conjugation by the non-central unit "
                        "base(theta) theta^-1")
    assert _first_error_line(argv, optimize=True) == plain


FORCED_WITNESS = """
import sys
from incalg import cli, involutions
from incalg.idealization import d_one
from incalg.involutions import Verdict

# a positive verdict whose witness, the unity, intertwines only equal maps;
# cmd_equivalent reads equivalent_inner from involutions when it runs
involutions.equivalent_inner = (
    lambda s1, s2: Verdict(True, conjugator=d_one(s1.alg)))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_optimized_interpreter_rejects_forced_witness(diamond_files):
    """``equivalent --check`` re-verifies a witness with the closed-form
    intertwiner check, which is no ``assert``: a forced wrong witness
    exits 2 with the same message with or without -O."""
    poset, f1, f2 = diamond_files
    argv = ["-c", FORCED_WITNESS, "equivalent", "--poset", str(poset),
            "--field", "F5", "--check", str(f1), str(f2)]
    plain = _first_error_line(argv, optimize=False)
    assert plain == (2, "error: witness failed re-verification")
    assert _first_error_line(argv, optimize=True) == plain


RECOGNIZE = """
import json, sys
from incalg.errors import IncalgError
from incalg.fia import IncidenceAlgebra
from incalg.fields import parse_field
from incalg.idealization import DLinearMap
from incalg.involutions import recognize
from incalg.posets import Poset

poset = Poset.from_json(json.loads(sys.argv[1]))
alg = IncidenceAlgebra(poset, parse_field(sys.argv[2]))
for path in sys.argv[3:]:
    with open(path) as fh:
        raw = DLinearMap.from_json(alg, json.load(fh))
    try:
        print(json.dumps(recognize(raw).to_json(), sort_keys=True))
    except IncalgError as exc:
        print(type(exc).__name__, exc)
"""


def test_optimized_interpreter_certifies_recognize(tmp_path):
    """The whole-basis check that decides ``recognize`` is no ``assert``:
    under -O it accepts a conjugated involution with the same normal form
    and still rejects a copy with one bimodule entry moved, which only that
    check catches.  Over Q the conjugator has proper fractions, so the
    products run the integer-numerator kernel on real denominators."""
    poset = Poset.from_json(DIAMOND)
    flip = next(m for m in poset.involutions() if m.mapping == FLIP)
    for field in ("F5", "Q"):
        alg = IncidenceAlgebra(poset, parse_field(field))
        spec = rho_eps(alg, flip, {"a": 2, "b": 2}, 1)
        div = alg.field.div
        third = div(alg.field(1), alg.field(3))
        neg_two_sevenths = div(alg.field(-2), alg.field(7))
        u = DElem(alg.delta() + alg.e("0", "a").scale(third),
                  alg.e("a", "1").scale(neg_two_sevenths) - alg.e("0", "b"))
        raw = inner_auto(u).compose(spec.to_linear()).compose(
            inner_auto(u.inverse()))
        cols = [list(c) for c in raw.cols]
        n = alg.npairs
        col = n + alg.pair_index[("0", "a")]
        row = n + alg.pair_index[("0", "1")]
        cols[col][row] = alg.field.add(cols[col][row], 1)
        paths = []
        for name, m in (("raw", raw), ("bad", DLinearMap(alg, cols))):
            paths.append(tmp_path / f"{field}-{name}.json")
            paths[-1].write_text(json.dumps(m.to_json()))
        argv = ["-c", RECOGNIZE, json.dumps(DIAMOND), field, *map(str, paths)]
        plain = _run_python(argv, optimize=False)
        assert plain[0] == 0
        accepted, rejected = plain[1].splitlines()
        assert json.loads(accepted) == recognize(raw).to_json()
        assert rejected == ("NotAnInvolution normal form does not reproduce "
                            "the input")
        assert _run_python(argv, optimize=True) == plain, field


def test_acceptance_module_passes_under_optimized_interpreter():
    """Every acceptance criterion also holds under ``python -O``, which
    strips the library's own asserts (there must be none) but not pytest's
    rewritten ones."""
    module = Path(__file__).resolve().with_name("test_acceptance.py")
    code, out = _run_python(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(module)],
        optimize=True, timeout=600)
    assert code == 0, out
    assert re.search(r"\b10 passed\b", out) and "failed" not in out, out
