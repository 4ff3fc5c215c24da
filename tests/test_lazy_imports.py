"""The package's lazy exports and each CLI subcommand's module footprint.

``incalg/__init__.py`` resolves the names in ``__all__`` on first use, and
``cli.py`` imports the modules a subcommand needs inside that subcommand.
The footprint checks run each subcommand in a fresh interpreter and read
``sys.modules`` after ``cli.main`` returns, since in this process earlier
tests have already imported everything."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import incalg
from incalg.fia import IncidenceAlgebra
from incalg.fields import PrimeField
from incalg.idealization import random_d_unit
from incalg.involutions import InvolutionSpec, classify, recognize

from conftest import chain

SRC = Path(incalg.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", incalg.__all__)
def test_every_export_is_its_home_modules_object(name):
    namespace = {}
    exec(f"from incalg import {name}", namespace)
    obj = namespace[name]
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("incalg.")
    assert getattr(home, name) is obj
    assert getattr(incalg, name) is obj


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from incalg import *", namespace)
    assert set(incalg.__all__) <= set(namespace)
    assert set(incalg.__all__) <= set(dir(incalg))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(incalg, "no_such_name")
    assert not hasattr(incalg, "no_such_name")
    with pytest.raises(ImportError):
        exec("from incalg import no_such_name", {})


def test_submodule_attribute_access_still_works():
    import incalg.fia
    assert incalg.fia.IncFn is incalg.IncFn


def _modules_after(script, *argv, flags=()):
    """Exit code, stdout and every module in ``sys.modules`` once ``script``
    has run in a fresh interpreter started with ``flags``; the script's last
    stdout line must be the JSON list of ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, *flags, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    *out, modules = proc.stdout.splitlines()
    return proc.returncode, "\n".join(out), set(json.loads(modules))


def _incalg(modules):
    """The incalg submodules among ``modules``, by short name."""
    return {m.split(".", 1)[1] for m in modules if m.startswith("incalg.")}


def _loaded_after(script, *argv):
    """Exit code, stdout and the incalg submodules loaded once ``script``
    has run in a fresh interpreter."""
    code, out, modules = _modules_after(script, *argv)
    return code, out, _incalg(modules)


RUN_CLI = """
import json, sys
from incalg.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

ALGEBRA = {"fia", "linalg", "morphisms", "derivations", "idealization",
           "involutions", "oracle"}


def test_importing_one_module_loads_only_its_imports():
    script = "import sys, json, incalg.posets; print(json.dumps(sorted(sys.modules)))"
    assert _loaded_after(script)[2] == {"errors", "posets"}
    script = "import sys, json, incalg; print(json.dumps(sorted(sys.modules)))"
    assert _loaded_after(script)[2] == set()


@pytest.fixture
def posets(tmp_path):
    files = {}
    for name, covers in {
        "diamond": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
        "crown": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
        "chain2": [["a", "b"]],
        "chain4": [["a", "b"], ["b", "c"], ["c", "d"]],
    }.items():
        elements = sorted({x for pair in covers for x in pair})
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(
            {"elements": elements, "covers": covers}))
    return files


def test_poset_info_loads_no_algebra(posets):
    code, out, loaded = _loaded_after(
        RUN_CLI, "poset-info", "--json", "--poset", str(posets["diamond"]))
    assert code == 0 and '"connected": "yes"' in out
    assert not loaded & ALGEBRA, loaded & ALGEBRA


def test_passing_hypotheses_loads_no_algebra(posets):
    code, out, loaded = _loaded_after(
        RUN_CLI, "hypotheses", "--poset", str(posets["diamond"]),
        "--field", "F5")
    assert code == 0 and "der_equals_ider: True" in out
    assert not loaded & ALGEBRA, loaded & ALGEBRA
    assert "snf" in loaded


def test_failing_hypotheses_loads_only_the_counterexample_modules(posets):
    code, out, loaded = _loaded_after(
        RUN_CLI, "hypotheses", "--poset", str(posets["crown"]),
        "--field", "F5")
    assert code == 3 and "non_inner_cocycle: {" in out
    assert {"fia", "morphisms", "derivations"} <= loaded
    assert not loaded & {"idealization", "involutions", "oracle"}


def test_classify_loads_no_oracle(posets):
    code, out, loaded = _loaded_after(
        RUN_CLI, "classify", "--poset", str(posets["diamond"]), "--field",
        "F3", "--lambda", "0:1,1:0,a:a,b:b")
    assert code == 0 and "count: 4" in out
    assert "involutions" in loaded and "oracle" not in loaded


# What a subcommand never runs it should not compile: classify and inner
# equivalence need neither the raw-matrix factoring (morphisms,
# derivations), nor row reduction, nor the oracle, and over F_p no Fraction.
NOT_FOR_CLASSIFY = {"morphisms", "derivations", "linalg", "oracle"}
CHAIN4_LAM = "a:d,b:c,c:b,d:a"


@pytest.mark.parametrize("general", [False, True], ids=["inner", "general"])
def test_classify_over_fp_loads_no_recognize_path(posets, general):
    argv = ["classify", "--poset", str(posets["chain4"]), "--field", "F5",
            "--lambda", CHAIN4_LAM] + ["--general"] * general
    code, out, modules = _modules_after(RUN_CLI, *argv)
    assert code == 0 and "count: " in out
    loaded = _incalg(modules)
    assert "involutions" in loaded
    assert not loaded & NOT_FOR_CLASSIFY, loaded & NOT_FOR_CLASSIFY
    assert not modules & {"fractions", "decimal"}


def test_classify_over_q_loads_fractions_and_prints_the_same(posets):
    code, out, modules = _modules_after(
        RUN_CLI, "classify", "--poset", str(posets["chain4"]), "--field", "Q",
        "--lambda", CHAIN4_LAM)
    assert code == 0 and "fractions" in modules
    lam = '"lambda": {"a": "d", "b": "c", "c": "b", "d": "a"}'
    lines = ["mode: inner", "fixed points: none", "count: 4"]
    for kind, diag in (("plain", ("1", "1")), ("skew", ("-1", "-1"))):
        for k in (1, -1):
            theta = ('{"f": {"entries": {"a,a": "1", "b,b": "1", '
                     f'"c,c": "{diag[0]}", "d,d": "{diag[1]}"}}}}, '
                     '"i": {"entries": {}}}')
            lines.append(f'  representative: {{"k": {k}, {lam}, '
                         f'"theta": {theta}}}')
            lines.append(f'    invariant: {{"kind": "{kind}", {lam}, '
                         f'"sign": {k}}}')
    assert out.splitlines() == lines


def _conjugate(rep, seed):
    """rep conjugated by a random unit u: its normal form has the unit
    u theta base(u)."""
    u = random_d_unit(rep.alg, random.Random(seed))
    return InvolutionSpec(rep.alg, u * rep.theta * rep.base_apply(u),
                          rep.lam, rep.k)


@pytest.fixture
def involution_files(tmp_path):
    """Two inner-equivalent involutions on chain4 over F5: a representative
    and a conjugate of it."""
    alg = IncidenceAlgebra(chain(4), PrimeField(5))
    lam = alg.poset.involutions()[0]
    rep = classify(alg.poset, lam, alg.field).representatives[0]
    files = []
    for i, spec in enumerate((rep, _conjugate(rep, 7))):
        files.append(tmp_path / f"inv{i}.json")
        files[-1].write_text(json.dumps(spec.to_json()))
    return [str(f) for f in files]


def test_inner_equivalent_over_fp_loads_no_recognize_path(
        posets, involution_files):
    code, out, modules = _modules_after(
        RUN_CLI, "equivalent", "--poset", str(posets["chain4"]), "--field",
        "F5", "--check", *involution_files)
    assert code == 0 and '"equivalent": true' in out
    loaded = _incalg(modules)
    assert not loaded & NOT_FOR_CLASSIFY, loaded & NOT_FOR_CLASSIFY
    assert not modules & {"fractions", "decimal"}


def test_general_equivalent_loads_no_recognize_path(posets, involution_files):
    """The relabel by a poset automorphism is a pair permutation: the
    general verdict and its re-check load no factored morphisms."""
    code, out, loaded = _loaded_after(
        RUN_CLI, "equivalent", "--general", "--poset", str(posets["chain4"]),
        "--field", "F5", "--check", *involution_files)
    assert code == 0 and '"kind": "general"' in out
    assert not loaded & NOT_FOR_CLASSIFY


def test_verify_loads_the_oracle_only_to_run_it(posets):
    code, out, loaded = _loaded_after(
        RUN_CLI, "verify", "--poset", str(posets["chain4"]), "--field", "F5")
    assert code == 0 and "info oracle check skipped" in out
    assert "oracle" not in loaded
    code, out, loaded = _loaded_after(
        RUN_CLI, "verify", "--poset", str(posets["chain2"]), "--field", "F3")
    assert code == 0
    assert "ok   oracle orbit count matches classification" in out
    assert "oracle" in loaded


def test_poset_info_loads_no_pathlib_or_random(posets):
    """Under ``python -S`` no site hook imports ``pathlib`` or ``random``
    first, so their absence is the CLI's own doing."""
    code, out, modules = _modules_after(
        RUN_CLI, "poset-info", "--poset", str(posets["diamond"]),
        flags=("-S",))
    assert code == 0 and "connected: yes" in out
    assert not modules & {"pathlib", "random"}


def test_deferred_imports_read_the_module_binding(monkeypatch):
    """``recognize`` imports ``decompose`` and ``split_raw_derivation`` when
    it runs, so a wrapper put on their home modules afterwards (as the
    benchmark's tracer does) sees every call."""
    import incalg.derivations
    import incalg.morphisms
    calls = []
    for module, name in ((incalg.morphisms, "decompose"),
                         (incalg.derivations, "split_raw_derivation")):
        def counted(*args, _original=getattr(module, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    alg = IncidenceAlgebra(chain(3), PrimeField(5))
    lam = alg.poset.involutions()[0]
    rep = classify(alg.poset, lam, alg.field).representatives[-1]
    raw = _conjugate(rep, 11).to_linear()
    assert recognize(raw).to_linear() == raw
    assert calls == ["decompose", "split_raw_derivation"]
