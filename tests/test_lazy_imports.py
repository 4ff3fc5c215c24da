"""The package's lazy exports and each CLI subcommand's module footprint.

``incalg/__init__.py`` resolves the names in ``__all__`` on first use, and
``cli.py`` imports the modules a subcommand needs inside that subcommand.
The footprint checks run each subcommand in a fresh interpreter and read
``sys.modules`` after ``cli.main`` returns, since in this process earlier
tests have already imported everything."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incalg

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


def _loaded_after(script, *argv):
    """Exit code, stdout and the incalg submodules loaded once ``script``
    has run in a fresh interpreter; the script's last stdout line must be
    the JSON list of ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    *out, modules = proc.stdout.splitlines()
    loaded = {m.split(".", 1)[1] for m in json.loads(modules)
              if m.startswith("incalg.")}
    return proc.returncode, "\n".join(out), loaded


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
