"""Source checks on the library: every module other than the package
``__init__`` (which re-exports), and every test and demo script, uses each
name it imports, no module
asserts or raises an exception class outside the ``IncalgError`` tree
beyond a fixed allow-list, every ``IncalgError`` subclass is raised
somewhere, each ``WitnessFailed`` raise has its own message, every private
module-level helper is read somewhere, no module keeps a module-level memo,
no module but ``posets`` reads the order bitsets, the factoring path of
``recognize`` builds no element from a label-keyed dict, the CLI imports at
module level
only the modules every subcommand shares and, from outside the package,
only json, os and sys, and the brute-force oracle imports no decision
module."""

import ast
from collections import Counter
from pathlib import Path

import incalg
from incalg import errors

SRC = Path(incalg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


def unused_imports(source, filename="<source>"):
    """``line: name`` for each imported name the module never reads."""
    tree = ast.parse(source, filename=filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_library_has_no_unused_imports():
    found = [f"{path.name}:{entry}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for entry in unused_imports(path.read_text(), str(path))]
    assert found == []


def test_tests_and_demos_have_no_unused_imports():
    """Fixtures reach tests through ``conftest.py`` by name, never by an
    import, so an imported name a test file never reads is dead too."""
    found = [f"{path.parent.name}/{path.name}:{entry}"
             for folder in (TESTS, DEMOS) for path in sorted(folder.glob("*.py"))
             for entry in unused_imports(path.read_text(), str(path))]
    assert found == []


def test_unused_import_is_reported():
    source = ("import os.path\n"
              "from .errors import IncalgError, ParseError as PE\n"
              "def f():\n"
              "    from .fia import IncFn\n"
              "    return os.sep, PE\n")
    assert unused_imports(source) == ["2: IncalgError", "4: IncFn"]


def unread_helpers(sources):
    """``module: name`` for each module-level function named with a leading
    underscore (dunders aside) that no code in ``sources``, a dict from
    module name to source, reads outside the function's own body: by name
    or as an attribute."""
    trees = {module: ast.parse(source, filename=module)
             for module, source in sources.items()}

    def reads(node, name):
        return sum(isinstance(n, ast.Name) and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name
                   for n in ast.walk(node))

    return [f"{module}: {node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and sum(reads(t, node.name) for t in trees.values())
            == reads(node, node.name)]


def test_library_has_no_unread_helpers():
    """A helper orphaned by a simplification is dead code."""
    assert unread_helpers({path.name: path.read_text()
                           for path in sorted(SRC.glob("*.py"))}) == []


def test_unread_helper_is_reported():
    sources = {"a.py": ("def _used(x):\n"
                        "    return x\n"
                        "def _recursive(n):\n"
                        "    return _recursive(n - 1) if n else 0\n"
                        "def _orphan():\n"
                        "    return _used(1)\n"
                        "def __getattr__(name):\n"
                        "    raise AttributeError(name)\n"
                        "class C:\n"
                        "    def _method(self):\n"
                        "        return 0\n"
                        "def _attr_read():\n"
                        "    return 1\n"),
               "b.py": ("from . import a\n"
                        "def public():\n"
                        "    return a._attr_read()\n")}
    assert unread_helpers(sources) == ["a.py: _recursive", "a.py: _orphan"]


def module_memos(source, filename="<source>"):
    """``line: what`` for each ``functools.cache`` or ``lru_cache``
    decorator, however imported and whether called or not, and for each
    ``global`` statement: a value remembered there outlives every object
    it was derived from."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Global):
            found.append(f"{node.lineno}: global")
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = ast.unparse(target).rpartition(".")[2]
            if name in ("cache", "lru_cache"):
                found.append(f"{deco.lineno}: {name}")
    return found


def test_library_keeps_no_module_level_memo():
    """A derived value is cached on the object it comes from
    (``cached_property``, or an attribute filled on first use), so it dies
    with that object."""
    found = [f"{path.name}:{entry}" for path in sorted(SRC.glob("*.py"))
             for entry in module_memos(path.read_text(), str(path))]
    assert found == []


def test_module_memo_is_reported():
    source = ("import functools\n"
              "from functools import cache, cached_property, lru_cache\n"
              "_seen = {}\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def f(x):\n"
              "    return x\n"
              "@cache\n"
              "def g(x):\n"
              "    global _seen\n"
              "    return x\n"
              "class C:\n"
              "    @cached_property\n"
              "    def h(self):\n"
              "        return 0\n"
              "    @lru_cache\n"
              "    def k(self):\n"
              "        return 1\n")
    assert module_memos(source) == ["4: lru_cache", "7: cache", "9: global",
                                    "15: lru_cache"]


TYPED = frozenset(name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.IncalgError))

# (module, raised class) -> how many such raises the library may hold.  The
# CLI's argparse type hook must raise argparse's own error.  The comparison
# is exact: a new raise fails it, and a mended one must be struck from the
# list.
ALLOWED_RAISES = Counter({
    ("cli.py", "argparse.ArgumentTypeError"): 1,
    # PEP 562: a module __getattr__ must raise AttributeError for an
    # unknown name, or hasattr() and from-imports of submodules break
    ("__init__.py", "AttributeError"): 1,
})


def untyped_raises(source, filename="<source>"):
    """``(line, what)`` for each ``assert`` statement, which ``python -O``
    strips, and for each ``raise`` whose class is not an ``IncalgError``
    subclass.  A bare ``raise`` re-raises what was caught and is not
    reported."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name not in TYPED:
                found.append((node.lineno, name))
    return sorted(found)


def test_library_raises_only_typed_errors():
    found = Counter((path.name, what) for path in sorted(SRC.glob("*.py"))
                    for _, what in untyped_raises(path.read_text(), str(path)))
    assert found == ALLOWED_RAISES


def test_untyped_raise_is_reported():
    source = ("import argparse\n"
              "from .errors import ParseError\n"
              "def f(x):\n"
              "    assert x, 'stripped by -O'\n"
              "    if x < 0:\n"
              "        raise ValueError('untyped')\n"
              "    try:\n"
              "        return 1 / x\n"
              "    except ZeroDivisionError:\n"
              "        raise\n"
              "    raise ParseError('typed')\n"
              "def g():\n"
              "    raise argparse.ArgumentTypeError\n")
    assert untyped_raises(source) == [
        (4, "assert"), (6, "ValueError"), (13, "argparse.ArgumentTypeError")]


def raise_sites(source, filename="<source>"):
    """``(class, message)`` for each ``raise C(...)`` or ``raise C``: the
    message is the first argument's source text, or None."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            call = node.exc if isinstance(node.exc, ast.Call) else None
            exc = call.func if call else node.exc
            message = ast.unparse(call.args[0]) if call and call.args else None
            found.append((ast.unparse(exc), message))
    return found


def unraised_classes(sources, classes):
    """The names in ``classes`` that no raise in ``sources`` names."""
    raised = {name for source in sources for name, _ in raise_sites(source)}
    return sorted(set(classes) - raised)


def repeated_messages(sources, cls="WitnessFailed"):
    """Each message that more than one ``raise cls(...)`` site uses."""
    counts = Counter(message for source in sources
                     for name, message in raise_sites(source) if name == cls)
    return sorted(message for message, n in counts.items() if n > 1)


def library_sources():
    return [path.read_text() for path in sorted(SRC.glob("*.py"))]


def test_every_error_class_is_raised():
    """An error class no library code raises is dead: a caller catching it
    waits for nothing."""
    assert unraised_classes(library_sources(), TYPED - {"IncalgError"}) == []


def test_unraised_error_class_is_reported():
    sources = ["from .errors import ParseError, SizeLimit\n"
               "def f(x):\n"
               "    if x:\n"
               "        raise ParseError('bad')\n"
               "    return SizeLimit\n",
               "def g():\n"
               "    raise CycleDetected\n"]
    assert unraised_classes(sources, {"ParseError", "SizeLimit",
                                      "CycleDetected", "NotCentral"}) == [
        "NotCentral", "SizeLimit"]


def test_witness_failed_messages_are_unique():
    """A WitnessFailed signals a library defect; its message must name the
    one check that failed."""
    assert repeated_messages(library_sources()) == []


def test_repeated_witness_message_is_reported():
    sources = ["def f(ok):\n"
               "    if not ok:\n"
               "        raise WitnessFailed('bad poset')\n"
               "    raise WitnessFailed(f'bad {ok}')\n",
               "def g():\n"
               "    raise ParseError('bad poset')\n"
               "    raise WitnessFailed('bad ' 'poset')\n"]
    assert repeated_messages(sources) == ["'bad poset'"]


def order_readers(sources, attributes=("ups", "downs")):
    """``module:line`` for each read of an ``attributes`` attribute in
    ``sources``, a dict from module name to source."""
    return [f"{module}:{node.lineno}" for module, source in sources.items()
            for node in ast.walk(ast.parse(source, filename=module))
            if isinstance(node, ast.Attribute) and node.attr in attributes]


def test_only_posets_reads_the_order_bitsets():
    """``Poset.ups`` and ``Poset.downs`` are the order's one stored form;
    every other module reads the order through ``pairs``, ``leq``,
    ``between``, ``down``, ``up`` and the rest."""
    assert order_readers({path.name: path.read_text()
                          for path in sorted(SRC.glob("*.py"))
                          if path.name != "posets.py"}) == []


def test_order_reader_is_reported():
    sources = {"a.py": ("def f(poset, ups):\n"
                        "    n = poset.ups[0] | ups\n"
                        "    return n, poset.pairs\n"),
               "b.py": ("def g(p):\n"
                        "    return (p.downs, p.down('x'))\n")}
    assert order_readers(sources) == ["a.py:2", "b.py:2"]


# The factoring path of ``recognize`` reads and writes its scalars on pair
# indices of the stored form: none of these functions builds an element
# from a label-keyed dict (``IncidenceAlgebra.element``, ``.diagonal``) or
# reads one column entry as a field element (``ColumnMap._entry``).
STORED_FORM_PATH = {
    "involutions.py": ("_factor", "symmetric_decompose"),
    "morphisms.py": ("_read_morphism",),
    "derivations.py": ("_read_derivation",),
}
LABEL_READERS = {"element", "diagonal", "_entry"}


def label_calls(sources, functions, names=LABEL_READERS):
    """``module.function:line name`` for each call, by attribute or by
    name, of one of ``names`` in the body of each module-level function
    that ``functions`` (a dict from module name to function names) lists,
    and ``module.function: missing`` for a listed function that the
    module, in ``sources`` by name, does not define."""
    found = []
    for module, wanted in functions.items():
        tree = ast.parse(sources[module], filename=module)
        defs = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}
        for name in wanted:
            if name not in defs:
                found.append(f"{module}.{name}: missing")
                continue
            for node in ast.walk(defs[name]):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = (func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None))
                    if called in names:
                        found.append(f"{module}.{name}:{node.lineno} {called}")
    return sorted(found)


def test_factoring_path_builds_no_label_keyed_element():
    assert label_calls({path.name: path.read_text()
                        for path in sorted(SRC.glob("*.py"))},
                       STORED_FORM_PATH) == []


def test_label_keyed_call_is_reported():
    sources = {"a.py": ("def _factor(raw, alg):\n"
                        "    g = alg.element({})\n"
                        "    return alg.diagonal({}), raw._entry(0, 1), g\n"
                        "def other(alg):\n"
                        "    return alg.element({})\n"),
               "b.py": ("from .fia import element\n"
                        "def kept(alg):\n"
                        "    return element(alg.zero())\n")}
    assert label_calls(sources, {"a.py": ("_factor",),
                                 "b.py": ("kept", "gone")}) == [
        "a.py._factor:2 element", "a.py._factor:3 _entry",
        "a.py._factor:3 diagonal", "b.py.gone: missing",
        "b.py.kept:3 element"]


# Every CLI process runs one subcommand; what the module imports at its top
# every subcommand pays for.  The rest is imported inside each cmd_*, and
# argparse (with the gettext and locale it imports) inside the functions
# that print help and usage errors.
CLI_TOP_LEVEL = {"errors", "fields", "posets", "snf"}
CLI_TOP_LEVEL_STDLIB = {"json", "os", "sys"}


def import_nodes(source, filename="<source>", everywhere=False):
    """The import statements of a module outside every function body
    (inside them too when ``everywhere``)."""
    pending = list(ast.parse(source, filename=filename).body)
    while pending:
        node = pending.pop()
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not everywhere):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        pending.extend(ast.iter_child_nodes(node))


def top_level_library_imports(source, filename="<source>", everywhere=False):
    """The library modules a module imports outside every function body
    (inside them too when ``everywhere``): ``from .x import ...``,
    ``from . import x`` and ``import incalg.x``."""
    found = set()
    for node in import_nodes(source, filename, everywhere):
        if isinstance(node, ast.ImportFrom):
            package, _, module = ("incalg." * node.level + (node.module or "")
                                  ).strip(".").partition(".")
            if package == "incalg" and module:
                found.add(module.split(".")[0])
            elif package == "incalg":
                found.update(alias.name for alias in node.names)
        else:
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("incalg."))
    return found


def top_level_outside_imports(source, filename="<source>"):
    """The modules from outside the package a module imports outside every
    function body, by their top-level names: ``import x.y`` and
    ``from x.y import ...``."""
    names = set()
    for node in import_nodes(source, filename):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names} - {"incalg"}


def test_cli_imports_only_shared_modules_at_top_level():
    found = top_level_library_imports((SRC / "cli.py").read_text())
    assert found <= CLI_TOP_LEVEL, found - CLI_TOP_LEVEL


def test_cli_imports_only_json_os_and_sys_at_top_level():
    found = top_level_outside_imports((SRC / "cli.py").read_text())
    assert found <= CLI_TOP_LEVEL_STDLIB, found - CLI_TOP_LEVEL_STDLIB


def test_top_level_outside_import_is_reported():
    source = ("import json, os.path\n"
              "from . import fields\n"
              "from .errors import ParseError\n"
              "import incalg.fia\n"
              "from incalg import posets\n"
              "from collections import Counter\n"
              "if json:\n"
              "    import argparse\n"
              "try:\n"
              "    import gettext\n"
              "except ImportError:\n"
              "    pass\n"
              "class C:\n"
              "    import locale\n"
              "def f():\n"
              "    import shutil\n"
              "    from types import SimpleNamespace\n"
              "    return shutil, SimpleNamespace\n")
    assert top_level_outside_imports(source) == {
        "json", "os", "collections", "argparse", "gettext", "locale"}


def test_top_level_import_is_reported():
    source = ("import json\n"
              "from .errors import ParseError\n"
              "from . import oracle\n"
              "import incalg.fia\n"
              "from incalg import derivations\n"
              "from incalg.linalg import rref\n"
              "if json:\n"
              "    from .involutions import classify\n"
              "class C:\n"
              "    from .idealization import DElem\n"
              "def f():\n"
              "    from .morphisms import decompose\n"
              "    return decompose\n")
    assert top_level_library_imports(source) == {
        "errors", "oracle", "fia", "derivations", "linalg", "involutions",
        "idealization"}


# The oracle is the ground truth the decision procedures are held to, so it
# must share none of their code.
DECISION_MODULES = {"morphisms", "derivations", "involutions", "snf"}


def test_oracle_imports_no_decision_module():
    found = top_level_library_imports((SRC / "oracle.py").read_text(),
                                      everywhere=True)
    assert found & DECISION_MODULES == set()


def test_decision_import_is_reported_anywhere():
    source = ("from .fields import _primitive_root\n"
              "from .morphisms import decompose\n"
              "def f():\n"
              "    from .snf import check_hypotheses\n"
              "    return decompose, check_hypotheses\n")
    found = top_level_library_imports(source, everywhere=True)
    assert found & DECISION_MODULES == {"morphisms", "snf"}
    assert top_level_library_imports(source) == {"fields", "morphisms"}
