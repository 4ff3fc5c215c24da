"""Source checks on the library: every module other than the package
``__init__`` (which re-exports), and every test and demo script, uses each
name it imports, no module
asserts or raises an exception class outside the ``IncalgError`` tree
beyond a fixed allow-list, every ``IncalgError`` subclass is raised
somewhere, each ``WitnessFailed`` raise has its own message, every private
module-level helper is read somewhere, no module but ``posets`` reads the
order bitsets, and the CLI imports at module level
only the modules every subcommand shares."""

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


# Every CLI process runs one subcommand; what the module imports at its top
# every subcommand pays for.  The rest is imported inside each cmd_*.
CLI_TOP_LEVEL = {"errors", "fields", "posets", "snf"}


def top_level_library_imports(source, filename="<source>"):
    """The library modules a module imports outside every function body:
    ``from .x import ...``, ``from . import x`` and ``import incalg.x``."""
    found = set()
    pending = list(ast.parse(source, filename=filename).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom):
            package, _, module = ("incalg." * node.level + (node.module or "")
                                  ).strip(".").partition(".")
            if package == "incalg" and module:
                found.add(module.split(".")[0])
            elif package == "incalg":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("incalg."))
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_cli_imports_only_shared_modules_at_top_level():
    found = top_level_library_imports((SRC / "cli.py").read_text())
    assert found <= CLI_TOP_LEVEL, found - CLI_TOP_LEVEL


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
