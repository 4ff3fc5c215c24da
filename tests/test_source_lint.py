"""Source checks on the library: every module other than the package
``__init__`` (which re-exports) uses each name it imports."""

import ast
from pathlib import Path

import incalg

SRC = Path(incalg.__file__).resolve().parent


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


def test_unused_import_is_reported():
    source = ("import os.path\n"
              "from .errors import IncalgError, ParseError as PE\n"
              "def f():\n"
              "    from .fia import IncFn\n"
              "    return os.sep, PE\n")
    assert unused_imports(source) == ["2: IncalgError", "4: IncFn"]
