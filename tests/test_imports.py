"""Every module-level import in the package is used by its module, and
every module-level private function or class is referenced in its own
module, so a refactor cannot leave an orphaned helper behind. No module
calls ``einsum``: numpy's default einsum does not use BLAS, and on the
grid-month designs an einsum Gram build is 12 times slower than ``matmul``.
No module opens a file for reading except through ``errors.open_input``,
so every unreadable input is reported the same way. Every ``np.loadtxt``
call passes ``comments=None``: the default ``"#"`` silently cuts a field, so
``a#b,1,2`` reads as one column.

``__init__.py`` is skipped for imports: they are the public re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stardemand"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_helper_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import os\nimport a.b\nfrom x import y as z, w\nw()\n")
    assert unused_imports(src) == ["os (line 2)", "a (line 3)", "z (line 4)"]


def unreferenced_privates(source: str) -> list[str]:
    """Module-level ``_name`` functions and classes that no other top-level
    statement of the module names; a use inside its own body does not count."""
    tree = ast.parse(source)
    names = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)} for node in tree.body]
    return [f"{node.name} (line {node.lineno})" for i, node in enumerate(tree.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not any(node.name in used for j, used in enumerate(names) if j != i)]


def test_helper_flags_unreferenced_privates():
    src = ("def _used():\n    pass\n"
           "def _recursive(n):\n    return _recursive(n - 1)\n"
           "class _Orphan:\n    pass\n"
           "def public():\n    return _used()\n")
    assert unreferenced_privates(src) == ["_recursive (line 3)", "_Orphan (line 5)"]


def test_no_unreferenced_private_helpers():
    found = {path.name: unreferenced_privates(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_unused_module_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def einsum_calls(source: str) -> list[str]:
    """Calls of anything named ``einsum``, as ``np.einsum(...)`` or a bare name."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "einsum"
                 or getattr(node.func, "id", None) == "einsum")]


def test_helper_flags_einsum_calls():
    src = ("import numpy as np\nfrom numpy import einsum\n"
           "a = np.einsum('ij->j', x)\nb = np.matmul(x, x)\n"
           "c = einsum('ij,ij->j', x, x)\nd = x.einsum\n")
    assert einsum_calls(src) == ["line 3", "line 5"]


def test_no_einsum_calls():
    found = {path.name: einsum_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def reading_opens(source: str) -> list[str]:
    """Calls of anything named ``open`` (``open``, ``io.open``, ``Path.open``)
    without a constant write mode such as ``"w"``, and calls of
    ``read_text`` or ``read_bytes``, each as ``<enclosing function> (line n)``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), None)
                writes = isinstance(mode, ast.Constant) and "w" in str(mode.value)
                if (name == "open" and not writes) or name in ("read_text", "read_bytes"):
                    found.append(f"{scope or '<module>'} (line {child.lineno})")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_helper_flags_reading_opens():
    src = ("import io\n"
           "def reader(p):\n    return open(p).read()\n"
           "class C:\n    def load(self, p):\n        return io.open(p, 'r')\n"
           "def writer(p):\n    open(p, 'w').close()\n    open(p, mode='wb').close()\n"
           "text = p.read_text()\n"
           "def both(p):\n    with p.open(mode='r') as fh, open(p, 'w') as out:\n        pass\n")
    assert reading_opens(src) == ["reader (line 3)", "C.load (line 6)", "<module> (line 10)",
                                  "both (line 12)"]


# the helper itself, and the config loader, whose failures are config errors
OPENS_ALLOWED = {"errors.py": ("open_input",), "cli.py": ("load_config",)}


def test_inputs_are_opened_by_open_input():
    found = {path.name: [f for f in reading_opens(path.read_text())
                         if f.split(" (")[0] not in OPENS_ALLOWED.get(path.name, ())]
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def loadtxt_without_comments_none(source: str) -> list[str]:
    """Calls of anything named ``loadtxt`` that do not pass ``comments=None``."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "loadtxt"
                 or getattr(node.func, "id", None) == "loadtxt")
            and not any(k.arg == "comments" and isinstance(k.value, ast.Constant)
                        and k.value.value is None for k in node.keywords)]


def test_helper_flags_loadtxt_with_comments():
    src = ("import numpy as np\nfrom numpy import loadtxt\n"
           "a = np.loadtxt(f, delimiter=',')\nb = np.loadtxt(f, comments=None)\n"
           "c = loadtxt(f, comments='#')\nd = np.loadtxt(f, comments=None if x else '#')\n")
    assert loadtxt_without_comments_none(src) == ["line 3", "line 5", "line 6"]


def test_loadtxt_reads_no_comments():
    found = {path.name: loadtxt_without_comments_none(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
