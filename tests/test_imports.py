"""Every top-level import under ``src/`` is used by the module that makes
it.

A package's ``__init__.py`` imports names to re-export them, so it is not
checked.  Elsewhere a name counts as used when the module reads it, in code
or in an annotation (a quoted annotation included).  Only the standard
library's ``ast`` is needed, so the check runs wherever pytest does.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _annotation_names(node):
    """Names an annotation reads, looking inside quoted annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(quoted)
    return names


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and \
                node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.returns is not None:
            used |= _annotation_names(node.returns)
    return used


def _imported_names(tree):
    """(bound name, line) of every top-level import but ``__future__``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_top_level_import():
    modules = [path for path in sorted(SRC.rglob("*.py"))
               if path.name != "__init__.py"]
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused.extend(f"{path.relative_to(SRC)}:{line}: {name}"
                      for name, line in _imported_names(tree)
                      if name not in used)
    assert not unused, "unused imports:\n" + "\n".join(unused)
