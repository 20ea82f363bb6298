"""The package's public surface: every exported name exists, once; no dead imports."""

import ast
import sys
from pathlib import Path

import ratiolab

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_without_duplicates():
    assert len(ratiolab.__all__) == len(set(ratiolab.__all__))
    missing = [name for name in ratiolab.__all__ if not hasattr(ratiolab, name)]
    assert missing == []


def _assigned(tree, name):
    """The value a module assigns to `name` at top level, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return node.value
    return None


def _unreferenced_sibling_imports(path):
    """Names a module imports from its own package and never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _assigned(tree, "__all__")
    if exported is not None:
        read |= set(ast.literal_eval(exported))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if (alias.asname or alias.name) not in read
    }


def test_every_unread_sibling_import_is_a_tracing_binding():
    # perfbench/tracing.py rebinds module attributes by name, so a module may
    # import a function only for the tracer to find; any other unread import
    # from inside the package is dead.
    functions = _assigned(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()), "FUNCTIONS")
    traced = {
        (owner, attribute)
        for owners, attribute, _ in ast.literal_eval(functions)
        for owner in owners
    }
    unread = {
        (path.stem, name)
        for path in sorted((ROOT / "src" / "ratiolab").glob("*.py"))
        for name in _unreferenced_sibling_imports(path)
    }
    assert unread - traced == set()


def _read_identifiers(path):
    """Every identifier a module reads: a Name, an attribute, an imported name, or a string constant naming one."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return read


def test_every_public_definition_is_exported_or_read():
    # A public top-level def or class that is neither in ratiolab.__all__ nor
    # read anywhere in src/, scripts/ or perfbench/ has no caller but tests.
    # String constants count as reads: perfbench/tracing.py names its owners
    # in strings.  So does an import: that every sibling import is read, or
    # rebound by the tracer, is the test above.
    sources = [path for folder in ("src", "scripts", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]
    read = set(ratiolab.__all__).union(*map(_read_identifiers, sources))
    dead = {
        (path.stem, node.name)
        for path in sorted((ROOT / "src" / "ratiolab").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    }
    assert dead == set()


def test_src_imports_only_the_standard_library():
    # The package has no runtime dependency beyond the standard library.
    outside = set()
    for path in sorted((ROOT / "src" / "ratiolab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
