"""The package exports only what its own code or the benchmark uses."""

import ast
from pathlib import Path

import clusterlm

ROOT = Path(__file__).resolve().parents[1]


def references(path: Path) -> set[str]:
    """Names the code of ``path`` reads: identifiers, attribute names and
    string constants (the benchmark tracer patches attributes by name).
    Imports do not count, nor does a top-level definition's use of its
    own name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: set[str] = set()

    def visit(node: ast.AST, inside: str | None) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name) and node.id != inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        visit(top, own)
    return found


def test_every_exported_name_is_used_outside_the_tests():
    files = sorted((ROOT / "src" / "clusterlm").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    used = set().union(*(references(p) for p in files if p.name != "__init__.py"))
    assert sorted(set(clusterlm.__all__) - used) == []


# the benchmark tracer patches these in the models module's namespace
PATCHED_IMPORTS = {("models", "load_counts"), ("models", "load_clustering")}


def unused_imports(path: Path) -> set[str]:
    """Names that ``path`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported - read


def test_every_import_is_used_in_its_module():
    found = {
        (path.stem, name)
        for path in sorted((ROOT / "src" / "clusterlm").glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert sorted(found - PATCHED_IMPORTS) == []
