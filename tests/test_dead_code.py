"""No dead code in the package: every module-level function, class and
constant of src/becphase is used somewhere in src, scripts or perfbench,
and every name that a module imports from a sibling module is used in it.

A use is a load of the name, an attribute of that name, or the name as a
string in perfbench's span targets (the attributes that perfbench/spans.py
replaces by name). A definition's own body does not count as its use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "becphase"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names that a statement defines, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [node.id for target in stmt.targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def used_names(tree: ast.AST) -> set[str]:
    """The names loaded and the attributes taken anywhere in tree."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def span_target_names() -> set[str]:
    """The attribute names in the *_TARGETS tuples of perfbench/spans.py."""
    names = set()
    for stmt in parse(ROOT / "perfbench" / "spans.py").body:
        if any(name.endswith("_TARGETS") for name in defined_names(stmt)):
            names |= {entry.elts[0].value for entry in stmt.value.elts}
    return names


def test_the_scan_sees_the_span_targets():
    assert {"eigen_path", "concurrence_wootters", "kinematic_phase"} <= span_target_names()


def test_every_definition_is_used():
    trees = {path: parse(path) for path in SOURCES}
    spans = span_target_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(used_names(tree) for other, tree in trees.items() if other != path))
        body = trees[path].body
        uses = [used_names(stmt) for stmt in body]
        for k, stmt in enumerate(body):
            here = set().union(*uses[:k], *uses[k + 1 :])
            unused += [f"{path.name}: {name}" for name in defined_names(stmt) if name not in here | elsewhere | spans]
    assert unused == []


def test_every_sibling_import_is_used():
    spans = span_target_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = parse(path)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level:
                unused += [f"{path.name}: {alias.name}" for alias in stmt.names
                           if (alias.asname or alias.name) not in loaded | spans]
    assert unused == []
