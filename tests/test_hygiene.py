"""Source hygiene: every module-level private name of the package is used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pgl3dops"


def _private_names(node):
    """Module-level private names bound by one top-level statement."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node):
    """Every name a statement loads, reads as an attribute or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def dead_private_names(src=SRC):
    """module.name for each private module-level name that no other
    top-level statement of the package refers to."""
    stmts = [(path.stem, node) for path in sorted(src.glob("*.py"))
             for node in ast.parse(path.read_text()).body]
    refs = [_references(node) for _, node in stmts]
    return [f"{mod}.{name}"
            for i, (mod, node) in enumerate(stmts)
            for name in _private_names(node)
            if not any(name in r for j, r in enumerate(refs) if j != i)]


def test_no_dead_private_module_names():
    assert dead_private_names() == []
