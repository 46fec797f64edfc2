"""Source hygiene: every module-level private name of the package is used,
and so is every function name, every public constant of the reference
displays and every import of the package and the tests; no test asserts
something that cannot fail."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pgl3dops"
TESTS = Path(__file__).resolve().parent
PERFBENCH = ROOT / "perfbench"


def _bound_names(node):
    """Module-level names bound by one top-level statement."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _private_names(node):
    return [n for n in _bound_names(node)
            if n.startswith("_") and not n.startswith("__")]


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


def unused_reference_constants(src=SRC, tests=TESTS):
    """Public constants of ``reference.py`` that no other top-level statement
    of the package or of the tests refers to."""
    constants, refs = set(), set()
    for path in sorted(src.glob("*.py")) + sorted(tests.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if path.name == "reference.py" and isinstance(
                    node, (ast.Assign, ast.AnnAssign)):
                constants.update(n for n in _bound_names(node)
                                 if not n.startswith("_"))
            else:
                refs |= _references(node)
    return sorted(constants - refs)


def test_every_reference_constant_is_used():
    assert unused_reference_constants() == []


def unreferenced_function_names(src=SRC, others=(TESTS, PERFBENCH)):
    """module.name for each function or method of the package whose name is
    never loaded, read as an attribute, imported or named by a string of
    dotted names (the benchmark binds names by string) anywhere in the
    package, the tests or the benchmark.  Dunder methods are exempt."""
    defined, refs = [], set()
    paths = sorted(src.glob("*.py")) + [p for d in others
                                        for p in sorted(d.rglob("*.py"))]
    for path in paths:
        tree = ast.parse(path.read_text())
        refs |= _references(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"[\w.]+", node.value)):
                refs.update(node.value.split("."))
            elif (path.parent == src and isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("__")):
                defined.append(f"{path.stem}.{node.name}")
    return sorted(d for d in defined if d.split(".")[1] not in refs)


def test_no_unreferenced_function_names():
    assert unreferenced_function_names() == []


def unused_imports(dirs=(SRC, TESTS)):
    """file:line name for each name an import binds that its module never
    loads, reads as the base of an attribute or lists in ``__all__``.  An
    import marked ``# noqa: F401`` is kept on purpose and exempt."""
    out = []
    for path in [p for d in dirs for p in sorted(d.glob("*.py"))]:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
                used |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append(f"{path.parent.name}/{path.name}:"
                               f"{node.lineno} {name}")
    return out


def test_no_unused_imports():
    assert unused_imports() == []


def _truthy_constant(node):
    return isinstance(node, ast.Constant) and bool(node.value)


def constant_true_asserts(tests=TESTS):
    """file:line of each assert in the tests whose condition is a truthy
    constant or an ``or`` with a truthy constant operand, so never fails."""
    out = []
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            if _truthy_constant(test) or (
                    isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or)
                    and any(_truthy_constant(v) for v in test.values)):
                out.append(f"{path.parent.name}/{path.name}:{node.lineno}")
    return out


def test_no_constant_true_asserts():
    assert constant_true_asserts() == []
