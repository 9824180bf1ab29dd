"""No module under ``src/`` imports a name it never uses.

A module-level import that nothing reads is dead weight at best and a
stale dependency at worst.  Package ``__init__`` files are exempt: their
imports are the package's exports.  A name counts as used if the module
reads it anywhere (an attribute chain's root included), names it in a
string annotation, or lists it in ``__all__``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

# (module path under src/repro, name) -> why the import stays
ALLOWED = {
    # bench/trace.py patches both at this module, where the daemon's
    # Step 3 used to resolve them
    ("net/peer.py", "merge_probes"): "bench/trace.py patch target",
    ("net/peer.py", "select_composition"): "bench/trace.py patch target",
}


def _imported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name.split(".")[0]


def _names_in_string(text: str):
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = None
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if annotation is not None:
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _names_in_string(sub.value)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def _unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        module = path.relative_to(SRC).as_posix()
        for line, name in _imported(tree):
            if name not in used and (module, name) not in ALLOWED:
                found.append(f"{module}:{line}: {name}")
    return found


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports() == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Dict, List\nx: 'List[int]' = []\n")
    unused = [name for _, name in _imported(tree) if name not in _used(tree)]
    assert unused == ["math", "Dict"]


def test_every_allowed_import_is_still_there():
    for module, name in ALLOWED:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        assert name in {n for _, n in _imported(tree)}, (module, name)
