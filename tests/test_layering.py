"""Module boundaries inside the package, checked on the source text.

A module uses another polyspec module's public names only, and imports at
module level only, so every dependency between modules is visible at the top
of the file that has it; every name it imports there is used; and every
private name it defines at module level is referenced in it.  The exact
lattice side and the finite-element side import nothing from each other.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyspec"
MODULES = sorted(SRC.glob("*.py"))


def parsed():
    for path in MODULES:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def is_polyspec(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "polyspec"


def test_sources_found():
    assert {"mesh.py", "net.py", "analytic.py"} <= {p.name for p in MODULES}


def imported_modules(tree):
    """Names of the polyspec modules a module imports at module level."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and is_polyspec(node):
            parts = (node.module or "").split(".")
            if parts[0] == "polyspec":
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_exact_and_fem_sides_are_independent():
    # they share only net and errors, so checking one side's spectrum
    # against the other's is a real cross-check; cli and __init__ see both
    exact = {"analytic", "analysis"}
    fem = {"mesh", "fem", "symmetry", "eigen"}
    imports = {name[:-3]: imported_modules(tree) for name, tree in parsed()}
    found = [f"{a} imports {b}"
             for side, other in ((exact, fem), (fem, exact))
             for a in sorted(side) for b in sorted(imports[a] & other)]
    assert not found, found


def test_no_private_names_imported_across_modules():
    found = [f"{name}:{node.lineno} imports {alias.name}"
             for name, tree in parsed() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and is_polyspec(node)
             for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_no_imports_inside_functions():
    found = [f"{name}:{inner.lineno} imports inside {node.name}"
             for name, tree in parsed() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, found


def test_every_module_level_import_is_used():
    found = []
    for name, tree in parsed():
        if name == "__init__.py":           # imports there are re-exports
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{name}:{node.lineno} imports {alias.name} unused"
                          for alias in node.names
                          if (alias.asname or alias.name.split(".")[0])
                          not in used]
    assert not found, found


def bound_names(node):
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def test_every_module_level_private_name_is_referenced():
    found = []
    for name, tree in parsed():
        loads = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)} for node in tree.body]
        for k, node in enumerate(tree.body):
            # references from the other statements only: a recursive
            # helper nothing else calls is dead too
            elsewhere = set().union(*loads[:k], *loads[k + 1:])
            found += [f"{name}:{node.lineno} defines {bound} unreferenced"
                      for bound in bound_names(node)
                      if bound.startswith("_") and not bound.startswith("__")
                      and bound not in elsewhere]
    assert not found, found
