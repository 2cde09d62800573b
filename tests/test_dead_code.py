"""Dead-code guard: every top-level function or class in the package is
referenced somewhere else in src/, outside the re-exports of __init__.py.

A helper that only tests call fails here, public or not; delete it or give it
a caller.  A name scan cannot tell a field or attribute from a function of
the same name, so such a reference counts as a use.
"""

import ast
from pathlib import Path

import gaussmink

PACKAGE_DIR = Path(gaussmink.__file__).parent

# name -> why it may stay without a caller in src/
ALLOWED = {
    "families.random_spanning_measure": "input generator of the benchmark workloads",
    "gaussian.gauss_volume_mc": "Monte Carlo reference the exact Gaussian volume "
                                "is tested against",
    "smooth.constant_branch_start": "closed-form constant solution the homotopy's "
                                    "constant densities are tested against",
}


def _referenced_names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_definitions() -> list[str]:
    """Top-level definitions of src/gaussmink with no caller outside __init__.py."""
    defined, refs = [], set()  # refs: (name, top-level definition it sits in)
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                defined.append(owner)
            refs.update((name, owner) for name in _referenced_names(node))
    return [f"{module}.{name}" for module, name in defined
            if not any(ref == name and owner != (module, name) for ref, owner in refs)]


def test_no_unreferenced_definitions():
    unused = set(unreferenced_definitions()) - ALLOWED.keys()
    assert not unused, f"defined in src/ but never used there: {sorted(unused)}"


def test_allow_list_is_current():
    assert ALLOWED.keys() <= set(unreferenced_definitions())
