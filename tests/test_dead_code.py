"""Dead-code guards over src/gaussmink.

Every top-level function or class in the package is referenced somewhere
else in src/, outside the re-exports of __init__.py.  A helper that only
tests call fails here, public or not; delete it or give it a caller.  A
reference is a name read, an imported name, or an attribute of a package
module (`serialize.dumps_json`); a field or attribute that shares a
definition's name is not a use.

Every module-level name assigned in the package is read somewhere in src/,
outside __init__.py: a constant nothing reads is a stale setting.

Every defaulted parameter or dataclass field is given a value other than
its default by some call in src/, tests/ or bench/.  One that never is, is
a knob nobody turns: make it a constant.
"""

import ast
from pathlib import Path

import gaussmink

PACKAGE_DIR = Path(gaussmink.__file__).parent
MODULES = {path.stem for path in PACKAGE_DIR.glob("*.py")}
ROOT = Path(__file__).resolve().parent.parent

# name -> why it may stay without a caller in src/
ALLOWED = {
    "families.random_spanning_measure": "input generator of the benchmark workloads",
    "gaussian.gauss_volume": "trapezoid volume that test_acceptance checks against "
                             "closed-form ball volumes",
    "gaussian.gauss_volume_mc": "Monte Carlo reference the exact Gaussian volume "
                                "is tested against",
    "smooth.linearized_guard": "eigenvalue test of the constant start's linearization; "
                               "bench/tracer.py resolves it by name",
}


def _referenced_names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in MODULES):
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


def unread_module_names() -> list[str]:
    """Module-level names assigned in src/gaussmink that src/ never reads."""
    assigned, refs = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(path.stem, sub.id) for target in targets
                             for sub in ast.walk(target) if isinstance(sub, ast.Name)]
        refs.update(_referenced_names(tree))
    return [f"{module}.{name}" for module, name in assigned if name not in refs]


def test_every_module_name_is_read():
    unread = unread_module_names()
    assert not unread, f"assigned at module level but never read in src/: {unread}"


def _defaulted(tree: ast.AST):
    """(callable name, [(parameter, default or None)] in call order) for each
    definition: a function under its name, a method under its name without
    self, an __init__ or a dataclass's init fields under the class name."""
    methods = set()
    for sub in ast.walk(tree):  # breadth first: a class before its methods
        if isinstance(sub, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in sub.decorator_list):
                yield sub.name, [(st.target.id, st.value) for st in sub.body
                                 if isinstance(st, ast.AnnAssign) and not _init_false(st)]
            for st in sub.body:
                if isinstance(st, ast.FunctionDef):
                    methods.add(st)
                    yield sub.name if st.name == "__init__" else st.name, _parameters(st)[1:]
        elif isinstance(sub, ast.FunctionDef) and sub not in methods:
            yield sub.name, _parameters(sub)


def _init_false(st: ast.AnnAssign) -> bool:
    return isinstance(st.value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in st.value.keywords)


def _parameters(func: ast.FunctionDef):
    args = func.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return ([(a.arg, d) for a, d in zip(positional, defaults)]
            + [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)])


def _is_default(value: ast.AST, default: ast.AST) -> bool:
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(value) == ast.dump(default)


def unvaried_defaults() -> list[str]:
    """Defaulted parameters of src/gaussmink that no call sets otherwise.

    Calls are matched by name, positional arguments by position; a call
    with * or ** arguments sets every parameter.
    """
    params = {}  # callable name -> [(parameter, default)], one list per definition
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for name, plist in _defaulted(ast.parse(path.read_text(encoding="utf-8"))):
            params.setdefault(name, []).append(plist)
    varied = set()  # (callable name, parameter)
    sources = [p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    for path in sources:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for plist in params.get(name, ()):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    varied.update((name, p) for p, _ in plist)
                    continue
                given = list(zip(plist, call.args))
                by_name = dict(plist)
                given += [((k.arg, by_name[k.arg]), k.value)
                          for k in call.keywords if k.arg in by_name]
                varied.update((name, p) for (p, default), value in given
                              if default is None or not _is_default(value, default))
    return sorted(f"{name}({p})" for name, plists in params.items()
                  for plist in plists for p, default in plist
                  if default is not None and (name, p) not in varied)


def test_every_default_is_varied():
    unvaried = unvaried_defaults()
    assert not unvaried, f"defaulted but never set to another value: {unvaried}"
