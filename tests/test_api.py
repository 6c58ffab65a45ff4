"""Every name the package exports is used by the library, the acceptance gate or the benchmark.

An export that none of them reads is API kept for its own sake. The few kept
on purpose are listed below, each with the reason it stays. The same holds
for settings: every defaulted parameter of a public callable is passed by one
of those callers, or it is a constant. No module reads another module's
private names either: a rule that two modules need has one public owner. And
no module imports a name it never reads, since no linter runs here.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecurv"

KEPT = {
    "parametric_surface": "rolling on an arbitrary oriented surface in R^3, the paper's general setting",
    "rotation_to_quat": "the double cover read backwards, for a caller that holds frames (a g0, a row of states)",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def caller_trees():
    """Parsed library modules (``__init__`` aside), acceptance gate and benchmark files."""
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]
    return [ast.parse(f.read_text()) for f in files]


def liecurv_modules(tree):
    """{local name: module} for each name ``tree`` binds to a liecurv module: by ``import``, by ``from ...
    import`` of a module (a relative import is the package's own) or by ``importlib.import_module``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({alias.asname or "liecurv": importlib.import_module(alias.name if alias.asname else "liecurv")
                          for alias in node.names if alias.name.split(".")[0] == "liecurv"})
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "liecurv"):
            base = importlib.import_module(".".join(["liecurv", node.module or ""]).rstrip(".") if node.level
                                           else node.module)
            bound.update({alias.asname or alias.name: getattr(base, alias.name) for alias in node.names
                          if inspect.ismodule(getattr(base, alias.name, None))})
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "attr", None) == "import_module"
              and isinstance(arg := node.value.args[0], ast.Constant) and arg.value.split(".")[0] == "liecurv"):
            bound.update({t.id: importlib.import_module(arg.value) for t in node.targets if isinstance(t, ast.Name)})
    return bound


def used_names():
    """Names the callers read: bare names, and attributes of a name that the same file binds to a liecurv module."""
    used = set()
    for tree in caller_trees():
        modules = liecurv_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                used.add(node.attr)
    return used


def test_every_export_is_used_or_kept_for_a_stated_reason():
    exports = exported_names()
    assert set(KEPT) <= exports
    assert exports - used_names() == set(KEPT)


def defaulted_parameters():
    """{public callable: (its parameters, the defaulted ones)} for every callable a liecurv module defines.

    A dataclass's parameters are its init fields, as ``inspect.signature`` gives them.
    """
    out = {}
    for f in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("liecurv" if f.stem == "__init__" else f"liecurv.{f.stem}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                params = list(inspect.signature(obj).parameters.values())
                out[name] = (params, [p for p in params if p.default is not p.empty])
    return out


def passed_arguments():
    """{callee name: positions, keywords, "*" and "**" passed in any call by the callers}."""
    passed = {}
    for tree in caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                seen = passed.setdefault(fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None), set())
                seen.update("*" if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args))
                seen.update(k.arg or "**" for k in node.keywords)
    return passed


def test_every_defaulted_parameter_is_passed_by_a_caller():
    passed = passed_arguments()
    unset = []
    for name, (params, defaulted) in defaulted_parameters().items():
        for p in defaulted:
            ways = {p.name, "**"} | ({params.index(p), "*"} if p.kind is p.POSITIONAL_OR_KEYWORD else set())
            if not ways & passed.get(name, set()):
                unset.append(f"{name}({p.name})")
    assert unset == []


def private_reads(path):
    """(line, name) of each underscore name ``path`` reads from another liecurv module."""
    tree = ast.parse(path.read_text())
    modules = liecurv_modules(tree)
    reads = [(node.lineno, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("liecurv"))
             for alias in node.names if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = {f.name: private_reads(f) for f in sorted(PACKAGE.glob("*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}


def unread_imports(path):
    """(line, name) of each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(alias.asname or alias.name).split(".")[0]: node.lineno for alias in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_does_not_read():
    unread = {f.name: unread_imports(f) for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"}
    assert {name: u for name, u in unread.items() if u} == {}


def test_no_test_helper_is_defined_in_two_modules():
    # a fixture or reference that two test modules need is defined once, in tests/references.py
    defined = {}
    for f in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(f.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("test_"):
                defined.setdefault(node.name, []).append(f.name)
    assert {name: files for name, files in defined.items() if len(files) > 1} == {}
