"""Every name the package exports is used by the library, the acceptance gate or the benchmark.

An export that none of them reads is API kept for its own sake. The few kept
on purpose are listed below, each with the reason it stays. No module reads
another module's private names either: a rule that two modules need has one
public owner.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecurv"

KEPT = {
    "concat_paths": "the paper's concatenation law T(c1 * c2) = T(c2) T(c1), tested as a property",
    "reverse_path": "the paper's reversal law, reverse transport inverts, tested as a property",
    "parametric_surface": "rolling on an arbitrary oriented surface in R^3, the paper's general setting",
    "section_residual": "the unit-sphere global section invariant, for checking a lift at any point",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names():
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]
    used = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_or_kept_for_a_stated_reason():
    exports = exported_names()
    assert set(KEPT) <= exports
    assert exports - used_names() == set(KEPT)


def private_reads(path):
    """(line, name) of each underscore name ``path`` reads from another liecurv module."""
    tree = ast.parse(path.read_text())
    modules = set()  # local names bound to liecurv modules
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("liecurv")):
            for alias in node.names:
                if node.module in (None, "liecurv"):
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    reads.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name.startswith("liecurv"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = {f.name: private_reads(f) for f in sorted(PACKAGE.glob("*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}
