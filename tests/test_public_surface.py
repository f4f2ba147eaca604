"""Every name ``src/nntrav`` defines is used by the package itself or by ``perfbench/``.

A function, class, method or property whose only callers are tests belongs in
``tests/`` (as an oracle or helper), not in the package.  A use is any name
or attribute reference outside the definition itself; the match is by bare
name, so two definitions sharing a name vouch for each other.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nntrav"

# name -> why it stays without a caller
ALLOWED = {
    "vertex_count_formula": "the node-count pre-flight (ROADMAP item 3) is to call it",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified, bare) name of every module-level function and class and every
    non-dunder method or property."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item.name) for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not (item.name.startswith("__") and item.name.endswith("__")))
    return out


def _uses(paths) -> set[str]:
    used = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


MODULES = sorted(PACKAGE.glob("*.py"))
USED = _uses([*MODULES, *sorted((ROOT / "perfbench").rglob("*.py"))])


def test_every_package_name_has_a_caller_outside_tests():
    orphans = [
        f"{path.name}: {qual}"
        for path in MODULES
        for qual, bare in _definitions(_parse(path))
        if bare not in USED and bare not in ALLOWED
    ]
    assert not orphans, "called only from tests, or not at all:\n" + "\n".join(orphans)


def test_allowlist_holds_only_defined_names_that_still_lack_callers():
    defined = {bare for path in MODULES for _, bare in _definitions(_parse(path))}
    for name in ALLOWED:
        assert name in defined, f"{name} is allowlisted but not defined"
        assert name not in USED, f"{name} has a caller now; drop it from ALLOWED"
