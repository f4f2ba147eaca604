"""Every name ``src/nntrav`` defines is used by the package itself or by ``perfbench/``.

A function, class, method or property whose only callers are tests belongs in
``tests/`` (as an oracle or helper), not in the package.  A use is any name
or attribute reference outside the definition itself; the match is by bare
name, so two definitions sharing a name vouch for each other.

Every ``__slots__`` entry and ``NamedTuple`` field is likewise read somewhere
in the package or ``perfbench/``: a record keeps nothing that only tests read.
A read is an attribute load; stores and constructor arguments do not count.
The match is again by bare name, so a field shares its reads with any
attribute of that name: a ``SimTrace.start`` that was only ever stored would
pass on ``args.start``.

Every exception class is named in some ``except`` clause of the package or
``perfbench/``: an error type that no handler tells apart from its base is
that base under another name.
"""

import ast
import builtins
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


def _fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified, bare) name of every ``__slots__`` entry and ``NamedTuple`` field."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        record = any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)
        for item in node.body:
            if record and isinstance(item, ast.AnnAssign):
                out.append((f"{node.name}.{item.target.id}", item.target.id))
            elif isinstance(item, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in item.targets):
                out.extend((f"{node.name}.{f}", f) for f in ast.literal_eval(item.value))
    return out


def _loads(paths) -> set[str]:
    return {node.attr for path in paths for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _exception_classes(paths) -> list[tuple[str, str]]:
    """(file, class) of every class derived, directly or through other classes
    defined in ``paths``, from a built-in exception."""
    classes = [(path.name, node) for path in paths for node in _parse(path).body
               if isinstance(node, ast.ClassDef)]
    known = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    out = []
    while True:
        new = [(file, node.name) for file, node in classes if node.name not in known
               and any(getattr(base, "id", None) in known for base in node.bases)]
        if not new:
            return out
        known.update(name for _, name in new)
        out += new


def _caught(paths) -> set[str]:
    """Every name or attribute in the type of an ``except`` clause."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for path in paths for handler in ast.walk(_parse(path))
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None
            for node in ast.walk(handler.type)}


MODULES = sorted(PACKAGE.glob("*.py"))
READERS = [*MODULES, *sorted((ROOT / "perfbench").rglob("*.py"))]
USED = _uses(READERS)


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


def test_every_record_field_is_read_outside_tests():
    loaded = _loads(READERS)
    unread = [f"{path.name}: {qual}" for path in MODULES
              for qual, bare in _fields(_parse(path)) if bare not in loaded]
    assert not unread, "stored but read only by tests, or not at all:\n" + "\n".join(unread)


def test_every_exception_class_is_caught_by_name():
    caught = _caught(READERS)
    uncaught = [f"{file}: {name}" for file, name in _exception_classes(MODULES)
                if name not in caught]
    assert not uncaught, "raised but never caught by name:\n" + "\n".join(uncaught)
