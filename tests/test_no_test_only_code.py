"""Guard against code that only tests reach.

Every name defined in ``src/`` (module-level functions, classes and
constants such as the ``RULE_*`` strings, and the methods, properties
and annotated fields, such as dataclass fields, of those classes; dunder
names left out) and every name the package
``__init__`` files re-export must be read somewhere in ``src/`` or
``bench/``: as a loaded name or an attribute, which leaves out
its own ``def``/``class``/assignment, the import lines that re-export
it and the ``self.<name>`` reads in its class's own ``__post_init__``
(a field only its own validation reads is a field nothing reads).
Tests do not count.  The few names kept for callers outside the
package are listed in ``ALLOWED`` with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steinsurf"
INITS = (PACKAGE / "__init__.py", PACKAGE / "localgeo" / "__init__.py")

ALLOWED = {
    "det_identity_check": "acceptance criterion 6 checks the double point determinant identity",
    "invariants": "layer module of the public package, imported as steinsurf.invariants",
    "surgery": "layer module of the public package, imported as steinsurf.surgery",
    "verify_local": "Python entry point for one verify-local suite, the API twin of the CLI subcommand",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(node):
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _defined(body):
    """Functions, classes and constants of a module body, with the
    methods, properties and annotated fields of its classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield member.name
                    elif isinstance(member, ast.AnnAssign):
                        yield from _assigned(member)
        else:
            yield from _assigned(node)


def _checked_names():
    names = set()
    for path in PACKAGE.rglob("*.py"):
        names.update(n for n in _defined(_tree(path).body)
                     if not (n.startswith("__") and n.endswith("__")))
    for init in INITS:
        for node in _tree(init).body:
            if isinstance(node, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in node.names)
    return names


def _post_init_self_reads(tree):
    """The ``self.<name>`` nodes inside every class's own ``__post_init__``."""
    return {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _read_names():
    read = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        tree = _tree(path)
        skipped = _post_init_self_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and id(node) not in skipped:
                read.add(node.attr)
    return read


def test_every_public_name_and_rule_is_read_outside_the_tests():
    unread = _checked_names() - _read_names() - set(ALLOWED)
    assert not unread, f"only tests reach {sorted(unread)}: give each a job or delete it"


def test_the_allowlist_holds_only_public_unread_names():
    names, read = _checked_names(), _read_names()
    assert set(ALLOWED) <= names
    assert not set(ALLOWED) & read, "an allowlisted name is read now; drop its entry"
