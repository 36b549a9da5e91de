"""Guard against code that only tests reach.

Every name the package ``__init__`` files re-export, and every ``RULE_*``
constant of ``certificates.py``, must be read somewhere in ``src/`` or
``bench/``: as a loaded name or an attribute, which leaves out its own
``def``/``class``/assignment and the import lines that re-export it.
Tests do not count.  The few names kept for callers outside the package
are listed in ``ALLOWED`` with the reason.
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
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _checked_names():
    names = set()
    for init in INITS:
        for node in _tree(init).body:
            if isinstance(node, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in node.names)
    for node in _tree(PACKAGE / "certificates.py").body:
        if isinstance(node, ast.Assign):
            names.update(
                t.id for t in node.targets
                if isinstance(t, ast.Name) and t.id.startswith("RULE_")
            )
    return names


def _read_names():
    read = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_and_rule_is_read_outside_the_tests():
    unread = _checked_names() - _read_names() - set(ALLOWED)
    assert not unread, f"only tests reach {sorted(unread)}: give each a job or delete it"


def test_the_allowlist_holds_only_public_unread_names():
    names, read = _checked_names(), _read_names()
    assert set(ALLOWED) <= names
    assert not set(ALLOWED) & read, "an allowlisted name is read now; drop its entry"
