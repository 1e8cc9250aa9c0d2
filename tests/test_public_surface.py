"""Every public module-level function or class in `src/ffree` has a user.

A name counts as used when some `src/ffree` module other than `__init__.py`
names it outside its own definition, when `perfbench/tracer.py` wraps it as
a span, or when ALLOWED below gives the reason it stays without a caller.
Re-exports in `__init__.py` do not count: they would keep any name alive.
"""

import ast
from pathlib import Path

from test_tracer import _spans

SRC = Path(__file__).resolve().parents[1] / "src" / "ffree"

ALLOWED = {
    "chernoff_tail_bound": "the Chernoff bound behind event E_H; an acceptance test checks it",
    "verify_certificate": "checks a q certificate on its own; ROADMAP direction 1 gives it a caller",
    "pair_from_index": "the scalar inverse of pair_index, for one id without numpy arrays",
}


def _names(top: ast.stmt) -> set[str]:
    """Every name a top-level statement refers to or imports."""
    out = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _unused() -> list[str]:
    statements = [(path.stem, top) for path in sorted(SRC.glob("*.py"))
                  if path.stem != "__init__" for top in ast.parse(path.read_text()).body]
    names = [_names(top) for _, top in statements]
    spans = {attr.split(".")[0] for _, attr, *_ in _spans()}
    unused = []
    for i, (module, top) in enumerate(statements):
        if (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
                and top.name not in spans and top.name not in ALLOWED
                and not any(top.name in used for j, used in enumerate(names) if j != i)):
            unused.append(f"{module}.{top.name}")
    return unused


def test_every_public_name_has_a_user():
    assert _unused() == []


def test_allowlist_names_defined_functions():
    defined = {top.name for path in SRC.glob("*.py")
               for top in ast.parse(path.read_text()).body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
    assert set(ALLOWED) <= defined
