"""Every public module-level function or class in `src/ffree` has a user,
and every defaulted parameter in `src/ffree` takes more than one value.

A name counts as used when some `src/ffree` module other than `__init__.py`
names it outside its own definition, when `perfbench/tracer.py` wraps it as
a span, or when ALLOWED below gives the reason it stays without a caller.
Re-exports in `__init__.py` do not count: they would keep any name alive.
Likewise every public method or property of a public class has a user: some
`src/ffree` module other than `__init__.py` names it outside its own
definition, `perfbench/tracer.py` wraps it as a span, or ALLOWED gives the
reason, under the name `Class.method`.

A defaulted parameter counts as used when some call in `src/ffree` or
`perfbench/tracer.py` to a function of its name passes it, by position or by
keyword; a call to a class counts for its `__init__`, and a call with
`*args` or `**kwargs` passes everything.  ONE_VALUE_ALLOWED gives the
reason for each parameter that stays at its default.

A field of a public record (a NamedTuple, declared in a class body or by a
functional `NamedTuple(...)` base) counts as read when some `src/ffree`
module or `perfbench/tracer.py` reads an attribute of its name, or when a
run of `CLI_RUNS` calls its record's `_asdict` (the command line writes a
record into its document that way, every field included); FIELD_ALLOWED
gives the reason for each field that nothing there reads.
"""

import ast
import importlib
from pathlib import Path

from ffree.cli import main

from test_acceptance import CLI_RUNS
from test_tracer import TRACER, _spans

SRC = Path(__file__).resolve().parents[1] / "src" / "ffree"

ALLOWED = {
    "chernoff_tail_bound": "the Chernoff bound behind event E_H; an acceptance test checks it",
}

ONE_VALUE_ALLOWED: dict[str, str] = {}

FIELD_ALLOWED: dict[str, str] = {}


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


def _unused_methods() -> list[str]:
    statements = [top for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
                  for top in ast.parse(path.read_text()).body]
    names = [_names(top) for top in [*statements, *ast.parse(TRACER.read_text()).body]]
    spans = {attr for _, attr, *_ in _spans()}
    unused = []
    for i, cls in enumerate(statements):
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            label = f"{cls.name}.{fn.name}"
            # named by another statement, or by another member of its class
            elsewhere = [used for j, used in enumerate(names) if j != i]
            elsewhere += [_names(s) for s in cls.body if s is not fn]
            if (label not in spans and label not in ALLOWED
                    and not any(fn.name in used for used in elsewhere)):
                unused.append(label)
    return unused


def test_every_public_method_has_a_user():
    assert _unused_methods() == []


def test_allowlist_names_defined_functions():
    defined = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(top.name)
            if isinstance(top, ast.ClassDef):
                defined.update(f"{top.name}.{fn.name}" for fn in top.body
                               if isinstance(fn, ast.FunctionDef))
    assert set(ALLOWED) <= defined


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in `src/ffree` and the tracer, by the name it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for path in [*SRC.glob("*.py"), TRACER]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether `call` passes the parameter `name`, at position `index`
    (None when it is keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    return (index is not None and len(call.args) > index) or any(
        k.arg == name for k in call.keywords)


def _one_value_parameters() -> list[str]:
    calls = _calls()
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            bound = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
            args = fn.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, name in defaulted:
                label = f"{path.stem}.{callee}({name})"
                if label not in ONE_VALUE_ALLOWED and not any(
                        _passes(c, index, name) for c in calls.get(callee, [])):
                    found.append(label)
    return found


def test_every_defaulted_parameter_is_passed():
    assert _one_value_parameters() == []


def _fields(cls: ast.ClassDef) -> list[str]:
    """Fields of a record class: the annotated names in the body of a
    `NamedTuple` subclass, or the names listed in a
    `NamedTuple("Name", [(field, type), ...])` base."""
    fields = []
    if any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases):
        fields += [s.target.id for s in cls.body
                   if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    for base in cls.bases:
        if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "NamedTuple":
            fields += [pair.elts[0].value for pair in base.args[1].elts]
    return fields


def _records() -> dict[str, list[str]]:
    """Every public record class in `src/ffree`, with its fields."""
    return {top.name: _fields(top) for path in sorted(SRC.glob("*.py"))
            for top in ast.parse(path.read_text()).body
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_") and _fields(top)}


def test_field_guard_finds_every_record():
    # the records the guard reads from the source are the tuple classes of
    # the package, with the fields Python gives them
    modules = [importlib.import_module(f"ffree.{path.stem}") for path in SRC.glob("*.py")]
    assert _records() == {
        name: list(cls._fields) for module in modules for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, tuple) and not name.startswith("_")
        and cls.__module__ == module.__name__}


def _written_records(monkeypatch) -> set[str]:
    """Names of the records whose _asdict some run of CLI_RUNS calls."""
    records = _records()
    classes = {cls for path in SRC.glob("*.py")
               for name, cls in vars(importlib.import_module(f"ffree.{path.stem}")).items()
               if name in records}
    written = set()
    for cls in classes:
        monkeypatch.setattr(cls, "_asdict", lambda self: written.add(type(self).__name__)
                            or dict(zip(self._fields, self)))
    for argv in CLI_RUNS:
        assert main(argv) == 0, argv
    return written


def _unread_fields(written: set[str]) -> list[str]:
    trees = [ast.parse(path.read_text()) for path in [*SRC.glob("*.py"), TRACER]]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{name}.{field}" for name, fields in _records().items() for field in fields
            if field not in read and name not in written
            and f"{name}.{field}" not in FIELD_ALLOWED]


def test_every_result_field_is_read(monkeypatch, capsys):
    assert _unread_fields(_written_records(monkeypatch)) == []
