"""The package namespace re-exports only names that a run reaches, and
every option has a caller.

A name is reached when the CLI runners (``experiments``, ``cli``, ``report``)
or the acceptance suite import it from a ``bmoforge`` module. Anything else
stays importable from its own module but is not re-exported. Every name a
module lists in its ``__all__`` must exist in that module.

A parameter with a default is an option; some call in the package or in the
acceptance suite must set it to a value other than a literal equal to the
default, or it is one value and belongs in the code. So is any parameter,
with a default or without, that every such call sets to one equal literal
(a ``*`` or ``**`` argument may set anything). Likewise a dataclass
field is an output; the package or the acceptance suite must read it, or it
only echoes what the caller already has. And every function, class and
method the package defines must be used by the package or the acceptance
suite: code that only tests call belongs with the tests.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import bmoforge

ROOT = Path(__file__).resolve().parents[1]
REACHING = [
    ROOT / "src" / "bmoforge" / "experiments.py",
    ROOT / "src" / "bmoforge" / "cli.py",
    ROOT / "src" / "bmoforge" / "report.py",
    ROOT / "tests" / "test_acceptance.py",
]


def reached_names() -> set[str]:
    names = set()
    for path in REACHING:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("bmoforge")):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_reached():
    assert "__version__" in bmoforge.__all__
    unreached = sorted(set(bmoforge.__all__) - reached_names())
    assert unreached == []


def test_every_public_name_resolves():
    missing = [name for name in bmoforge.__all__ if not hasattr(bmoforge, name)]
    assert missing == []


def test_every_module_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(bmoforge.__path__):
        module = importlib.import_module(f"bmoforge.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


# Defaulted parameters no scanned call sets, kept on purpose: the CLI entry
# point's argv.
UNSET_ALLOWED = {"cli.main.argv"}
CALLERS = [*sorted((ROOT / "src" / "bmoforge").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def parameters():
    """(qualified name, call name, position, parameter, default) for every
    named parameter of a function, class or method defined in ``bmoforge``,
    ``inspect.Parameter.empty`` standing for no default.

    A method's position excludes ``self``, a keyword-only parameter has
    none, and a class's parameters are its constructor's.
    """
    out = []
    for info in pkgutil.iter_modules(bmoforge.__path__):
        module = importlib.import_module(f"bmoforge.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = []
            if inspect.isfunction(obj):
                targets.append((name, name, obj, False))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if attr == "__init__":
                        targets.append((name, name, fn, True))
                    elif inspect.isfunction(fn) and not attr.startswith("__"):
                        targets.append((f"{name}.{attr}", attr, fn, True))
            for qual, call_name, fn, bound in targets:
                params = list(inspect.signature(fn).parameters.values())[int(bound):]
                out += [(f"{info.name}.{qual}.{p.name}", call_name,
                         math.inf if p.kind is p.KEYWORD_ONLY else i, p.name, p.default)
                        for i, p in enumerate(params)
                        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    return out


NOT_LITERAL = object()


def literal(node: ast.expr):
    """An argument's value if it is a literal, else ``NOT_LITERAL``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return NOT_LITERAL


def set_arguments():
    """Call name -> [(args, keywords)] over every call in the scanned files,
    a call's name being its last dotted part and keywords mapping each
    keyword to its value, a ``**`` argument under the keyword None."""
    calls: dict[str, list] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                calls.setdefault(name, []).append(
                    (node.args, {k.arg: k.value for k in node.keywords}))
    return calls


def argument(args, keywords, position, param):
    """The argument node one call passes for a parameter, None when it passes
    none, or ``NOT_LITERAL`` when a ``*`` or ``**`` argument may set it."""
    if None in keywords or any(isinstance(a, ast.Starred) for a in args):
        return NOT_LITERAL
    return args[position] if position < len(args) else keywords.get(param)


def sets(args, keywords, position, param, default) -> bool:
    """Whether one call may set the parameter to another value than its
    default: a ``*`` or ``**`` argument may set anything, and a literal equal
    to the default sets nothing."""
    node = argument(args, keywords, position, param)
    return node is NOT_LITERAL or node is not None and literal(node) != default


def test_every_defaulted_parameter_has_a_caller():
    calls = set_arguments()
    unset = set()
    for qual, call_name, position, param, default in parameters():
        if default is inspect.Parameter.empty:
            continue
        if not any(sets(args, keywords, position, param, default)
                   for args, keywords in calls.get(call_name, [])):
            unset.add(qual)
    assert sorted(unset - UNSET_ALLOWED) == []
    assert UNSET_ALLOWED <= unset  # no stale entry


def test_no_parameter_takes_one_literal_at_every_call():
    calls = set_arguments()
    one_valued = set()
    for qual, call_name, position, param, _ in parameters():
        values = []
        for args, keywords in calls.get(call_name, []):
            node = argument(args, keywords, position, param)
            values.append(literal(node) if isinstance(node, ast.expr) else NOT_LITERAL)
        if values and NOT_LITERAL not in values and all(v == values[0] for v in values):
            one_valued.add(qual)
    assert sorted(one_valued) == []


# Dataclass fields that no scanned file reads, kept on purpose.
UNREAD_ALLOWED = {
    "estimators.RateFit.intercept",  # a fit's documented output
}


def test_every_dataclass_field_has_a_reader():
    loaded = {node.attr for path in CALLERS
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for info in pkgutil.iter_modules(bmoforge.__path__):
        module = importlib.import_module(f"bmoforge.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                unread.update(f"{info.name}.{name}.{f.name}" for f in dataclasses.fields(obj)
                              if f.name not in loaded)
    assert sorted(unread - UNREAD_ALLOWED) == []
    assert UNREAD_ALLOWED <= unread  # no stale entry


def test_every_package_definition_has_a_caller():
    # Every top-level function and class and every non-dunder method of a
    # package module must be loaded by name somewhere in the package (the
    # namespace re-exports in __init__ aside) or in the acceptance suite.
    defined = set()
    loaded = set()
    for path in CALLERS:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "bmoforge":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add((path.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    defined.update((f"{path.stem}.{node.name}", item.name) for item in node.body
                                   if isinstance(item, ast.FunctionDef)
                                   and not item.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    uncalled = sorted(f"{owner}.{name}" for owner, name in defined if name not in loaded)
    assert uncalled == []
