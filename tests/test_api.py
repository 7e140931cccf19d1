"""The package namespace re-exports only names that a run reaches, and
every option has a caller.

A name is reached when the CLI runners (``experiments``, ``cli``, ``report``)
or the acceptance suite import it from a ``bmoforge`` module. Anything else
stays importable from its own module but is not re-exported. Every name a
module lists in its ``__all__`` must exist in that module.

A parameter with a default is an option; some call in the package or in the
acceptance suite must set it to a value other than a literal equal to the
default, or it is one value and belongs in the code.
"""

import ast
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
# point's argv, and the two knobs of the literal-enumeration oracle.
UNSET_ALLOWED = {
    "cli.main.argv",
    "oscillation.pair_oscillation.convention",
    "stopping.enumerate_stopping_pairs.cap",
}
CALLERS = [*sorted((ROOT / "src" / "bmoforge").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def defaulted_parameters():
    """(qualified name, call name, position, parameter, default) for every
    parameter with a default of a function, class or method defined in
    ``bmoforge``.

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
                        for i, p in enumerate(params) if p.default is not p.empty]
    return out


def is_default(node: ast.expr, default) -> bool:
    """Whether an argument is a literal equal to the parameter's default."""
    try:
        return ast.literal_eval(node) == default
    except ValueError:
        return False


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


def sets(args, keywords, position, param, default) -> bool:
    """Whether one call may set the parameter to another value than its
    default: a ``*`` or ``**`` argument may set anything, and a literal equal
    to the default sets nothing."""
    if None in keywords or any(isinstance(a, ast.Starred) for a in args):
        return True
    value = args[position] if position < len(args) else keywords.get(param)
    return value is not None and not is_default(value, default)


def test_every_defaulted_parameter_has_a_caller():
    calls = set_arguments()
    unset = set()
    for qual, call_name, position, param, default in defaulted_parameters():
        if not any(sets(args, keywords, position, param, default)
                   for args, keywords in calls.get(call_name, [])):
            unset.add(qual)
    assert sorted(unset - UNSET_ALLOWED) == []
    assert UNSET_ALLOWED <= unset  # no stale entry
