"""The package namespace re-exports only names that a run reaches.

A name is reached when the CLI runners (``experiments``, ``cli``, ``report``)
or the acceptance suite import it from a ``bmoforge`` module. Anything else
stays importable from its own module but is not re-exported. Every name a
module lists in its ``__all__`` must exist in that module.
"""

import ast
import importlib
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
