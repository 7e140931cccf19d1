"""The package namespace re-exports only names that a run reaches.

A name is reached when the CLI runners (``experiments``, ``cli``, ``report``)
or the acceptance suite import it from a ``bmoforge`` module. Anything else
stays importable from its own module but is not re-exported.
"""

import ast
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
