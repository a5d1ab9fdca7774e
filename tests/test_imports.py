"""Every name a module in src/airfed imports is used in that module, and
every ScenarioConfig option is read somewhere in the package."""

import ast
from dataclasses import fields
from pathlib import Path

from airfed.protocol import ScenarioConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "airfed"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_every_import_is_used():
    unused = [u for path in sorted(PACKAGE.glob("*.py"))
              for u in _unused_imports(path)]
    assert unused == []


# ScenarioConfig methods that touch every field without using it
_BOOKKEEPING = {"__post_init__", "validate", "as_dict"}


def _attribute_reads(tree):
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in _BOOKKEEPING:
            skip.update(id(n) for n in ast.walk(node))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in skip}


def test_every_scenario_option_is_read():
    read = set()
    for path in PACKAGE.glob("*.py"):
        read |= _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f.name for f in fields(ScenarioConfig)
              if f.init and f.name not in read]
    assert unread == []
