"""Every name a module in src/airfed or tests/ imports is used in that
module, every top-level name a package module defines is referenced from the
package or perfbench (code that only tests use belongs in tests/), every
top-level name in tests/ other than a test is referenced from tests/,
every ScenarioConfig option is read somewhere in the package, one
function in the package opens files for writing, and every code name and
path the README gives exists."""

import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

from airfed.protocol import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "airfed"
TESTS = ROOT / "tests"


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
    unused = [u for folder in (PACKAGE, TESTS)
              for path in sorted(folder.glob("*.py"))
              for u in _unused_imports(path)]
    assert unused == []


def _definitions(tree):
    """Top-level functions, classes and assigned names of a module."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def _references(tree):
    """Names a module loads, reads as attributes, imports or spells as a
    string (perfbench names the functions it wraps)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_is_referenced():
    referenced = set()
    for folder in ("src", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced |= _references(ast.parse(path.read_text("utf-8")))
    dead = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in sorted(_definitions(ast.parse(path.read_text("utf-8"))))
            if name not in referenced]
    assert dead == []


def test_every_test_helper_is_referenced():
    modules = {path.name: ast.parse(path.read_text("utf-8"))
               for path in sorted(TESTS.glob("*.py"))}
    referenced = set().union(*map(_references, modules.values()))
    dead = [f"{name}: {d}" for name, tree in modules.items()
            for d in sorted(_definitions(tree))
            if not d.startswith("test_") and d not in referenced]
    assert dead == []


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
    unread = [f.name for f in fields(ScenarioConfig) if f.name not in read]
    assert unread == []


def _writers(tree, where="<module>"):
    """Names of the functions (innermost) in tree that call an opener (a
    callee whose name contains "open") with a literal mode that writes,
    appends, creates or updates, such as "w" or "rb+"."""
    out = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            out |= _writers(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", ""))
            modes = [*node.args, *(k.value for k in node.keywords
                                   if k.arg == "mode")]
            if "open" in name and any(
                    isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and re.fullmatch(r"[rwxabt+]*[wxa+][rwxabt+]*", m.value)
                    for m in modes):
                out.add(where)
        out |= _writers(node, where)
    return out


def test_one_function_writes_files():
    writers = sorted((path.name, name)
                     for path in sorted(PACKAGE.glob("*.py"))
                     for name in _writers(ast.parse(path.read_text("utf-8"))))
    assert writers == [("protocol.py", "write_text")]


# module.name in the README's code spans: an attribute of airfed.module,
# except the methods of a numpy Generator argument that the text names rng
_MODULE_NAME = re.compile(
    r"\b(protocol|learner|channel|bounds|topology|rng|cli)\.([A-Za-z_]\w*)")
_GENERATOR_METHODS = {"rng.permutation", "rng.spawn"}
_TEST_NAME = re.compile(r"\b(tests/\w+\.py)::(\w+)")
_PATH = re.compile(r"\b(?:configs|tests)/[\w.-]*")


def _readme_code():
    """The README's fenced blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text,
                                              flags=re.S))
    return blocks + inline


def test_readme_code_references_resolve():
    code = _readme_code()
    assert code
    missing = []
    for span in code:
        for module, name in _MODULE_NAME.findall(span):
            if f"{module}.{name}" not in _GENERATOR_METHODS and not hasattr(
                    importlib.import_module(f"airfed.{module}"), name):
                missing.append(f"{module}.{name}")
        for path, name in _TEST_NAME.findall(span):
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            if name not in _definitions(tree):
                missing.append(f"{path}::{name}")
        missing += [p for p in _PATH.findall(span) if not (ROOT / p).exists()]
    assert missing == []
