"""The public surface of the library is what the library itself, the demos, the
benchmarks or the CLI use: every public top-level def or class in
src/thermoflux, and every public method or property of a public class, is
referenced from somewhere other than its own definition and the package's
re-exports (a member as an attribute, .name).  Tests do not count as
callers."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thermoflux"
CALLER_DIRS = ("src", "demos", "bench", "perfbench")

# Reference implementations that tests compare the fast paths against.
ORACLES = ROOT / "tests" / "oracles.py"
# Imports kept on purpose: perfbench patches extraction's injection_feasible binding.
KEPT_IMPORTS = {"extraction.injection_feasible"}


def _caller_sources() -> dict:
    return {
        path: path.read_text()
        for top in CALLER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts[1:] and path.name != "__init__.py"
    }


def _public_definitions() -> list:
    return [
        (path, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


SOURCES = _caller_sources()
DEFINITIONS = _public_definitions()
MEMBERS = [  # (path, class, method or property) of every public class
    (path, cls, node)
    for path, cls in DEFINITIONS if isinstance(cls, ast.ClassDef)
    for node in cls.body
    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
]


def _referenced_elsewhere(path: Path, node, sources=SOURCES, prefix=r"\b") -> bool:
    word = re.compile(rf"{prefix}{re.escape(node.name)}\b")
    for other, text in sources.items():
        if other == path:  # the definition's own lines do not count
            lines = text.splitlines()
            text = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
        if word.search(text):
            return True
    return False


@pytest.mark.parametrize("path, node", DEFINITIONS, ids=[f"{p.stem}.{n.name}" for p, n in DEFINITIONS])
def test_public_definition_has_a_caller(path, node):
    assert _referenced_elsewhere(path, node), (
        f"{path.name}: {node.name} is referenced only by its own definition or by tests"
    )


@pytest.mark.parametrize("path, cls, node", MEMBERS, ids=[f"{p.stem}.{c.name}.{n.name}" for p, c, n in MEMBERS])
def test_public_member_has_a_caller(path, cls, node):
    assert _referenced_elsewhere(path, node, prefix=r"\."), (
        f"{path.name}: {cls.name}.{node.name} is referenced only by its own definition or by tests"
    )


def _unused_imports(path: Path) -> set:
    """module.name of each module-level import binding the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{path.stem}.{name}" for name in bound - read}


def test_every_module_import_is_used():
    """__init__ only re-exports, so it is not scanned."""
    unused = set().union(*(_unused_imports(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
    assert unused <= KEPT_IMPORTS, sorted(unused - KEPT_IMPORTS)


def test_reference_implementations_live_in_tests():
    oracles = {
        node.name for node in ast.parse(ORACLES.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"ProjectorFamily", "yor_matrix", "perm_index_map", "permutation_operator", "product_energies"} <= oracles
    assert not oracles & {node.name for _, node in DEFINITIONS}


def test_a_definition_only_tests_call_is_caught():
    source = "def orphan():\n    return 1\n\n\ndef used():\n    return 2\n\n\nX = used()\n"
    orphan, used = ast.parse(source).body[:2]
    path = Path("mod.py")
    assert not _referenced_elsewhere(path, orphan, {path: source})
    assert _referenced_elsewhere(path, used, {path: source})
    source = ("class Box:\n    def orphan(self):\n        return 1\n\n    @property\n    def used(self):\n"
              "        return 2\n\n\nX = Box().used\n")  # the same for a method and a property
    orphan, used = ast.parse(source).body[0].body
    assert not _referenced_elsewhere(path, orphan, {path: source}, prefix=r"\.")
    assert _referenced_elsewhere(path, used, {path: source}, prefix=r"\.")
