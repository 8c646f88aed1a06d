"""Source layout: ``src/permnet`` holds only code that a run reaches.

Two AST checks over the package:

* every top-level function and class, and every method but a dunder
  defined in a class body, is named by the run code (``src/``,
  ``scripts/`` and the non-test ``perfbench/`` files) somewhere outside its
  own definition, so code that only tests reach lives under ``tests/``.
  An attribute of an imported outside module (``np.tanh``) names nothing
  of the package;
* no module of the package, ``tests/`` or ``scripts/`` imports a name it
  never uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "permnet"
MODULES = sorted(PACKAGE.glob("*.py"))

# reached only from tests/test_acceptance.py, which pins their names
# (c01, c02 and c07 call ``AgentNet.forward``)
TEST_ONLY_ALLOWED = {"grad_check", "is_permutation_matrix", "matmul",
                     "AgentNet.forward"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def run_code_files() -> list[Path]:
    files = list((ROOT / "src").rglob("*.py"))
    files += (ROOT / "scripts").rglob("*.py")
    files += (path for path in (ROOT / "perfbench").glob("*.py")
              if not path.name.startswith("test_"))
    return sorted(files)


def foreign_imports(tree: ast.Module) -> set:
    """Names a file binds by importing from outside the package."""
    bound = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in sub.names
                         if alias.name.split(".")[0] != "permnet")
        elif isinstance(sub, ast.ImportFrom) and sub.level == 0 \
                and sub.module.split(".")[0] != "permnet":
            bound.update(alias.asname or alias.name for alias in sub.names)
    return bound


def names_in(node: ast.AST, foreign: set) -> set:
    """Every identifier ``node`` mentions: names, attributes (except those
    of a name in ``foreign``), imported names, and string constants spelled
    like an identifier (attribute lookups by name)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name)
                    and sub.value.id in foreign):
                found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[0])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            found.add(sub.value)
    return found


def definitions(tree: ast.Module) -> list[str]:
    """A module's top-level functions and classes, and each non-dunder
    method of a top-level class as ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += (f"{node.name}.{sub.name}" for sub in node.body
                      if isinstance(sub, DEFINITIONS[:2])
                      and not (sub.name.startswith("__")
                               and sub.name.endswith("__")))
    return found


def unreached_definitions() -> list[str]:
    """Package definitions that no run code names outside the definition
    itself: a method counts as named by the rest of its class."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in run_code_files()}
    # per file: the names each statement of the module or of a class body
    # mentions, with the definitions that statement lies within
    usage = []
    for path, tree in trees.items():
        foreign = foreign_imports(tree)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                usage.append((path, {getattr(node, "name", "")},
                              names_in(node, foreign)))
                continue
            for sub in ast.iter_child_nodes(node):   # bases, body, ...
                within = {node.name, f"{node.name}.{getattr(sub, 'name', '')}"}
                usage.append((path, within, names_in(sub, foreign)))
    missing = []
    for module in MODULES:
        for qualified in definitions(trees[module]):
            name = qualified.rpartition(".")[2]
            reached = any(name in used and not (
                path == module and qualified in within)
                for path, within, used in usage)
            if not reached and qualified not in TEST_ONLY_ALLOWED:
                missing.append(f"{module.name}: {qualified}")
    return missing


def test_run_code_reaches_every_package_definition():
    assert unreached_definitions() == []


def test_allowlist_names_real_test_only_definitions():
    defined = {name for module in MODULES
               for name in definitions(ast.parse(module.read_text()))}
    assert TEST_ONLY_ALLOWED <= defined


@pytest.mark.parametrize(
    "module", MODULES + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda path: path.name if path.parent == PACKAGE
    else str(path.relative_to(ROOT)))
def test_no_unused_imports(module):
    tree = ast.parse(module.read_text(), str(module))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported.items() if name not in used)
    assert unused == []
