"""Every name a module imports is used in that module, and every name a
module defines is used somewhere."""

import ast
from collections import Counter
from pathlib import Path

import sgcinla

# __init__.py imports names only to re-export them
MODULES = sorted(p for p in Path(sgcinla.__file__).parent.glob("*.py") if p.name != "__init__.py")
# the files whose references keep a definition alive
ROOT = Path(__file__).resolve().parents[1]
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport numpy.linalg\nprint(sys)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: numpy"]


def test_modules_import_only_what_they_use():
    assert MODULES
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


def references(tree) -> Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def definitions(tree) -> list:
    """(name, node) for each module-level def, class and assigned name."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.extend((t.id, node) for t in ast.walk(target) if isinstance(t, ast.Name))
    return defined


def dead_definitions(modules: dict, readers: list) -> list[str]:
    """Module-level names in ``modules`` (file name to source) that no source
    in ``readers`` refers to outside the name's own definition."""
    read = Counter()
    for source in readers:
        read.update(references(ast.parse(source)))
    dead = []
    for name, source in modules.items():
        for defined, node in definitions(ast.parse(source)):
            if read[defined] - references(node)[defined] <= 0:
                dead.append(f"{name} line {node.lineno}: {defined}")
    return dead


def test_the_check_finds_a_dead_definition():
    module = (
        "LIMIT = 3\nSPARE = 4\n"
        "def used(n):\n    return min(n, LIMIT)\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Holder:\n    pass\n"
    )
    caller = "import module\nmodule.used(2)\nprint(module.Holder)\n"
    found = dead_definitions({"module.py": module}, [module, caller])
    assert found == ["module.py line 2: SPARE", "module.py line 5: recursive"]


def test_every_module_level_definition_is_used():
    assert len(READERS) > len(MODULES)
    modules = {p.name: p.read_text() for p in MODULES}
    assert dead_definitions(modules, [p.read_text() for p in READERS]) == []
