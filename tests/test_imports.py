"""Every name a module imports is used in that module, every name and
method a module defines is used somewhere, and a process imports the heavy
scipy packages only when it fits."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sgcinla
from sgcinla.cli import main

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


def dead_definitions(modules: dict, readers: list, find=definitions, count=references) -> list[str]:
    """Names that ``find`` defines in ``modules`` (file name to source) that no
    source in ``readers`` refers to, as ``count`` counts references, outside
    the name's own definition."""
    read = Counter()
    for source in readers:
        read.update(count(ast.parse(source)))
    dead = []
    for name, source in modules.items():
        for defined, node in find(ast.parse(source)):
            if read[defined] - count(node)[defined] <= 0:
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


def attribute_reads(tree) -> Counter:
    """How often each name is read in ``tree`` as ``x.name`` or named by a
    string constant (a ``getattr`` name, say)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def methods(tree) -> list:
    """(name, node) for each non-dunder method or property of a module-level class."""
    return [
        (node.name, node)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def dead_methods(modules: dict, readers: list) -> list[str]:
    """Methods and properties that no reader reads as an attribute outside
    their own bodies.  A bare name does not count: a local variable ``k``
    keeps no ``.k`` alive."""
    return dead_definitions(modules, readers, methods, attribute_reads)


def test_the_check_finds_a_dead_method():
    module = (
        "class Box:\n"
        "    def __init__(self, k):\n        self.k = k\n"
        "    @property\n    def size(self):\n        return self.k\n"
        "    @property\n    def spare(self):\n        return 0\n"
        "    def walk(self, n):\n        return self.walk(n - 1) if n else 0\n"
        "    def named(self):\n        return 1\n"
    )
    caller = (
        "from module import Box\n"
        "spare = walk = 2\nbox = Box(spare)\n"
        "print(box.size, getattr(box, 'named')())\n"
    )
    found = dead_methods({"module.py": module}, [module, caller])
    assert found == ["module.py line 8: spare", "module.py line 10: walk"]


def test_every_method_is_used():
    modules = {p.name: p.read_text() for p in MODULES}
    assert dead_methods(modules, [p.read_text() for p in READERS]) == []


# Only a fit searches (scipy.optimize) and splines (scipy.interpolate), only
# tests and the bench-quantile oracle use scipy.stats, and nothing uses
# scipy.integrate.  On 2 vCPUs the first two cost about 0.15 s of a cold start.
FIT_ONLY_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.stats")


def module_level_imports(source: str) -> list[str]:
    """Dotted names that ``source`` imports outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.extend(f"{child.module}.{alias.name}" for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def fit_only(names) -> list[str]:
    return [n for n in names if any(n == p or n.startswith(p + ".") for p in FIT_ONLY_SCIPY)]


def test_the_check_finds_a_module_level_import():
    source = (
        "import scipy.stats\nfrom scipy import optimize as opt\nfrom scipy.special import ndtr\n"
        "try:\n    from scipy.integrate import quad\nexcept ImportError:\n    pass\n"
        "def f():\n    from scipy.interpolate import CubicSpline\n"
        "class C:\n    from scipy.interpolate import PPoly\n"
    )
    assert fit_only(module_level_imports(source)) == [
        "scipy.stats", "scipy.optimize", "scipy.integrate.quad", "scipy.interpolate.PPoly",
    ]


def test_no_module_imports_a_fit_only_scipy_package_at_module_level():
    found = {p.name: fit_only(module_level_imports(p.read_text())) for p in MODULES}
    found["__init__.py"] = fit_only(module_level_imports(Path(sgcinla.__file__).read_text()))
    assert {name: names for name, names in found.items() if names} == {}


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this package; return the
    fit-only scipy packages loaded at its end."""
    src = str(Path(sgcinla.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code += f"\nimport sys\nprint('loaded', *[m for m in {FIT_ONLY_SCIPY!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()[1:]


def test_import_loads_no_fit_only_scipy_package():
    assert run_fresh("import sgcinla, sgcinla.cli") == []


@pytest.fixture(scope="module")
def saved_fit(tmp_path_factory):
    """A saved 4-group Poisson fit and a weight matrix of 3 group contrasts."""
    root = tmp_path_factory.mktemp("saved-fit")
    config = root / "model.json"
    group = np.repeat(np.arange(4), 5)
    y = [0, 1, 2, 1, 0, 3, 4, 2, 5, 3, 1, 0, 1, 2, 1, 6, 4, 7, 5, 3]
    config.write_text(json.dumps({"family": "poisson", "data": {"y": y, "group": group.tolist()}}))
    out = root / "out"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
    n_latent = len(y) + 1 + 4
    a = np.zeros((3, n_latent))
    a[np.arange(3), n_latent - 4] = 1.0
    a[np.arange(3), n_latent - 3 + np.arange(3)] = -1.0
    np.savetxt(root / "a.csv", a, delimiter=",")
    return out, root / "a.csv"


@pytest.mark.parametrize("verb", ["sample", "lincomb"])
def test_sampling_verbs_on_a_saved_fit_load_no_fit_only_scipy_package(saved_fit, verb):
    out, a = saved_fit
    argv = ["sample", "--out", str(out), "--count", "2000"]
    if verb == "lincomb":
        argv = ["lincomb", "--out", str(out), "--a-matrix", str(a), "--count", "2000"]
    assert run_fresh(f"from sgcinla.cli import main\nassert main({argv!r}) == 0") == []


def test_a_fit_imports_its_splines_before_the_pool_forks():
    # a pool child that imported scipy.interpolate itself would pay for it on every fit
    code = (
        "import sys\n"
        "from sgcinla import engine, parallel\n"
        "from sgcinla.model import ModelSpec, make_family\n"
        "inner, seen = parallel.map_tasks, []\n"
        "def spy(fn, tasks):\n"
        "    seen.append('scipy.interpolate' in sys.modules)\n"
        "    return inner(fn, tasks)\n"
        "parallel.map_tasks = spy\n"
        "spec = ModelSpec(make_family('poisson'), y=[0, 1, 2, 1, 3, 4, 2, 5],\n"
        "                 group=[0, 0, 1, 1, 2, 2, 3, 3])\n"
        "engine.fit_model(spec)\n"
        "assert seen == [True], seen"
    )
    assert "scipy.interpolate" in run_fresh(code)
