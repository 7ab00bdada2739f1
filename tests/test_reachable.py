"""Every module under ``src/`` is one an entry point runs.

The check is a static import closure (stdlib ``ast``, nothing is imported)
from the entry points: the CLI, the serving modules, every benchmark script
and every example.  Two rules keep it honest:

* ``from pkg import name`` reaches the module that *defines* ``name``
  (following the package's re-exports), not the whole package;
* a package ``__init__``'s own imports are re-exports and reach nothing.

A module outside the closure is code no entry point runs: give it a caller
or delete it.  A second check does import: each entry module, in a fresh
interpreter, may load only numpy and the standard library.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

ENTRY_MODULES = (
    "repro.cli",
    "repro.__main__",
    "repro.earthqube.api",
    "repro.earthqube.server",
    "repro.earthqube.durability",
    "repro.federation.facade",
)
ENTRY_GLOBS = ("benchmarks/*.py", "benchmarks/e2e/*.py", "examples/*.py")


class ModuleTree:
    """The ``.py`` files of one source root, by dotted module name."""

    def __init__(self, src: Path) -> None:
        self.files: dict[str, Path] = {}
        for path in src.rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.files[".".join(parts)] = path

    def is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def _base(self, module: "str | None", node: ast.ImportFrom) -> "str | None":
        """The absolute module an ``ImportFrom`` names."""
        if not node.level:
            return node.module
        if module is None:  # a script's relative import never reaches src/
            return None
        package = module if self.is_package(module) else module.rpartition(".")[0]
        parts = package.split(".")
        base = ".".join(parts[:len(parts) - node.level + 1])
        return f"{base}.{node.module}" if node.module else base

    def defining_module(self, module: str, name: str) -> str:
        """The module that defines what ``from module import name`` binds."""
        if f"{module}.{name}" in self.files:
            return f"{module}.{name}"
        if module not in self.files or not self.is_package(module):
            return module
        for node in ast.parse(self.files[module].read_text()).body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return self.defining_module(self._base(module, node), alias.name)
        return module

    def imports(self, path: Path, module: "str | None" = None) -> list[str]:
        """Every module ``path``'s import statements reach, anywhere in it."""
        reached = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                reached.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = self._base(module, node)
                if base is not None:
                    reached.extend(self.defining_module(base, alias.name)
                                   for alias in node.names)
        return reached


def unreached_modules(src: Path, entry_modules, entry_files) -> list[str]:
    """Non-``__init__`` modules under ``src`` no entry point imports."""
    tree = ModuleTree(src)
    todo = list(entry_modules)
    for path in entry_files:
        todo.extend(tree.imports(path))
    reached: set[str] = set()
    while todo:
        module = todo.pop()
        if module in reached or module not in tree.files:
            continue
        reached.add(module)
        if not tree.is_package(module):
            todo.extend(tree.imports(tree.files[module], module))
    return sorted(module for module in tree.files
                  if module not in reached and not tree.is_package(module))


def test_every_src_module_is_reached_from_an_entry_point():
    entry_files = sorted(path for pattern in ENTRY_GLOBS for path in REPO.glob(pattern))
    assert entry_files, "no entry scripts found"
    assert unreached_modules(REPO / "src", ENTRY_MODULES, entry_files) == []


# Loads one entry module in a fresh interpreter and prints the top-level
# packages the import pulled in.
_LOADED_BY = """
import importlib, json, sys
before = set(sys.modules)
importlib.import_module(sys.argv[1])
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_an_entry_point_loads_numpy_and_the_stdlib_only(module):
    # pyproject.toml declares numpy as the one runtime dependency; an
    # undeclared import (scipy once came in through archive synthesis)
    # breaks a numpy-only install and costs every process its load time.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", _LOADED_BY, module], env=env,
                          capture_output=True, text=True, timeout=120)
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert "repro" in loaded
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names and name not in ("numpy", "repro")]
    assert foreign == []


def test_checker_flags_an_orphan_and_resolves_reexports(tmp_path):
    src = tmp_path / "src"
    package = src / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .used import helper\nfrom .orphan import unused\nfrom .sub import deep\n")
    (package / "used.py").write_text(
        "from . import sibling\n\ndef helper():\n    return sibling.VALUE\n")
    (package / "sibling.py").write_text("VALUE = 1\n")
    (package / "orphan.py").write_text("def unused():\n    pass\n")
    (package / "sub" / "__init__.py").write_text("from .inner import deep as deep\n")
    (package / "sub" / "inner.py").write_text(
        "def deep():\n    from ..used import helper\n    return helper()\n")
    (package / "sub" / "unused_inner.py").write_text("X = 0\n")
    script = tmp_path / "main.py"
    script.write_text("from pkg import deep\n")

    assert unreached_modules(src, (), [script]) == [
        "pkg.orphan", "pkg.sub.unused_inner"]
    # Importing the package itself reaches only its __init__, which re-exports.
    script.write_text("import pkg\n")
    assert unreached_modules(src, (), [script]) == [
        "pkg.orphan", "pkg.sibling", "pkg.sub.inner", "pkg.sub.unused_inner", "pkg.used"]


def write_tree(root: Path, files: dict) -> Path:
    """Write ``{relative path: source}`` under ``root``; return ``root``."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def script(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "main.py"
    path.write_text(source)
    return path


def test_every_entry_module_is_a_module_under_src():
    # A renamed seed would silently reach nothing and hide orphans.
    tree = ModuleTree(REPO / "src")
    for module in ENTRY_MODULES:
        assert module in tree.files, module
        assert not tree.is_package(module), module


def test_an_entry_module_seeds_the_closure(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "",
        "pkg/a.py": "from pkg.b import x\n",
        "pkg/b.py": "x = 1\n",
        "pkg/c.py": "y = 2\n",
    })
    assert unreached_modules(src, ("pkg.a",), []) == ["pkg.c"]


def test_an_import_inside_a_function_reaches(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "",
        "pkg/lazy.py": "def f():\n    from pkg.heavy import g\n    return g()\n",
        "pkg/heavy.py": "def g():\n    return 1\n",
    })
    assert unreached_modules(src, ("pkg.lazy",), []) == []


def test_a_dotted_import_reaches_the_module(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "", "pkg/mod.py": "", "pkg/other.py": ""})
    main = script(tmp_path, "import pkg.mod\n")
    assert unreached_modules(src, (), [main]) == ["pkg.other"]


def test_from_a_package_import_a_submodule_reaches_it(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "", "pkg/mod.py": "", "pkg/other.py": ""})
    main = script(tmp_path, "from pkg import mod\n")
    assert unreached_modules(src, (), [main]) == ["pkg.other"]


def test_an_aliased_reexport_resolves_to_its_definition(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "from .impl import f as g\nfrom .spare import h\n",
        "pkg/impl.py": "def f():\n    pass\n",
        "pkg/spare.py": "def h():\n    pass\n",
    })
    main = script(tmp_path, "from pkg import g\n")
    assert unreached_modules(src, (), [main]) == ["pkg.spare"]


def test_a_reexport_chain_across_packages_resolves(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "from .sub import f\n",
        "pkg/sub/__init__.py": "from .impl import f\nfrom .spare import h\n",
        "pkg/sub/impl.py": "def f():\n    pass\n",
        "pkg/sub/spare.py": "def h():\n    pass\n",
    })
    main = script(tmp_path, "from pkg import f\n")
    assert unreached_modules(src, (), [main]) == ["pkg.sub.spare"]


def test_a_name_the_package_defines_reaches_no_submodule(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "from .mod import f\nCONSTANT = 3\n",
        "pkg/mod.py": "def f():\n    pass\n",
    })
    main = script(tmp_path, "from pkg import CONSTANT\n")
    assert unreached_modules(src, (), [main]) == ["pkg.mod"]


def test_an_import_cycle_terminates(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "",
        "pkg/a.py": "from .b import y\nx = 1\n",
        "pkg/b.py": "from .a import x\ny = 2\n",
    })
    assert unreached_modules(src, ("pkg.a",), []) == []


def test_a_scripts_relative_import_reaches_nothing(tmp_path):
    src = write_tree(tmp_path / "src", {"pkg/__init__.py": "", "pkg/mod.py": ""})
    main = script(tmp_path, "from .mod import thing\nfrom . import mod\n")
    assert unreached_modules(src, (), [main]) == ["pkg.mod"]


def test_a_relative_import_climbs_its_levels(tmp_path):
    src = write_tree(tmp_path / "src", {
        "pkg/__init__.py": "",
        "pkg/top.py": "x = 1\n",
        "pkg/a/__init__.py": "",
        "pkg/a/b/__init__.py": "",
        "pkg/a/b/leaf.py": "from ...top import x\n",
    })
    assert unreached_modules(src, ("pkg.a.b.leaf",), []) == []
