"""Every module and class in ``src/`` is used by some other code.

A module that only a package ``__init__`` imports (to re-export its
names) is code no program path runs.  This walks ``src/repro`` with
``ast``: each import counts for the module it names, and ``from pkg
import Name`` is followed through the package's ``__init__`` to the
module that defines ``Name``.  Imports made by a package ``__init__``
do not count.  Entry points are allowlisted: ``repro.__main__``
(``python -m repro``) and ``repro.experiments.*``, which the scenario
registry imports by name.

The same holds one level down: a top-level class whose name no module
but a package ``__init__`` mentions as a name or an attribute is never
constructed, subclassed or caught by a program (importing a class is
not using it).
"""

import ast
from pathlib import Path
from typing import Dict, Set

SRC = Path(__file__).resolve().parents[1] / "src"
ENTRY_POINTS = ("repro.__main__", "repro.experiments.")


def _modules(src: Path):
    """``(trees, packages)``: each module's syntax tree by dotted name,
    and the names of the packages among them."""
    trees, packages = {}, set()
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(path.read_text(), str(path))
    return trees, packages


def _imports(name: str, tree: ast.Module, package: bool):
    """``(module, names)`` for each import in ``tree``; ``names`` is
    None for a plain ``import module``."""
    here = name if package else name.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = here
            for _ in range(node.level - 1):
                base = base.rpartition(".")[0]
            module = node.module or ""
            if node.level:
                module = f"{base}.{module}" if module else base
            yield module, [alias.name for alias in node.names]


def unused_modules(src: Path = SRC) -> list:
    """The modules (packages and entry points aside) that no module but
    a package ``__init__`` imports, directly or through re-exports."""
    trees, packages = _modules(src)
    # where each package's names come from: (package, name) -> module
    origin: Dict[tuple, str] = {}
    for pkg in packages:
        for module, names in _imports(pkg, trees[pkg], True):
            for alias in names or ():
                origin[(pkg, alias)] = module

    def resolve(module: str, name: str) -> str:
        seen = set()
        while module in packages and (module, name) in origin \
                and (module, name) not in seen:
            seen.add((module, name))
            module = origin[(module, name)]
        return module

    used: Set[str] = set()
    for importer, tree in trees.items():
        if importer in packages:
            continue
        for module, names in _imports(importer, tree, False):
            if names is None:
                used.add(module)
            for alias in names or ():
                sub = f"{module}.{alias}"
                used.add(sub if sub in trees else resolve(module, alias))
    return sorted(name for name in trees
                  if name not in used and name not in packages
                  and not name.startswith(ENTRY_POINTS))


def unused_classes(src: Path = SRC) -> list:
    """``module.Class`` for each top-level class whose name no module
    but a package ``__init__`` mentions as a name or an attribute."""
    trees, packages = _modules(src)
    named: Set[str] = set()
    for module, tree in trees.items():
        if module in packages:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(f"{module}.{node.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and node.name not in named)


def test_every_src_module_is_imported_by_code():
    assert unused_modules() == []


def test_every_src_class_is_named_by_code():
    assert unused_classes() == []


def test_check_follows_package_reexports(tmp_path):
    """The resolution the check rests on, on a toy tree: a name imported
    through a package counts for its defining module; a module only the
    package re-exports, or that nothing imports, is reported; entry
    points are not."""
    pkg = tmp_path / "repro"
    (pkg / "experiments").mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from repro.used import f\nfrom .orphan import g\n")
    (pkg / "used.py").write_text("def f():\n    pass\n")
    (pkg / "orphan.py").write_text("def g():\n    pass\n")
    (pkg / "lonely.py").write_text("X = 1\n")
    (pkg / "user.py").write_text("from repro import f\n")
    (pkg / "__main__.py").write_text("import repro.user\n")
    (pkg / "experiments" / "__init__.py").write_text("")
    (pkg / "experiments" / "fig.py").write_text("X = 1\n")
    assert unused_modules(tmp_path) == ["repro.lonely", "repro.orphan"]


def test_class_check_ignores_package_reexports(tmp_path):
    """On a toy tree: a class named in code, or inside its own module,
    counts; one only imported, only a package ``__init__`` re-exports,
    or that nothing names, is reported."""
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from repro.shapes import Orphan, Used\n")
    (pkg / "shapes.py").write_text(
        "class Used:\n    pass\n\n"
        "class Imported:\n    pass\n\n"
        "class ImportedOnly:\n    pass\n\n"
        "class Local:\n    pass\n\n"
        "class Orphan:\n    pass\n\n"
        "class Lonely:\n    pass\n\n"
        "def make():\n    return Local()\n")
    (pkg / "user.py").write_text(
        "import repro.shapes\n"
        "from repro.shapes import Imported, ImportedOnly\n"
        "X = repro.shapes.Used\nY = Imported()\n")
    assert unused_classes(tmp_path) == ["repro.shapes.ImportedOnly",
                                        "repro.shapes.Lonely",
                                        "repro.shapes.Orphan"]
