"""Every module, class and function in ``src/`` is used by a program.

A module that only a package ``__init__`` imports (to re-export its
names) is code no program path runs.  This walks ``src/repro`` with
``ast``: each import counts for the module it names, and ``from pkg
import Name`` is followed through the package's ``__init__`` to the
module that defines ``Name``.  Imports made by a package ``__init__``
do not count.  Entry points are allowlisted: ``repro.__main__``
(``python -m repro``) and ``repro.experiments.*``, which the scenario
registry imports by name.

The same holds one level down: a top-level class or function whose
name no module but a package ``__init__`` mentions as a name or an
attribute is never constructed, subclassed, caught or called by a
program (importing it is not using it).  The programs are ``src/``
itself and the directories in ``PROGRAMS`` beside it; a mention by a
test does not count.  The check goes by name, so a function that shares
its name with anything a program mentions (a local variable, another
module's function) counts as used; a parameter, read in its function's
body, is not a mention.
"""

import ast
from pathlib import Path
from typing import Dict, Set

SRC = Path(__file__).resolve().parents[1] / "src"
ENTRY_POINTS = ("repro.__main__", "repro.experiments.")
#: the repository's programs beside ``src/`` (examples, the paper
#: benches and perf floors, the repository benchmark)
PROGRAMS = ("examples", "benchmarks", "oddbench")


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


def _unnamed(src: Path, kinds) -> list:
    """``module.name`` for each top-level definition of one of ``kinds``
    whose name no program module (package ``__init__``s aside) mentions
    as a name or an attribute."""
    trees, packages = _modules(src)
    readers = [tree for module, tree in trees.items()
               if module not in packages]
    for program in PROGRAMS:
        readers += [ast.parse(path.read_text(), str(path))
                    for path in sorted((src.parent / program).rglob("*.py"))]
    named: Set[str] = set()
    for tree in readers:
        # a function's parameter, where the function's body reads it,
        # is a local name, not a mention of a top-level one
        local = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params = {arg.arg for arg in ast.walk(node.args)
                          if isinstance(arg, ast.arg)}
                body = node.body if isinstance(node.body, list) \
                    else [node.body]
                local.update(id(name) for part in body
                             for name in ast.walk(part)
                             if isinstance(name, ast.Name)
                             and name.id in params)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in local:
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(f"{module}.{node.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, kinds) and node.name not in named)


def unused_classes(src: Path = SRC) -> list:
    """``module.Class`` for each top-level class no program names."""
    return _unnamed(src, ast.ClassDef)


def unused_functions(src: Path = SRC) -> list:
    """``module.function`` for each top-level function no program
    names."""
    return _unnamed(src, (ast.FunctionDef, ast.AsyncFunctionDef))


def test_every_src_module_is_imported_by_code():
    assert unused_modules() == []


def test_every_src_class_is_named_by_code():
    assert unused_classes() == []


def test_every_src_function_is_named_by_code():
    assert unused_functions() == []


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
    """On a toy tree: a class named in code, inside its own module or by
    an example, counts; one only imported, only a package ``__init__``
    re-exports, only a test names, or that nothing names, is
    reported."""
    src = tmp_path / "src"
    pkg = src / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from repro.shapes import Orphan, Used\n")
    (pkg / "shapes.py").write_text(
        "class Used:\n    pass\n\n"
        "class Imported:\n    pass\n\n"
        "class ImportedOnly:\n    pass\n\n"
        "class Local:\n    pass\n\n"
        "class Orphan:\n    pass\n\n"
        "class Lonely:\n    pass\n\n"
        "class Shown:\n    pass\n\n"
        "class Tested:\n    pass\n\n"
        "def make():\n    return Local()\n")
    (pkg / "user.py").write_text(
        "import repro.shapes\n"
        "from repro.shapes import Imported, ImportedOnly\n"
        "X = repro.shapes.Used\nY = Imported()\n")
    _write(tmp_path / "examples" / "demo.py",
           "from repro.shapes import Shown\nShown()\n")
    _write(tmp_path / "tests" / "test_shapes.py",
           "from repro.shapes import Tested\nTested()\n")
    assert unused_classes(src) == ["repro.shapes.ImportedOnly",
                                   "repro.shapes.Lonely",
                                   "repro.shapes.Orphan",
                                   "repro.shapes.Tested"]


def test_function_check_counts_programs_not_tests(tmp_path):
    """On a toy tree: a function called in code, handed to a registry
    call, or named by an example or an oddbench module counts; one only
    a package ``__init__`` re-exports, only a test calls, or that
    nothing names, is reported."""
    src = tmp_path / "src"
    pkg = src / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from repro.tools import orphan\n")
    (pkg / "tools.py").write_text("".join(
        f"def {name}():\n    pass\n\n" for name in (
            "called", "registered", "shown", "benched", "orphan",
            "tested", "lonely")))
    (pkg / "user.py").write_text(
        "from repro.tools import called, registered\n"
        "REGISTRY = {}\n\n"
        "def register(name, point):\n    REGISTRY[name] = point\n\n"
        "register('fig', registered)\ncalled()\n")
    _write(tmp_path / "examples" / "demo.py",
           "from repro.tools import shown\nshown()\n")
    _write(tmp_path / "oddbench" / "run.py",
           "import repro.tools\nSPAN = repro.tools.benched\n")
    _write(tmp_path / "tests" / "test_tools.py",
           "from repro.tools import tested\ntested()\n")
    assert unused_functions(src) == ["repro.tools.lonely",
                                     "repro.tools.orphan",
                                     "repro.tools.tested"]


def test_function_check_skips_parameter_names(tmp_path):
    """On a toy tree: a function whose name a program uses only as a
    parameter (read in the body, passed as a keyword, a lambda's) is
    reported; one a parameter's default value names counts."""
    src = tmp_path / "src"
    pkg = src / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "tools.py").write_text("".join(
        f"def {name}():\n    pass\n\n" for name in (
            "phi", "rate", "default")))
    (pkg / "user.py").write_text(
        "def scale(phi, *, rate=default):\n    return phi * rate\n\n"
        "half = lambda rate: rate / 2\n"
        "scale(phi=1.0, rate=2.0)\n")
    assert unused_functions(src) == ["repro.tools.phi", "repro.tools.rate"]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
