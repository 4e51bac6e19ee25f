"""The qschur modules use each other only through public names.

A leading underscore marks a name as internal to its module.  This test
parses every module of the package and fails when one of them imports an
underscore name from another qschur module, or reads one as an attribute
of another qschur module it has imported.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qschur"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _source(node):
    """The qschur module an ImportFrom reads from: '' for the package
    itself, None outside qschur."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and \
            node.module.partition(".")[0] == "qschur":
        return node.module.partition(".")[2]
    return None


def violations(source, own):
    """(line, module.name) of each use of another module's underscore
    name in the given source of module own."""
    tree = ast.parse(source)
    aliases = {}    # local name -> the qschur module bound to it
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = _source(node)
            for alias in node.names if mod is not None else ():
                if mod == "" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif mod != own and _private(alias.name):
                    found.append((node.lineno, f"{mod}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                pkg, _, mod = alias.name.partition(".")
                if pkg == "qschur" and mod in MODULES and alias.asname:
                    aliases[alias.asname] = mod
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, own) != own):
            found.append((node.lineno,
                          f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_private_names(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert violations(source, module) == []


def test_the_check_sees_both_kinds_of_use():
    source = ("from . import tensor as tn\n"
              "from .linalg import Echelon, _coerce\n"
              "from .tensor import rank_mod\n"
              "import qschur.mixed as mx\n"
              "x = tn._ModEchelon(3, 1)\n"
              "y = tn.rank_mod([], 0, 3) + mx._grade((), 2)\n"
              "z = self._own\n")
    assert violations(source, "cli") == [(2, "linalg._coerce"),
                                         (5, "tensor._ModEchelon"),
                                         (6, "mixed._grade")]
    # a module may use its own underscore names
    assert violations("from .tensor import _matmul_mod\n", "tensor") == []


# the functions of tensor's dense F_p kernel: the only ones that import
# numpy, so that the narrow blocks, on the sparse kernel, never load it
DENSE_KERNEL = {"_ModEchelon.__init__", "_ModEchelon.insert", "_rank_dense",
                "_dense_pieces", "_closure_dense"}


def numpy_imports(source):
    """(line, qualified name of the enclosing function) of each import of
    numpy; the name is None for an import that runs when the module is
    imported (at top level or in a class body)."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(name.partition(".")[0] == "numpy" for name in names):
                found.append((child.lineno,
                              ".".join(scope) if in_function else None))
            visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_only_the_dense_kernel_imports_numpy(module):
    found = numpy_imports((PACKAGE / f"{module}.py").read_text())
    where = {name for _, name in found}
    assert where == (DENSE_KERNEL if module == "tensor" else set()), found


def test_the_numpy_check_sees_every_kind_of_import():
    source = ("import numpy\n"
              "class A:\n"
              "    from numpy import zeros\n"
              "    def f(self):\n"
              "        import numpy.linalg as la\n"
              "def g():\n"
              "    def h():\n"
              "        import numpy as np\n"
              "    import math\n"
              "    from .numpy import x\n")
    assert numpy_imports(source) == [(1, None), (3, None), (5, "A.f"),
                                     (8, "g.h")]


# the fraction-field engines, kept in linalg as test oracles only
FRACTION_NAMES = {"RationalFn", "SpanSolver", "mat_nullspace"}


def fraction_uses(source, own):
    """(line, name) of each use of a fraction-field engine outside linalg,
    and of each definition or call of a coords method anywhere."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        if own != "linalg":
            found += [(node.lineno, name) for name in names
                      if name in FRACTION_NAMES]
        if isinstance(node, ast.FunctionDef) and node.name == "coords":
            found.append((node.lineno, "def coords"))
        elif isinstance(node, ast.Call) and "coords" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append((node.lineno, "coords()"))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_runtime_modules_stay_in_the_laurent_ring(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert fraction_uses(source, module) == []


def test_the_fraction_check_sees_names_imports_and_coords():
    source = ("from .linalg import RationalFn\n"
              "from . import linalg\n"
              "x = linalg.SpanSolver()\n"
              "y = mat_nullspace([], 0)\n"
              "def coords(a):\n"
              "    return quot.coords(a)\n")
    assert fraction_uses(source, "mixed") == [
        (1, "RationalFn"), (3, "SpanSolver"), (4, "mat_nullspace"),
        (5, "def coords"), (6, "coords()")]
    assert fraction_uses(source, "linalg") == [(5, "def coords"),
                                               (6, "coords()")]


ROOT = PACKAGE.parents[1]
SCANNED = sorted(path.relative_to(ROOT).as_posix()
                 for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import binds that the source neither
    reads nor lists in __all__."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for line, name in bound if name not in used)


@pytest.mark.parametrize("path", SCANNED)
def test_every_import_is_used(path):
    assert unused_imports((ROOT / path).read_text()) == []


def test_the_import_check_sees_every_binding():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import comb, gcd\n"
              "from .tensor import rank_mod as rank\n"
              "__all__ = ['gcd']\n"
              "x = os.path.join(comb(3, 1))\n")
    assert unused_imports(source) == [(3, "js"), (5, "rank")]


def unread_privates(source):
    """(line, name) of each top-level underscore name the source defines
    but never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined += [(node.lineno, name.id) for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in defined
                  if _private(name) and name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    assert unread_privates((PACKAGE / f"{module}.py").read_text()) == []


def test_the_unread_check_sees_defs_classes_and_assignments():
    source = ("def _used():\n"
              "    return _CACHE\n"
              "def _dead():\n"
              "    return _used()\n"
              "class _Gone:\n"
              "    _attr = 1\n"
              "_CACHE, _spare = {}, []\n"
              "_total: int = 0\n"
              "__version__ = '1'\n"
              "public = 2\n")
    assert unread_privates(source) == [(3, "_dead"), (5, "_Gone"),
                                       (7, "_spare"), (8, "_total")]
