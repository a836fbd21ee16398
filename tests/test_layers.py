"""Which modules of the package may use numpy: the float layer (``floats``)
and the F_p trial-division kernel (``modp``); every other module is exact.
Which module may spell a cell variable: only ``spaces``, where each layout
is named once.  No module keeps mutable state at module level: state
belongs to objects, such as a family's cache.  Which module may read a
space's pairing vector ``pairing_psi``: ``spaces``, which builds it,
``segre``, whose one pairing forms rho from it, and the float engine of
``floats``; every other module asks the family."""

import ast
import re
from pathlib import Path

import hermsym

NUMPY_MODULES = {"floats.py", "modp.py"}


def _imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_the_float_layer_and_the_modp_kernel_import_numpy():
    package = Path(hermsym.__file__).parent
    users = {path.name for path in package.glob("*.py")
             if _imports_numpy(ast.parse(path.read_text()))}
    assert users == NUMPY_MODULES


CELL_NAME = re.compile(r"\bz\d+_\d+\b")


def _cell_names(tree: ast.AST):
    """The line numbers of string constants and f-strings that spell a cell
    variable z<i>_<j>; each replacement field of an f-string reads as 0."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "0"
                           for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if CELL_NAME.search(text):
            yield node.lineno


def test_only_spaces_spells_cell_variables():
    package = Path(hermsym.__file__).parent
    found = {f"{path.name}:{line}" for path in package.glob("*.py")
             if path.name != "spaces.py"
             for line in _cell_names(ast.parse(path.read_text()))}
    assert not found
    # the check sees both spellings
    assert list(_cell_names(ast.parse('f"z{i + 1}_{j + 1}"; "z1_1"'))) == [1, 1]


LOCKS = {"Lock", "RLock"}


def _module_state(tree: ast.Module):
    """The line numbers of module-level statements that bind a name to an
    empty ``{}``, ``[]``, ``set()`` or ``dict()``, or that call
    ``threading.Lock()`` or ``RLock()``; function and class bodies are not
    module level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        value = getattr(stmt, "value", None)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and (
                isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, ast.List) and not value.elts
                or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "dict")
                and not value.args and not value.keywords):
            yield stmt.lineno
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None) in LOCKS
                    or getattr(node.func, "id", None) in LOCKS):
                yield stmt.lineno
                break


def test_no_module_level_state():
    package = Path(hermsym.__file__).parent
    found = {f"{path.name}:{line}" for path in package.glob("*.py")
             for line in _module_state(ast.parse(path.read_text()))}
    assert not found
    # the check sees each form, and passes a non-empty constant table
    probe = ("import threading\nA = {}\nB: list = []\nC = set()\nD = dict()\n"
             "E = threading.Lock()\nF = RLock()\nG = {1: 2}\n"
             "def f():\n    H = {}\n")
    assert list(_module_state(ast.parse(probe))) == [2, 3, 4, 5, 6, 7]


PAIRING_READERS = {"spaces.py", "segre.py", "floats.py"}


def _attribute_reads(tree: ast.AST, attr: str):
    """The line numbers at which ``attr`` is read as an attribute."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno


def test_only_the_pairing_reads_pairing_psi():
    package = Path(hermsym.__file__).parent
    found = {f"{path.name}:{line}" for path in package.glob("*.py")
             if path.name not in PAIRING_READERS
             for line in _attribute_reads(ast.parse(path.read_text()),
                                          "pairing_psi")}
    assert not found
    # the check sees a read in any expression, and not a store
    probe = "s.pairing_psi\nf(fam.space.pairing_psi[0])\ns.pairing_psi = ()\n"
    assert list(_attribute_reads(ast.parse(probe), "pairing_psi")) == [1, 2]
