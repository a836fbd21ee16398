"""Which modules of the package may use numpy: the float layer (``floats``)
and the F_p trial-division kernel (``modp``); every other module is exact."""

import ast
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
