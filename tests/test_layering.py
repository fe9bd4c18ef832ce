"""Each usdkit module imports only the modules below it in the layer graph."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "usdkit"

#: module -> the package modules it may import; cli and the package facade import any
ALLOWED = {
    "errors": set(),
    "theory": {"errors"},
    "states": {"theory", "errors"},
    "experiment": {"states", "errors"},
    "analysis": {"experiment", "errors"},
}


def package_imports(path: pathlib.Path) -> set[str]:
    """The usdkit modules that a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] != "usdkit":
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]  # drop the leading "usdkit"
            if parts and parts[0]:
                found.add(parts[0])
            else:  # "from . import theory" names the modules
                found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "usdkit" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules - set(ALLOWED) == {"cli", "__init__"}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= ALLOWED[module], f"{module} imports {sorted(imported - ALLOWED[module])}"


def test_import_parser_sees_every_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from . import theory, states as s\n"
        "from .errors import UsdError\n"
        "from usdkit.analysis import classify\n"
        "import usdkit.cli\n"
        "from numpy import linalg\n"
        "import math\n"
    )
    assert package_imports(source) == {"theory", "states", "errors", "analysis", "cli"}
