"""Each usdkit module imports only the modules below it in the layer graph, and
reads no private name of another module beyond the few listed here."""

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


def private_reads(path: pathlib.Path) -> set[str]:
    """``module._name`` attributes and ``from .module import _name`` imports of other
    usdkit modules in a source file."""
    tree = ast.parse(path.read_text())
    modules, found = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "usdkit":
                continue
            parts = parts[1:]  # drop the leading "usdkit"
        if parts and parts[0]:  # "from .states import _frame" reads a name of states
            found.update(f"{parts[0]}.{a.name}" for a in node.names if a.name.startswith("_"))
        else:  # "from . import states as s" binds a module name
            modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.add(f"{node.value.id}.{node.attr}")
    return found


#: module -> the private names of other modules it reads; each new one is a visible edit here
PRIVATE_READS = {
    "states": {"theory._check_theta", "theory._usd_probabilities"},
    "experiment": {"states._check_one_angle"},
}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_reads_only_its_listed_private_names(module):
    assert private_reads(PACKAGE / f"{module}.py") == PRIVATE_READS.get(module, set())


def test_private_read_parser_sees_every_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from . import theory, states as s\n"
        "from .experiment import _expected_means, run_repetitions\n"
        "from usdkit.analysis import _at\n"
        "import numpy as np\n"
        "theory._usd_probabilities(2, 0.5)\n"
        "s._frame(3).off\n"
        "theory.theta_max(3)\n"
        "np._private\n"
        "states._frame\n"  # not bound by an import here
    )
    assert private_reads(source) == {
        "theory._usd_probabilities", "s._frame", "experiment._expected_means", "analysis._at"
    }


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
