"""The package's modules form a strict order of layers.

Each module of ``covlearn`` imports only the modules below it in
:data:`LAYERS`, and only at module level, so no import cycle needs a
deferred import and the import graph can be read off the module headers.
The package ``__init__`` sits above every layer: it re-exports the public
names. The checks read the source with ``ast`` and import nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "covlearn"

# bottom layer first
LAYERS = ("model", "sparsity", "clbcd", "clomp", "baselines", "methods", "scenario", "cli")

# (module, imported name) of the one import from the package itself: the CLI's version string
PACKAGE_IMPORTS = {("cli", "__version__")}

# (module, imported module) of the call-time imports kept for start-up cost: the thread
# pool's module loads only when a run asks for more than one thread
DEFERRED_IMPORTS = {("scenario", "concurrent.futures")}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree):
    """(import node, at module level) of every import statement of a module."""
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, id(node) in top


def _targets(node):
    """The modules an import statement names; ``from . import a, b`` names
    modules of the package or names of its ``__init__``."""
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return [alias.name for alias in node.names]


def test_every_module_has_a_layer():
    assert set(_trees()) - {"__init__"} == set(LAYERS)


def test_relative_imports_name_lower_layers():
    wrong = []
    for name, tree in _trees().items():
        below = LAYERS[: LAYERS.index(name)] if name in LAYERS else LAYERS
        for node, _ in _imports(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            for target in _targets(node):
                if (name, target) not in PACKAGE_IMPORTS and target.split(".")[0] not in below:
                    wrong.append(f"{name}.py:{node.lineno}: imports {target}, not a lower layer")
    assert not wrong, "\n".join(wrong)


def test_no_import_runs_at_call_time():
    wrong = []
    for name, tree in _trees().items():
        for node, top in _imports(tree):
            for target in [] if top else _targets(node):
                if node.level or (name, target) not in DEFERRED_IMPORTS:  # a relative import is never deferred
                    wrong.append(f"{name}.py:{node.lineno}: imports {target} at call time")
    assert not wrong, "\n".join(wrong)
