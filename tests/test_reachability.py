"""Every library module is reached from an entry point.

The entry points are what a user runs: ``python -m repro`` (every
command goes through ``repro.__main__``), the host benchmark under
``perfbench/``, the pytest benchmarks under ``benchmarks/``, the
scripts under ``examples/`` and ``tools/``.  A static import walk from
them must reach every module under ``src/repro``; a module only tests
import is dead weight and fails here.

Package ``__init__`` files are namespaces, not edges: ``from
repro.pkg import Name`` counts as an import of the submodule that
defines ``Name`` only.  Otherwise a package's re-exports would make
every sibling look reached.  Imports inside functions count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_FILES = sorted(
    [SRC / "repro" / "__main__.py"]
    + [p for d in ("perfbench", "benchmarks", "examples", "tools")
       for p in (ROOT / d).glob("*.py")])

# Modules kept without an entry point: oracles that tests check the
# shipped model against.
ALLOWED_UNREACHED = {
    "repro.vpu.vliw",  # VLIW packing ceiling above vpu/timing.py's table
    "repro.vpu.compiler.validate",  # CMX feasibility of compiled plans
}


def _modules() -> dict[str, Path]:
    """Module name -> file for every module under ``src/repro``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _imports(path: Path):
    """``(module, names)`` for each ``repro`` import in *path*;
    ``names`` is None for a plain ``import``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0 \
                and node.module.split(".")[0] == "repro":
            yield node.module, [alias.name for alias in node.names]


def _defining_module(module: str, name: str) -> str:
    """The module that defines *name* as imported from *module*,
    following package re-exports."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        for source, names in _imports(MODULES[module]):
            if names and name in names:
                return _defining_module(source, name)
    return module


def _edges(path: Path) -> set[str]:
    edges = set()
    for module, names in _imports(path):
        if names is None:
            edges.add(module)
        else:
            edges.update(_defining_module(module, n) for n in names)
    return edges & MODULES.keys()


def _reached() -> set[str]:
    reached: set[str] = set()
    frontier = set().union(*(_edges(p) for p in ENTRY_FILES))
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        if not _is_package(name):
            frontier |= _edges(MODULES[name]) - reached
    return reached


def _unreached() -> set[str]:
    return {name for name in MODULES
            if not _is_package(name)} - _reached() - {"repro.__main__"}


def test_every_module_is_reached_from_an_entry_point():
    unreached = _unreached() - ALLOWED_UNREACHED
    assert not unreached, (
        f"no command, benchmark, example or tool imports "
        f"{sorted(unreached)}: delete it with its tests, or wire it in")


def test_allow_list_names_only_unreached_modules():
    # An entry that gains an entry point, or disappears, leaves the
    # allow-list; it must not shelter a module by stale name.
    assert ALLOWED_UNREACHED <= MODULES.keys()
    assert ALLOWED_UNREACHED <= _unreached()

