"""Every library module, and every name in it, is reached from an
entry point.

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

Below the module, a module-level function, class or constant, or a
public method or property, is used when its identifier appears in an
entry file or in a library module other than at its definition: as a
name, an attribute or an import alias.  Strings do not count: a span
name such as ``"process_batch"`` is not a call of the method.
An appearance inside a definition counts only once that definition is
itself used, so a name that only dead code mentions is dead too.
Package ``__init__`` files count nothing here either.  The allow-listed
oracle modules are exempt, and what they mention counts as used.
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

# ``module.qualname`` -> reason, for names kept although no identifier
# in reached code mentions them: ones reached by dynamic dispatch.
ALLOWED_UNUSED: dict[str, str] = {}


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _constant(stmt) -> str | None:
    """The name a module-level ``NAME = ...`` statement defines."""
    targets = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
               else stmt.targets if isinstance(stmt, ast.Assign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name) \
            and not targets[0].id.startswith("__"):
        return targets[0].id
    return None


class _NameScan(ast.NodeVisitor):
    """Collects the definitions of one file and the identifiers it
    mentions, each use tagged with the innermost definition holding it
    (None at module level)."""

    def __init__(self, module: str, track: bool, defs: dict, uses: dict):
        self.module, self.track = module, track
        self.defs, self.uses = defs, uses
        self.owner = None

    def _use(self, name: str) -> None:
        self.uses.setdefault(name, set()).add(self.owner)

    def _define(self, qualname: str, parent) -> str | None:
        """Record a definition; its key owns the uses inside it.  An
        untracked file records nothing, so all its uses are live."""
        if not self.track:
            return None
        key = f"{self.module}.{qualname}"
        self.defs[key] = (qualname.rsplit(".", 1)[-1], parent)
        return key

    def _owned(self, key, nodes) -> None:
        outer, self.owner = self.owner, key
        for node in nodes:
            self.visit(node)
        self.owner = outer

    def visit_Module(self, node):
        for stmt in node.body:
            if isinstance(stmt, _DEFS):
                self._definition(stmt, stmt.name, None)
            elif _constant(stmt):
                self._owned(self._define(_constant(stmt), None),
                            [stmt.value] if stmt.value else [])
            else:
                self.visit(stmt)

    def _definition(self, node, qualname: str, parent) -> None:
        key = self._define(qualname, parent)
        if not isinstance(node, ast.ClassDef):
            self._owned(key, node.decorator_list + [node.args]
                        + ([node.returns] if node.returns else [])
                        + node.body)
            return
        self._owned(key, node.decorator_list + node.bases + node.keywords)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not stmt.name.startswith("_") and self.track:
                self._definition(stmt, f"{qualname}.{stmt.name}", key)
            else:
                self._owned(key, [stmt])

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])


def _unused_names() -> set[str]:
    """``module.qualname`` of every definition no live code mentions."""
    defs: dict[str, tuple] = {}
    uses: dict[str, set] = {}
    for module, path in MODULES.items():
        if not _is_package(module):
            # The oracles are kept whole: their names are exempt and
            # what they use is used.
            track = module not in ALLOWED_UNREACHED
            _NameScan(module, track, defs, uses).visit(
                ast.parse(path.read_text(), str(path)))
    for path in ENTRY_FILES:
        if path.parent != SRC / "repro":
            _NameScan("", False, defs, uses).visit(
                ast.parse(path.read_text(), str(path)))
    live: set[str] = set()
    grew = True
    while grew:
        grew = False
        for key, (name, parent) in defs.items():
            if key in live or (parent is not None and parent not in live):
                continue
            if any(owner is None or (owner in live and owner != key
                                     and not owner.startswith(key + "."))
                   for owner in uses.get(name, ())):
                live.add(key)
                grew = True
    return set(defs) - live


def test_every_name_is_reached_from_an_entry_point():
    unused = _unused_names() - ALLOWED_UNUSED.keys()
    assert not unused, (
        f"nothing reached from a command, benchmark, example or tool "
        f"mentions {sorted(unused)}: delete it with its tests, or wire "
        f"it in")


def test_allow_list_names_only_unused_names():
    # Like ALLOWED_UNREACHED: an entry whose name gains a use, or
    # disappears, must leave the allow-list.
    assert ALLOWED_UNUSED.keys() <= _unused_names()
