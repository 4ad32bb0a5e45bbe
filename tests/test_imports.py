"""The package's modules import one another in one order, with no cycle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "transasym"

# each module imports, at module level, only modules before it; oracles imports none
ORDER = ("oracles", "errors", "series", "systems", "singular", "expansion", "walk", "validate",
         "acceptance", "cli", "__init__")

# (module, function, imported module) of every import made inside a function
LOCAL = {
    ("cli", "_cmd_report", "acceptance"),  # the release checks load on demand
    ("validate", "integrate_path", "scipy.integrate"),  # the RK45 reference alone needs scipy
    ("singular", "continue_f0", "expansion"),  # both import singular at module level
    ("singular", "continue_f0", "walk"),
}


class _Imports(ast.NodeVisitor):
    """A module's package imports at module level, and every import inside a function."""

    def __init__(self):
        self.top, self.local, self.function = set(), set(), None

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        self._add(node, [a.name for a in node.names])

    def visit_ImportFrom(self, node):
        relative = node.level > 0 and node.module is None  # from . import oracles
        self._add(node, [a.name for a in node.names] if relative else [node.module])

    def _add(self, node, names):
        if self.function is not None:
            self.local.update((self.function, name) for name in names)
        elif getattr(node, "level", 0) > 0:
            self.top.update(names)


def test_import_graph():
    modules = {}
    for path in SRC.glob("*.py"):
        modules[path.stem] = _Imports()
        modules[path.stem].visit(ast.parse(path.read_text()))
    assert set(modules) == set(ORDER)
    for name, found in modules.items():
        assert found.top <= set(ORDER[:ORDER.index(name)]), f"{name} imports {found.top}"
    assert {(name, *call) for name, found in modules.items() for call in found.local} == LOCAL
