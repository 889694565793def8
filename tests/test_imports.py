import ast
from graphlib import TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superskel"


def _imported_modules(path: Path, modules: set[str]) -> set[str]:
    """Package modules that ``path`` imports anywhere, function bodies
    included; the package imports its own modules relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found & modules


def test_import_graph_has_no_cycle():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {m: _imported_modules(PACKAGE / f"{m}.py", modules) for m in modules}
    assert graph["cli"] >= {"atlas", "calculus", "continuation", "morphisms"}
    TopologicalSorter(graph).prepare()  # raises CycleError naming a cycle
