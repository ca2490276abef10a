"""Every top-level function and class of a foldylax module is read by the
program: by code in src/foldylax or in perfbench/, not only by the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foldylax"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
SCANNED = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# module.name -> why it stays although only the tests read it
ALLOWED = {
    "foldy.coefficient": "the public definition of C_m for one scatterer, which "
                         "test_foldy unit-tests; assembly computes C_m for all at once",
}


def _reads(node) -> set:
    """The names node reads, as a loaded Name or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unread_definitions(sources: dict, scanned) -> list[str]:
    """module.name of each top-level function or class of the scanned modules
    that no top-level statement of any module in sources reads, its own
    definition aside. sources maps a module name to its code."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    statements = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{module}.{node.name}" for module in scanned for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not any(node.name in names for stmt, names in statements if stmt is not node)]


def test_the_scan_finds_an_unread_definition():
    sources = {"a": "def used():\n    pass\n\n\ndef dummy():\n    return dummy()\n\n\n"
                    "class Annotated:\n    pass\n\n\nclass Unread:\n    pass\n",
               "b": "import a\n\n\ndef run(x: Annotated):\n    return a.used()\n"}
    assert unread_definitions(sources, ["a"]) == ["a.dummy", "a.Unread"]


def test_the_program_reads_every_definition():
    sources = {p.stem if p.parent == PACKAGE else f"perfbench.{p.stem}": p.read_text()
               for p in PROGRAM}
    assert sorted(unread_definitions(sources, SCANNED)) == sorted(ALLOWED)
