"""The package's module layering, read from the sources with ``ast``.

Every import counts, function-local ones too: ``cli`` sits on top, only
``cli`` reads the fixtures, only ``cli`` and ``fixtures`` read the oracles
(the checkers stay independent of their ground truth), and no two modules
import each other, directly or through others.  The two top layers, ``cli``
and ``fixtures``, import no private name of another module.  Every name a module's
``__all__`` lists is defined in it, and every ``module.attr`` that README's
package layout cites is defined.  NumPy's floating-point flags are set only
by the few functions that make values and check them.
"""

import ast
import importlib
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delaystab"
README = PACKAGE.parent.parent / "README.md"


def _imports() -> dict[str, set[str]]:
    """Each module (not ``__init__``) -> the package modules it imports."""
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {}
    for name, path in modules.items():
        found = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from .x import y" names module x; "from . import x, y" names x and y
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("delaystab"):
                rest = node.module.split(".")[1:]
                found |= {rest[0]} if rest else {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                found |= {a.name.split(".")[1] for a in node.names
                          if a.name.startswith("delaystab.")}
        graph[name] = found & set(modules)
    return graph


def _importers(graph: dict[str, set[str]], module: str) -> set[str]:
    return {name for name, deps in graph.items() if module in deps}


def test_module_layering():
    graph = _imports()
    assert {"cli", "criteria", "fixtures", "oracle", "simulator"} <= set(graph)
    assert _importers(graph, "cli") == set()
    assert _importers(graph, "fixtures") == {"cli"}
    assert _importers(graph, "oracle") <= {"cli", "fixtures"}
    # no cycle: repeatedly drop the modules that import nothing left
    left = dict(graph)
    while left:
        leaves = {name for name, deps in left.items() if not deps & set(left)}
        assert leaves, f"import cycle among {sorted(left)}"
        left = {name: deps for name, deps in left.items() if name not in leaves}


def _private_imports(module: str) -> list[str]:
    """The single-underscore names ``module`` imports from the package."""
    path = PACKAGE / f"{module}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        package = isinstance(node, ast.ImportFrom) and (
            node.level == 1 or (node.module or "").startswith("delaystab"))
        if package:
            found += [".".join(filter(None, [node.module, a.name])) for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return found


def test_top_layers_import_no_private_name():
    for module in ("cli", "fixtures"):
        assert _private_imports(module) == [], module
    # a lower layer may: the check sees equation's import of the scope-free evaluator
    assert "seqexpr._eval_window" in _private_imports("equation")


def test_every_all_entry_is_defined():
    for path in sorted(PACKAGE.glob("*.py")):
        name = "delaystab" if path.stem == "__init__" else f"delaystab.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name


def test_readme_package_layout_cites_only_defined_names():
    # `delaystab.limits` names a module; `limits.row_sum` and
    # `delaystab.limits.row_sum` a name that module defines
    section = README.read_text().split("## Package layout\n", 1)[1].split("\n## ", 1)[0]
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    rows, cited = set(), set()
    for text in re.findall(r"`([\w.]+)`", section):
        module, _, attr = text.removeprefix("delaystab.").rpartition(".")
        if not module and text.startswith("delaystab."):
            rows.add(attr)
        elif module in modules:
            cited.add((module, attr))
    assert rows == modules
    missing = [f"{m}.{a}" for m, a in sorted(cited)
               if not hasattr(importlib.import_module(f"delaystab.{m}"), a)]
    assert cited and missing == []


def _errstate_users() -> set[str]:
    """``module.function`` for each function whose own body or decorators
    name ``errstate``; ``module`` alone for a use outside any function."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, ast.Attribute) and node.attr == "errstate" or \
                isinstance(node, ast.Name) and node.id == "errstate":
            found.add(where)
        for child in ast.iter_child_nodes(node):
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{where.split('.')[0]}.{child.name}" if inner else where)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_floating_point_flags_are_set_where_values_are_made():
    # evaluation, run_all and the product bound name overflow in their own
    # errors or witnesses, so no caller silences NumPy for them
    assert _errstate_users() == {"seqexpr._eval_window", "criteria.run_all",
                                 "criteria.positivity_scan", "simulator.product_bound",
                                 "oracle._power_radius"}
