"""The package's imports: internal ones form an acyclic graph, all at module level,
and a whole ``report`` run loads neither ``dataclasses`` nor ``inspect``.

The graph tests parse each module of ``src/portview`` with ``ast`` and import
none; the start-up test runs ``report`` in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "portview"


def _trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _package_modules(node: ast.AST) -> list[str]:
    """The package modules one node imports, by file stem (``__init__`` for the package)."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return []
    parts = [name.split(".") for name in names]
    return [(p + ["__init__"])[1] for p in parts if p[0] == "portview"]


def _imports_in(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    return [(module, node) for node in ast.walk(tree) for module in _package_modules(node)]


def test_package_modules_import_each_other_without_a_cycle():
    trees = _trees()
    graph = {name: sorted({dep for dep, _ in _imports_in(tree)}) for name, tree in trees.items()}
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + (name,)))
        if name not in done:
            for dep in graph.get(name, ()):
                visit(dep, path + (name,))
            done.add(name)

    for name in graph:
        visit(name, ())


def test_no_package_import_sits_inside_a_function():
    misplaced = [
        f"{name}.py:{node.lineno} imports {dep} inside {func.name}"
        for name, tree in _trees().items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dep, node in _imports_in(func)
    ]
    assert misplaced == []


# Modules that cost a cold start several milliseconds each and that no run needs.
_UNWANTED = ("dataclasses", "inspect")

_REPORT_THEN_LIST_MODULES = f"""
import sys
from portview import cli
code = cli.main(["report", "--data", sys.argv[1], "--out", sys.argv[2]])
print(code, *sorted(set({_UNWANTED!r}) & sys.modules.keys()))
"""


def test_a_report_run_imports_neither_dataclasses_nor_inspect(demo_path, tmp_path):
    # -S: no site-packages hook can load a module on the package's behalf
    done = subprocess.run(
        [sys.executable, "-S", "-c", _REPORT_THEN_LIST_MODULES, str(demo_path), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0", done.stdout
