"""The package's imports: internal ones form an acyclic graph, all at module level;
no run loads ``dataclasses``, ``inspect`` or ``logging``, and only a run that reads or
writes JSON loads ``json``.

The graph tests parse each module of ``src/portview`` with ``ast`` and import
none; the start-up tests run ``portview`` in a fresh interpreter.
"""

import ast
import os
import re
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


# Modules that cost a cold start several milliseconds each and that no run needs;
# ``json`` loads only where a run reads or writes JSON.
_UNWANTED = ("dataclasses", "inspect", "logging")
_WATCHED = (*_UNWANTED, "json")

_RUN_THEN_LIST_MODULES = f"""
import sys
from portview import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(set({_WATCHED!r}) & sys.modules.keys()))
"""


def _loaded_by(*argv: str) -> list[str]:
    """The watched modules a fresh ``python -S`` holds after ``import portview.cli`` and,
    given ``argv``, one ``cli.main(argv)`` that must exit 0."""
    # -S: no site-packages hook can load a module on the package's behalf
    done = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_THEN_LIST_MODULES, *argv],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stdout
    return loaded


def test_importing_the_cli_loads_neither_logging_nor_json():
    assert _loaded_by() == []


def test_a_report_run_imports_no_unwanted_module(demo_path, tmp_path):
    # the default formats include the JSON sidecar, so json alone is loaded
    assert _loaded_by("report", "--data", str(demo_path), "--out", str(tmp_path / "out")) == ["json"]


def test_an_exact_report_without_the_sidecar_loads_no_json(demo_path, tmp_path):
    argv = ["report", "--data", str(demo_path), "--out", str(tmp_path / "out"),
            "--mode", "exact", "--formats", "csv,text"]
    assert _loaded_by(*argv) == []
    assert (tmp_path / "out" / "report.txt").is_file()
    assert not (tmp_path / "out" / "exact.json").exists()


# The demo report's ``-v`` lines, its stage times masked as ``T``: the two count lines
# carry no timing, so they are pinned byte for byte.
_DEMO_VERBOSE = b"""stage ingest: T s
stage filter: T s
borda: 2 solvers x 4 instances, 2 time-split pairs of 8
stage borda: T s
stage oracle: T s
stage mincover: T s
shapley_exact: 3 coalitions, 7-bit denominator, estimate 4e-05 s
stage shapley: T s
stage tradeoff: T s
stage thresholds: T s
stage serialize: T s
stage write: T s
"""


def test_verbose_lines_of_the_demo_report_are_pinned(demo_path, tmp_path):
    def stderr(*flags: str) -> bytes:
        done = subprocess.run(
            [sys.executable, "-S", "-m", "portview.cli", *flags, "report",
             "--data", str(demo_path), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stderr

    assert re.sub(rb"(?m)^(stage \w+): \d+\.\d{3} s$", rb"\1: T s", stderr("-v")) == _DEMO_VERBOSE
    assert stderr() == b""
