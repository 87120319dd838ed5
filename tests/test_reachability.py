"""Every module under ``src/repro`` is reachable from an entry point.

A module that only the tests import is code nobody runs, or a second
implementation of something that already has one.  This walk keeps the
next one out.  Entry points are the CLI (``repro.cli``, ``python -m
repro``), ``benchmarks/**/*.py`` and ``examples/*.py``.  Imports are read
with ``ast``, function-level (lazy) imports included.  A package
``__init__`` is followed only for the names imported from it, not for
everything it re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules no entry point reaches, each with the reason it stays.
ALLOWED_UNREACHED = {
    "repro.mining.bruteforce": (
        "the §II-A definition enumerated exhaustively: the oracle the "
        "parity suites check MackeyMiner against on small graphs"
    ),
}


def _path(module: str) -> Optional[Path]:
    base = SRC.joinpath(*module.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imports(
    path: Path, module: str = ""
) -> Iterator[Tuple[str, Optional[List[str]]]]:
    """``(module, names)`` per import in ``path``; ``names`` is None for
    a plain ``import``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.split(".")
                if path.name != "__init__.py":
                    package = package[:-1]
                package = package[: len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            yield base, [alias.name for alias in node.names]


def _reexport(package: str, name: str) -> Iterator[Tuple[str, List[str]]]:
    """Where ``package/__init__`` takes ``name`` from, if it imports it."""
    for source, names in _imports(_path(package), package):
        for imported in names or ():
            if imported in (name, "*"):
                yield source, [name]


def reached_modules() -> Set[str]:
    reached: Set[str] = set()
    seen: Set[Tuple[str, Optional[str]]] = set()

    def visit(module: str, names: Optional[List[str]]) -> None:
        if module.split(".")[0] != "repro" or _path(module) is None:
            return
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if _path(module).name != "__init__.py":
            if (module, None) not in seen:
                seen.add((module, None))
                for source, imported in _imports(_path(module), module):
                    visit(source, imported)
            return
        for name in names or ():
            if (module, name) in seen:
                continue
            seen.add((module, name))
            if _path(f"{module}.{name}") is not None:
                visit(f"{module}.{name}", None)
            for source, imported in _reexport(module, name):
                visit(source, imported)

    visit("repro.cli", None)
    visit("repro.__main__", None)
    entry_files = sorted(ROOT.glob("benchmarks/**/*.py"))
    entry_files += sorted(ROOT.glob("examples/*.py"))
    for path in entry_files:
        for source, imported in _imports(path):
            visit(source, imported)
    return reached


def all_modules() -> Set[str]:
    modules = set()
    for path in SRC.joinpath("repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return modules


def test_every_module_is_reached_from_an_entry_point():
    modules, reached = all_modules(), reached_modules()
    assert set(ALLOWED_UNREACHED) <= modules
    # An allowlisted module that became reachable leaves the list.
    assert not set(ALLOWED_UNREACHED) & reached
    unreached = modules - reached - set(ALLOWED_UNREACHED)
    assert not unreached, (
        f"reachable only from tests: {sorted(unreached)}; give them a "
        "caller outside tests/ or delete them"
    )
