"""Every module and every definition under ``src/repro`` is reachable
from an entry point.

A module or a function that only the tests call is code nobody runs, or
a second implementation of something that already has one.  These two
checks keep the next one out.  Entry points are the CLI (``repro.cli``,
``python -m repro``), ``benchmarks/**/*.py`` and ``examples/*.py``.

Modules: imports are read with ``ast``, function-level (lazy) imports
included.  A package ``__init__`` is followed only for the names
imported from it, not for everything it re-exports.

Definitions: see :func:`unreached_definitions`.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules no entry point reaches, each with the reason it stays.
ALLOWED_UNREACHED = {
    "repro.mining.bruteforce": (
        "the §II-A definition enumerated exhaustively: the oracle the "
        "parity suites check MackeyMiner against on small graphs"
    ),
}


#: Definitions no entry point names, each with the reason it stays.
ALLOWED_UNREACHED_DEFS = {
    "repro.mining.bruteforce.brute_force_count": (
        "the oracle (and, through it, brute_force_matches): the reference "
        "tests compare the miners against"
    ),
    "repro.resilience.faults.FaultPlan.raise_at": (
        "test-support API: a fault plan the chaos tests install"
    ),
    "repro.resilience.faults.FaultPlan.kill_worker": (
        "test-support API: a fault plan the chaos tests install"
    ),
    "repro.resilience.faults.FaultPlan.kill_workers": (
        "test-support API: a fault plan the chaos tests install"
    ),
    "repro.resilience.faults.FaultPlan.kill_every_worker": (
        "test-support API: a fault plan the chaos tests install"
    ),
    "repro.service.http.ServiceRequestHandler.handle": (
        "stdlib hook: socketserver.BaseRequestHandler calls it once per connection"
    ),
    "repro.service.scheduler.QueryScheduler.pause": (
        "test seam: holds dispatch so a test can fill the queue"
    ),
    "repro.service.scheduler.QueryScheduler.resume": (
        "test seam: releases what pause held"
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


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def all_modules() -> Set[str]:
    return {_module_name(p) for p in SRC.joinpath("repro").rglob("*.py")}


#: ``(qualified name, name, first line, last line)`` of one def or class.
Definition = Tuple[str, str, int, int]


def _definitions(tree: ast.AST, prefix: str) -> Iterator[Definition]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            qualname = f"{prefix}.{node.name}"
            yield qualname, node.name, node.lineno, node.end_lineno
            yield from _definitions(node, qualname)
        else:
            yield from _definitions(node, prefix)


def _names_used(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` per name used as code: a ``Name``, an
    ``Attribute`` or an imported name.  Strings never count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno


def unreached_definitions() -> Tuple[Set[str], Set[str]]:
    """``(unreached, allowlisted but reached)`` qualified names.

    A function, class or method under ``src/repro`` is reached if its
    name is used as code in ``benchmarks/**/*.py`` or ``examples/*.py``,
    or in ``src/repro`` outside its own body and outside every
    unreached definition (so the scan is transitive: what only dead
    code calls is dead too).  Dunder methods are exempt, and an
    allowlisted definition counts as reached for what its body calls.

    The check is by name, not by binding: a dead definition that shares
    its name with a live one (``run``, ``close``) slips through.  It
    never flags a definition that is called by name, only code that is
    called by no name at all (a stdlib hook, a ``getattr`` by string) or
    that only tests call.
    """
    entry_names = set()
    entry_files = sorted(ROOT.glob("benchmarks/**/*.py"))
    entry_files += sorted(ROOT.glob("examples/*.py"))
    for path in entry_files:
        tree = ast.parse(path.read_text(), str(path))
        entry_names.update(name for name, _ in _names_used(tree))
    defs: List[Tuple[str, Definition]] = []
    uses: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for path in sorted(SRC.joinpath("repro").rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), str(path))
        defs += [(module, d) for d in _definitions(tree, module)]
        for name, line in _names_used(tree):
            uses[name].append((module, line))

    def named(definition: Definition, module: str, dead_spans) -> bool:
        _, name, first, last = definition
        return name in entry_names or any(
            not (where == module and first <= line <= last)
            and not any(
                where == m and lo <= line <= hi for m, lo, hi in dead_spans
            )
            for where, line in uses[name]
        )

    dead: Set[str] = set()
    while True:
        spans = [(m, d[2], d[3]) for m, d in defs if d[0] in dead]
        now = {
            d[0]
            for m, d in defs
            if not (d[1].startswith("__") and d[1].endswith("__"))
            and d[0] not in ALLOWED_UNREACHED_DEFS
            and not named(d, m, spans)
        }
        if now == dead:
            break
        dead = now
    stale = set(ALLOWED_UNREACHED_DEFS) - {
        d[0] for m, d in defs if not named(d, m, spans)
    }
    return dead, stale


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


def test_every_definition_is_reached_from_an_entry_point():
    unreached, stale = unreached_definitions()
    assert all(reason.strip() for reason in ALLOWED_UNREACHED_DEFS.values())
    # An allowlisted definition that is gone, or that got a caller,
    # leaves the list.
    assert not stale, f"allowlisted but reached or gone: {sorted(stale)}"
    assert not unreached, (
        f"named only by tests: {sorted(unreached)}; give them a caller "
        "outside tests/, delete them, or allowlist them with a reason"
    )
