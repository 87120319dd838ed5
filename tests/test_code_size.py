"""Code size by the count the ROADMAP quotes, and the cap on mining modules.

A *code line* is a source line that carries at least one code token:
blank lines, comment-only lines and docstrings (the leading string of a
module, class or function body) do not count; every line a code token
spans does, so a multi-line string literal that is not a docstring
counts in full.  The ROADMAP's "N code lines" figures use this count.

Run as a script for the per-package table::

    python tests/test_code_size.py [SRC_ROOT]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path
from typing import Dict, Set

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: No module under ``repro.mining`` may grow past this many code lines:
#: each role of the chunk machinery (chunks, shipping, the supervision
#: loop, the local pool) is a module a change can edit on its own.
MINING_MODULE_CAP = 400

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """How many lines of ``path`` carry a code token, docstrings excluded."""
    source = path.read_text()
    docs = _docstring_lines(ast.parse(source, str(path)))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def package_table(src: Path = SRC) -> Dict[str, int]:
    """Code lines per top-level package (or module) of ``src/repro``."""
    table: Counter = Counter()
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        table[".".join(parts[:2])] += code_lines(path)
    return dict(table)


def test_the_count_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""Module doc,\n\nthree lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One-line doc."""\n'
        '    return """a string\n'
        'that is not a doc"""\n'
    )
    assert code_lines(path) == 5


@pytest.mark.parametrize(
    "path",
    sorted((SRC / "repro" / "mining").glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_mining_module_is_over_the_cap(path):
    assert code_lines(path) <= MINING_MODULE_CAP, (
        f"{path.name} is {code_lines(path)} code lines "
        f"(cap {MINING_MODULE_CAP}): split it by role"
    )


def main(src: Path) -> None:
    table = package_table(src)
    width = max(len(name) for name in table)
    for name, lines in sorted(table.items()):
        print(f"{name:<{width}}  {lines:>6,}")
    print(f"{'total':<{width}}  {sum(table.values()):>6,}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else SRC)
