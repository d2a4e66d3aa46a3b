"""Print the code lines and public names of each module under src/almost_squares.

A code line is a physical line that holds a token of code: comments,
blank lines and docstrings (of the module, a class or a function) do not
count, and a statement spread over several lines counts each of them.
A module's public names are those of its __all__, read from the source
by ast, not by import; an entry *mod.__all__ counts the names of the
sibling module mod, as the package root re-exports core and oracle so.
The total line counts each public name once.  Only the standard library
is used.

Run from the repository root:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "almost_squares"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def public_names(tree: ast.Module, siblings: dict[str, list[str]]) -> list[str]:
    """The names of a module's __all__ list, with *mod.__all__ read from siblings."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names: list[str] = []
            for elt in node.value.elts:
                if isinstance(elt, ast.Starred):
                    names += siblings[elt.value.value.id]
                else:
                    names.append(elt.value)
            return names
    return []


def main() -> int:
    # the root re-exports its siblings' names, so it is read after them
    paths = sorted(PACKAGE.glob("*.py"), key=lambda path: (path.name == "__init__.py", path.name))
    publics: dict[str, list[str]] = {}
    rows = []
    for path in paths:
        source = path.read_text(encoding="utf-8")
        publics[path.stem] = public_names(ast.parse(source), publics)
        rows.append((path.name, code_lines(source), len(publics[path.stem])))
    print(f"{'lines':>6}  {'public':>6}  module")
    for name, lines, public in sorted(rows):
        print(f"{lines:6d}  {public:6d}  {name}")
    total_public = len({name for names in publics.values() for name in names})
    print(f"{sum(row[1] for row in rows):6d}  {total_public:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
