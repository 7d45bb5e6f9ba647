"""Count the code lines of each module of the dpdsolve package.

Every physical line falls in exactly one class: blank (whitespace only,
inside a string or not), docstring (any other line that a module, class
or function docstring spans), code (any other line holding a token, or
spanned by a multi-line token) or comment (a line holding only a
comment). Docstrings are found with `ast`, tokens with `tokenize`, so
the counts do not move when code is reformatted inside a line.

Usage: python tools/code_lines.py [PACKAGE_DIR]  (default src/dpdsolve)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(path: Path) -> dict[str, int]:
    """Lines of `path` per class in CLASSES."""
    source = path.read_text(encoding="utf-8")
    docstring = _docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CLASSES, 0)
    for n, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            counts["blank"] += 1
        elif n in docstring:
            counts["docstring"] += 1
        elif n in code:
            counts["code"] += 1
        else:
            counts["comment"] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0] if args else Path(__file__).resolve().parents[1]
                   / "src" / "dpdsolve")
    total = dict.fromkeys(CLASSES, 0)
    print(f"{'module':18s}" + "".join(f"{c:>10s}" for c in CLASSES))
    for path in sorted(package.glob("*.py")):
        counts = classify(path)
        for c in CLASSES:
            total[c] += counts[c]
        print(f"{path.name:18s}" + "".join(f"{counts[c]:10d}" for c in CLASSES))
    print(f"{'total':18s}" + "".join(f"{total[c]:10d}" for c in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
