"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _commented_value(comment: str):
    """The longest leading piece of a `# value, remark` comment that is a literal."""
    text = comment.lstrip("#").strip()
    cuts = [i for i, ch in enumerate(text) if ch == ","] + [len(text)]
    for cut in reversed(cuts):
        try:
            return ast.literal_eval(text[:cut])
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"README comment {comment!r} states no value")


def test_readme_library_example_values():
    source = _library_block()
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, (ast.Assign, ast.Expr)), ast.dump(stmt)
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        if isinstance(stmt, ast.Assign):
            namespace["_value"] = got
            exec(f"{ast.unparse(stmt.targets[0])} = _value", namespace)
        line = stmt.end_lineno
        assert line in comments, f"README line {line} states no value"
        assert got == _commented_value(comments[line]), ast.unparse(stmt)
        checked += 1
    assert checked == 4
