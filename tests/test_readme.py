"""The README's Quick start block runs and returns what its comments say."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

from modelpot import PropertyTag

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_quick_start():
    """Run the block statement by statement.  Returns the ``(comment,
    value)`` pair of every bare expression, the comment being the one on
    its last line or on the comment-only line right after it, and the
    block's namespace."""
    src = quick_start_block()
    lines = src.splitlines()
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(src).readline)
                if tok.type == tokenize.COMMENT}
    ns = {}
    promises = []
    for node in ast.parse(src).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), ns)
            n = node.end_lineno
            promise = comments.get(n)
            if promise is None and lines[n].lstrip().startswith("#"):
                promise = comments[n + 1]
            promises.append((promise, value))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md",
                         "exec"), ns)
    return promises, ns


def test_quick_start_keeps_its_promises():
    promises, ns = run_quick_start()
    by_promise = dict(promises)
    assert len(by_promise) == len(promises) == 5
    assert by_promise.pop("PropertyTag.PARABOLIC") is PropertyTag.PARABOLIC
    assert by_promise.pop("PropertyTag.NON_PARABOLIC") \
        is PropertyTag.NON_PARABOLIC
    assert by_promise.pop("PropertyTag.KL_HOLDS") is PropertyTag.KL_HOLDS
    assert by_promise.pop("~0.087 (scale c = 1/8)") \
        == pytest.approx(0.087, abs=5e-4)
    assert ns["res"].c_final == 1 / 8
    assert by_promise.pop('"PotentialBuilt"') == "PotentialBuilt"
    assert not by_promise
