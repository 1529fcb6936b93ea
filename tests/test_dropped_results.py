"""No call to a hysteresis-state transition may drop its result.

States are immutable values: a transition returns the new state and leaves
its argument as it was, so a call whose result is thrown away is a silent
no-op.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TRANSITIONS = {"write_cell", "apply_pulse", "settle", "_move_to",
               "reverse_branch", "accumulate_disturb"}


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def dropped_results(source: str) -> list[int]:
    """Lines of the expression statements in `source` that call a
    transition."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and _called_name(node.value.func) in TRANSITIONS]


@pytest.mark.parametrize("folder", ["src", "tests", "demos"])
def test_no_transition_result_is_dropped(folder):
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line in dropped_results(path.read_text())]
    assert found == []


def test_a_dropped_result_is_found():
    source = ("st = ferro.settle(fe, st)\n"
              "device.write_cell(dev, fe, st, 1.0, 1e-6)\n"
              "if st.p:\n"
              "    _move_to(fe, st, 0.0)\n")
    assert dropped_results(source) == [2, 4]
