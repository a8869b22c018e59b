"""README drift guard: its quick tour and its command block still run and
still give the values its comments state."""

import ast
import re
import shlex
from pathlib import Path

from epsdelta.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(section: str, language: str) -> str:
    """The first ``language`` code block after the heading ``section``."""
    m = re.search(rf"^## {section}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert m, f"no {language} block under '## {section}'"
    return m.group(1)


def tour_values() -> list[tuple[object, str]]:
    """Run the quick tour one statement at a time: the value of each bare
    expression, with the comment on its line."""
    source = block("Quick tour", "python")
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown.append((value, lines[stmt.lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return shown


def test_quick_tour_gives_the_values_its_comments_state():
    (saw_exact, saw_grid, square, top, bound, bracket, fixed) = tour_values()
    numbers = [saw_exact, saw_grid, square, top]
    assert [v for v, _ in numbers] == [0.1, 0.09999999999999998, 0.09999999999999998, 1.0]
    for value, comment in numbers:
        assert re.match(r"[0-9.]+", comment).group() == repr(value), comment
    # M_n plus a modulus, which is never negative
    assert bound[0] >= top[0]
    a, b = bracket[0]
    assert b - a == 2.0 * 2.0 ** -20
    assert a <= 2.0 ** (1.0 / 3.0) <= b
    assert abs(fixed[0] - 0.7390851332151607) <= 1e-12
    assert fixed[1].startswith("0.739085133215")


def test_every_readme_command_succeeds(capsys):
    commands = [line for line in block("Command line", "sh").splitlines()
                if line.startswith("epsdelta ")]
    assert commands
    for line in commands:
        code = run(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        assert out, line
