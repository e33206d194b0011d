import importlib.util
from pathlib import Path

from cayley_stiefel import cli

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproducible_outputs_commands():
    # 45 commands, each in its own output directory, each accepted by the CLI
    tool = load("reproducible_outputs")
    commands = list(tool.commands())
    assert len(commands) == 45
    assert len({tool.directory(args) for args in commands}) == 45
    parser = cli.build_parser()
    for args in commands:
        assert parser.parse_args([*args, "--reproducible"]).command == args[0]


MODULE = '''"""A module docstring,
over two lines."""

import math  # a comment after code counts

# a comment alone does not


class Shape:
    """A class docstring."""

    sides = (
        3,
    )

    def area(self):
        """A function docstring."""
        text = """a multi-line string
that is not a docstring"""
        return math.pi, text
'''


def test_code_lines_counts_a_known_module(tmp_path, capsys):
    # 9 code lines: import, class, the three lines of sides, def, the two of
    # text and return; no docstring, comment-only or blank line.  The tree
    # adds b.py's one line, and no file but *.py
    tool = load("code_lines")
    assert tool.code_lines(MODULE) == 9
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "10\n"
    assert tool.main([str(tmp_path / "missing")]) == 2
