"""tools/code_lines.py counts what its docstring says it counts."""
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line that counts ends in "# +".
SAMPLE = '''"""Module docstring,
on two lines."""
import os  # +

X = 1  # +
"""An attribute docstring."""


class A:  # +
    """Class docstring."""

    y = 2  # +
    """Attribute docstring in a class body."""

    def f(self):  # +
        """Function docstring."""
        # a comment line
        "a bare string after the docstring is code"  # +
        return (  # +
            1  # +
        )  # +


def g():  # +
    return """a string on  # +
two lines"""  # +
'''


def test_counts_code_lines_outside_docstrings_and_comments():
    assert code_lines.code_lines(SAMPLE) == SAMPLE.count("# +\n")


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SAMPLE)
    b.write_text("x = 1\n\n# only a comment\n")
    assert code_lines.main([str(a), str(b)]) == 0
    n = SAMPLE.count("# +\n")
    assert capsys.readouterr().out.split("\n") == [f"{n:7d}  {a}", f"{1:7d}  {b}", f"{n + 1:7d}  total", ""]
