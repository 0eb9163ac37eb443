import importlib.util

from conftest import REPO_ROOT


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines", REPO_ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class Shape:
    """Class docstring."""

    sides = (1,
             2)

    def area(self):
        """Method
        docstring."""
        note = """a string that is
        not a docstring"""
        return math.pi
'''


def test_counts_code_but_not_blanks_comments_or_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, sides (2 lines), def, note (2 lines), return
    assert load_tool().code_lines(path) == 8
