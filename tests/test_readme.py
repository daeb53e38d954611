"""The README's library quick start runs and prints what its comments say."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments(capsys):
    code = quick_start()
    commented = [line.split("#", 1)[1].strip() for line in code.splitlines()
                 if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == commented
    assert commented == ["Q[Z/2] graded by 0 False",
                         "monic 2; a1 = -e(0); a2 = 0"]
