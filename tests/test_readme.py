"""The README's library example and command-line examples print what the
README shows."""

import inspect
import re
import shlex
from pathlib import Path

import lucasprod
from lucasprod.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_and_exports():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", text, re.S).group(1)
    printed = {}

    def record(*args):
        line = inspect.currentframe().f_back.f_lineno
        printed.setdefault(line, []).append(" ".join(map(str, args)))

    exec(compile(block, "README.md", "exec"), {"print": record})
    checked = 0
    for lineno, line in enumerate(block.splitlines(), start=1):
        match = re.match(r"print\(.*\)\s+# (.+)$", line)
        if match is None:
            continue
        want = match.group(1)
        (got,) = printed[lineno]
        assert got.startswith(want[:-3]) if want.endswith("...") else got == want, line
        checked += 1
    assert checked == 4
    for name in lucasprod.__all__:
        assert hasattr(lucasprod, name), name


def test_readme_cli_examples(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") : text.index("### JSON output")]
    examples = re.findall(r"^\$ lucasprod (.+)\n((?:(?!```).+\n)*)", section, re.M)
    assert [shlex.split(argv)[0] for argv, _ in examples] == [
        "solve", "verify", "admissible", "primitive", "abc-quality"
    ]
    for argv, want in examples:
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == want, argv
