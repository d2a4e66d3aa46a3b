"""The README's library quickstart and CLI examples run as written."""

import doctest
import shlex
from pathlib import Path

from almost_squares.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted == 13
    assert result.failed == 0


def _cli_examples():
    """The argv of each line of the sh block under "## CLI", with its comment dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "almost-squares" for argv in argvs)
    return [argv[1:] for argv in argvs]


def test_readme_cli_examples_run(capsys):
    # a doc example that names a removed verb or flag fails here
    examples = _cli_examples()
    assert len(examples) == 10
    for argv in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
