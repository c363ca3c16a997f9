"""The README's library and command line examples run as written."""

import json
import math
import re
import shlex
from pathlib import Path

from phase_toolkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?")


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["2", "True rotation_reflection"]


def _command_line_examples():
    """(argv, shown output lines) for each `$ ` line of the Command line section."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *output = chunk.rstrip("\n").split("\n")
            examples.append((shlex.split(command), output))
    return examples


def _close(got, want, abs_tol):
    """Same document shape, each number within 1e-12 relative (or `abs_tol`)."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], abs_tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, abs_tol) for g, w in zip(got, want)))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, want, rel_tol=1e-12, abs_tol=abs_tol))
    return got == want


def _same_line(got: str, want: str) -> bool:
    numbers = [float(v) for v in _NUMBER.findall(want)]
    if want.startswith(("{", "[")):
        # json.loads of one printed line: the document was written on one line
        scale = max(map(abs, numbers), default=0.0)
        return _close(json.loads(got), json.loads(want), 1e-12 * scale)
    # a text line: the same words, and numbers within 1e-12 (the verification
    # gaps of a few ulps differ across LAPACK builds)
    return (_NUMBER.sub("#", got) == _NUMBER.sub("#", want)
            and all(math.isclose(float(g), w, rel_tol=1e-12, abs_tol=1e-12)
                    for g, w in zip(_NUMBER.findall(got), numbers)))


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _command_line_examples()
    commands = {argv[1] for argv, _ in examples if argv[0] == "phase-toolkit"}
    assert commands == {"analyze", "enumerate", "recover", "counterexample"}
    for argv, output in examples:
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(output) + "\n", encoding="utf-8")
            continue
        assert argv[0] == "phase-toolkit"
        rc = main(argv[1:])
        captured = capsys.readouterr()
        assert rc == 0, argv
        # the verification lines go to stderr before the result is written
        got = captured.err.splitlines() + captured.out.splitlines()
        assert len(got) == len(output), (argv, got)
        for line, want in zip(got, output):
            assert _same_line(line, want), (argv, line, want)
