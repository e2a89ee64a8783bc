"""README examples: the "Command line" block and the "Library" block run as written.

Each ``lowpm ...`` line of the command block runs through ``cli.main`` in a
fresh working directory, in order (later commands read the files earlier
ones write), and must exit 0.  The ``#   ...`` lines indented under a
command are its stdout, line for line.  The names the Library section says
are no longer exported are absent from ``lowpm``.
"""

import re
import shlex
from pathlib import Path

import lowpm
from lowpm.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, lang: str) -> str:
    """The first ``lang`` fenced block after the ``## section`` heading."""
    match = re.search(rf"^## {section}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no {lang} block under '## {section}'"
    return match.group(1)


def readme_commands() -> list[tuple[str, list[str]]]:
    """(command line, its documented stdout lines) for each ``lowpm`` line."""
    commands: list[tuple[str, list[str]]] = []
    for line in fenced_block("Command line", "sh").splitlines():
        if line.startswith("lowpm "):
            commands.append((line, []))
        elif line.startswith("#   ") and commands:
            commands[-1][1].append(line[len("#   "):])
    return commands


def test_command_line_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for line, expected in commands:
        argv = shlex.split(line, comments=True)[1:]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if expected:
            assert out.splitlines() == expected, line


def test_library_block():
    exec(compile(fenced_block("Library", "python"), "README.md", "exec"), {})


def no_longer_exported() -> list[str]:
    """The backticked names after "no longer exported:" in the Library section,
    with each parenthesised note (what to use instead) left out."""
    library = README.split("\n## Library\n")[1]
    match = re.search(r"no longer exported:(.*?)(?:\n\n|\Z)", library, re.S)
    assert match, "README's Library section lists no names that are no longer exported"
    text, removed = match.group(1), 1
    while removed:  # innermost parentheses first, as the notes nest
        text, removed = re.subn(r"\([^()]*\)", "", text)
    return re.findall(r"`([A-Za-z_]\w*)`", text)


def test_no_longer_exported_names_stay_absent():
    names = no_longer_exported()
    assert {"Exchange", "canonical_pair_index", "iter_pairs", "lower_bound"} <= set(names)
    for name in names:
        assert not hasattr(lowpm, name), name
