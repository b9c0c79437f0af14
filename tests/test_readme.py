"""README guard: documented commands parse, the library example runs and the
package exports match its imports."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from ledgerlens.cli import _build_parser, run

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _commands():
    """Every `ledgerlens ...` command of the README's sh blocks, with
    backslash continuations joined and comments dropped."""
    out = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["ledgerlens"]:
                out.append(argv[1:])
    return out


def test_readme_has_commands():
    assert len(_commands()) >= 6


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: " ".join(argv[:3]))
def test_readme_command_parses(argv):
    _build_parser().parse_args(argv)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    assert run(["synth", "--seed", "7", "--days", "12", "--txs-per-day", "30",
                "--pool", "25", "--out", "chain.jsonl"]) == 0
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_exports_match_imports():
    # Every name in __all__ resolves, and every public name __init__ imports
    # is exported, so a trimmed API cannot leave a dangling export.
    import ledgerlens

    source = Path(ledgerlens.__file__).read_text()
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert all(hasattr(ledgerlens, name) for name in ledgerlens.__all__)
    assert {n for n in imported if not n.startswith("_")} <= set(ledgerlens.__all__)
