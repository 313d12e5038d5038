"""The README's code examples run against the library as it is."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from ncyclo.cli import main
from ncyclo.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after a markdown heading."""
    section = README.split(heading + "\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(fenced_block("## Library quick start", "python"), {})
    assert "(1001, 3) 10.0" in out.getvalue()


def test_config_schema_example_loads():
    # Every documented key, a null one too, must be a key of the config; the
    # parsed config serializes back to the non-null entries.
    text = re.sub(r"[ \t]*//.*", "", fenced_block("### Config schema", "json"))
    data = json.loads(text)
    config = RunConfig.from_dict(data)
    assert config.to_dict() == {key: value for key, value in data.items() if value is not None}


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # Every documented command runs from a fresh directory: its config path
    # is read from the repo root, and a relative --out lands in that directory.
    monkeypatch.chdir(tmp_path)
    lines = [line for line in fenced_block("## Command line", "sh").splitlines()
             if line.startswith("ncyclo ")]
    assert len(lines) == 4
    for line in lines:
        argv = shlex.split(line)[1:]
        at = argv.index("--config") + 1
        argv[at] = str(ROOT / argv[at])
        assert main(argv) == 0, line
        assert capsys.readouterr().err == "", line
    assert sorted(path.name for path in tmp_path.iterdir()) == ["trajectory.csv"]
