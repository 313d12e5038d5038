"""The README's code examples run against the library as it is."""

import contextlib
import io
import json
import re
from pathlib import Path

from ncyclo.config import RunConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
