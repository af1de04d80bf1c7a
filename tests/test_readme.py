"""README's examples run as written: its Python block, and its JSON config through ``validate``."""

import re
from pathlib import Path

from elopt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(language):
    """The README's one fenced code block in ``language``."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    return block


def test_python_block_runs():
    exec(compile(_block("python"), str(README), "exec"), {})


def test_json_config_validates(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(_block("json"), encoding="utf-8")
    assert main(["--config", str(path), "validate"]) == 0
    assert "valid: True" in capsys.readouterr().out
