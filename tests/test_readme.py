"""README's examples run as written, and its Layout's account of the public API holds.

The Python block runs, the JSON config passes ``validate``, and ``import
elopt`` re-exports exactly the ``__all__`` lists of the six library modules.
"""

import re
from itertools import combinations
from pathlib import Path
from types import ModuleType

import elopt
from elopt import analysis, constructions, errors, exprs, lp_oracle, serialize, surfaces
from elopt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
LIBRARY = (analysis, constructions, errors, exprs, lp_oracle, surfaces)


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


def test_module_lists_name_their_own_distinct_objects():
    # Star imports bind a name listed twice to the later module's object,
    # silently; every name must be listed once and exist where it is listed.
    for a, b in combinations(LIBRARY, 2):
        assert set(a.__all__).isdisjoint(b.__all__), (a.__name__, b.__name__)
    for module in (*LIBRARY, serialize):
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_exports_the_library_lists():
    assert len(set(elopt.__all__)) == len(elopt.__all__)
    assert set(elopt.__all__) == {name for module in LIBRARY for name in module.__all__}
    assert set(elopt.__all__).isdisjoint(serialize.__all__)
    namespace = {}
    exec("from elopt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(elopt.__all__)
    public = {
        name
        for name, value in vars(elopt).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public <= set(elopt.__all__)
