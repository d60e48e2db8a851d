"""The package's public names, its console-script entry, the Python 3.10
grammar of every source file, and the README's library example."""

import ast
import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import tapcheck
from tapcheck import cli

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [name for name in tapcheck.__all__
            if not hasattr(tapcheck, name)] == []
    assert len(set(tapcheck.__all__)) == len(tapcheck.__all__)


def test_readme_library_example_runs(monkeypatch):
    # The example runs as written from the root of a checkout.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example")[1].split("```python\n")[1]
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code.split("```")[0], {})
    assert out.getvalue() == (
        "5 C1 controllers fire_ctrl and water_ctrl both drive alarm_main\n"
        "9 C7 sensor smoke1 repeated value 1 after 4 tick(s)\n")


def _table(text: str, name: str) -> dict[str, str]:
    """The ``key = "value"`` lines of one TOML table, read by hand:
    Python 3.10 has no ``tomllib``."""
    lines = text.split(f"\n[{name}]\n", 1)[1].split("\n[", 1)[0]
    return {key.strip(): value.strip().strip('"') for key, value in
            (line.split("=", 1) for line in lines.splitlines()
             if line.strip() and not line.startswith("#"))}


def test_console_script_names_cli_main():
    # The console script is not installed to run the suite, so this is
    # the only check here that ``tapcheck`` runs ``cli.main``.
    scripts = _table((ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                     "project.scripts")
    assert scripts == {"tapcheck": "tapcheck.cli:main"}
    module, name = scripts["tapcheck"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_every_source_parses_as_python_3_10():
    # The oldest Python the package supports, which the suite may not run
    # under.
    paths = sorted(path for top in ("src", "tests", "bench", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
