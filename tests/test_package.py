"""The package's public names, and the README's library example."""

import io
from contextlib import redirect_stdout
from pathlib import Path

import tapcheck

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
