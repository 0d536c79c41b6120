"""The README's Python example runs as written, its API list is the package
root, and every name a module exports resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import conducta

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def api_section() -> str:
    start = README.index("## Python API")
    return README[start : README.index("\n## ", start + 1)]


def test_python_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", api_section(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "medium.cnda").exists()
    # print lines that carry a number in their comment must print that number
    expected = re.findall(r"^print\(.*#\s*([-+.\deE]+)", code, re.M)
    printed = capsys.readouterr().out.splitlines()
    assert len(expected) == 2
    for text, value in zip(printed, expected):
        assert float(text) == pytest.approx(float(value), rel=1e-12)


def test_api_list_is_the_package_root():
    bullets = api_section().split("exports exactly these names:\n\n")[1].split("\n\n")[0]
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(conducta.__all__)


@pytest.mark.parametrize(
    "module", ["conducta"] + [f"conducta.{m.name}" for m in pkgutil.iter_modules(conducta.__path__)]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
