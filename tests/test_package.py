"""Package surface: every exported name resolves, every shipped config
validates and every demo script runs."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import qfock
from qfock.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# every module that declares what it exports; the command entry exports
# nothing, and importing it would set OPENBLAS_NUM_THREADS for the suite
EXPORTING = [
    name
    for name in ["qfock"]
    + [
        f"qfock.{info.name}"
        for info in pkgutil.iter_modules(qfock.__path__)
        if info.name != "__main__"
    ]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_the_shipped_configs_are_found():
    assert len(CONFIGS) == 6


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_shipped_config_validates(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_every_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


# runpy warns that the module it runs is already imported, which is the point
@pytest.mark.filterwarnings("ignore:'qfock.cli' found in sys.modules:RuntimeWarning")
def test_the_cli_module_is_not_a_command_entry(capsys):
    # the entries are `python -m qfock` and the `qfock` script, both through
    # qfock.__main__, which starts OpenBLAS on one thread; run as a script,
    # qfock.cli only defines its names
    namespace = runpy.run_module("qfock.cli", run_name="__main__")
    assert callable(namespace["main"])
    assert capsys.readouterr() == ("", "")
