"""Package surface: every exported name resolves and every shipped config validates."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import qfock
from qfock.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
# every module that declares what it exports
EXPORTING = [
    name
    for name in ["qfock"]
    + [f"qfock.{info.name}" for info in pkgutil.iter_modules(qfock.__path__)]
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
