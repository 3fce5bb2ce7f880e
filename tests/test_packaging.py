"""The package metadata installs the ``loupe`` command that the README
and CI drive."""

import importlib
import tomllib
from pathlib import Path

import repro.cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_loupe_entry_point_resolves_to_cli_main():
    metadata = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    target = metadata["project"]["scripts"]["loupe"]
    module_name, _, attribute = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attribute)
    assert entry is repro.cli.main
