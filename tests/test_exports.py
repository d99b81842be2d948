"""Every exported name resolves, so a deletion cannot leave a dangling entry."""

import importlib
from pathlib import Path

import pytest

import qschub

MODULES = ["roots", "weyl", "parabolic", "quantum", "grassmann", "checks", "cli"]


@pytest.mark.parametrize("module", ["qschub"] + [f"qschub.{m}" for m in MODULES])
def test_star_import_brings_every_exported_name(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"
    namespace = {}
    exec(f"from {module} import *", namespace)  # raises on a dangling entry
    assert set(mod.__all__) <= set(namespace)


def test_every_module_is_listed():
    # __main__ is the `python -m qschub` entry point and exports nothing
    found = {p.stem for p in Path(qschub.__file__).parent.glob("*.py")}
    assert found - {"__init__", "__main__"} == set(MODULES)
