"""The package's public surface: every exported name exists, and test-only code stays out."""

import importlib
import importlib.util

import pytest

import pactrellis

MODULES = ["channel", "decoder", "pac_core", "sc_engine", "sim", "sorter"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pactrellis.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"pactrellis.{name}.__all__ names missing {attr!r}"


def test_package_exports_resolve():
    for attr in pactrellis.__all__:
        assert hasattr(pactrellis, attr), f"pactrellis.__all__ names missing {attr!r}"


def test_reference_oracle_is_not_shipped():
    assert importlib.util.find_spec("pactrellis.reference_oracle") is None
