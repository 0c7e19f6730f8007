"""The package's public surface: every exported name exists, test-only code stays out, and
the names the benchmark's tracer wraps resolve."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import pactrellis
from pactrellis.sc_engine import ScBank

MODULES = ["channel", "decoder", "pac_core", "sc_engine", "sim", "sorter"]
TRACING = Path(__file__).resolve().parents[1] / "pacbench" / "tracing.py"
# traced layers whose function is gone on purpose: take replaced ScBank.duplicate
GONE_LAYERS = {"sc_engine.duplicate"}


def load_tracing():
    """pacbench/tracing.py, loaded by path: it is a script directory, not a package."""
    spec = importlib.util.spec_from_file_location("pacbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_traced_layers_resolve():
    # the tracer wraps these by module attribute; a renamed one would only report "absent"
    for name, modname, attr, _ in load_tracing().LAYERS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if name in GONE_LAYERS:
            assert not callable(owner), f"{name} resolves again: drop it from GONE_LAYERS"
        else:
            assert callable(owner), f"{name}: {modname}.{attr} does not resolve"


def test_bank_copy_count_reads_a_real_bank():
    bank = ScBank(np.ones(8), capacity=4)
    bank.update_llrs(0)
    bank.take([0, 0, 0])
    counts = defaultdict(int)
    load_tracing()._bank_after(None, (bank,), counts)
    # three rows of 7 LLRs (8 bytes each) and 7 partial sums (1 byte each)
    assert counts["sc_engine.bytes_copied"] == 3 * 7 * (8 + 1)
