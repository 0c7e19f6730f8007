"""The package's public surface: every exported name exists, test-only code stays out, and
the names the benchmark's tracer wraps resolve."""

import ast
import importlib
import importlib.util
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import pactrellis
from pactrellis import decoder
from pactrellis.pac_core import PacCode
from pactrellis.sc_engine import ScBank

MODULES = ["channel", "decoder", "pac_core", "sc_engine", "schedule", "sim", "sorter"]
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


def test_no_module_imports_another_modules_private_name():
    # what one module needs of another is public: listed in that module's __all__
    for path in sorted(Path(pactrellis.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("pactrellis")):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


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
    bank.update_llrs()
    bank.take([0, 0, 0])
    counts = defaultdict(int)
    load_tracing()._bank_after(None, (bank,), counts)
    # three rows of 1 LLR (8 bytes) and 7 partial sums (1 byte each, none packed at N = 8)
    assert counts["sc_engine.bytes_copied"] == 3 * (1 * 8 + 7)
    # at N = 1024 the sums of stages 3 and up are stored 8 to a byte: the hook counts the
    # stored bytes, 255 LLRs and 7 + 127 sum bytes a row, and copies no row to count them
    bank = ScBank(np.ones((3, 1024)), capacity=12)
    bank.update_llrs()
    bank.take(np.repeat(np.arange(3), 4))
    counts = defaultdict(int)
    hook = load_tracing()._bank_after
    tracemalloc.start()
    try:
        hook(None, (bank,), counts)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts["sc_engine.bytes_copied"] == bank.llr.nbytes + 12 * (7 + 127)
    assert bank.llr.nbytes == 12 * 255 * 8 and np.shares_memory(bank.beta, bank._beta_buf)
    assert allocated < 1024, allocated  # two views; the unpacked sums alone are 12,276 bytes


@pytest.mark.parametrize("frames", [1, 3])
def test_decode_calls_every_traced_engine_layer(frames):
    # a traced run reads a layer that decode no longer calls as "not exercised"; on a code
    # with Rate-0 and REP nodes, under a budget it outgrows, decode calls every decoder and
    # bank function the tracer wraps, one frame or a batch
    tracing = load_tracing()
    engine = ("pactrellis.decoder", "pactrellis.sc_engine")
    layers = [name for name, modname, *_ in tracing.LAYERS
              if modname in engine and name not in GONE_LAYERS]
    code = PacCode(6, 32, np.random.default_rng(3).choice(64, 32, replace=False), 0o133)
    llrs = np.random.default_rng(4).normal(1.0, 1.0, (frames, code.N))
    tracer = tracing.Tracer()
    with tracer:
        # through the module, as a caller in the package reaches it
        decoder.decode(llrs[0] if frames == 1 else llrs, code, decoder.DecoderConfig("local", 2))
    assert tracer.absent <= GONE_LAYERS  # every count hook ran, too
    assert [name for name in layers if not tracer.calls[name]] == []
