"""Replay the committed golden vectors through the decoder.

Regenerate with PACTRELLIS_REGEN_GOLDEN=1 after an intentional behavior
change: ``test_replay_bits_and_metrics`` then rewrites the file with every
case's LLRs replayed through the decoder.  The file is the
cross-implementation regression anchor.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from reference_oracle import read_golden_cases, write_golden_cases

from pactrellis.decoder import DecoderConfig, decode
from pactrellis.pac_core import PacCode

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_cases.txt")


def replay(case):
    code = PacCode.rm(case.n, case.K, case.gen)
    cfg = DecoderConfig(
        sorting=case.sorting,
        list_size=case.list_size,
        metric_mode=case.metric_mode,
        combining_rule=case.combining_rule,
    )
    return decode(np.array(case.llrs), code, cfg)


def regenerate(cases, path):
    """Write the cases to path with their bits and metrics as the decoder now gives them."""
    fresh = []
    for case in cases:
        res = replay(case)
        fresh.append(replace(case, d_hat=tuple(int(b) for b in res.d_hat), metric=res.metric))
    write_golden_cases(path, fresh)


@pytest.fixture(scope="module")
def cases():
    loaded = read_golden_cases(GOLDEN_PATH)
    assert loaded, "golden file is empty"
    return loaded


def test_round_trip_through_writer(tmp_path, cases):
    path = tmp_path / "copy.txt"
    write_golden_cases(path, cases)
    assert read_golden_cases(path) == cases


def test_replay_bits_and_metrics(cases):
    if os.environ.get("PACTRELLIS_REGEN_GOLDEN"):
        regenerate(cases, GOLDEN_PATH)
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    for case in cases:
        res = replay(case)
        assert tuple(int(b) for b in res.d_hat) == case.d_hat, f"seed {case.seed}"
        assert res.metric == case.metric, f"seed {case.seed}"


def test_regeneration_reproduces_committed_file(tmp_path, cases):
    # the committed file is what regeneration writes for today's decoder, byte for byte
    path = tmp_path / "golden_cases.txt"
    regenerate(cases, path)
    assert path.read_bytes() == Path(GOLDEN_PATH).read_bytes()


def test_cases_cover_all_decoder_families(cases):
    seen = {(c.sorting, c.list_size > 1) for c in cases}
    assert seen == {("global", False), ("global", True), ("local", False), ("local", True)}
