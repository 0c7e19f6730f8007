"""Replay the committed golden vectors through the decoder.

Regenerate with PACTRELLIS_REGEN_GOLDEN=1 after an intentional behavior
change; the file is the cross-implementation regression anchor.
"""

import os

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
        pytest.skip("regeneration mode")
    for case in cases:
        res = replay(case)
        assert tuple(int(b) for b in res.d_hat) == case.d_hat, f"seed {case.seed}"
        assert res.metric == case.metric, f"seed {case.seed}"


def test_cases_cover_all_decoder_families(cases):
    seen = {(c.sorting, c.list_size > 1) for c in cases}
    assert seen == {("global", False), ("global", True), ("local", False), ("local", True)}
