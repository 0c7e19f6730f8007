import os
from pathlib import Path

import numpy as np
import pytest

from pactrellis.channel import ChannelParams, awgn, bpsk_modulate, channel_llr
from pactrellis.pac_core import pac_encode

SRC = str(Path(__file__).resolve().parents[1] / "src")


def subprocess_env():
    """Environment for `python -m pactrellis` subprocesses: this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def make_trial(code, ebno_db, rng):
    """Draw a message, push it through BPSK/AWGN, return (d, channel LLRs)."""
    d = rng.integers(0, 2, size=code.K, dtype=np.int8)
    sigma2 = ChannelParams(ebno_db, code.K / code.N).sigma2
    y = awgn(bpsk_modulate(pac_encode(d, code)), sigma2, rng)
    return d, channel_llr(y, sigma2)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0DE)
