import os
from decimal import Decimal, localcontext
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


def stage_n_sums(beta_row, u_last):
    """The polar transform of all N committed bits, from a bank row and the last bit.

    The bank stores no stage-n sums: after bit N-1 its row still holds, at each
    stage s < n, the left block polar_transform(u[N - 2^{s+1} : N - 2^s]).
    Folding those blocks with u[N-1], as bit N-1's commit would, gives stage n.
    """
    x = np.array([u_last], dtype=np.int8)
    for _ in range(len(beta_row).bit_length()):  # n stages: N - 1 has n bits
        x = np.concatenate((beta_row[x.size - 1 : 2 * x.size - 1] ^ x, x))
    return x


def unpacked(sums):
    """Stored partial sums (``ScBank.beta``) in the per-stage layout, (..., N - 1).

    A bank stores the sums of stages 3 and up 8 to a byte, N/8 + 6 bytes a
    row from N = 16; up to N = 8 a row holds N - 1 <= 7 sums, one a byte,
    and is returned as it is.
    """
    if sums.shape[-1] <= 7:
        return sums
    return np.concatenate((sums[..., :7], np.unpackbits(sums[..., 7:], axis=-1)), axis=-1)


def bank_paths(bank):
    """Each path's LLRs and partial sums, copied in path order: (paths, N/4 - 1), (paths, N - 1)."""
    paths = bank._paths
    return bank._llr_rows[paths].copy(), unpacked(bank._beta_rows[paths].copy())


def exact_combine_reference(a: float, b: float) -> float:
    """2 atanh(tanh(a/2) tanh(b/2)) = ln((1 + e^(a+b)) / (e^a + e^b)) in 80-digit decimals.

    The ratio differs from 1 by about ab/2, so 80 digits leave more than 40
    correct ones for |a|, |b| >= 1e-12; rounding to a float is then exact.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        a, b = Decimal(a), Decimal(b)
        return float(((1 + (a + b).exp()) / (a.exp() + b.exp())).ln())


def log_uniform_pairs(rng, size=4000, low=-12, high=3):
    """Signed LLR pairs with magnitudes log-uniform in [10^low, 10^high]."""
    mags = 10.0 ** rng.uniform(low, high, (2, size))
    return mags * rng.choice([-1.0, 1.0], (2, size))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0DE)
