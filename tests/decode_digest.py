"""Print one digest of many decodes, to check that a change leaves every output byte as it was.

Run from a source checkout:

    PYTHONPATH=src python tests/decode_digest.py

It decodes a fixed grid through the public API alone and prints the number of
``decode`` calls and frames, then the md5 of each ``DecodeResult`` field over
all calls, in order.  Two trees that print the same lines decoded the grid
byte for byte alike.  The grid:

- codes of N = 1 .. 32 with random rate profiles, RM PAC(32,16), RM
  PAC(128,64) with generators 0o133 and 0o73, a random PAC(64,20) and RM
  PAC(1024,512);
- SC, SCL-8, VA and LVA-2, each under three pairs of metric and combining
  rules (one of them mixed, which decodes bit by bit);
- each as one-frame calls and as a 3-frame batch;
- the channel LLRs as drawn, times 40 and rounded to integers (ties).

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from pactrellis import (ChannelParams, DecoderConfig, PacCode, awgn, bpsk_modulate, channel_llr,
                        decode, pac_encode)

FIELDS = ("d_hat", "v_hat", "u_hat", "metric", "survivor_metrics")
RULES = (("approximate", "min-sum"), ("exact", "exact"), ("exact", "min-sum"))
DECODERS = (("global", 1), ("global", 8), ("local", 1), ("local", 2))
FRAMES = 3  # a batch's frames; each is also decoded in a call of its own


def codes() -> list:
    rng = np.random.default_rng(29)
    grid = []
    for n in range(6):
        N = 1 << n
        K = int(rng.integers(1, N + 1))
        grid.append(PacCode(n, K, rng.choice(N, K, replace=False), 0o7))
    grid += [PacCode.rm(5, 16, 0o133), PacCode.rm(7, 64, 0o133), PacCode.rm(7, 64, 0o73),
             PacCode(6, 20, rng.choice(64, 20, replace=False), 0o133), PacCode.rm(10, 512, 0o133)]
    return grid


def frames(code: PacCode, seed: int) -> np.ndarray:
    """``FRAMES`` frames of channel LLRs at 1.5 dB."""
    rng = np.random.default_rng(seed)
    sigma2 = ChannelParams(1.5, code.K / code.N).sigma2
    rows = []
    for _ in range(FRAMES):
        d = rng.integers(0, 2, code.K, dtype=np.int8)
        rows.append(channel_llr(awgn(bpsk_modulate(pac_encode(d, code)), sigma2, rng), sigma2))
    return np.stack(rows)


def main() -> int:
    digests = {name: hashlib.md5() for name in FIELDS}
    calls = decoded = 0
    for seed, code in enumerate(codes()):
        raw = frames(code, seed)
        for llrs in (raw, 40 * raw, np.round(raw)):
            for metric, rule in RULES:
                for sorting, size in DECODERS:
                    config = DecoderConfig(sorting, size, metric, rule)
                    for x in (llrs, *llrs):  # the batch, then each frame alone
                        result = decode(x, code, config)
                        calls, decoded = calls + 1, decoded + (x.shape[0] if x.ndim == 2 else 1)
                        for name in FIELDS:
                            value = np.asarray(getattr(result, name))
                            digests[name].update(f"{value.dtype.str}{value.shape}".encode())
                            digests[name].update(np.ascontiguousarray(value).tobytes())
    print(f"decode calls {calls}, frames {decoded}")
    for name in FIELDS:
        print(f"{name:17s}{digests[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
