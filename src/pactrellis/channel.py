"""BPSK modulation, AWGN, and channel LLRs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ChannelParams", "bpsk_modulate", "awgn", "channel_llr"]


@dataclass(frozen=True)
class ChannelParams:
    """Operating point: Eb/N0 in dB and code rate, with the implied noise variance.

    Unit-energy BPSK gives sigma^2 = 1 / (2 R 10^(EbN0/10)) per real dimension.
    """

    ebno_db: float
    rate: float
    sigma2: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ValueError(f"rate must lie in (0, 1], got {self.rate}")
        object.__setattr__(
            self, "sigma2", 1.0 / (2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0))
        )


def bpsk_modulate(x) -> np.ndarray:
    """Map bits to antipodal symbols: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(x, dtype=float)


def awgn(symbols, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian noise of variance sigma2, drawn from the given generator.

    The draw is pinned to ``sqrt(sigma2) * rng.standard_normal(len(symbols))``
    so that a seeded generator reproduces the identical noise sequence.
    """
    s = np.asarray(symbols, dtype=float)
    if sigma2 < 0:
        raise ValueError(f"noise variance must be nonnegative, got {sigma2}")
    return s + np.sqrt(sigma2) * rng.standard_normal(s.size)


def channel_llr(y, sigma2: float) -> np.ndarray:
    """Channel LLRs for unit-energy BPSK over AWGN: 2 y / sigma^2."""
    if sigma2 <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma2}")
    return 2.0 * np.asarray(y, dtype=float) / sigma2
