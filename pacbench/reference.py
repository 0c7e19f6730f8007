"""Reference computations for the benchmark's output checks.

Nothing here imports pactrellis.  Each formula is written out again from the
code's definition and from the README's RNG contract, so that a fault shared
by the program and its check cannot hide.
"""

from __future__ import annotations

import numpy as np

KERNEL = np.array([[1, 0], [1, 1]], dtype=np.int8)


def gen_coeffs(gen: int) -> np.ndarray:
    """Generator coefficients g_0 .. g_m, the octal value read MSB first (0o133 -> 1011011)."""
    return np.array([int(c) for c in bin(gen)[2:]], dtype=np.int8)


def rm_info_set(n: int, K: int) -> np.ndarray:
    """The K indices of largest binary weight, ties going to the larger index, ascending."""
    ranked = sorted(range(1 << n), key=lambda i: (bin(i).count("1"), i), reverse=True)
    return np.array(sorted(ranked[:K]), dtype=np.int64)


def conv_gf2(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """u_i = sum_j g_j v_{i-j} mod 2 from the all-zero state, along the last axis."""
    u = np.zeros_like(v)
    N = v.shape[-1]
    for j, gj in enumerate(g):
        if gj:
            u[..., j:] ^= v[..., : N - j]
    return u


def sigma2(ebno_db: float, K: int, N: int) -> float:
    """Noise variance of unit-energy BPSK at Eb/N0 for rate K/N."""
    return 1.0 / (2.0 * (K / N) * 10.0 ** (ebno_db / 10.0))


def draw(seed: int, snr_index: int, trial_index: int, K: int, N: int, var: float):
    """Message bits and noise of one trial, in the README's pinned Philox order."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, trial_index, snr_index, 0]))
    d = rng.integers(0, 2, size=K, dtype=np.int8)
    return d, np.sqrt(var) * rng.standard_normal(N)


def channel_llrs(x: np.ndarray, noise: np.ndarray, var: float) -> np.ndarray:
    """LLRs 2y/sigma^2 of y = BPSK(x) + noise."""
    return 2.0 * ((1.0 - 2.0 * x) + noise) / var


def _minsum_f(a, b):
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _sc_decision_llrs(llr: np.ndarray, u: np.ndarray):
    """Decision LLRs of every bit when SC is forced along u, and the polar transform of u.

    Rows are frames.  The block x = ((u1 + u2) F', u2 F') is split in halves:
    bit LLRs of the first half come from the min-sum check-node rule, those of
    the second half from the variable-node rule given the first half's code bits.
    """
    N = llr.shape[1]
    if N == 1:
        return llr, u
    h = N // 2
    a, b = llr[:, :h], llr[:, h:]
    lam1, c1 = _sc_decision_llrs(_minsum_f(a, b), u[:, :h])
    lam2, c2 = _sc_decision_llrs(b + (1.0 - 2.0 * c1) * a, u[:, h:])
    return np.concatenate([lam1, lam2], axis=1), np.concatenate([c1 ^ c2, c2], axis=1)


def forced_path_metric(llr: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Approximate-metric SC path metric of bit rows u: sum of |lambda_t| where u_t disagrees."""
    lam, _ = _sc_decision_llrs(np.asarray(llr, dtype=float), np.asarray(u, dtype=np.int8))
    penalty = np.where(u == (lam <= 0), 0.0, np.abs(lam))
    total = np.zeros(llr.shape[0])
    for t in range(llr.shape[1]):  # bit order, as a decoder accumulates it
        total += penalty[:, t]
    return total


def clopper_pearson(k: int, n: int, level: float = 0.95):
    """Two-sided Clopper-Pearson interval for k successes in n trials."""
    from scipy.stats import beta

    alpha = 1.0 - level
    low = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, n - k + 1))
    high = 1.0 if k == n else float(beta.ppf(1 - alpha / 2, k + 1, n - k))
    return low, high


class Reference:
    """Independent model of one PAC code: information set, generator matrix, checks."""

    def __init__(self, n: int, K: int, gen: int):
        self.n, self.K, self.N = n, K, 1 << n
        self.g = gen_coeffs(gen)
        self.info_set = rm_info_set(n, K)
        self.frozen = np.ones(self.N, dtype=bool)
        self.frozen[self.info_set] = False
        # G_A: the rows of T_g F^{(x)n} at the information set.  T_g carries g_j on its
        # j-th superdiagonal, so row a of the product is the sum over GF(2) of the rows
        # a + j of F^{(x)n} with g_j = 1; summing those rows keeps memory at O(K N).
        F = np.ones((1, 1), dtype=np.int8)
        for _ in range(n):
            F = np.kron(F, KERNEL)
        G_A = np.zeros((K, self.N), dtype=np.int8)
        for j in np.flatnonzero(self.g):
            rows = self.info_set + j
            inside = rows < self.N
            G_A[inside] ^= F[rows[inside]]
        self.G_A = G_A.astype(np.int16)  # d G_A sums at most K ones

    def encode(self, d: np.ndarray) -> np.ndarray:
        """Codeword(s) d G_A mod 2."""
        return ((np.asarray(d, dtype=np.int16) @ self.G_A) % 2).astype(np.int8)

    def decode_faults(self, llr, d_hat, v_hat, u_hat, metric) -> list:
        """Faults of decoder outputs (rows = frames) under the approximate metric and min-sum.

        Returns one list of fault strings per frame (empty when the frame passes).
        """
        faults = [[] for _ in range(len(metric))]

        def flag(rows, text):
            for r in np.flatnonzero(rows):
                faults[r].append(text)

        flag((v_hat[:, self.frozen] != 0).any(axis=1), "v_hat is nonzero on a frozen index")
        flag((d_hat != v_hat[:, self.info_set]).any(axis=1), "d_hat is not v_hat on the information set")
        flag((u_hat != conv_gf2(v_hat, self.g)).any(axis=1), "u_hat is not the convolution of v_hat")
        expected = forced_path_metric(llr, u_hat)
        flag(~np.isclose(metric, expected, rtol=1e-9, atol=1e-9),
             "winner metric differs from the forced-path metric of u_hat")
        return faults
