"""Code construction and encoding: rate profiling, convolutional pre-transform, polar transform.

A codeword is produced in three steps: the K message bits are placed at the
information positions of a length-N vector (rate profiling), that vector is
scrambled by a one-to-one convolutional transform, and the result is mapped
through the binary polar (Kronecker) transform.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PacCode",
    "parse_gen",
    "gen_octal",
    "rm_rate_profile",
    "rate_profile_insert",
    "conv_transform",
    "conv_inverse",
    "polar_transform",
    "pac_encode",
    "parity_table",
    "parse_profile",
    "parse_code_spec",
    "load_code_spec",
]


def parse_gen(gen) -> tuple:
    """Normalize a generator polynomial to a coefficient tuple (g_0 first).

    Accepts an octal integer literal (``0o133``), a string (``"0o133"`` or
    ``"133"``, read as octal), or an explicit 0/1 coefficient sequence.
    The octal value is expanded MSB-first, so 0o133 -> 1011011 ->
    (1, 0, 1, 1, 0, 1, 1), i.e. memory m = 6.
    """
    if isinstance(gen, str):
        coeffs = tuple(int(c) for c in bin(int(gen.strip().lower(), 8))[2:])
    elif isinstance(gen, (int, np.integer)):
        if gen <= 0:
            raise ValueError(f"generator value must be positive, got {gen}")
        coeffs = tuple(int(c) for c in bin(int(gen))[2:])
    else:
        coeffs = tuple(int(c) for c in gen)
    if not coeffs:
        raise ValueError("generator polynomial is empty")
    if any(c not in (0, 1) for c in coeffs):
        raise ValueError(f"generator coefficients must be binary, got {coeffs}")
    if coeffs[0] != 1 or coeffs[-1] != 1:
        raise ValueError(f"generator must be monic with g_0 = g_m = 1, got {coeffs}")
    return coeffs


def gen_octal(g) -> str:
    """Octal string form of a coefficient tuple, e.g. (1,0,1,1,0,1,1) -> '0o133'."""
    value = 0
    for c in g:
        value = (value << 1) | int(c)
    return oct(value)


@dataclass(frozen=True)
class PacCode:
    """A PAC code: block length N = 2^n, dimension K, information set A, generator g.

    Parameters
    ----------
    n : int
        Log2 of the block length.
    K : int
        Number of message bits, 0 < K <= N.
    A : tuple of int
        Information set: K distinct indices in [0, N), kept in ascending order.
    g : tuple of int
        Convolutional generator coefficients, g_0 first, with g_0 = g_m = 1.
    """

    n: int
    K: int
    A: tuple
    g: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        N = 1 << self.n
        if not 0 < self.K <= N:
            raise ValueError(f"K must satisfy 0 < K <= {N}, got {self.K}")
        A = tuple(sorted(int(a) for a in self.A))
        if len(A) != self.K or len(set(A)) != self.K:
            raise ValueError(f"information set must hold {self.K} distinct indices")
        if A and (A[0] < 0 or A[-1] >= N):
            raise ValueError(f"information set indices must lie in [0, {N})")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "g", parse_gen(self.g))

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def m(self) -> int:
        """Memory order of the convolutional transform."""
        return len(self.g) - 1

    @property
    def constraint_length(self) -> int:
        return self.m + 1

    @property
    def gen_octal(self) -> str:
        return gen_octal(self.g)

    @classmethod
    def rm(cls, n: int, K: int, gen) -> "PacCode":
        """Construct a code with the Hamming-weight (Reed-Muller style) rate profile."""
        return cls(n=n, K=K, A=rm_rate_profile(n, K), g=gen)


def rm_rate_profile(n: int, K: int) -> tuple:
    """Select the K information positions with the largest binary Hamming weight.

    Indices in [0, 2^n) are ranked by the weight of their binary expansion;
    at the boundary weight, ties go to the larger index. The resulting sets
    are nested: the profile for K is a subset of the profile for K + 1.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    N = 1 << n
    if not 0 < K <= N:
        raise ValueError(f"K must satisfy 0 < K <= {N}, got {K}")
    idx = np.arange(N, dtype=np.uint32)
    weight = np.bitwise_count(idx)
    # primary key: weight descending; secondary: index descending
    order = np.lexsort((-idx.astype(np.int64), -weight.astype(np.int64)))
    return tuple(sorted(int(i) for i in order[:K]))


def rate_profile_insert(d, A, N: int) -> np.ndarray:
    """Spread the message bits d over the positions A of a zero vector of length N.

    An array of several axes holds one message per row of its last axis.
    """
    d = np.asarray(d, dtype=np.int8)
    A = sorted(int(a) for a in A)
    if d.shape[-1:] != (len(A),):
        raise ValueError(f"message length {d.shape} does not match |A| = {len(A)}")
    if A and (A[0] < 0 or A[-1] >= N):
        raise ValueError(f"profile indices must lie in [0, {N})")
    v = np.zeros((*d.shape[:-1], N), dtype=np.int8)
    v[..., A] = d
    return v


def conv_transform(v, g) -> np.ndarray:
    """Convolve the input with g over GF(2) from the all-zero state, truncated to len(v).

    An array of several axes is convolved along its last.
    """
    v = np.array(v, dtype=np.int8, ndmin=1)
    u = v.copy()
    for i, tap in enumerate(parse_gen(g)[1 : v.shape[-1]], 1):
        if tap:
            u[..., i:] ^= v[..., :-i]
    return u


def conv_inverse(u, g) -> np.ndarray:
    """Invert conv_transform by forward substitution (valid because g_0 = 1)."""
    u = np.asarray(u, dtype=np.int8)
    g = parse_gen(g)
    m = len(g) - 1
    tab = parity_table(g)
    v = np.empty_like(u)
    s = 0
    for i in range(u.size):
        vi = int(u[i]) ^ int(tab[s])
        v[i] = vi
        s = (s >> 1) | (vi << (m - 1)) if m else 0
    return v


def polar_transform(u) -> np.ndarray:
    """Apply the n-th Kronecker power of [[1,0],[1,1]] over GF(2) via the butterfly.

    An array of several axes is transformed along its last.
    """
    x = np.array(u, dtype=np.int8, ndmin=1)
    N = x.shape[-1]
    if N < 1 or N & (N - 1):
        raise ValueError(f"length must be a power of two, got {N}")
    h = 1
    while h < N:
        # every block of 2h: left half ^= right half
        blocks = x.reshape(*x.shape[:-1], -1, 2, h)
        blocks[..., 0, :] ^= blocks[..., 1, :]
        h *= 2
    return x


def pac_encode(d, code: PacCode) -> np.ndarray:
    """Encode K message bits to the N-bit codeword: profile, convolve, polar-transform."""
    v = rate_profile_insert(d, code.A, code.N)
    u = conv_transform(v, code.g)
    return polar_transform(u)


# --- register states, shared with the trellis decoder --------------------------
#
# A register state is packed into an integer with the most recent input bit in
# the most significant of m positions, so shifting in a bit is
# (s >> 1) | (bit << (m-1)).


def parity_table(g) -> np.ndarray:
    """tab[s] = feedback parity of register state s under the taps of g (v = 0 output).

    Tap g_j, j = 1..m, reads bit m-j of the packed state.
    """
    g = parse_gen(g)
    m = len(g) - 1
    mask = sum(1 << (m - j) for j in range(1, m + 1) if g[j])
    states = np.arange(1 << m, dtype=np.uint32)
    return (np.bitwise_count(states & np.uint32(mask)) & 1).astype(np.int8)


# --- code-specification text format ---------------------------------------------
#
# Key-value lines:  n <log2 length>, k <dimension>, gen <octal string>,
# profile rm | file:<path>.  A profile file holds newline-separated decimal
# indices.  '#' starts a comment.


def parse_profile(profile: str, n: int, K: int, base_dir: str = ".") -> tuple:
    """Information set named by ``rm`` or ``file:<path>``, the path taken from base_dir."""
    if profile == "rm":
        return rm_rate_profile(n, K)
    if profile.startswith("file:"):
        with open(os.path.join(base_dir, profile[len("file:"):])) as fh:
            return tuple(int(tok) for tok in fh.read().split())
    raise ValueError(f"profile must be 'rm' or 'file:<path>', got {profile!r}")


def parse_code_spec(text: str, base_dir: str = ".") -> PacCode:
    """Build a PacCode from the key-value text format used by the CLI."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            key, _, val = line.partition(" ")
        key, val = key.strip().lower(), val.strip()
        if key not in ("n", "k", "gen", "profile"):
            raise ValueError(f"unknown code-spec key: {key!r}")
        fields[key] = val
    for req in ("n", "k", "gen"):
        if req not in fields:
            raise ValueError(f"code spec is missing required key {req!r}")
    n, K = int(fields["n"]), int(fields["k"])
    A = parse_profile(fields.get("profile", "rm"), n, K, base_dir)
    return PacCode(n=n, K=K, A=A, g=fields["gen"])


def load_code_spec(path: str) -> PacCode:
    with open(path) as fh:
        return parse_code_spec(fh.read(), base_dir=os.path.dirname(path) or ".")
