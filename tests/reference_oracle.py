"""Independent brute-force references used only for differential testing.

Nothing here shares code with the production decoder: the combine rules,
penalties, and recursions are restated from scratch so that agreement between
the two sides is meaningful.  Everything runs at test scale only, and the
module lives with the tests rather than in the installed package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pactrellis.pac_core import PacCode

__all__ = [
    "generator_matrix",
    "transform_matrix",
    "conv_1bit_encode",
    "ml_decode_exhaustive",
    "codebook_metrics",
    "forced_path_metrics",
    "forced_transcript",
    "chain_rule_neglogp",
    "naive_scl_reference",
    "polar_sc_reference",
    "GoldenCase",
    "write_golden_cases",
    "read_golden_cases",
]

_MAX_N = 64
_MAX_K = 16


# --- explicit matrices -----------------------------------------------------------


def _conv_matrix(g, N: int) -> np.ndarray:
    """Banded upper-triangular matrix T with u = v T: T[i, j] = g_{j-i}."""
    g = tuple(int(c) for c in g)
    T = np.zeros((N, N), dtype=np.int8)
    for i in range(N):
        for j in range(i, min(N, i + len(g))):
            T[i, j] = g[j - i]
    return T


def _kron_power(n: int) -> np.ndarray:
    P = np.array([[1, 0], [1, 1]], dtype=np.int8)
    out = np.array([[1]], dtype=np.int8)
    for _ in range(n):
        out = np.kron(out, P)
    return out


def transform_matrix(n: int, g) -> np.ndarray:
    """Full N x N encoding matrix (convolutional transform times polar transform)."""
    N = 1 << n
    if N > _MAX_N:
        raise ValueError(f"matrix oracle is capped at N = {_MAX_N}, got {N}")
    return (_conv_matrix(g, N).astype(np.int64) @ _kron_power(n).astype(np.int64) % 2).astype(
        np.int8
    )


def generator_matrix(code: PacCode = None, *, n: int = None, A=None, g=None) -> np.ndarray:
    """K x N matrix G with x = d G, assembled from the explicit transform matrices.

    Pass either a code or the (n, A, g) triple; the triple form also covers the
    degenerate K = 0 case.
    """
    if code is not None:
        n, A, g = code.n, code.A, code.g
    rows = sorted(int(a) for a in A)
    return transform_matrix(n, g)[rows, :]


def conv_1bit_encode(v: int, state, g) -> tuple:
    """One shift-register step: emit u for input bit v, return (u, next_state).

    ``state`` holds the m previous input bits, most recent first. The output
    is u = g_0 v + g_1 state[0] + ... + g_m state[m-1] (mod 2); the next state
    is v shifted in at the front with the oldest bit dropped.
    """
    g = tuple(int(c) for c in g)
    m = len(g) - 1
    state = tuple(int(b) for b in state)
    if len(state) != m:
        raise ValueError(f"state length {len(state)} does not match memory {m}")
    u = g[0] & int(v)
    for j in range(1, m + 1):
        u ^= g[j] & state[j - 1]
    nxt = (int(v),) + state[: m - 1] if m else ()
    return u, nxt


# --- locally restated arithmetic -------------------------------------------------


def _f(a, b, rule):
    if rule == "min-sum":
        return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    # 2 atanh(tanh(a/2) tanh(b/2)) as written where min(|a|, |b|) < 1; elsewhere a form
    # that does not saturate at large |a|, |b| (near zero its absolute error of about
    # 1e-16 would flip the sign of tiny outputs)
    small = np.minimum(np.abs(a), np.abs(b)) < 1.0
    with np.errstate(divide="ignore"):
        direct = 2.0 * np.arctanh(np.tanh(0.5 * a) * np.tanh(0.5 * b))
    stable = (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
              + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b))))
    return np.where(small, direct, stable)


def _g(a, b, c):
    return b + (1.0 - 2.0 * c) * a


def _penalty(lam, u, mode):
    if mode == "approximate":
        return np.where(u == (lam <= 0), 0.0, np.abs(lam))
    return np.logaddexp(0.0, -(1.0 - 2.0 * u) * lam)


# --- exhaustive maximum-likelihood oracle -----------------------------------------


def _all_messages(K: int) -> np.ndarray:
    """All 2^K message vectors as rows, d[0] being the most significant bit."""
    vals = np.arange(1 << K, dtype=np.int64)
    return ((vals[:, None] >> np.arange(K - 1, -1, -1)) & 1).astype(np.int8)


def forced_path_metrics(channel_llrs, u_rows, mode="approximate", rule="min-sum") -> np.ndarray:
    """Accumulated branch penalties when every SC decision is forced to a given u row."""
    llrs = np.asarray(channel_llrs, dtype=float)
    U = np.atleast_2d(np.asarray(u_rows, dtype=np.int8))
    M, N = U.shape
    metrics = np.zeros(M)

    def rec(lam, u):
        w = u.shape[1]
        if w == 1:
            nonlocal metrics
            metrics = metrics + _penalty(lam[:, 0], u[:, 0], mode)
            return u
        h = w // 2
        a, b = lam[:, :h], lam[:, h:]
        x1 = rec(_f(a, b, rule), u[:, :h])
        x2 = rec(_g(a, b, x1), u[:, h:])
        return np.concatenate([x1 ^ x2, x2], axis=1)

    rec(np.broadcast_to(llrs, (M, N)), U)
    return metrics


def forced_transcript(channel_llrs, u_seq, rule="min-sum"):
    """Per-bit decision LLRs along one forced decision sequence."""
    llrs = np.asarray(channel_llrs, dtype=float)
    u = np.asarray(u_seq, dtype=np.int8)
    lams = np.zeros(u.size)

    def rec(lam, ub, t0):
        w = ub.size
        if w == 1:
            lams[t0] = lam[0]
            return ub
        h = w // 2
        a, b = lam[:h], lam[h:]
        x1 = rec(_f(a, b, rule), ub[:h], t0)
        x2 = rec(_g(a, b, x1), ub[h:], t0 + h)
        return np.concatenate([x1 ^ x2, x2])

    rec(llrs, u, 0)
    return lams


def codebook_metrics(channel_llrs, code: PacCode, mode="approximate", rule="min-sum"):
    """(messages, u rows, forced metrics) for the whole 2^K codebook."""
    if code.K > _MAX_K:
        raise ValueError(f"exhaustive oracle is capped at K = {_MAX_K}, got {code.K}")
    msgs = _all_messages(code.K)
    V = np.zeros((msgs.shape[0], code.N), dtype=np.int8)
    V[:, list(code.A)] = msgs
    T = _conv_matrix(code.g, code.N)
    U = (V.astype(np.int64) @ T.astype(np.int64) % 2).astype(np.int8)
    return msgs, U, forced_path_metrics(channel_llrs, U, mode=mode, rule=rule)


def ml_decode_exhaustive(channel_llrs, code: PacCode, mode="approximate", rule="min-sum"):
    """Exact ML decision: minimum forced metric over every message; ties to the smallest value."""
    msgs, _, metrics = codebook_metrics(channel_llrs, code, mode=mode, rule=rule)
    win = int(np.lexsort((np.arange(msgs.shape[0]), metrics))[0])
    return msgs[win].copy()


def chain_rule_neglogp(channel_llrs, u_seq) -> np.ndarray:
    """-log P(u_t | u_0^{t-1}, y) per bit, by brute-force marginalization over suffixes.

    Treats all 2^N demapper inputs as equally likely and marginalizes the
    posterior weight exp(sum_t log p_t(x_t)) over every suffix; capped at
    N = 8.  Validates the exact branch-penalty formula end to end.
    """
    llrs = np.asarray(channel_llrs, dtype=float)
    u = np.asarray(u_seq, dtype=np.int8)
    N = llrs.size
    if N > 8:
        raise ValueError(f"probability-domain oracle is capped at N = 8, got {N}")
    n = N.bit_length() - 1
    rows = _all_messages(N)  # every u vector, u_0 as MSB => prefixes are contiguous
    X = (rows.astype(np.int64) @ _kron_power(n).astype(np.int64) % 2).astype(np.int8)
    # log p_t(x_t): x=0 pairs with +1, so log sigma(llr) / log sigma(-llr)
    logp = -np.logaddexp(0.0, -np.where(X == 0, 1.0, -1.0) * llrs)
    logw = logp.sum(axis=1)

    from scipy.special import logsumexp

    prefix_val = 0
    prev = logsumexp(logw)
    out = np.zeros(N)
    for t in range(N):
        prefix_val = (prefix_val << 1) | int(u[t])
        block = logw.reshape(1 << (t + 1), 1 << (N - t - 1))
        cur = logsumexp(block[prefix_val])
        out[t] = -(cur - prev)
        prev = cur
    return out


# --- plain recursive references ----------------------------------------------------


def polar_sc_reference(channel_llrs, info_set) -> np.ndarray:
    """Textbook recursive polar SC decoder (min-sum); returns the full decision vector."""
    llrs = np.asarray(channel_llrs, dtype=float)
    N = llrs.size
    frozen = np.ones(N, dtype=bool)
    frozen[list(info_set)] = False

    def rec(lam, t0):
        w = lam.size
        if w == 1:
            u = 0 if frozen[t0] else (0 if lam[0] > 0 else 1)
            bit = np.array([u], dtype=np.int8)
            return bit, bit.copy()
        h = w // 2
        a, b = lam[:h], lam[h:]
        u1, x1 = rec(_f(a, b, "min-sum"), t0)
        u2, x2 = rec(_g(a, b, x1), t0 + h)
        return np.concatenate([u1, u2]), np.concatenate([x1 ^ x2, x2])

    u_hat, _ = rec(llrs, 0)
    return u_hat


def naive_scl_reference(channel_llrs, code: PacCode, L: int, mode="approximate"):
    """Simplicity-first SC list decoder with global pruning, written as a tree recursion.

    Reads each bit of the pre-transform from its path's own past bits by the
    convolution u_t = sum_j g_j v_{t-j} over GF(2).  Pruning keeps
    the L smallest (metric, creation id) paths and leaves them in their row
    order, which keeps creation ids ascending down the rows, so outputs are
    directly comparable with the production decoder's global mode, which
    breaks ties on row position.
    """
    llrs = np.asarray(channel_llrs, dtype=float)
    N, m = code.N, code.m
    frozen = np.ones(N, dtype=bool)
    frozen[list(code.A)] = False
    g = np.asarray(code.g, dtype=np.int64)

    st = {
        "metrics": np.zeros(1),
        "ids": np.zeros(1, dtype=np.int64),
        "v": np.zeros((1, N), dtype=np.int8),
        "next_id": 1,
    }

    def conv_u0(t):
        # u_t for v_t = 0: g_1 v_{t-1} + ... + g_m v_{t-m}, each path from its own bits
        j = np.arange(1, min(m, t) + 1)
        return ((st["v"][:, t - j] @ g[j]) & 1).astype(np.int8)

    def leaf(lam, t):
        lam = lam[:, 0]
        P = lam.size
        if frozen[t]:
            u = conv_u0(t)
            st["metrics"] = st["metrics"] + _penalty(lam, u, mode)
            st["v"][:, t] = 0
            return u[:, None], np.arange(P)
        u0 = conv_u0(t)
        u1 = u0 ^ 1
        st["metrics"] = np.concatenate(
            [st["metrics"] + _penalty(lam, u0, mode), st["metrics"] + _penalty(lam, u1, mode)]
        )
        st["ids"] = np.concatenate([st["ids"], np.arange(P, dtype=np.int64) + st["next_id"]])
        st["next_id"] += P
        st["v"] = np.concatenate([st["v"], st["v"]], axis=0)
        st["v"][:P, t] = 0
        st["v"][P:, t] = 1
        u_all = np.concatenate([u0, u1])
        origin = np.concatenate([np.arange(P), np.arange(P)])
        if 2 * P > L:
            keep = np.sort(np.lexsort((st["ids"], st["metrics"]))[:L])
            st["metrics"] = st["metrics"][keep]
            st["ids"] = st["ids"][keep]
            st["v"] = st["v"][keep]
            u_all = u_all[keep]
            origin = origin[keep]
        return u_all[:, None], origin

    def rec(lam, t0):
        w = lam.shape[1]
        if w == 1:
            return leaf(lam, t0)
        h = w // 2
        a, b = lam[:, :h], lam[:, h:]
        x1, o1 = rec(_f(a, b, "min-sum"), t0)
        x2, o2 = rec(_g(a[o1], b[o1], x1), t0 + h)
        return np.concatenate([x1[o2] ^ x2, x2], axis=1), o1[o2]

    rec(llrs[None, :], 0)
    win = int(np.lexsort((st["ids"], st["metrics"]))[0])
    return st["v"][win, list(code.A)].copy()


# --- golden-vector files -------------------------------------------------------------
#
# Line-oriented text: one case per line of ;-separated key=value fields, with
# the LLR vector comma-separated at full precision.  Meant for regression
# across independent implementations.


@dataclass(frozen=True)
class GoldenCase:
    seed: int
    n: int
    K: int
    gen: str
    sorting: str
    list_size: int
    metric_mode: str
    combining_rule: str
    llrs: tuple
    d_hat: tuple
    metric: float


def write_golden_cases(path, cases) -> None:
    with open(path, "w") as fh:
        for c in cases:
            fh.write(
                ";".join(
                    [
                        f"seed={c.seed}",
                        f"n={c.n}",
                        f"k={c.K}",
                        f"gen={c.gen}",
                        "profile=rm",
                        f"sort={c.sorting}",
                        f"list={c.list_size}",
                        f"metric={c.metric_mode}",
                        f"combining={c.combining_rule}",
                        "llr=" + ",".join(repr(float(x)) for x in c.llrs),
                        "d=" + "".join(str(int(b)) for b in c.d_hat),
                        f"pm={float(c.metric)!r}",
                    ]
                )
                + "\n"
            )


def read_golden_cases(path):
    cases = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kv = dict(field.split("=", 1) for field in line.split(";"))
            cases.append(
                GoldenCase(
                    seed=int(kv["seed"]),
                    n=int(kv["n"]),
                    K=int(kv["k"]),
                    gen=kv["gen"],
                    sorting=kv["sort"],
                    list_size=int(kv["list"]),
                    metric_mode=kv["metric"],
                    combining_rule=kv["combining"],
                    llrs=tuple(float(x) for x in kv["llr"].split(",")),
                    d_hat=tuple(int(b) for b in kv["d"]),
                    metric=float(kv["pm"]),
                )
            )
    return cases
