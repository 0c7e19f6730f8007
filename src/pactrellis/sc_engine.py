"""Successive-cancellation plumbing: intermediate LLR recursions and partial-sum updates.

The factor graph has n+1 stages; stage n holds the N channel LLRs and stage 0
produces the per-bit decision LLR.  Only one block per stage is ever live, so
LLRs are stored compactly: stage s occupies slots [2^s - 1, 2^{s+1} - 1) of a
(2N - 1)-slot buffer.  Partial sums use the same layout (Tal and Vardy's
per-stage arrays): stage s holds only its pending left block, the one the next
g-update at that stage reads.  Committing bit t folds the new sums up through
the stages of the set low bits of t and parks the result at the first stage
whose bit is clear; after bit N-1 the stage-n slots hold the polar transform
of the committed bits.

``ScBank`` holds one scratch row per decoder path and applies every update to
all rows at once; pruning and path splitting gather rows with ``take``.
``ScScratch`` is the single-path view of a one-row bank.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ContractViolationError",
    "f_minsum",
    "f_exact",
    "g_combine",
    "ScBank",
    "ScScratch",
]

# tanh saturates to 1.0 in float64 near |x| ~ 19, so products of tanh(llr/2)
# stay strictly inside (-1, 1) for |llr| < 30; the clip only bites beyond that.
_ATANH_LIMIT = 1.0 - 1e-15

COMBINING_RULES = ("min-sum", "exact")


class ContractViolationError(RuntimeError):
    """An operation was invoked outside its allowed call sequence."""


def f_minsum(a, b):
    """Check-node combine, min-sum rule: sign(a) sign(b) min(|a|, |b|)."""
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def f_exact(a, b):
    """Check-node combine, exact rule 2 atanh(tanh(a/2) tanh(b/2)), clipped for safety."""
    t = np.tanh(0.5 * np.asarray(a, dtype=float)) * np.tanh(0.5 * np.asarray(b, dtype=float))
    return 2.0 * np.arctanh(np.clip(t, -_ATANH_LIMIT, _ATANH_LIMIT))


def g_combine(a, b, c):
    """Variable-node combine: b + (1 - 2c) a for committed partial sum c."""
    return b + (1.0 - 2.0 * np.asarray(c, dtype=float)) * a


def _combiner(name):
    if name == "min-sum":
        return f_minsum
    if name == "exact":
        return f_exact
    raise ValueError(f"combining rule must be one of {COMBINING_RULES}, got {name!r}")


class ScBank:
    """Batched SC scratch: one row of intermediate LLRs and partial sums per path.

    Updates follow the standard in-order schedule: ``update_llrs(t)`` then
    ``update_partial_sums(t, u)`` for t = 0 .. N-1.  Rows may be gathered with
    ``take`` (a row may be taken more than once) between the two calls.
    ``capacity`` reserves room for that many rows, so that gathers within it
    allocate nothing (fresh arrays at every information bit cost page faults
    under glibc's default malloc settings).
    """

    def __init__(self, channel_llrs, combining: str = "min-sum", paths: int = 1,
                 capacity: int = 1):
        llrs = np.asarray(channel_llrs, dtype=float)
        N = llrs.size
        if N < 1 or N & (N - 1):
            raise ValueError(f"channel LLR length must be a power of two, got {N}")
        self.N = N
        self.n = N.bit_length() - 1
        self._f = _combiner(combining)
        # two sides per buffer: the live rows are a prefix of one side, and
        # take gathers into the other
        self._side = 0
        self._llr_buf, self._beta_buf = self._buffers(max(paths, capacity))
        self.llr, self.beta = self._llr_buf[0, :paths], self._beta_buf[0, :paths]
        self.llr[:, : N - 1] = 0.0
        self.llr[:, N - 1 :] = llrs
        self.beta[:] = 0
        # _t: next undecided bit index; _pending: update_llrs done, commit outstanding
        self._t = 0
        self._pending = False

    @property
    def n_paths(self) -> int:
        return self.llr.shape[0]

    def update_llrs(self, t: int) -> np.ndarray:
        """Recompute the factor-graph nodes needed for bit t; return decision LLRs (one per path).

        The returned vector is a view, valid until the next ``update_llrs``
        or ``take``.
        """
        if self._pending or t != self._t:
            raise ContractViolationError(
                f"update_llrs({t}) out of order: next expected bit is {self._t}"
                + (" (pending commit)" if self._pending else "")
            )
        llr = self.llr
        f = self._f
        if t == 0:
            top = self.n
        else:
            top = ((t & -t)).bit_length() - 1  # lowest set bit: g-update stage
            w = 1 << top
            o, op = w - 1, 2 * w - 1
            a = llr[:, op : op + w]
            llr[:, o : o + w] = llr[:, op + w : op + 2 * w] + (
                1.0 - 2.0 * self.beta[:, o : o + w]
            ) * a
        for s in range(top - 1, -1, -1):
            w = 1 << s
            o, op = w - 1, 2 * w - 1
            llr[:, o : o + w] = f(llr[:, op : op + w], llr[:, op + w : op + 2 * w])
        self._pending = True
        return llr[:, 0]

    def update_partial_sums(self, t: int, u_hat) -> None:
        """Commit the decided bits for index t (one per path) into the partial-sum tree."""
        if not self._pending or t != self._t:
            if t < self._t:
                raise ContractViolationError(f"bit {t} already committed")
            raise ContractViolationError(
                f"update_partial_sums({t}) requires update_llrs({self._t}) first"
            )
        # bit t closes a right block at each stage below top (its trailing one
        # bits); each folds into that stage's left block, filling the merged
        # block from its right end, and the merged block parks at stage top
        top = (~t & (t + 1)).bit_length() - 1  # trailing one bits of t
        beta = self.beta
        end = (2 << top) - 1
        beta[:, end - 1] = np.asarray(u_hat, dtype=np.int8)
        for s in range(top):
            w = 1 << s
            np.bitwise_xor(
                beta[:, w - 1 : 2 * w - 1], beta[:, end - w : end],
                out=beta[:, end - 2 * w : end - w],
            )
        self._pending = False
        self._t = t + 1

    def _buffers(self, rows: int):
        shape = (2, rows, 2 * self.N - 1)
        return np.empty(shape), np.empty(shape, dtype=np.int8)

    def take(self, rows) -> None:
        """Keep only the given rows, in the given order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.intp)
        k = rows.size
        if k and (rows.min() < 0 or rows.max() >= self.n_paths):
            raise IndexError(f"bank rows must lie in [0, {self.n_paths})")
        if self._llr_buf.shape[1] < k:
            self._llr_buf, self._beta_buf = self._buffers(k)
        side = self._side = self._side ^ 1
        # indices are checked above; mode="clip" lets np.take write into out unbuffered
        self.llr = np.take(self.llr, rows, axis=0, out=self._llr_buf[side, :k], mode="clip")
        self.beta = np.take(self.beta, rows, axis=0, out=self._beta_buf[side, :k], mode="clip")

    def stage_n_sums(self) -> np.ndarray:
        """Stage-n partial sums; equals the polar transform of the committed bits after N commits."""
        return self.beta[:, self.N - 1 :].copy()


class ScScratch:
    """Single-path SC scratch: the one-row view of ``ScBank``.

    Exposes the same in-order update contract with scalar decisions, plus the
    raw buffers for inspection.
    """

    def __init__(self, channel_llrs, combining: str = "min-sum"):
        self._bank = ScBank(channel_llrs, combining=combining, paths=1)

    @property
    def N(self) -> int:
        return self._bank.N

    @property
    def llr(self) -> np.ndarray:
        return self._bank.llr[0]

    @property
    def beta(self) -> np.ndarray:
        return self._bank.beta[0]

    def update_llrs(self, t: int) -> float:
        return float(self._bank.update_llrs(t)[0])

    def update_partial_sums(self, t: int, u_hat: int) -> "ScScratch":
        self._bank.update_partial_sums(t, np.asarray([u_hat], dtype=np.int8))
        return self

    def stage_n_sums(self) -> np.ndarray:
        return self._bank.stage_n_sums()[0]
