"""Successive-cancellation plumbing: intermediate LLR recursions and partial-sum updates.

The factor graph has n+1 stages; stage n holds the N channel LLRs and stage 0
produces the per-bit decision LLR.  The channel stage is the same for every
path, so it is stored once, as a read-only vector that the stage n-1 updates
read by broadcast.  Only one block per other stage is ever live, so those LLRs
are stored compactly: stage s < n occupies slots [2^s - 1, 2^{s+1} - 1) of an
(N - 1)-slot row.  Partial sums use the same (N - 1)-slot layout (Tal and
Vardy's per-stage arrays): stage s holds only its pending left block, the one
the next g-update at that stage reads.  Committing bit t folds the new sums up
through the stages of the set low bits of t and parks the result at the first
stage whose bit is clear.  No later bit reads the sums of bit N-1, so its
commit folds nothing.

The unit of both updates is a node: an aligned block of 2^s bits, decided in
one step at stage s (a bit is the node at stage 0).  Its LLR update stops the
f-recursion at stage s and yields the node's block of 2^s LLRs; its commit
writes the node's 2^s partial sums as that stage's block and folds upward from
there as a bit's commit does.

``ScBank`` holds one scratch row per decoder path and applies every update to
all rows at once; it starts with one row, and pruning and path splitting
gather rows with ``take``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ContractViolationError",
    "f_minsum",
    "f_exact",
    "ScBank",
]

COMBINING_RULES = ("min-sum", "exact")

_SIGN = np.array([1.0, -1.0])  # 1 - 2c for partial sum c


class ContractViolationError(RuntimeError):
    """An operation was invoked outside its allowed call sequence."""


def f_minsum(a, b, out=None):
    """Check-node combine, min-sum rule: sign(a) sign(b) min(|a|, |b|) (into ``out`` if given)."""
    return np.copysign(np.minimum(np.abs(a), np.abs(b)), np.multiply(a, b), out=out)


def f_exact(a, b, out=None):
    """Check-node combine, exact rule 2 atanh(tanh(a/2) tanh(b/2)) (into ``out`` if given).

    Evaluated as written where min(|a|, |b|) < 1; elsewhere, where tanh(|x|/2) rounds to 1
    near |x| = 38, as sign(a) sign(b) min(|a|, |b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    whose absolute error near 1e-16 would flip the sign of tiny outputs.
    """
    with np.errstate(divide="ignore"):  # atanh(1) = inf where tanh saturates; not selected
        tanh_form = 2 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
    fix = np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    near = np.minimum(np.abs(a), np.abs(b)) < 1
    return np.positive(np.where(near, tanh_form, f_minsum(a, b) + fix), out=out)  # copy into out


class ScBank:
    """Batched SC scratch: one row of intermediate LLRs and partial sums per path.

    The finite channel LLRs are kept once, in the read-only vector ``channel``;
    each row holds N - 1 intermediate LLRs (``llr``) and N - 1 partial sums
    (``beta``), both in the per-stage layout of the module docstring.  The
    bank starts with one row.  Updates follow the standard in-order schedule:
    ``update_llrs(t, s)`` then ``update_partial_sums(t, x)`` for nodes that
    tile 0 .. N-1 in order, t advancing by each node's width 2^s (s = 0, the
    default, for a bit).  Rows may be gathered with ``take`` (a row may be
    taken more than once) between the two calls.
    ``capacity`` reserves room for that many rows, so that gathers within it
    allocate nothing (fresh arrays at every information bit cost page faults
    under glibc's default malloc settings).
    """

    def __init__(self, channel_llrs, combining: str = "min-sum", capacity: int = 1):
        llrs = np.array(channel_llrs, dtype=float).ravel()
        N = llrs.size
        if N < 1 or N & (N - 1):
            raise ValueError(f"channel LLR length must be a power of two, got {N}")
        if not np.isfinite(llrs).all():
            raise ValueError("channel LLRs must be finite")
        llrs.flags.writeable = False
        self.channel = llrs
        self.N = N
        self.n = N.bit_length() - 1
        if combining not in COMBINING_RULES:
            raise ValueError(f"combining rule must be one of {COMBINING_RULES}, got {combining!r}")
        self._f = f_minsum if combining == "min-sum" else f_exact
        # two sides per buffer: the live rows are a prefix of one side, and
        # take gathers into the other
        self._side = 0
        self._beta_buf, self._llr_buf = self._buffers(max(capacity, 1))
        self.llr, self.beta = self._llr_buf[0, :1], self._beta_buf[0, :1]
        self.llr[:] = 0.0
        self.beta[:] = 0
        # _t: next undecided bit index; _pending: update_llrs done, commit outstanding,
        # for the node of 2^_stage bits at _t
        self._t = 0
        self._pending = False
        self._stage = 0

    @property
    def n_paths(self) -> int:
        return self.llr.shape[0]

    def update_llrs(self, t: int, stage: int = 0) -> np.ndarray:
        """Recompute the factor-graph nodes down to the node of 2^stage bits at t; return its LLRs.

        A node of stage s >= 1 returns its LLR block, (paths, 2^s); a bit
        (stage 0) returns its decision LLRs, one per path.  The node must
        start at a multiple of its width.  The result is a view, valid until
        the next ``update_llrs`` or ``take``.
        """
        width = 1 << stage
        if self._pending or t != self._t or t >= self.N:
            expected = (f"next expected bit is {self._t}" if self._t < self.N
                        else f"all {self.N} bits are committed")
            raise ContractViolationError(
                f"update_llrs({t}) out of order: {expected}"
                + (" (pending commit)" if self._pending else "")
            )
        if t % width or t + width > self.N:
            raise ContractViolationError(
                f"a node of {width} bits cannot start at bit {t} of {self.N}")
        # src is the block that stage s reads: the shared channel vector for s = n - 1
        llr = self.llr
        if t == 0:
            top, src = self.n, self.channel
        else:
            top = ((t & -t)).bit_length() - 1  # lowest set bit: g-update stage
            w = 1 << top
            src = self.channel if top + 1 == self.n else llr[:, 2 * w - 1 : 4 * w - 1]
            dst = llr[:, w - 1 : 2 * w - 1]
            # b + (1 - 2 beta) a, the sign read from a table by the committed partial sum
            np.add(src[..., w:], _SIGN[self.beta[:, w - 1 : 2 * w - 1]] * src[..., :w], out=dst)
            src = dst
        for s in range(top - 1, stage - 1, -1):
            w = 1 << s
            dst = llr[:, w - 1 : 2 * w - 1]
            self._f(src[..., :w], src[..., w:], out=dst)
            src = dst
        self._pending = True
        self._stage = stage
        # a node of the whole code has no intermediate stage: its LLRs are the channel's
        block = (llr[:, width - 1 : 2 * width - 1] if stage < self.n
                 else np.broadcast_to(self.channel, (self.n_paths, width)))
        return block if stage else block[:, 0]

    def update_partial_sums(self, t: int, x) -> None:
        """Commit the partial sums of the node at t, the one ``update_llrs`` last computed.

        ``x`` holds polar(u) over the node's 2^s bits, one row per path, as a
        (paths, 2^s) block; for a bit it is the decided u, one per path or
        one for all.
        """
        if not self._pending or t != self._t:
            if t < self._t:
                raise ContractViolationError(f"bit {t} already committed")
            raise ContractViolationError(
                f"update_partial_sums({t}) requires update_llrs({self._t}) first"
            )
        # the node's last bit closes a right block at each stage from the
        # node's up to top (its trailing one bits); each folds into that
        # stage's left block, filling the merged block from its right end, and
        # the merged block parks at stage top
        width = 1 << self._stage
        last = t + width - 1
        top = (~last & (last + 1)).bit_length() - 1  # trailing one bits of the last bit
        if top < self.n:  # bit N - 1 would fold into stage n, which no later bit reads
            beta = self.beta
            end = (2 << top) - 1
            if self._stage:
                beta[:, end - width : end] = x
            else:
                beta[:, end - 1] = x
            for s in range(self._stage, top):
                w = 1 << s
                np.bitwise_xor(
                    beta[:, w - 1 : 2 * w - 1], beta[:, end - w : end],
                    out=beta[:, end - 2 * w : end - w],
                )
        self._pending = False
        self._t = t + width

    def _buffers(self, rows: int):
        # beta's first: glibc's default malloc then reuses a freed bank, not trims and refaults it
        return np.empty((2, rows, self.N - 1), dtype=np.int8), np.empty((2, rows, self.N - 1))

    def take(self, rows) -> None:
        """Keep only the given rows, in the given order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.intp)
        k = rows.size
        if k and (rows.min() < 0 or rows.max() >= self.n_paths):
            raise IndexError(f"bank rows must lie in [0, {self.n_paths})")
        if self._llr_buf.shape[1] < k:
            self._beta_buf, self._llr_buf = self._buffers(k)
        side = self._side = self._side ^ 1
        # indices are checked above; mode="clip" lets np.take write into out unbuffered
        self.llr = self.llr.take(rows, axis=0, out=self._llr_buf[side, :k], mode="clip")
        self.beta = self.beta.take(rows, axis=0, out=self._beta_buf[side, :k], mode="clip")
