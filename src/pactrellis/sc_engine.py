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
one step at stage s (a bit is the node at stage 0).  Nodes come in bit order, so
the bank keeps the position.  A node's LLR update stops the f-recursion at stage
s and yields its 2^s LLRs; its commit writes its 2^s partial sums as that
stage's block and folds upward from there as a bit's commit does.

``ScBank`` holds one scratch row per decoder path and applies every update to
all rows at once.  It may hold several frames, each with its own channel LLRs
and its own paths: rows are grouped by frame, every frame holding the same
number.  It starts with one row per frame, and pruning and path splitting
gather rows with ``take``.  Only two updates read the channel: those at bit 0,
when rows and frames still line up, and the g-update at stage n-1, which reads
each frame's channel row against that frame's rows.
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

    ``channel_llrs`` is one frame of N LLRs, or a (frames, N) array of
    several, decoded in lockstep, each finite and at most float max / N^2 in
    magnitude (path metrics reach N^2 times it).  They are kept once, in the
    read-only array ``channel``, as given; each row holds N - 1 intermediate
    LLRs (``llr``) and N - 1 partial sums (``beta``), both in the per-stage
    layout of the module docstring.  The bank starts with one row per frame;
    its rows are grouped by frame, and every frame holds the same number of
    them.  Updates follow the standard in-order schedule:
    ``update_llrs(s)`` then ``update_partial_sums(x)`` for nodes that tile
    0 .. N-1 in order (s = 0, the default, for a bit).  The bank owns the
    position: a node starts at ``t``, the next undecided bit, and its commit
    advances ``t`` by the node's width 2^s.  Rows may be gathered with
    ``take`` (a row may be taken more than once) between the two calls.
    ``capacity`` reserves room for that many rows, over all frames, so that
    gathers within it allocate nothing (fresh arrays at every information bit
    cost page faults under glibc's default malloc settings).
    """

    def __init__(self, channel_llrs, combining: str = "min-sum", capacity: int = 1):
        llrs = np.array(channel_llrs, dtype=float, ndmin=1)
        if llrs.ndim > 2:
            raise ValueError(f"channel LLRs must be one frame or (frames, N), not {llrs.shape}")
        frames, N = (1, *llrs.shape) if llrs.ndim == 1 else llrs.shape
        if N < 1 or N & (N - 1):
            raise ValueError(f"channel LLR length must be a power of two, got {N}")
        if frames < 1:
            raise ValueError("channel LLRs must hold at least one frame")
        bound = np.finfo(float).max / N**2  # also false for NaN and +-inf
        if not (np.abs(llrs) <= bound).all():
            raise ValueError(f"channel LLRs must be finite and at most {bound:.4g} in magnitude")
        llrs.flags.writeable = False
        self.channel = llrs
        self.frames = frames
        self.N = N
        self.n = N.bit_length() - 1
        if combining not in COMBINING_RULES:
            raise ValueError(f"combining rule must be one of {COMBINING_RULES}, got {combining!r}")
        self._f = f_minsum if combining == "min-sum" else f_exact
        # two sides per buffer: the live rows are a prefix of one side, and
        # take gathers into the other
        self._side = 0
        self._beta_buf, self._llr_buf = self._buffers(max(capacity, frames))
        self.llr, self.beta = self._llr_buf[0, :frames], self._beta_buf[0, :frames]
        self.llr[:] = 0.0
        self.beta[:] = 0
        # _pending: update_llrs done, commit outstanding, for the node of 2^_stage bits at _t
        self._t = 0
        self._pending = False
        self._stage = 0

    @property
    def n_paths(self) -> int:
        return self.llr.shape[0]

    @property
    def t(self) -> int:
        """The next undecided bit: where the next ``update_llrs`` node starts (N once all are)."""
        return self._t

    def update_llrs(self, stage: int = 0) -> np.ndarray:
        """Recompute the factor-graph nodes down to the 2^stage-bit node at ``t``; return its LLRs.

        A node of stage s >= 1 returns its LLR block, (paths, 2^s); a bit
        (stage 0) returns its decision LLRs, one per path.  The node must
        start at a multiple of its width.  The result is a view, valid until
        the next ``update_llrs`` or ``take``.
        """
        t, width = self._t, 1 << stage
        if self._pending:
            raise ContractViolationError(f"update_llrs: the node at bit {t} awaits its commit")
        if t >= self.N:
            raise ContractViolationError(f"update_llrs: all {self.N} bits are committed")
        if t % width or t + width > self.N:
            raise ContractViolationError(
                f"a node of {width} bits cannot start at bit {t} of {self.N}")
        # src is the block that stage s reads: the channel for s = n - 1
        llr = self.llr
        if t == 0:  # one row per frame
            top, src = self.n, self.channel
        else:
            top = ((t & -t)).bit_length() - 1  # lowest set bit: g-update stage
            w = 1 << top
            dst = llr[:, w - 1 : 2 * w - 1]
            # b + (1 - 2 beta) a, the sign read from a table by the committed partial sum
            sign = _SIGN[self.beta[:, w - 1 : 2 * w - 1]]
            if top + 1 < self.n:
                src, out = llr[:, 2 * w - 1 : 4 * w - 1], dst
            else:  # each frame's channel row against its rows, as (frames, rows, w) blocks
                src, out = self.channel.reshape(self.frames, 1, -1), dst.reshape(self.frames, -1, w)
                sign = sign.reshape(out.shape)
            # the product goes into the sign's own block: one (rows, w) temporary, not two
            np.add(src[..., w:], np.multiply(sign, src[..., :w], out=sign), out=out)
            src = dst
        for s in range(top - 1, stage - 1, -1):
            w = 1 << s
            dst = llr[:, w - 1 : 2 * w - 1]
            self._f(src[..., :w], src[..., w:], out=dst)
            src = dst
        self._pending = True
        self._stage = stage
        # a node of the whole code has no intermediate stage: its LLRs are the channel's,
        # one row per frame
        block = (llr[:, width - 1 : 2 * width - 1] if stage < self.n
                 else np.broadcast_to(self.channel, (self.n_paths, width)))
        return block if stage else block[:, 0]

    def update_partial_sums(self, x) -> None:
        """Commit the partial sums of the node that ``update_llrs`` last computed.

        ``x`` holds polar(u) over the node's 2^s bits, one row per path, as a
        (paths, 2^s) block; for a bit it is the decided u, one per path or
        one for all.
        """
        if not self._pending:
            raise ContractViolationError(
                f"update_partial_sums at bit {self._t} requires update_llrs first")
        # the node's last bit closes a right block at each stage from the
        # node's up to top (its trailing one bits); each folds into that
        # stage's left block, filling the merged block from its right end, and
        # the merged block parks at stage top
        width = 1 << self._stage
        last = self._t + width - 1
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
        self._t = last + 1

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
