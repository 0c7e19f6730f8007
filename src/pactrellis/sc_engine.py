"""Successive-cancellation plumbing: intermediate LLR recursions and partial-sum updates.

The factor graph has n+1 stages; stage n holds the N channel LLRs and stage 0
produces the per-bit decision LLR.  The channel stage is the same for every
path, so it is stored once, read by broadcast; the updates that read stages
n-1 and n-2 make them from it.  Only one block per other stage is ever live,
so those LLRs are stored compactly: stage s < n-2 occupies slots
[2^s - 1, 2^{s+1} - 1) of an (N/4 - 1)-slot row.  Partial sums use the same
layout over N - 1 sums (Tal and Vardy's per-stage arrays), packed 8 to a byte
from stage 3 (``np.packbits`` order), N/8 + 6 bytes a row; ``ScBank.beta`` is
those stored bytes.  Stage s holds only its pending left block, the one the
next g-update at that stage reads.  Committing bit t folds the new sums up
through the stages of the set low bits of t and parks the result at the first
stage whose bit is clear.  No later bit reads the sums of bit N-1.

The unit of both updates is a node: an aligned block of 2^s bits, decided in
one step at stage s (a bit is the node at stage 0).  Nodes come in bit order, so
the bank keeps the position.  A node's LLR update stops the f-recursion at stage
s and yields its 2^s LLRs; its commit writes its 2^s partial sums as that
stage's block and folds upward from there as a bit's commit does.

``ScBank`` holds one scratch row per decoder path and applies every update to
all rows at once.  It may hold several frames, each with its own channel LLRs
and its own paths, every frame holding the same number.  Paths keep an order,
grouped by frame; rows need not follow it.  The bank has one buffer for LLRs and
one for sums, each frame owning a block of rows in both, and a slot map takes
each path to its row, in the first rows of its frame's block (after Tal and
Vardy's clonePath, and the pointer memory of Balatsoukas-Stimming, Bastani
Parizi and Burg), allocated once for the most paths the bank will hold.  It
starts with one path per frame.  Path splitting goes through ``grow``, which
copies each frame's rows as one slice, and pruning through ``take``, which
copies a row only for a path taken twice, and a frame's rows whole only where
its path count changes.  The channel is read against each frame's rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "ContractViolationError",
    "f_minsum",
    "f_exact",
    "ScBank",
]

COMBINING_RULES = ("min-sum", "exact")

_SIGN = np.array([1.0, -1.0])  # 1 - 2c for partial sum c
_PACKED = 3  # sums of this stage and up are packed 8 a byte, in packbits order: _SIGN8's rows
_SIGN8 = _SIGN.take(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1))
# a bank of several frames makes a temporary of more elements than this (128 KiB of
# LLRs) in runs of whole frames of at most this many (one frame where a frame holds
# more), so that a batch's heap grows with its bank and no more
_SPLIT = 1 << 14
_WHOLE = (slice(None),)  # the one key of a block made whole


class ContractViolationError(RuntimeError):
    """An operation was invoked outside its allowed call sequence."""


def f_minsum(a, b, out=None):
    """Check-node combine, min-sum rule: sign(a) sign(b) min(|a|, |b|) (into ``out`` if given).

    Evaluated as max(min(a, b), -max(a, b)): no sign product, so nothing overflows.
    """
    return np.maximum(np.minimum(a, b), np.negative(np.maximum(a, b)), out=out)


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
    read-only array ``channel``, as given; a row holds N/4 - 1 LLRs (stages
    0 .. n-3) and N - 1 partial sums, both in the layout of the module
    docstring.  The bank starts with one path per frame, and every frame
    holds the same number of them.
    Updates follow the standard in-order schedule: ``update_llrs(s)`` then
    ``update_partial_sums(x)`` for nodes that tile 0 .. N-1 in order (s = 0,
    the default, for a bit).  The bank owns the position: a node starts at
    ``t``, the next undecided bit, and its commit advances ``t`` by the
    node's width 2^s.  Between the two calls ``take`` keeps given paths (a
    path may be taken more than once), or ``grow`` takes every path twice.
    What a node's updates touch (the slots each stage reads and writes, the
    commit's slots and folds) depends on N, s and the node's place in the
    tree, and is cached per kind.

    Paths have an order, grouped by frame: the one that ``take``, the
    blocks ``update_llrs`` returns and the sums ``update_partial_sums``
    reads all use.  The rows that hold them are another matter.  There is
    one buffer each for LLRs and sums, and each frame owns a block of
    ``capacity / frames`` rows in it; a frame's paths live in the first rows
    of its block, the live rows, and a slot map takes each path to its row.
    The updates run over the live rows in place, whatever their order, and
    ``take`` moves as few rows as it can (see there).  A bank of several
    frames makes its large temporaries (a g-update's sign block, stage n-1
    or n-2, the combining rule's, a growth's copy, a gather's) in
    runs of whole frames of at most 2^14 elements each (one frame where a
    frame holds more), so that its heap grows with its rows and no more.
    ``llr`` and ``beta`` are views of the live rows as stored, (rows, N/4 -
    1) and (rows, N/8 + 6) (N - 1 up to N = 8, where nothing is packed),
    with a frame axis when ``channel`` has one.
    ``capacity`` is the most paths the bank holds, over all frames (rounded
    up to a whole number per frame), at least 1.  Both buffers are
    allocated for it here and never again (fresh arrays at every information
    bit cost page faults under glibc's default malloc settings); ``take``
    rejects more paths.
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
        if isinstance(capacity, bool) or capacity < 1:
            raise ValueError(f"capacity must be at least 1 path, got {capacity}")
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
        # read against the live rows' blocks: (rows, w) for one frame, else (frames, rows, w),
        # each frame's channel row against that frame's rows
        self._channel = llrs.reshape(N) if frames == 1 else llrs.reshape(frames, 1, N)
        # the reserve, rows per frame; beta's first: glibc's default malloc then reuses a
        # freed bank, not trims and refaults it
        self._cap = -(-capacity // frames)
        llr_slots, sum_slots = _slots(N)
        self._beta_buf = np.empty((frames, self._cap, sum_slots), dtype=np.uint8)
        self._llr_buf = np.empty((frames, self._cap, llr_slots))
        self._beta_rows = self._beta_buf.reshape(frames * self._cap, sum_slots)
        self._llr_rows = self._llr_buf.reshape(frames * self._cap, llr_slots)
        self._resize(1)
        self._llr[:] = 0.0
        self._beta[:] = 0
        # _pending: update_llrs done, commit outstanding, for the node of 2^_stage bits at _t
        self._t = 0
        self._pending = False
        self._stage = 0

    def _resize(self, rows: int, slots=None) -> None:
        """Make the first ``rows`` rows of each frame's block live, and ``slots`` the slot map.

        ``slots`` gives each path's row of the flat buffer, in path order;
        None means path i is flat row i, which takes the live rows to be one
        contiguous run: one frame, or full blocks.
        """
        if slots is None and self.frames > 1 and rows < self._cap:
            slots = (np.arange(self.frames)[:, None] * self._cap
                     + np.arange(rows)).ravel()
        self._rows = rows
        self._slots = slots
        # how the flat buffers are indexed to read or write every path, in path order
        self._paths = slice(self.frames * rows) if slots is None else slots
        self._llr, self._beta = self._live(self._llr_buf), self._live(self._beta_buf)

    def _live(self, buf) -> np.ndarray:
        """The live rows of a (frames, rows, ...) buffer, without the axis for one frame."""
        return buf[0, : self._rows] if self.frames == 1 else buf[:, : self._rows]

    @property
    def n_paths(self) -> int:
        return self.frames * self._rows

    @property
    def t(self) -> int:
        """The next undecided bit: where the next ``update_llrs`` node starts (N once all are)."""
        return self._t

    @property
    def llr(self) -> np.ndarray:
        """The live rows' intermediate LLRs, in row order (a view)."""
        return self._llr_buf[:, : self._rows] if self.channel.ndim == 2 else self._llr

    @property
    def beta(self) -> np.ndarray:
        """The live rows' partial sums as stored, in row order (a view)."""
        return self._beta_buf[:, : self._rows] if self.channel.ndim == 2 else self._beta

    @staticmethod
    def frame_bytes(N: int, rows: int) -> int:
        """The bytes a bank of code length N is charged per frame of ``rows`` rows: the rows, and
        1.75 N floats for the channel and the stage n-1 and n-2 blocks made from it."""
        return rows * (8 * _slots(N)[0] + _slots(N)[1]) + 8 * (N + (N >> 1) + (N >> 2))

    def update_llrs(self, stage: int = 0) -> np.ndarray:
        """Recompute the factor-graph nodes down to the 2^stage-bit node at ``t``; return its LLRs.

        A node of stage s >= 1 returns its LLR block, (paths, 2^s); a bit
        (stage 0) returns its decision LLRs, one per path, both in path
        order.  The node must start at a multiple of its width.  The result
        may be a view, valid until the next ``update_llrs`` or ``take``.
        A node of N/4 bits or more returns its stage as ``_upper`` makes it.
        """
        t, width = self._t, 1 << stage
        if self._pending:
            raise ContractViolationError(f"update_llrs: the node at bit {t} awaits its commit")
        if t >= self.N:
            raise ContractViolationError(f"update_llrs: all {self.N} bits are committed")
        if t % width or t + width > self.N:
            raise ContractViolationError(
                f"a node of {width} bits cannot start at bit {t} of {self.N}")
        # the g-update's stage, t's lowest set bit; bit 0 has none, its rows one per frame
        n = self.n
        top = (t & -t).bit_length() - 1 if t else n
        g, fs, block = _llr_updates(n, top, stage)
        self._pending, self._stage = True, stage
        if block is None:  # stage n, n - 1 or n - 2, in path order
            sums = self._beta_rows[self._paths].reshape(self._beta.shape)
            llrs = np.broadcast_to(self._upper(stage, t, sums, self._channel),
                                   (*sums.shape[:-1], width)).reshape(-1, width)
            return llrs if stage else llrs[:, 0]
        # the updates that read stage n - 2 make it (past bit N/4 from N/2 values a row, N past N/2)
        upper, h = top >= n - 3, self.N >> 1
        parts = self._parts(self._rows << (n - (t < h) if upper and 2 * t >= h else top))
        if parts is _WHOLE:  # no views: one per step showed in traced page faults
            parts = ((self._llr, self._beta, self._channel),)
        else:
            parts = [(self._llr[f], self._beta[f], self._channel[f]) for f in parts]
        for llr, beta, channel in parts:
            self._recurse(llr, beta, self._upper(n - 2, t, beta, channel) if upper else None, g, fs)
        block = self._llr_rows[:, block]  # a bit's one slot gives one LLR per row
        return block[self._paths] if self._slots is None else block.take(self._slots, axis=0)

    def _upper(self, stage: int, t: int, beta, channel) -> np.ndarray:
        """Stage ``stage`` >= n - 2 at bit t, from ``channel`` down (Arikan's recursion): stage s
        is g of the stage above with the sums ``beta`` where t has bit 2^s, else f of its halves,
        one block per frame, read against the rows by broadcast, until the first g."""
        llrs = channel
        for s in range(self.n - 1, stage - 1, -1):
            w = 1 << s
            llrs = (_g(llrs, _signs(beta, s), w) if t & w
                    else self._f(llrs[..., :w], llrs[..., w : 2 * w]))
        return llrs

    def _recurse(self, llr, beta, upper, g, fs) -> None:
        """The g-update ``g`` (None at stages n - 2 and up), then the f-updates ``fs``, of one node.

        ``llr`` and ``beta`` are live rows, (rows, ...) or (frames, rows,
        ...), and ``upper``, stage n - 2 or None, is read against them.  Each
        update reads the two halves of the stage above, from ``upper`` or from
        ``llr``, and writes its own stage's block.
        """
        if g is not None:
            lo, hi, dst, from_upper, s = g
            src = upper if from_upper else llr
            # b + (1 - 2 beta) a, the sign read from a table by the committed partial sums;
            # the product goes into the sign's own block: one (rows, w) temporary, not two
            sign = _signs(beta, s)
            np.add(src[..., hi], np.multiply(sign, src[..., lo], out=sign), out=llr[..., dst])
            del sign  # not held through the f-updates below
        for lo, hi, dst, from_upper in fs:
            src = upper if from_upper else llr
            self._f(src[..., lo], src[..., hi], out=llr[..., dst])

    def update_partial_sums(self, x) -> None:
        """Commit the partial sums of the node that ``update_llrs`` last computed.

        ``x`` holds polar(u) over the node's 2^s bits, one row per path in
        path order, as a (paths, 2^s) block; for a bit it is the decided u,
        one per path or one for all.
        """
        if not self._pending:
            raise ContractViolationError(
                f"update_partial_sums at bit {self._t} requires update_llrs first")
        last = self._t + (1 << self._stage) - 1
        high = (~last & (last + 1)).bit_length() - 1  # trailing one bits of the last bit
        if high < self.n:  # bit N - 1 would fold into stage n, which no later bit reads
            at, assemble, byte, folds = _commit(high, self._stage)
            beta = self._beta
            if byte is None:  # whole-array packbits costs a third of its axis form
                x = np.packbits(x).reshape(-1, at.stop - at.start) if self._stage >= _PACKED else x
                self._beta_rows[:, at][self._paths] = x
            else:  # stage 3's 8 sums are made apart, then packed
                acc = np.empty((self.frames, self._cap, 1 << _PACKED), dtype=np.uint8)
                acc.reshape(-1, 1 << _PACKED)[:, at][self._paths] = x
                live = self._live(acc)
                for a, b, out in assemble:
                    np.bitwise_xor(beta[..., a], live[..., b], out=live[..., out])
                beta[..., byte] = self._live(np.packbits(acc).reshape(self.frames, -1, 1))
            for a, b, out in folds:
                np.bitwise_xor(beta[..., a], beta[..., b], out=beta[..., out])
        self._pending = False
        self._t = last + 1

    def take(self, rows) -> None:
        """Keep only the given paths, in the given order (repeats allowed).

        ``rows`` lists, for each new path, the path it copies; each frame
        keeps as many paths as every other, taken from its own, and no more
        than ``capacity`` are kept in all (``IndexError``).  A take does one
        of two things:

        - A cut that keeps the count: a path taken once stays in its row, and
          each further copy of a path goes into the row of a path not taken.
          No row moves unless a path is taken twice.
        - Any other take, a growth included, gathers each frame's kept
          paths, in order, into the first rows of its block (``grow`` copies
          a growth's rows as one slice).
        """
        rows = np.asarray(rows, dtype=np.intp)
        frames, live = self.frames, self._rows
        n, k = frames * live, rows.size
        if k > frames * self._cap:
            raise IndexError(f"{k} paths exceed the bank's {frames * self._cap} reserved rows")
        if k == n:
            try:  # bincount rejects negative rows, and rows past n - 1 lengthen its count
                count = np.bincount(rows, minlength=n)
            except ValueError:
                count = None
            valid = count is not None and count.size == n
        else:  # as unsigned integers, negative rows are huge
            valid = k % frames == 0 and (k == 0 or rows.view(np.uintp).max() < n)
        if valid and frames > 1:
            valid = (rows.reshape(frames, -1) // live == np.arange(frames)[:, None]).all()
        if not valid:
            raise IndexError(f"bank rows must lie in [0, {n}), every frame taking as many "
                             "of its own paths")
        if k == n:
            self._reuse(rows, count)
        else:
            self._gather(rows, k // frames)

    def _parts(self, per_frame: int):
        """Keys of a block of ``per_frame`` elements a frame: the whole, or runs of frames.

        Past ``_SPLIT`` elements over all frames, each run holds as many
        whole frames as fit in ``_SPLIT`` elements, and at least one.
        """
        frames = self.frames
        if frames == 1 or per_frame * frames <= _SPLIT:
            return _WHOLE
        return _runs(frames, max(1, _SPLIT // per_frame))

    def grow(self) -> None:
        """Take every path twice: each frame keeps its paths, then takes them again.

        Each frame's live rows are copied, as one slice, to the rows after
        them; more paths than ``capacity`` raise ``IndexError``.
        """
        live = self._rows
        if 2 * live > self._cap:
            raise IndexError(f"{2 * self.n_paths} paths exceed the bank's "
                             f"{self.frames * self._cap} reserved rows")
        # over several frames the two row ranges interleave in memory, so numpy copies the
        # source to a temporary first: as large as the live rows
        for f in self._parts(live * (self.N - 1)):
            self._llr_buf[f, live : 2 * live] = self._llr_buf[f, :live]
            self._beta_buf[f, live : 2 * live] = self._beta_buf[f, :live]
        slots = self._slots
        if slots is not None:  # each copy sits as far past its path's row as the frame's rows
            slots = slots.reshape(self.frames, live)
            slots = np.concatenate((slots, slots + live), axis=1).ravel()
        self._resize(2 * live, slots)

    def _reuse(self, rows, count) -> None:
        """A take that keeps the count; ``count`` is how often each path is taken."""
        # a path taken once keeps its row; the rows of paths not taken hold the second
        # and later copies.  Both lists run in path order, hence frame by frame, and each
        # frame has as many of one as of the other.  Methods, not np functions: a call
        # here costs more than the work.
        free = (count == 0).nonzero()[0]
        slots = rows.copy() if self._slots is None else self._slots.take(rows)
        if free.size:
            order = rows.argsort(kind="stable")
            ranked = rows.take(order)
            copies = order[1:][ranked[1:] == ranked[:-1]]
            if self._slots is not None:
                free = self._slots.take(free)
            src = slots.take(copies)
            slots[copies] = free
            per = max(1, _SPLIT // max(1, self.N - 1))  # rows a copy gathers first, at most
            for part in range(0, free.size, per):
                to, of = free[part : part + per], src[part : part + per]
                self._llr_rows[to] = self._llr_rows.take(of, axis=0)
                self._beta_rows[to] = self._beta_rows.take(of, axis=0)
        self._slots = self._paths = slots

    def _gather(self, rows, keep: int) -> None:
        """Gather the paths ``rows`` into the first ``keep`` rows of each frame's block."""
        src = (rows if self._slots is None else self._slots.take(rows)).reshape(self.frames, keep)
        # the kept rows overwrite live ones, so they are gathered first: into a fresh
        # array, which costs less than np.take's own copy when out overlaps its input
        for f in self._parts(keep * (self.N - 1)):
            self._llr_buf[f, :keep] = self._llr_rows.take(src[f], axis=0)
            self._beta_buf[f, :keep] = self._beta_rows.take(src[f], axis=0)
        self._resize(keep)


def _slots(N: int) -> tuple:
    """A row's LLR slots, N/4 - 1 (none up to N = 4), and sum bytes, N/8 + 6 (N - 1 up to 8)."""
    return max(0, (N >> 2) - 1), N - 1 if N <= 1 << _PACKED else (1 << _PACKED) - 2 + (N >> _PACKED)


@lru_cache(maxsize=1024)
def _sum_slot(s: int, stage: int) -> slice:
    """The slots of the last 2^s sums of stage ``stage``'s block (8 sums a slot from stage 3)."""
    if stage < _PACKED:
        return slice((2 << stage) - 1 - (1 << s), (2 << stage) - 1)
    end = (1 << _PACKED) - 2 + (2 << stage - _PACKED)
    return slice(end - (1 << s - _PACKED), end)


def _signs(beta, s: int) -> np.ndarray:
    """1 - 2 beta over stage s's block as floats, a new array (8 a byte from stage 3)."""
    sums = beta[..., _sum_slot(s, s)]
    if s < _PACKED:
        return _SIGN.take(sums)
    return _SIGN8.take(sums, axis=0).reshape(*sums.shape[:-1], 1 << s)


def _g(src, sign, w: int) -> np.ndarray:
    """The g-update src_hi + sign src_lo of the halves of ``src``, w wide, into ``sign``."""
    return np.add(src[..., w : 2 * w], np.multiply(sign, src[..., :w], out=sign), out=sign)


@lru_cache(maxsize=256)
def _runs(frames: int, run: int) -> tuple:
    """Keys of ``frames`` frames in runs of ``run``, the last run maybe shorter."""
    return tuple(slice(f, f + run) for f in range(0, frames, run))


@lru_cache(maxsize=1024)
def _update(n: int, s: int) -> tuple:
    """The update of stage s < n - 2: (lo, hi, dst, from_upper).

    It reads the halves lo and hi of the stage above, stage n - 2's block
    for stage n - 3, and writes its own stage's slots dst.
    """
    w = 1 << s
    if s + 3 == n:
        return slice(0, w), slice(w, 2 * w), slice(w - 1, 2 * w - 1), True
    above = 2 * w - 1  # where the stage above's block starts
    return slice(above, above + w), slice(above + w, above + 2 * w), slice(w - 1, above), False


@lru_cache(maxsize=1024)
def _llr_updates(n: int, top: int, stage: int) -> tuple:
    """(g, fs, block) of a node of 2^stage bits whose g-update is at stage ``top``.

    The g-update and the stage of the sums it reads (None at bit 0, where
    ``top`` is n, and at stages n - 1 and n - 2, made by ``_upper``), the f-updates
    from stage n - 3 or below down to the node's stage (``_update`` each),
    and the node's slots: slot 0 for a bit, None from stage n - 2.
    """
    width = 1 << stage
    return ((*_update(n, top), top) if top < n - 2 else None,
            tuple(_update(n, s) for s in range(min(top, n - 2) - 1, stage - 1, -1)),
            None if stage >= n - 2 else slice(width - 1, 2 * width - 1) if stage else 0)


@lru_cache(maxsize=1024)
def _commit(high: int, stage: int) -> tuple:
    """(at, assemble, byte, folds) of a node of 2^stage bits ending in ``high`` trailing ones.

    The node's last bit closes a right block at each stage from the node's up to high; each
    folds, (a, b, out), into that stage's left block, filling the merged block from its right
    end, and the merged block parks at stage high.  The node's sums go to ``at`` (packed from
    stage 3) and ``folds`` run in the row; but a node below stage 3 parking above it puts them
    in ``at`` of 8 sums apart, folded up to stage 3 by ``assemble`` and packed into ``byte``.
    """
    apart = stage < _PACKED <= high
    folds = tuple((_sum_slot(s, s), _sum_slot(s, high),
                   slice(_sum_slot(s + 1, high).start, _sum_slot(s, high).start))
                  for s in range(_PACKED if apart else stage, high))
    if not apart:
        at = _sum_slot(stage, high)
        return at if stage else at.start, (), None, folds
    end = 1 << _PACKED  # filled from its right end, as a row's block is
    return (slice(end - (1 << stage), end) if stage else end - 1,
            tuple((_sum_slot(s, s), slice(end - (1 << s), end),
                   slice(end - (2 << s), end - (1 << s))) for s in range(stage, _PACKED)),
            _sum_slot(_PACKED, high), folds)
