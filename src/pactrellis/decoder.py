"""Unified trellis decoder: SC, SC-list, Viterbi and list-Viterbi from one path engine.

Every decoder in the family runs the same loop over a per-code schedule of
nodes: over a Rate-0 node (frozen bits only) each path extends with v = 0; over
a REP node (frozen bits, then one information bit) each path splits into a
v = 0 and a v = 1 child; when the survivor budget overflows, paths are pruned
either globally (list decoding) or per shift-register state (list Viterbi).
The special cases fall out of the configuration:

    sorting=global, list_size=1   -> successive cancellation
    sorting=global, list_size=L   -> SC list decoding
    sorting=local,  list_size=1   -> Viterbi (one survivor per state)
    sorting=local,  list_size=L   -> list Viterbi (L survivors per state)

All per-path state lives in parallel arrays (one row per path) so that every
operation is applied to the whole survivor set in a handful of vector ops.
An information bit selects before it copies: survivors are chosen from the
children's metrics and states, and only then does the SC bank take them,
once, from their parents, so it never holds more rows than the budget (a
survivor that is its parent's only kept child keeps its parent's bank row).
Paths keep no histories: each information bit stores each survivor's position
among its frame's children, and the winner is read back by one traceback.

Several frames decode in lockstep as one set of rows, grouped by frame: the
path count after every step depends only on the schedule and the budget, so
every frame holds the same number of rows, and each step runs over all of
them at once.  Each frame's rows keep the order they would have alone.

What the code and config fix is worked out once, per code and config, and
cached (``step_plan``): each step's node, its path counts, whether it grows
or cuts and the cut's groups, and, under per-state sorting, every register
state and its table rows.  The plan is one frame's, and serves every frame
of a batch of any size.  ``decode`` walks it; only metrics, and the
survivors they choose, are left to compute.

Rows keep their order, so a row's position is its age: a v = 0 child takes
its parent's row, the v = 1 children follow every older path, and a cut
keeps its survivors in order.  An exact metric tie goes to the earlier row,
and one grouped selection serves both sorting modes (see ``prune``).

Both metric modes charge a bit by one rule: deciding u against decision LLR
lam costs phi(0, z), z = (2u - 1) lam, with phi = max (approximate) or
log(e^x + e^y) (exact).  A node of 2^s bits is charged the same rule summed
over its stage-s LLRs alpha and partial sums X = polar(u): sum_j phi(0, z_j),
z_j = (2 X_j - 1) alpha_j.  Its frozen bits fix u from the register state on
entry alone, so z is a row of +-1 entries, looked up by that state, times
alpha, and the two children of a REP node pay the sums of phi(0, z) and
phi(0, -z) (its information bit flips every X_j).  The node sum equals the
bit-by-bit sum, up to rounding, only when the combining rule matches the
metric (min-sum with approximate, exact with exact); other pairs decode one
bit per step, where both sums are one term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .pac_core import PacCode, conv_transform, rate_profile_insert
from .sc_engine import COMBINING_RULES, ScBank
from .schedule import Step, node_tables, plan_steps, table_rows

__all__ = [
    "DECODER_NAMES",
    "DecoderConfig",
    "PathSet",
    "DecodeResult",
    "hard_decision",
    "branch_metric",
    "decode",
    "step_plan",
    "frame_bytes",
]

SORTING_MODES = ("local", "global")
# the penalty phi(0, z) of each metric mode (see the module docstring)
_PHI = {"exact": np.logaddexp, "approximate": np.maximum}
METRIC_MODES = tuple(_PHI)

DECODER_NAMES = {
    "sc": ("global", 1),
    "scl": ("global", None),
    "va": ("local", 1),
    "lva": ("local", None),
}


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder configuration: sorting strategy, list size, metric and combining rules.

    ``list_size`` is the survivor budget per state under local sorting and the
    total budget under global sorting, so the local total is list_size * 2^m.
    """

    sorting: str = "global"
    list_size: int = 1
    metric_mode: str = "approximate"
    combining_rule: str = "min-sum"

    def __post_init__(self):
        if self.sorting not in SORTING_MODES:
            raise ValueError(f"sorting must be one of {SORTING_MODES}, got {self.sorting!r}")
        if (isinstance(self.list_size, bool) or not isinstance(self.list_size, (int, np.integer))
                or self.list_size < 1):
            raise ValueError(f"list_size must be a positive integer, got {self.list_size!r}")
        if self.metric_mode not in METRIC_MODES:
            raise ValueError(f"metric_mode must be one of {METRIC_MODES}, got {self.metric_mode!r}")
        if self.combining_rule not in COMBINING_RULES:
            raise ValueError(
                f"combining_rule must be one of {COMBINING_RULES}, got {self.combining_rule!r}"
            )

    @classmethod
    def from_name(cls, name: str, list_size: int | None = None, **kwargs) -> "DecoderConfig":
        """Build a config from a decoder name: sc, scl, va or lva.

        scl and lva need a list size; sc and va keep one survivor (per state
        for va), so they take no list size other than 1.
        """
        try:
            sorting, implied = DECODER_NAMES[name]
        except KeyError:
            raise ValueError(f"decoder name must be one of {sorted(DECODER_NAMES)}, got {name!r}")
        if list_size is None:
            if implied is None:
                raise ValueError(f"decoder {name!r} needs an explicit list size")
            list_size = implied
        elif implied is not None and list_size != implied:
            raise ValueError(
                f"decoder {name!r} keeps list size {implied}, got {list_size}; "
                "scl and lva take a list size"
            )
        return cls(sorting=sorting, list_size=list_size, **kwargs)

    @property
    def name(self) -> str:
        """Conventional name of this configuration."""
        if self.sorting == "global":
            return "sc" if self.list_size == 1 else "scl"
        return "va" if self.list_size == 1 else "lva"

    def budget(self, m: int) -> int:
        """Total survivor budget for a code with memory m."""
        return self.list_size if self.sorting == "global" else self.list_size << m

    def paths_per_frame(self, code: PacCode) -> int:
        """The most paths a frame of ``code`` ever holds: its budget, or 2^K if fewer."""
        return min(self.budget(code.m), 1 << code.K)

    @property
    def node_steps(self) -> bool:
        """Whether a step may span a node of several bits: only where the rules match."""
        return (self.combining_rule == "exact") == (self.metric_mode == "exact")


def step_plan(code: PacCode, config: DecoderConfig) -> tuple:
    """The ``Step`` records that ``decode`` walks for ``code``, one frame's, cached.

    Each frame's path count after every step, each cut's groups and, under
    local sorting, every register state depend on the code's node schedule
    and the config alone, so they are worked out once
    (``schedule.plan_steps``) and serve every batch.
    """
    return plan_steps(code, config.node_steps, config.sorting, config.list_size,
                      config.paths_per_frame(code))


def _position_dtype(paths: int) -> np.dtype:
    """The backpointers' dtype: positions among a frame's 2 ``paths`` children, narrow."""
    return np.min_scalar_type(2 * paths - 1)


def frame_bytes(code: PacCode, config: DecoderConfig) -> int:
    """The bytes a frame holds in a decode: its bank's (``ScBank.frame_bytes``), its paths'
    backpointer columns, and 4 floats (node LLRs, signs, two z blocks) a parent and bit of the
    widest step."""
    paths, steps = config.paths_per_frame(code), step_plan(code, config)
    widest = max(per << step.stage for per, step in zip((1, *(s.paths for s in steps)), steps))
    return (ScBank.frame_bytes(code.N, paths) + paths * code.K * _position_dtype(paths).itemsize
            + 4 * np.dtype(float).itemsize * widest)


@lru_cache(maxsize=256)
def _offsets(groups: int, width: int) -> np.ndarray:
    """Each of ``groups`` groups' first row, ``width`` rows apart, as a read-only column."""
    offsets = np.arange(0, groups * width, width)[:, None]
    offsets.flags.writeable = False
    return offsets


def hard_decision(llr):
    """Hard decision on a decision LLR: 0 for positive, 1 otherwise (zero maps to 1)."""
    out = np.where(np.asarray(llr, dtype=float) > 0, 0, 1).astype(np.int8)
    return int(out) if np.ndim(llr) == 0 else out


def branch_metric(llr, u_hat, mode: str = "approximate"):
    """Per-bit penalty for deciding u_hat against decision LLR(s).

    Exact mode evaluates log(1 + exp((2u - 1) llr)); approximate mode charges
    zero when u_hat matches the hard decision and |llr| otherwise.
    """
    if mode not in _PHI:
        raise ValueError(f"metric mode must be one of {METRIC_MODES}, got {mode!r}")
    out = _PHI[mode](0.0, (2.0 * np.asarray(u_hat) - 1.0) * np.asarray(llr, dtype=float))
    return float(out) if out.ndim == 0 else out


class PathSet:
    """The live decoder hypotheses, stored as parallel arrays (one row per path).

    ``channel_llrs`` is one frame or a (frames, N) array of frames decoded in
    lockstep (see the module docstring); rows are grouped by frame.
    ``positions`` holds, per information bit, each survivor's position
    among its frame's children, in the first ``decided`` rows of a (K,
    rows) table, written at cuts; ``traceback`` reads messages back from it.
    ``steps`` is the plan that ``decode`` walks for this code and config
    (``step_plan``), one frame's, which every frame follows.  ``states`` is
    read-only, and the plan owns the register states wherever it knows
    them: at every step under local sorting, and under global sorting up
    to the first cut, where the path set makes its own from the plan's.
    """

    def __init__(self, channel_llrs, code: PacCode, config: DecoderConfig):
        llrs = np.asarray(channel_llrs, dtype=float)
        if llrs.ndim not in (1, 2) or llrs.shape[-1] != code.N:
            raise ValueError(f"expected {code.N} channel LLRs per frame, got shape {llrs.shape}")
        self.config = config
        rows = config.paths_per_frame(code) * (llrs.shape[0] if llrs.ndim == 2 else 1)
        self.bank = ScBank(llrs, combining=config.combining_rule, capacity=rows)
        self.frames = self.bank.frames
        self.metrics = np.zeros(self.frames, dtype=float)
        self.positions = np.empty((code.K, rows), dtype=_position_dtype(rows // self.frames))
        self.decided = 0
        # after the bank: made by the first decode, the cached plan and tables stay above
        # its bank on the heap, so glibc's default malloc does not trim and re-fault the
        # bank between decodes
        self.steps = step_plan(code, config)
        self._tables = node_tables(code.g, code.n)
        self._phi = _PHI[config.metric_mode]
        self._high = (1 << code.m) >> 1  # register bit that v = 1 sets (0 when m = 0)
        # the register states: the plan's, one frame's for all (_planned), until a global
        # cut lets metrics decide them; from there the path set's own (_states)
        self._planned, self._states = self.steps[0].states, None

    @property
    def size(self) -> int:
        """Live paths over all frames."""
        return self.metrics.size

    @property
    def states(self) -> np.ndarray:
        """Each path's register state, in path order (read-only).

        While the plan holds them, a fresh array made from its one frame,
        so that reading them changes nothing; after a global cut, a view of
        the path set's own, which later steps replace, never write.
        """
        states = (self._states.view() if self._planned is None
                  else np.concatenate((self._planned,) * self.frames, dtype=np.int64))
        states.flags.writeable = False
        return states

    def traceback(self, rows) -> np.ndarray:
        """The information bits decided so far along the paths that end in ``rows``.

        ``rows`` is one row or an array of rows; the result has the bits as
        one more, last, axis.  A position past the frame's parents is a v = 1
        child's.  Each path is walked back with Python integers: a numpy call
        per bit would cost several times more for the few frames of a batch.
        """
        rows = np.asarray(rows, dtype=np.intp)
        # per frame at each information bit: its parents, and the children a cut keeps
        before = (1, *(step.paths for step in self.steps))
        counts = [(per, step.cut and step.paths) for per, step in zip(before, self.steps)
                  if step.info]
        positions, paths = memoryview(self.positions), []
        for row in rows.ravel().tolist():
            frame, local = divmod(row, self.size // self.frames)
            path = [0] * self.decided
            for j in range(self.decided - 1, -1, -1):
                per, kept = counts[j]
                if kept:  # a growth keeps its children in place: a path's position is its own
                    local = positions[j, frame * kept + local]
                if local >= per:
                    path[j], local = 1, local - per
            paths.append(path)
        return np.array(paths, dtype=np.int8).reshape(*rows.shape, self.decided)


def _charge(paths: PathSet, step: Step, alpha, blocks: int) -> tuple:
    """z = (2X - 1) alpha; return (z, X).

    alpha is the LLR block of the step's node, (paths, 2^stage), or one
    value per path for a bit.  z has ``blocks`` blocks of alpha's shape, made
    after the lookups (a split's children take two), and the product is the
    first; the penalties phi(0, z) then overwrite z.  A step whose states
    the plan holds (``step.signs`` set) owns them: the signs and X are its
    arrays, one frame's, which every frame shares, and X is returned so.
    After a global cut both are looked up by the path set's own states
    (``table_rows``).  Either way the signs cover the whole node.
    """
    if step.signs is not None:
        signs, xs = step.signs, step.xs
        if paths.frames > 1:  # made whole, so that the product runs over contiguous blocks
            signs = np.concatenate((signs,) * paths.frames, dtype=float)
    else:
        signs, xs = table_rows(paths._tables, step.stage, paths._states)
    z = np.empty((blocks, *alpha.shape))
    np.multiply(signs, alpha, out=z[0])
    return z, xs


def _node_sum(penalties, stage: int):
    """Each path's node sum of per-LLR penalties (the last axis); a bit's one penalty is its own.

    numpy sums fewer than 8 terms in order, and column adds in that order cost
    less than its reduce.
    """
    if not stage:
        return penalties
    if stage > 2:
        return penalties.sum(axis=-1)
    total = np.add(penalties[..., 0], penalties[..., 1])
    for j in range(2, 1 << stage):
        np.add(total, penalties[..., j], out=total)
    return total


def _every_frame(a, frames: int):
    """One frame's rows, repeated for every frame."""
    return a if frames == 1 else np.concatenate((a,) * frames)


def extend_frozen(paths: PathSet, step: Step) -> PathSet:
    """Rate-0 step: extend every path with v = 0 over the node of the plan's ``step``.

    Charges each path its node sum, shifts its register state by the node
    width and commits the node's partial sums.
    """
    z, xs = _charge(paths, step, paths.bank.update_llrs(step.stage), 1)
    paths.metrics += _node_sum(paths._phi(0.0, z[0], out=z[0]), step.stage)
    if step.signs is not None:
        paths._planned = step.after
        xs = _every_frame(xs, paths.frames)
    else:  # a new array: one a hook holds (``states``) keeps its step's states
        paths._states = paths._states >> paths._tables[step.stage][2]
    paths.bank.update_partial_sums(xs)
    return paths


def _children(v0, v1, frames: int):
    """Per frame, the rows of ``v0``, then those of ``v1``: the order of a split's children."""
    if frames == 1:
        return np.concatenate((v0, v1))
    shape = (frames, -1, *v0.shape[1:])
    return np.concatenate((v0.reshape(shape), v1.reshape(shape)), axis=1).reshape(-1, *v0.shape[1:])


def extend_info(paths: PathSet, step: Step, observer=None) -> PathSet:
    """REP step: split every path over the node of the plan's ``step``, frozen but its last bit.

    The children take v = 0 and v = 1 at the node's information bit, its
    last; both extend from the parent's register state on entry, and the
    v = 1 child's partial sums are the v = 0 child's, flipped.  The path
    arrays are replaced by the children's (per frame, v = 0 children first,
    v = 1 children after them, both in parent order).  A growth keeps them
    all, in place, and the bank grows.  A cut has ``prune`` (given
    ``observer``) select among them, and only then does the bank take the
    survivors from their parents.  Then it commits their partial sums.
    """
    frames, stage, planned = paths.frames, step.stage, step.signs is not None
    per = paths.size // frames  # parents per frame
    # the v = 0 children's z, then the v = 1 children's
    z, xs = _charge(paths, step, paths.bank.update_llrs(stage), 2)
    np.negative(z[0], out=z[1])
    sums = _node_sum(paths._phi(0.0, z, out=z), stage)
    del z  # not held through the cut and the bank's take
    if frames == 1:
        paths.metrics = np.add(sums, paths.metrics).reshape(-1)
    else:  # per frame, its v = 0 children, then its v = 1 children
        paths.metrics = np.add(sums.reshape(2, frames, per).transpose(1, 0, 2),
                               paths.metrics.reshape(frames, 1, per), order="C").reshape(-1)
    if planned:
        paths._planned = step.children
    else:
        shifted = paths._states >> paths._tables[stage][2]
        paths._states = _children(shifted, shifted | paths._high, frames)
    j = paths.decided
    paths.decided = j + 1
    if step.cut is None:  # a growth: every child keeps its position, so none is written
        paths.bank.grow()
        x = _every_frame(step.child_xs, frames) if planned else _children(xs, xs ^ 1, frames)
        paths.bank.update_partial_sums(x)
        return paths
    keep = prune(paths, step, observer)
    # a kept child's position in its frame says its bit; its parent is that position
    # modulo the frame's parents, offset by the frame's first row
    if frames == 1:
        pos = keep
        parent = local = keep % per
    else:
        frame, pos = np.divmod(keep, 2 * per)
        local = pos % per
        parent = local + frame * per
    paths.positions[j, : keep.size] = pos
    bit = pos >= per
    paths.bank.take(parent)
    x = xs.take(local if planned else parent, axis=0)
    x ^= bit if x.ndim == 1 else bit[:, None]
    paths.bank.update_partial_sums(x)
    return paths


def prune(paths: PathSet, step: Step, observer=None) -> np.ndarray:
    """Cut the path arrays to the survivors of the plan's ``step``; return the kept rows, in order.

    Each frame's rows form the equal contiguous groups of the step's cut
    (``schedule.plan_steps``): one under global sorting, one per occupied
    register state under local sorting.  Each group keeps its list_size
    smallest metrics, a tie going to the earlier row.  Only states and
    metrics are narrowed, not the bank; ``observer(states, metrics, keep)``
    sees the cut.
    """
    groups, width = step.cut
    groups *= paths.frames
    keep = paths.metrics.reshape(groups, width).argsort(kind="stable")[:, : paths.config.list_size]
    if groups > 1:  # positions in groups to rows (for one group, no add)
        keep = keep + _offsets(groups, width)
    keep = keep.ravel()
    keep.sort()
    if observer is not None:
        observer(paths.states, paths.metrics, keep)
    if step.after is not None:
        paths._planned = step.after
    else:  # a global cut: from the plan's children at the first, then the path set's own
        paths._states, paths._planned = paths.states.take(keep), None
    paths.metrics = paths.metrics.take(keep)
    return keep


@dataclass
class DecodeResult:
    """Winner of a decode plus the final survivor set for diagnostics.

    For a (frames, N) batch every field has a leading frame axis, and
    ``metric`` is an array.
    """

    d_hat: np.ndarray
    metric: float
    v_hat: np.ndarray
    u_hat: np.ndarray
    survivor_metrics: np.ndarray = field(repr=False, default=None)


def decode(channel_llrs, code: PacCode, config: DecoderConfig,
           step_hook=None, prune_observer=None) -> DecodeResult:
    """Run the configured trellis decoder over one block of channel LLRs, or a batch of them.

    Decoding starts from a single zero-state, zero-metric path and walks the
    plan of the code's node schedule (``step_plan``, ``node_schedule``), one
    step per node, each at the bank's next undecided bit (``ScBank.t``): a
    Rate-0 node extends every path, and a REP node splits every path at its
    information bit and, once the budget overflows, selects survivors.  A
    matched pair of rules (``DecoderConfig.node_steps``) takes K steps when
    every frozen bit lies in a REP node, as on the Reed-Muller profile;
    other pairs take N.
    Returns the winner's message bits (read back by traceback), its v and
    u = conv(v, g), and its final metric.  The winner is each frame's first
    smallest metric (an argmin), so a tie goes to the earlier row, the older
    path; ``survivor_metrics`` are each frame's final metrics, sorted.

    ``channel_llrs`` of shape (frames, N) decodes every row as its own frame,
    all in lockstep through the same steps; each frame's result is
    byte-identical to its own one-frame call, and the result's fields gain
    a leading frame axis.  A one-frame call is the batch of one.

    ``step_hook(t, paths)`` is called after each step; ``prune_observer``
    receives (t, states, metrics, kept_rows) at every pruning event.  Both
    see t as the last bit of the step's node, and every frame's rows.
    """
    paths = PathSet(channel_llrs, code, config)
    watch = step_hook is not None or prune_observer is not None
    for step in paths.steps:
        last = paths.bank.t + (1 << step.stage) - 1 if watch else None
        if step.info:
            extend_info(paths, step, partial(prune_observer, last) if prune_observer else None)
        else:
            extend_frozen(paths, step)
        if step_hook is not None:
            step_hook(last, paths)
    metrics = paths.metrics.reshape(paths.frames, -1)
    # each frame's first minimum: a tie goes to the earlier row
    win = metrics.argmin(axis=1) + np.arange(0, paths.size, metrics.shape[1])
    d_hat = paths.traceback(win)
    v_hat = rate_profile_insert(d_hat, code.A, code.N)
    u_hat = conv_transform(v_hat, code.g)
    metric, survivors = paths.metrics[win], np.sort(metrics, kind="stable")
    if paths.bank.channel.ndim == 1:  # one frame, given as one: no frame axis
        return DecodeResult(d_hat[0], float(metric[0]), v_hat[0], u_hat[0], survivors[0])
    return DecodeResult(d_hat, metric, v_hat, u_hat, survivors)
