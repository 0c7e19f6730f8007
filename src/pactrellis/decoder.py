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
children's metrics and states, and only then is the SC bank gathered, once,
from their parent rows, so it never holds more rows than the budget.
Paths keep no histories: each information bit stores a backpointer (parent
row, bit) per survivor, and the winner is read back by one traceback.

Several frames decode in lockstep as one set of rows, grouped by frame: the
path count after every step depends only on the schedule and the budget, so
every frame holds the same number of rows, and each step runs over all of
them at once.  Each frame's rows keep the order they would have alone.

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
from itertools import accumulate

import numpy as np

from .pac_core import PacCode, conv_transform, parity_table, polar_transform, rate_profile_insert
from .sc_engine import COMBINING_RULES, ScBank

__all__ = [
    "DECODER_NAMES",
    "DecoderConfig",
    "PathSet",
    "DecodeResult",
    "hard_decision",
    "branch_metric",
    "decode",
    "node_schedule",
    "node_tables",
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
        if not isinstance(self.list_size, (int, np.integer)) or self.list_size < 1:
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


@lru_cache(maxsize=64)
def node_schedule(code: PacCode, nodes: bool = True) -> tuple:
    """The decode steps of ``code``, in bit order: (stage s, information?) each.

    [0, N) is split recursively into aligned blocks of 2^s bits until each is a
    Rate-0 node (every bit frozen) or a REP node (only its last bit carries
    information); a single bit is either.  Each step starts where the one
    before it ended.  ``nodes=False`` keeps every step one bit wide.
    """
    info = [False] * code.N
    for a in code.A:
        info[a] = True
    count = [0, *accumulate(info)]  # information bits before each index
    steps = []
    # one tuple per kind of step, shared: a cached schedule costs a pointer per step
    kinds = {(s, i): (s, i) for s in range(code.n + 1) for i in (False, True)}

    def split(t, s):
        last = t + (1 << s) - 1
        k = count[last + 1] - count[t]
        if s == 0 or nodes and k == info[last]:  # no information bit, or only the last
            steps.append(kinds[s, info[last]])
        else:
            split(t, s - 1)
            split(t + (1 << (s - 1)), s - 1)

    split(0, code.n)
    return tuple(steps)


@lru_cache(maxsize=64)
def node_tables(g: tuple, n: int) -> tuple:
    """Per stage s <= n: (X, 2X - 1, min(2^s, m)) for a node of 2^s bits with v = 0 throughout.

    Bit i of such a node has u_i = tab[state >> i] (zeros shift in), so
    X = polar(u) is a row per entry state.  u_i = 0 for i >= m, hence
    X_j = 0 for j >= m: each table keeps only its first min(2^s, m) columns,
    2^m x min(2^s, m) entries, and stages with 2^s >= m share one.  A bit's
    X is its u, one value per state.  The last entry is the register shift
    over the node.
    """
    tab = parity_table(g)
    m = len(g) - 1
    states = np.arange(1 << m)[:, None]
    tables = [(tab, 2.0 * tab - 1.0, min(1, m))]
    for s in range(1, n + 1):
        if s > 1 and 1 << (s - 1) >= m:  # as wide as the register already: the same table
            tables.append(tables[-1])
            continue
        x = np.ascontiguousarray(polar_transform(tab[states >> np.arange(1 << s)])[:, :m])
        tables.append((x, 2.0 * x - 1.0, min(1 << s, m)))
    for x, sign, _ in tables:  # shared by every decode of the code
        x.flags.writeable = sign.flags.writeable = False
    return tuple(tables)


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
    ``parents`` and ``bits`` hold, per information bit, each survivor's
    parent row and decided bit, in the first ``decided`` rows of two
    (K, rows) tables; ``traceback`` reads messages back from them.
    ``steps`` is the node schedule that ``decode`` walks for this code and config.
    ``per_frame`` is the most paths a frame holds (``DecoderConfig.paths_per_frame``).
    """

    def __init__(self, channel_llrs, code: PacCode, config: DecoderConfig):
        llrs = np.asarray(channel_llrs, dtype=float)
        if llrs.ndim not in (1, 2) or llrs.shape[-1] != code.N:
            raise ValueError(f"expected {code.N} channel LLRs per frame, got shape {llrs.shape}")
        self.config = config
        self.per_frame = config.paths_per_frame(code)
        rows = self.per_frame * (llrs.shape[0] if llrs.ndim == 2 else 1)
        self.bank = ScBank(llrs, combining=config.combining_rule, capacity=rows)
        self.frames = self.bank.frames
        self.states = np.zeros(self.frames, dtype=np.int64)
        self.metrics = np.zeros(self.frames, dtype=float)
        self.parents = np.empty((code.K, rows), dtype=np.int16 if rows < 1 << 15 else np.intp)
        self.bits = np.empty((code.K, rows), dtype=bool)
        self.decided = 0
        # after the bank: made by the first decode, these cached tables stay above its
        # bank on the heap, so glibc's default malloc does not trim and re-fault the
        # bank between decodes
        self.steps = node_schedule(code, config.node_steps)
        self._tables = node_tables(code.g, code.n)
        self._phi = _PHI[config.metric_mode]
        self._high = (1 << code.m) >> 1  # register bit that v = 1 sets (0 when m = 0)

    @property
    def size(self) -> int:
        """Live paths over all frames."""
        return self.metrics.size

    def traceback(self, rows) -> np.ndarray:
        """The information bits decided so far along the paths that end in ``rows``.

        ``rows`` is one row or an array of rows; the result has the bits as
        one more, last, axis.  Each path is walked back with Python integers:
        a numpy call per bit would cost several times more for the few
        frames of a batch.
        """
        rows = np.asarray(rows, dtype=np.intp)
        parents, bits = memoryview(self.parents), memoryview(self.bits)
        paths = []
        for row in rows.ravel().tolist():
            path = [0] * self.decided
            for j in range(self.decided - 1, -1, -1):
                path[j] = bits[j, row]
                row = parents[j, row]
            paths.append(path)
        return np.array(paths, dtype=np.int8).reshape(*rows.shape, self.decided)


def _node_llrs(paths: PathSet, stage: int):
    """z = (2X - 1) alpha over the bank's next node, of 2^stage bits, and X, both (paths, 2^stage).

    alpha is the node's LLR block and X the partial sums of its v = 0
    extension, looked up by each path's register state on entry.  A bit
    (stage 0) gives one value per path: its z and its u.
    """
    alpha = paths.bank.update_llrs(stage)
    x, sign, _ = paths._tables[stage]
    states = paths.states
    head = x.shape[-1]
    if not stage or head == alpha.shape[1]:
        return sign[states] * alpha, x[states]
    # past the register's m bits the state is 0, so X_j = 0 and z_j = -alpha_j
    z = np.negative(alpha)
    z[:, :head] = sign[states] * alpha[:, :head]
    xs = np.zeros(alpha.shape, dtype=np.int8)
    xs[:, :head] = x[states]
    return z, xs


def _node_sum(penalties):
    """Each path's node sum of per-LLR penalties; a bit's one penalty is its own sum."""
    return penalties if penalties.ndim == 1 else penalties.sum(axis=1)


def extend_frozen(paths: PathSet, stage: int = 0) -> PathSet:
    """Rate-0 step: extend every path with v = 0 over the next 2^stage bits.

    Charges each path its node sum, shifts its register state by the node
    width and commits the node's partial sums.
    """
    z, x = _node_llrs(paths, stage)
    paths.metrics += _node_sum(paths._phi(0.0, z))
    paths.states >>= paths._tables[stage][2]
    paths.bank.update_partial_sums(x)
    return paths


def _children(v0, v1, frames: int):
    """Per frame, the rows of ``v0``, then those of ``v1``: the order of a split's children."""
    if frames == 1:
        return np.concatenate((v0, v1))
    shape = (frames, -1, *v0.shape[1:])
    return np.concatenate((v0.reshape(shape), v1.reshape(shape)), axis=1).reshape(-1, *v0.shape[1:])


def extend_info(paths: PathSet, stage: int = 0, observer=None) -> PathSet:
    """REP step: over the next 2^stage bits, frozen but the last, split every path in two.

    The children take v = 0 and v = 1 at the node's information bit, its
    last; both extend from the parent's register state on entry, and the
    v = 1 child's partial sums are the v = 0 child's, flipped.  The path
    arrays are replaced by the children's (per frame, v = 0 children first,
    v = 1 children after them, both in parent order), and ``prune`` (given
    ``observer``) selects among them; only then are the survivors' parent
    rows of the bank gathered and their partial sums committed.
    """
    frames = paths.frames
    per = paths.size // frames  # parents per frame
    z, x = _node_llrs(paths, stage)
    shifted = paths.states >> paths._tables[stage][2]
    paths.states = _children(shifted, shifted | paths._high, frames)
    paths.metrics = _children(paths.metrics, paths.metrics, frames) + _node_sum(
        paths._phi(0.0, _children(z, -z, frames)))
    keep = prune(paths, observer=observer)
    j, k = paths.decided, keep.size
    # a kept child's position in its frame says its bit; its parent is that position
    # modulo the frame's parents, offset by the frame's first row
    if frames == 1:
        pos, parent = keep, keep % per
    else:
        frame, pos = np.divmod(keep, 2 * per)
        parent = pos % per + frame * per
    bit = np.greater_equal(pos, per, out=paths.bits[j, :k])
    paths.parents[j, :k] = parent  # the bank's gather and the sums below read parent as intp
    paths.decided = j + 1
    paths.bank.take(parent)
    paths.bank.update_partial_sums(x[parent] ^ (bit if x.ndim == 1 else bit[:, None]))
    return paths


def prune(paths: PathSet, observer=None) -> np.ndarray:
    """Narrow the path arrays to the survivors; return the kept rows, in row order.

    All rows are kept while each frame is within ``paths.per_frame``, its
    budget or 2^K paths, whichever is fewer.  Over it, each frame's rows form
    equal contiguous groups, one under global sorting and one per occupied
    register state under local sorting, and each keeps its list_size smallest
    metrics, a tie going to the earlier row.  Only states and metrics are
    narrowed, not the bank; ``observer(states, metrics, keep)`` sees cuts.

    Under local sorting each frame's rows stay sorted by state, with equal
    counts in the occupied states, by induction: a shift keeps the states in
    order, the v = 0 children's states all precede the v = 1 children's, and
    a cut leaves list_size paths in every occupied state.  The occupied
    states are those whose bits written at information bits take every value
    and whose other bits are 0, so the last row's state, all free bits set,
    counts the groups; every frame has the same states.
    """
    cfg = paths.config
    size = paths.size
    if size <= paths.per_frame * paths.frames:
        return np.arange(size)
    groups = paths.frames
    if cfg.sorting == "local":
        groups <<= int(paths.states[-1]).bit_count()
    width = size // groups
    keep = paths.metrics.reshape(groups, width).argsort(kind="stable")[:, : cfg.list_size]
    if groups > 1:  # positions in groups to rows; for one group the add would outcost the sort
        keep = keep + np.arange(0, size, width)[:, None]
    keep = keep.ravel()
    keep.sort()
    if observer is not None:
        observer(paths.states, paths.metrics, keep)
    paths.states = paths.states[keep]
    paths.metrics = paths.metrics[keep]
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
    code's node schedule (``node_schedule``), one step per node, each at the
    bank's next undecided bit (``ScBank.t``): a Rate-0 node extends every
    path, and a REP node splits every path at its information bit and
    selects survivors.  A matched pair of rules (``DecoderConfig.node_steps``)
    takes K steps when every frozen bit lies in a REP node, as on the
    Reed-Muller profile; other pairs take N.
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
    for stage, info in paths.steps:
        last = paths.bank.t + (1 << stage) - 1
        if info:
            extend_info(paths, stage, partial(prune_observer, last) if prune_observer else None)
        else:
            extend_frozen(paths, stage)
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
