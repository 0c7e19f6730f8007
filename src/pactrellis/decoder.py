"""Unified trellis decoder: SC, SC-list, Viterbi and list-Viterbi from one path engine.

Every decoder in the family runs the same loop: at a frozen index each path
extends with v = 0; at an information index each path splits into a v = 0 and
a v = 1 child; when the survivor budget overflows, paths are pruned either
globally (list decoding) or per shift-register state (list Viterbi).  The
special cases fall out of the configuration:

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

Rows keep their order, so a row's position is its age: a v = 0 child takes
its parent's row, the v = 1 children follow every older path, and a cut
keeps its survivors in order.  An exact metric tie goes to the earlier row,
and one grouped selection serves both sorting modes (see ``prune``).

Both metric modes charge a bit by one rule: deciding u against decision LLR
lam costs phi(0, z), z = (2u - 1) lam, with phi = max (approximate) or
log(e^x + e^y) (exact).  z is a +-1 entry, looked up by register state, times
lam, and the two children of an information bit pay phi(0, z) and phi(0, -z).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .pac_core import PacCode, conv_transform, parity_table, rate_profile_insert
from .sc_engine import COMBINING_RULES, ContractViolationError, ScBank

__all__ = [
    "DecoderConfig",
    "PathSet",
    "DecodeResult",
    "hard_decision",
    "branch_metric",
    "decode",
]

SORTING_MODES = ("local", "global")
# the penalty phi(0, z) of each metric mode (see the module docstring)
_PHI = {"exact": np.logaddexp, "approximate": np.maximum}
METRIC_MODES = tuple(_PHI)

_DECODER_NAMES = {
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
            sorting, implied = _DECODER_NAMES[name]
        except KeyError:
            raise ValueError(f"decoder name must be one of {sorted(_DECODER_NAMES)}, got {name!r}")
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

    ``parents`` and ``bits`` hold, per information bit, each survivor's
    parent row and decided bit; ``traceback`` reads a message back from them.
    """

    def __init__(self, channel_llrs, code: PacCode, config: DecoderConfig):
        llrs = np.asarray(channel_llrs, dtype=float)
        if llrs.size != code.N:
            raise ValueError(f"expected {code.N} channel LLRs, got {llrs.size}")
        self.code = code
        self.config = config
        # no more than min(budget, 2^K) paths are ever live
        cap = min(config.budget(code.m), 1 << code.K)
        self.bank = ScBank(llrs, combining=config.combining_rule, capacity=cap)
        self.states = np.zeros(1, dtype=np.int64)
        self.metrics = np.zeros(1, dtype=float)
        self.parents = []
        self.bits = []
        self._ptab = parity_table(code.g)
        self._sign = 2.0 * self._ptab - 1.0  # (2u - 1) per register state
        self._phi = _PHI[config.metric_mode]
        self._high = (1 << code.m) >> 1  # register bit that v = 1 sets (0 when m = 0)

    @property
    def size(self) -> int:
        return self.metrics.size

    def ranking(self) -> np.ndarray:
        """Rows best first: smallest metric, then earliest row (a stable sort)."""
        if self.size == 0:
            raise ContractViolationError("no surviving paths to select from")
        return np.argsort(self.metrics, kind="stable")

    def traceback(self, row: int) -> np.ndarray:
        """The information bits decided so far along the path that ends in ``row``."""
        d = np.empty(len(self.bits), dtype=np.int8)
        for j in range(len(self.bits) - 1, -1, -1):
            d[j] = self.bits[j][row]
            row = self.parents[j][row]
        return d


def extend_frozen(paths: PathSet, t: int) -> PathSet:
    """Extend every path with v_t = 0: encode, charge the branch penalty, commit."""
    lam = paths.bank.update_llrs(t)
    paths.metrics += paths._phi(0.0, paths._sign[paths.states] * lam)
    u = paths._ptab[paths.states]
    paths.states >>= 1
    paths.bank.update_partial_sums(t, u)
    return paths


def extend_info(paths: PathSet, t: int, observer=None) -> PathSet:
    """Split every path into a v_t = 0 and a v_t = 1 child and keep the survivors.

    Both children encode from the parent's pre-extension register state.
    The path arrays are replaced by the children's (v = 0 children first, v = 1
    children after them, both in parent order), and ``prune`` (given
    ``observer``) selects among them; only then are the survivors' parent
    rows of the bank gathered and their bits committed.
    """
    lam = paths.bank.update_llrs(t)
    P = paths.size
    u0 = paths._ptab[paths.states]
    z = paths._sign[paths.states] * lam
    shifted = paths.states >> 1
    paths.states = np.concatenate((shifted, shifted | paths._high))
    paths.metrics = np.concatenate((paths.metrics + paths._phi(0.0, z),
                                    paths.metrics + paths._phi(0.0, -z)))
    keep = prune(paths, observer=observer)
    parent = keep % P
    bit = (keep >= P).astype(np.int8)
    paths.bank.take(parent)
    paths.bank.update_partial_sums(t, u0[parent] ^ bit)
    paths.parents.append(parent)
    paths.bits.append(bit)
    return paths


def prune(paths: PathSet, observer=None) -> np.ndarray:
    """Narrow the path arrays to the survivors; return the kept rows, in row order.

    All rows are kept while within the budget of ``paths.config``.  Over it,
    the rows form equal contiguous groups, one under global sorting and one
    per occupied register state under local sorting, and each keeps its
    list_size smallest metrics, a tie going to the earlier row.  Only states
    and metrics are narrowed, not the bank; ``observer(states, metrics, keep)`` sees cuts.

    Under local sorting the rows stay sorted by state, with equal counts in
    the occupied states, by induction: a shift keeps the states in order, the
    v = 0 children's states all precede the v = 1 children's, and a cut leaves
    list_size paths in every occupied state.  The occupied states are those
    whose bits written at information bits take every value and whose other
    bits are 0, so the last row's state, all free bits set, counts the groups.
    """
    cfg = paths.config
    size = paths.size
    if size <= cfg.budget(paths.code.m):
        return np.arange(size)
    groups = 1 if cfg.sorting == "global" else 1 << int(paths.states[-1]).bit_count()
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
    """Winner of a decode plus the final survivor set for diagnostics."""

    d_hat: np.ndarray
    metric: float
    v_hat: np.ndarray
    u_hat: np.ndarray
    survivor_metrics: np.ndarray = field(repr=False, default=None)


def decode(channel_llrs, code: PacCode, config: DecoderConfig,
           step_hook=None, prune_observer=None) -> DecodeResult:
    """Run the configured trellis decoder over one block of channel LLRs.

    Decoding starts from a single zero-state, zero-metric path and walks
    t = 0 .. N-1, extending at every index and selecting survivors at
    information indices.  Returns the winner's message bits (read back by
    traceback), its v and u = conv(v, g), and its final metric.  The winner
    has the smallest metric, a tie going to the earlier row, the older path.

    ``step_hook(t, paths)`` is called after each bit; ``prune_observer``
    receives (t, states, metrics, kept_rows) at every pruning event.
    """
    paths = PathSet(channel_llrs, code, config)
    info = set(code.A)
    for t in range(code.N):
        if t in info:
            extend_info(paths, t, partial(prune_observer, t) if prune_observer else None)
        else:
            extend_frozen(paths, t)
        if step_hook is not None:
            step_hook(t, paths)
    order = paths.ranking()
    win = int(order[0])
    d_hat = paths.traceback(win)
    v_hat = rate_profile_insert(d_hat, code.A, code.N)
    return DecodeResult(
        d_hat=d_hat,
        metric=float(paths.metrics[win]),
        v_hat=v_hat,
        u_hat=conv_transform(v_hat, code.g),
        survivor_metrics=paths.metrics[order],
    )
