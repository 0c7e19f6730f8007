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
children's metrics, states and ids, and only then is the SC bank gathered,
once, from their parent rows, so it never holds more rows than the budget.
Paths keep no histories: each information bit stores a backpointer (parent
row, bit) per survivor, and the winner is read back by one traceback.
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
    "extend_frozen",
    "extend_info",
    "prune",
    "decode",
]

SORTING_MODES = ("local", "global")
METRIC_MODES = ("exact", "approximate")

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
        """Build a config from a decoder name: sc, scl, va or lva."""
        try:
            sorting, implied = _DECODER_NAMES[name]
        except KeyError:
            raise ValueError(f"decoder name must be one of {sorted(_DECODER_NAMES)}, got {name!r}")
        if implied is None and list_size is None:
            raise ValueError(f"decoder {name!r} needs an explicit list size")
        return cls(sorting=sorting, list_size=implied if implied is not None else list_size, **kwargs)

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

    Exact mode evaluates log(1 + exp(-(1 - 2u) llr)); approximate mode charges
    zero when u_hat matches the hard decision and |llr| otherwise.
    """
    llr = np.asarray(llr, dtype=float)
    u = np.asarray(u_hat)
    if mode == "approximate":
        out = np.where(u == (llr <= 0), 0.0, np.abs(llr))
    elif mode == "exact":
        out = np.logaddexp(0.0, -(1.0 - 2.0 * u) * llr)
    else:
        raise ValueError(f"metric mode must be one of {METRIC_MODES}, got {mode!r}")
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
        self.ids = np.zeros(1, dtype=np.int64)
        self.next_id = 1
        self.parents = []
        self.bits = []
        self._ptab = parity_table(code.g)
        self._m = code.m
        self._approx = config.metric_mode == "approximate"

    @property
    def size(self) -> int:
        return self.metrics.size

    def ranking(self) -> np.ndarray:
        """Rows best first: smallest metric, then smallest creation id."""
        if self.size == 0:
            raise ContractViolationError("no surviving paths to select from")
        return np.lexsort((self.ids, self.metrics))

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
    u = paths._ptab[paths.states]
    if paths._approx:
        pen = np.where(u == (lam <= 0), 0.0, np.abs(lam))
    else:
        pen = np.logaddexp(0.0, -(1.0 - 2.0 * u) * lam)
    paths.metrics += pen
    if paths._m:
        paths.states >>= 1
    paths.bank.update_partial_sums(t, u)
    return paths


def extend_info(paths: PathSet, t: int, observer=None) -> PathSet:
    """Split every path into a v_t = 0 and a v_t = 1 child and keep the survivors.

    Both children encode from the parent's pre-extension register state.
    The path arrays are replaced by the children's (v = 0 children first, v = 1
    children after them in parent order, with fresh creation ids), and
    ``prune`` (given ``observer``) selects among them; only then are the
    survivors' parent rows of the bank gathered and their bits committed.
    """
    lam = paths.bank.update_llrs(t)
    m = paths._m
    P = paths.size
    u0 = paths._ptab[paths.states]
    if paths._approx:
        # the two children differ in u, so exactly one of them pays |lam|
        mag = np.abs(lam)
        pen0 = np.where(u0 == (lam <= 0), 0.0, mag)
        pen1 = mag - pen0
    else:
        z = (1.0 - 2.0 * u0) * lam
        pen0 = np.logaddexp(0.0, -z)
        pen1 = np.logaddexp(0.0, z)
    s0 = paths.states >> 1 if m else paths.states
    paths.states = np.concatenate([s0, s0 | (1 << (m - 1)) if m else s0])
    paths.metrics = np.concatenate([paths.metrics + pen0, paths.metrics + pen1])
    paths.ids = np.concatenate([paths.ids, np.arange(P, dtype=np.int64) + paths.next_id])
    paths.next_id += P
    keep = prune(paths, observer=observer)
    parent = keep % P
    bit = (keep >= P).astype(np.int8)
    paths.bank.take(parent)
    paths.bank.update_partial_sums(t, u0[parent] ^ bit)
    paths.parents.append(parent)
    paths.bits.append(bit)
    return paths


def prune(paths: PathSet, config: DecoderConfig | None = None, observer=None) -> np.ndarray:
    """Narrow the path arrays to the survivors; return the rows kept.

    All rows are kept while within the budget.  Over it, global sorting keeps
    the list_size smallest-metric paths overall and local sorting keeps the
    list_size smallest per register state.  Ties break on creation id, and
    after a cut survivors are ordered by (metric, id).  Only states, metrics
    and ids are narrowed: gathering the bank is the caller's job.
    ``observer(states, metrics, ids, keep)`` sees every cut.
    """
    cfg = config if config is not None else paths.config
    if paths.size <= cfg.budget(paths.code.m):
        return np.arange(paths.size)
    if cfg.sorting == "global":
        order = np.lexsort((paths.ids, paths.metrics))
        keep = order[: cfg.list_size]
    else:
        order = np.lexsort((paths.ids, paths.metrics, paths.states))
        st = paths.states[order]
        first = np.empty(st.size, dtype=bool)
        first[0] = True
        first[1:] = st[1:] != st[:-1]
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        rank = np.arange(st.size) - starts[group]
        kept = order[rank < cfg.list_size]
        keep = kept[np.lexsort((paths.ids[kept], paths.metrics[kept]))]
    if observer is not None:
        observer(paths.states, paths.metrics, paths.ids, keep)
    paths.states = paths.states[keep]
    paths.metrics = paths.metrics[keep]
    paths.ids = paths.ids[keep]
    return keep


@dataclass
class DecodeResult:
    """Winner of a decode plus the final survivor set for diagnostics."""

    d_hat: np.ndarray
    metric: float
    v_hat: np.ndarray
    u_hat: np.ndarray
    survivor_metrics: np.ndarray = field(repr=False, default=None)
    survivor_ids: np.ndarray = field(repr=False, default=None)


def decode(channel_llrs, code: PacCode, config: DecoderConfig,
           step_hook=None, prune_observer=None) -> DecodeResult:
    """Run the configured trellis decoder over one block of channel LLRs.

    Decoding starts from a single zero-state, zero-metric path and walks
    t = 0 .. N-1, extending at every index and selecting survivors at
    information indices.  Returns the winner's message bits (read back by
    traceback), its v and u = conv(v, g), and its final metric.

    ``step_hook(t, paths)`` is called after each bit; ``prune_observer``
    receives (t, states, metrics, ids, kept_rows) at every pruning event.
    """
    paths = PathSet(channel_llrs, code, config)
    frozen = np.ones(code.N, dtype=bool)
    frozen[list(code.A)] = False
    observer = None
    for t in range(code.N):
        if frozen[t]:
            extend_frozen(paths, t)
        else:
            if prune_observer is not None:
                observer = partial(prune_observer, t)
            extend_info(paths, t, observer)
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
        survivor_metrics=paths.metrics[order].copy(),
        survivor_ids=paths.ids[order].copy(),
    )
