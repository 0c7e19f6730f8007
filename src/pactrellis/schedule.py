"""What a code and a decoder configuration fix about a decode, worked out once and cached.

The node schedule splits a code into Rate-0 and REP nodes (``node_schedule``);
the node tables give the partial sums of a v = 0 extension over a node, by
register state (``node_tables``).  The step plan (``plan_steps``) walks the
schedule for one decoder configuration: each step's path count per frame,
whether it grows or cuts, a growth's backpointers, a cut's groups and, under
per-state sorting, every register state and its table rows.  None of it
depends on the channel LLRs or the frame count, so ``decoder.decode`` reads
one plan for any batch and computes only metrics and the survivors they
choose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .pac_core import PacCode, parity_table, polar_transform

__all__ = [
    "Step",
    "node_schedule",
    "node_tables",
    "plan_steps",
    "table_rows",
]


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


def table_rows(tables: tuple, stage: int, states) -> tuple:
    """(2X - 1, X) of the v = 0 extension over a node of 2^stage bits from each of ``states``.

    ``tables`` are ``node_tables``', which keep the first min(2^stage, m)
    columns; past them X = 0, so 2X - 1 = -1.  Both cover the whole node,
    2X - 1 as floats and X as int8.  A bit gives one value of each per state.
    """
    x, sign, head = tables[stage]
    if stage and head < 1 << stage:
        signs = np.full((len(states), 1 << stage), -1.0)
        xs = np.zeros((len(states), 1 << stage), dtype=np.int8)
        signs[:, :head] = sign.take(states, axis=0)
        xs[:, :head] = x.take(states, axis=0)
        return signs, xs
    return sign.take(states, axis=0), x.take(states, axis=0)


@dataclass(frozen=True, slots=True, eq=False)
class Step:
    """One step of a decode plan: a node, and what the code and config fix about it.

    ``stage`` and ``info`` are the node's (``node_schedule``) and ``paths``
    the paths a frame holds once the step is done.  The plan knows the
    register states on entry under local sorting, and under global sorting
    until the first cut, after which metrics decide which paths survive.
    Where it knows them, ``states`` holds them in the narrowest unsigned
    dtype; ``signs`` and ``xs`` are their rows of the node's tables
    (``table_rows``), both int8 and over the whole node, ``children`` an
    information step's children's states before any cut, ``after`` the
    states once the step is done and ``child_xs`` a growth's children's X.
    An information step that keeps every child (a growth) holds the
    backpointers it writes, ``positions``; one that cuts holds
    ``cut``: its group count and the group width.  Everything is one
    frame's, which every frame of a batch shares.  Every array is
    read-only, and steps of one kind share one record.
    """

    stage: int
    info: bool
    paths: int
    states: np.ndarray | None = None
    signs: np.ndarray | None = None
    xs: np.ndarray | None = None
    children: np.ndarray | None = None
    after: np.ndarray | None = None
    child_xs: np.ndarray | None = None
    positions: np.ndarray | None = None
    cut: tuple | None = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def plan_steps(code: PacCode, nodes: bool, sorting: str, list_size: int, budget: int) -> tuple:
    """The ``Step`` records of a decode of one frame of ``code``, made in one pass and cached.

    ``nodes`` says whether steps span nodes (``node_schedule``), ``sorting``
    and ``list_size`` are the decoder's, and ``budget`` is the most paths a
    frame holds.  An information step grows while its children fit the
    budget and cuts otherwise, to ``list_size`` paths in each group: one
    group under global sorting, one per occupied register state under local
    sorting.  There a frame's paths stay sorted by state, with equal counts
    in the occupied states, by induction: a shift keeps the states in order,
    the v = 0 children's states all precede the v = 1 children's, and a cut
    leaves list_size paths in every occupied state.  The occupied states
    are those whose bits written at information bits take every value and
    whose other bits are 0, so the last child's state, all free bits set,
    counts the groups.  Equal arrays are one array and steps of one kind one
    record, so a plan of K steps holds few of either.
    """
    tables = node_tables(code.g, code.n)
    high = (1 << code.m) >> 1  # register bit that v = 1 sets (0 when m = 0)
    arrays, kinds, steps = {}, {}, []

    def intern(a):
        return arrays.setdefault((a.dtype.str, a.shape, a.tobytes()), _read_only(a))

    # states in the narrowest unsigned dtype: the plan holds many of them
    per, states = 1, intern(np.zeros(1, dtype=np.min_scalar_type(max(high << 1, 1) - 1)))
    for stage, info in node_schedule(code, nodes):
        key = (stage, info, per, id(states))  # interned: an array's id names its contents
        if key not in kinds:
            signs = xs = children = after = child_xs = positions = cut = None
            paths = per
            if states is not None:
                signs, xs = table_rows(tables, stage, states)
                signs, xs = intern(signs.astype(np.int8)), intern(xs)
                shifted = states >> tables[stage][2]
                if info:
                    children = intern(np.concatenate((shifted, shifted | high)))
                else:
                    after = intern(shifted)
            if info and 2 * per <= budget:  # a growth: each parent's v = 0 child, then v = 1
                paths, after = 2 * per, children
                positions = intern(np.arange(2 * per))
                if xs is not None:
                    child_xs = intern(np.concatenate((xs, xs ^ 1)))
            elif info:
                groups = 1 if sorting == "global" else 1 << int(children[-1]).bit_count()
                paths, cut = groups * list_size, (groups, 2 * per // groups)
                if sorting == "local":  # each group is one state, kept list_size times
                    after = intern(children.reshape(groups, -1)[:, :list_size].ravel())
            kinds[key] = Step(stage, info, paths, states, signs, xs, children, after, child_xs,
                              positions, cut)
        steps.append(kinds[key])
        per, states = kinds[key].paths, kinds[key].after
    return tuple(steps)
