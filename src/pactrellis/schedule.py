"""What a code and a decoder configuration fix about a decode, worked out once and cached.

The node schedule splits a code into Rate-0 and REP nodes (``node_schedule``);
the node tables give the partial sums of a v = 0 extension over a node, by
register state (``node_tables``).  The step plan (``plan_steps``) walks the
schedule for one decoder configuration and frame count: each step's path
counts, whether it grows or cuts, the cut's groups and, under per-state
sorting, every register state and its table rows.  None of it depends on the
channel LLRs, so ``decoder.decode`` reads it and computes only metrics and
the survivors they choose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .pac_core import PacCode, parity_table, polar_transform

__all__ = [
    "Step",
    "node_schedule",
    "node_tables",
    "plan_steps",
    "row_dtype",
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
    columns: 2X - 1 covers those, and X the whole node (0 past them).  A bit
    gives one value of each per state.
    """
    x, sign, head = tables[stage]
    if stage and head < 1 << stage:
        xs = np.zeros((len(states), 1 << stage), dtype=np.int8)
        xs[:, :head] = x.take(states, axis=0)
    else:
        xs = x.take(states, axis=0)
    return sign.take(states, axis=0), xs


def row_dtype(rows: int):
    """The dtype of the backpointers' parent rows: narrow where ``rows`` allow."""
    return np.int16 if rows < 1 << 15 else np.intp


@dataclass(frozen=True, slots=True, eq=False)
class Step:
    """One step of a decode plan: a node, and what code, config and frame count fix about it.

    ``stage`` and ``info`` are the node's (``node_schedule``) and ``paths``
    the paths each frame holds once the step is done.  The plan knows the
    register states on entry under local sorting, and under global sorting
    until the first cut, after which metrics decide which paths survive.
    Where it knows them, ``states`` holds one frame's, which every frame
    shares, in the narrowest unsigned dtype; ``signs`` and ``xs`` are their
    rows of the node's tables (``table_rows``), both int8 and over the
    whole node, ``children`` an information step's children's states before
    any cut, ``after`` the states once the step is done and ``child_xs`` a
    growth's children's X.  An information step that keeps every child (a
    growth) holds the backpointers it writes over all frames, ``parents``
    and ``bits``; one that cuts holds ``cut``: its group count over all
    frames, the group width and each group's first row (None for one
    group).  Every array is read-only, and steps of one kind share one
    record.  Off plan (a decoder step function called alone), a step names
    only its node, of one bit.
    """

    stage: int
    info: bool
    paths: int | None = None
    states: np.ndarray | None = None
    signs: np.ndarray | None = None
    xs: np.ndarray | None = None
    children: np.ndarray | None = None
    after: np.ndarray | None = None
    child_xs: np.ndarray | None = None
    parents: np.ndarray | None = None
    bits: np.ndarray | None = None
    cut: tuple | None = None


@lru_cache(maxsize=64)
def plan_steps(code: PacCode, nodes: bool, sorting: str, list_size: int, budget: int,
               frames: int) -> tuple:
    """The ``Step`` records of a decode of ``frames`` frames of ``code``, cached.

    ``nodes`` says whether steps span nodes (``node_schedule``), ``sorting``
    and ``list_size`` are the decoder's, and ``budget`` is the most paths a
    frame holds.  One frame's steps are made once for every frame count;
    this adds the arrays that span every frame.
    """
    rows = budget * frames
    made, shared, steps = {}, {}, []  # shared: the growths' rows by size, the cuts' by shape
    for one in _frame_steps(code, nodes, sorting, list_size, budget):
        if id(one) not in made:
            step = one
            if one.info and one.cut is None:  # a growth: each frame's parents, then again
                per = one.paths // 2
                if per not in shared:
                    pos = np.arange(2 * per)
                    parents = (pos % per + np.arange(0, frames * per, per)[:, None]).ravel()
                    shared[per] = (_read_only(parents.astype(row_dtype(rows))),
                                   _read_only(np.tile(pos >= per, frames)))
                step = replace(one, parents=shared[per][0], bits=shared[per][1])
            elif one.info:  # a cut: its groups over every frame
                cut = one.cut[0] * frames, one.cut[1]
                if cut not in shared:
                    groups, width = cut
                    shared[cut] = (groups, width, None if groups == 1 else
                                   _read_only(np.arange(0, groups * width, width)[:, None]))
                step = replace(one, cut=shared[cut])
            made[id(one)] = step
        steps.append(made[id(one)])
    return tuple(steps)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _frame_steps(code: PacCode, nodes: bool, sorting: str, list_size: int, budget: int) -> tuple:
    """One frame's plan, made in one forward pass, for ``plan_steps``.

    A cut's ``cut`` counts one frame's groups and has no offsets, and a
    growth has no backpointers.  Equal arrays are one array and steps of one
    kind one record, so a plan of K steps holds few of either.
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
            signs = xs = children = after = child_xs = cut = None
            paths = per
            if states is not None:
                signs, xs = table_rows(tables, stage, states)
                if stage and signs.shape[1] < xs.shape[1]:  # past the table, 2X - 1 = -1
                    rest = np.full((len(states), xs.shape[1] - signs.shape[1]), -1.0)
                    signs = np.concatenate((signs, rest), axis=1)
                signs, xs = intern(signs.astype(np.int8)), intern(xs)
                shifted = states >> tables[stage][2]
                if info:
                    children = intern(np.concatenate((shifted, shifted | high)))
                else:
                    after = intern(shifted)
            if info and 2 * per <= budget:
                paths, after = 2 * per, children
                if xs is not None:
                    child_xs = intern(np.concatenate((xs, xs ^ 1)))
            elif info:  # the cut of prune: one group, or one per occupied state
                groups = 1 if sorting == "global" else 1 << int(children[-1]).bit_count()
                paths, cut = groups * list_size, (groups, 2 * per // groups, None)
                if sorting == "local":  # each group is one state, kept list_size times
                    after = intern(children.reshape(groups, -1)[:, :list_size].ravel())
            kinds[key] = Step(stage, info, paths, states, signs, xs, children, after, child_xs,
                              cut=cut)
        steps.append(kinds[key])
        per, states = kinds[key].paths, kinds[key].after
    return tuple(steps)
