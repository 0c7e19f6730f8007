"""Bitonic compare-exchange networks for 2L-to-L metric selection, and their stage counts.

A full bitonic sorter for 2L values runs 1 + log2(L) super-stages, where
super-stage psi contains psi comparator stages of L parallel lanes each.  When
only the set of the L smallest values is needed (survivor selection), the
final log2(L) stages of the last super-stage can be dropped: after the first
stage of the last merge, the lower half already holds the L smallest values
in some order.  The stage counts drive the latency comparison between global
sorting (list decoding) and per-state sorting (list Viterbi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SorterSpec",
    "psi_ld",
    "psi_lva",
    "build_full_bitonic",
    "build_reduced_bitonic",
    "apply_network",
    "LatencyReport",
    "latency_report",
]


def _check_pow2(value: int, name: str) -> int:
    v = int(value)
    if v < 1 or v & (v - 1):
        raise ValueError(f"{name} must be a power of two >= 1, got {value}")
    return v


@dataclass(frozen=True)
class SorterSpec:
    """A compare-exchange network: ordered stages of disjoint (i, j, ascending) lanes.

    ``output_lanes`` are the positions that hold the selected values after the
    network runs (all lanes for a full sorter).
    """

    input_width: int
    stages: tuple
    output_lanes: tuple

    @property
    def stage_count(self) -> int:
        return len(self.stages)


def psi_ld(L: int) -> int:
    """Stage count of the full bitonic sorter for 2L metrics (global sorting)."""
    L = _check_pow2(L, "L")
    lg = L.bit_length() - 1
    return (1 + lg) * (2 + lg) // 2


def psi_lva(total_survivors: int, m: int) -> int:
    """Stage count of the reduced per-state sorter when total survivors split over 2^m states.

    The per-state list size is ell = total / 2^m; the count is the full
    bitonic stage count for 2*ell inputs minus the log2(ell) ordering stages
    that a pure selection does not need.
    """
    total = _check_pow2(total_survivors, "total survivor count")
    if m < 0:
        raise ValueError(f"memory must be nonnegative, got {m}")
    states = 1 << m
    if total < states:
        raise ValueError(
            f"per-state list size must be >= 1: {total} survivors over {states} states"
        )
    lg = (total // states).bit_length() - 1
    return (1 + lg) * (2 + lg) // 2 - lg


def _bitonic_stages(width: int, reduced: bool) -> tuple:
    stages = []
    k = 2
    while k <= width:
        j = k // 2
        while j >= 1:
            lanes = tuple(
                (i, i | j, (i & k) == 0) for i in range(width) if i & j == 0
            )
            stages.append(lanes)
            if reduced and k == width:
                return tuple(stages)  # keep only the half-cleaner of the last merge
            j //= 2
        k *= 2
    return tuple(stages)


def build_full_bitonic(L: int) -> SorterSpec:
    """Full bitonic sorting network for 2L values (ascending output on all lanes)."""
    L = _check_pow2(L, "L")
    width = 2 * L
    return SorterSpec(
        input_width=width,
        stages=_bitonic_stages(width, reduced=False),
        output_lanes=tuple(range(width)),
    )


def build_reduced_bitonic(L: int) -> SorterSpec:
    """Selection network delivering the L smallest of 2L values on lanes 0..L-1 (unordered)."""
    L = _check_pow2(L, "L")
    width = 2 * L
    return SorterSpec(
        input_width=width,
        stages=_bitonic_stages(width, reduced=True),
        output_lanes=tuple(range(L)),
    )


def apply_network(spec: SorterSpec, values) -> np.ndarray:
    """Run the network stage by stage over one value vector or a batch of them.

    ``values`` has the network width on its last axis.  Equal pairs are never
    swapped, so the result is deterministic.
    """
    vals = np.array(values, dtype=float)
    if vals.shape[-1] != spec.input_width:
        raise ValueError(
            f"expected width {spec.input_width} on the last axis, got {vals.shape[-1]}"
        )
    for stage in spec.stages:
        for i, j, ascending in stage:
            a, b = vals[..., i].copy(), vals[..., j]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            if ascending:
                vals[..., i], vals[..., j] = lo, hi
            else:
                vals[..., i], vals[..., j] = hi, lo
    return vals


@dataclass(frozen=True)
class LatencyReport:
    """Total sorting-stage counts over a decode, as the model charges them.

    One 2L-to-L (global) or 2ell-to-ell (per-state) sort per information bit, K in
    all.  ``decode`` sorts only at cuts, where a frame's paths overflow its budget:
    on RM PAC(128,64), K = 64, that is 34 times for LVA32, 27 for LVA-128, 59 for LD32.
    """

    info_bits: int
    list_size: int
    m: int
    per_state_list: int
    ld_stages: int
    lva_stages: int
    ld_stages_total: int
    lva_stages_total: int
    reduction_pct: float


def latency_report(K: int, L: int, m: int) -> LatencyReport:
    """Global- against per-state-sort latency: K sorts (one per info bit), L survivors, memory m."""
    if K < 1:
        raise ValueError(f"K must be at least 1 information bit, got {K}")
    ld = psi_ld(L)
    lva = psi_lva(L, m)
    return LatencyReport(
        info_bits=K,
        list_size=L,
        m=m,
        per_state_list=L >> m,
        ld_stages=ld,
        lva_stages=lva,
        ld_stages_total=K * ld,
        lva_stages_total=K * lva,
        reduction_pct=100.0 * (1.0 - (K * lva) / (K * ld)),
    )
