"""Monte-Carlo FER/BER harness with deterministic seeding and worker-invariant stopping.

Every trial is reproducible in isolation: trial (s, i) of a plan draws all of
its randomness from a Philox generator keyed by the master seed with counter
block [0, i, s, 0].  Inside a trial the draw order is pinned: first the K
message bits via ``rng.integers(0, 2, size=K, dtype=int8)``, then the N noise
samples via ``sqrt(sigma2) * rng.standard_normal(N)``.

A point stops at the smallest trial prefix containing ``min_frame_errors``
frame errors (or at ``max_trials``).  A serial run decodes exactly that
prefix; workers evaluate fixed-size chunks of the trial grid speculatively.
The reported prefix is the same whatever the worker count, so results are
byte-identical for any ``workers`` value.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, awgn, bpsk_modulate, channel_llr
from .decoder import DecoderConfig, decode
from .pac_core import PacCode, pac_encode

__all__ = [
    "SimPlan",
    "FerPoint",
    "trial_rng",
    "run_trial",
    "run_point",
    "run_sweep",
    "confidence_interval",
    "CSV_COLUMNS",
    "csv_text",
    "write_csv",
    "json_text",
    "write_json",
]

TRIALS_PER_CHUNK = 200

CSV_COLUMNS = (
    "ebno_db",
    "trials",
    "frame_errors",
    "bit_errors",
    "fer",
    "ber",
    "seed",
    "decoder",
    "sort",
    "list",
    "m",
    "gen_octal",
)


@dataclass(frozen=True)
class SimPlan:
    """One simulation campaign: code, decoder, SNR grid, stopping rule, master seed."""

    code: PacCode
    decoder: DecoderConfig
    snr_points: tuple
    min_frame_errors: int = 100
    max_trials: int = 100_000
    master_seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "snr_points", tuple(float(s) for s in self.snr_points))
        if self.min_frame_errors < 1:
            raise ValueError(f"min_frame_errors must be >= 1, got {self.min_frame_errors}")
        if self.max_trials < self.min_frame_errors:
            raise ValueError(
                f"max_trials ({self.max_trials}) must be >= min_frame_errors "
                f"({self.min_frame_errors})"
            )


@dataclass(frozen=True)
class FerPoint:
    """Result of one operating point."""

    ebno_db: float
    trials: int
    frame_errors: int
    bit_errors: int
    fer: float
    ber: float
    wall_time: float = 0.0


def trial_rng(master_seed: int, snr_index: int, trial_index: int) -> np.random.Generator:
    """The pinned per-trial generator: Philox keyed by the seed, counter [0, trial, snr, 0]."""
    return np.random.Generator(
        np.random.Philox(key=master_seed, counter=[0, trial_index, snr_index, 0])
    )


def run_trial(plan: SimPlan, snr_index: int, trial_index: int):
    """One frame: draw, encode, transmit, decode. Returns (frame_error, bit_errors)."""
    code = plan.code
    rng = trial_rng(plan.master_seed, snr_index, trial_index)
    d = rng.integers(0, 2, size=code.K, dtype=np.int8)
    s = bpsk_modulate(pac_encode(d, code))
    sigma2 = ChannelParams(plan.snr_points[snr_index], code.K / code.N).sigma2
    y = awgn(s, sigma2, rng)
    result = decode(channel_llr(y, sigma2), code, plan.decoder)
    errs = int(np.count_nonzero(result.d_hat != d))
    return errs > 0, errs


def _run_chunk(plan: SimPlan, snr_index: int, start: int, count: int, stop_at: int = 0):
    """Run ``count`` trials from ``start``, or up to the one that makes ``stop_at`` errors."""
    flags = np.zeros(count, dtype=bool)
    errs = np.zeros(count, dtype=np.int64)
    for i in range(count):
        flags[i], errs[i] = run_trial(plan, snr_index, start + i)
        if flags[i] and flags[: i + 1].sum() == stop_at:
            return flags[: i + 1], errs[: i + 1]
    return flags, errs


def _chunk_grid(max_trials: int):
    starts = list(range(0, max_trials, TRIALS_PER_CHUNK))
    return [(s, min(TRIALS_PER_CHUNK, max_trials - s)) for s in starts]


def run_point(plan: SimPlan, snr_index: int, workers: int = 1, executor=None) -> FerPoint:
    """Simulate one SNR point, stopping at the exact trial where the error target is met."""
    t0 = time.perf_counter()
    grid = _chunk_grid(plan.max_trials)
    flags_parts, errs_parts = [], []
    collected_errors = 0

    if workers <= 1 and executor is None:
        for start, count in grid:
            f, e = _run_chunk(plan, snr_index, start, count,
                              plan.min_frame_errors - collected_errors)
            flags_parts.append(f)
            errs_parts.append(e)
            collected_errors += int(f.sum())
            if collected_errors >= plan.min_frame_errors:
                break
    else:
        own = executor is None
        pool = executor if executor is not None else ProcessPoolExecutor(max_workers=workers)
        try:
            pending = {}
            next_submit = 0
            next_collect = 0
            window = max(workers, 1) + 1
            while next_collect < len(grid):
                while next_submit < len(grid) and len(pending) < window:
                    start, count = grid[next_submit]
                    pending[next_submit] = pool.submit(_run_chunk, plan, snr_index, start, count)
                    next_submit += 1
                f, e = pending.pop(next_collect).result()
                next_collect += 1
                flags_parts.append(f)
                errs_parts.append(e)
                collected_errors += int(f.sum())
                if collected_errors >= plan.min_frame_errors:
                    for fut in pending.values():
                        fut.cancel()
                    break
        finally:
            if own:
                pool.shutdown(wait=False, cancel_futures=True)

    flags = np.concatenate(flags_parts)
    errs = np.concatenate(errs_parts)
    cum = np.cumsum(flags)
    if cum.size and cum[-1] >= plan.min_frame_errors:
        trials = int(np.argmax(cum >= plan.min_frame_errors)) + 1
    else:
        trials = flags.size
    frame_errors = int(cum[trials - 1]) if trials else 0
    bit_errors = int(errs[:trials].sum())
    return FerPoint(
        ebno_db=plan.snr_points[snr_index],
        trials=trials,
        frame_errors=frame_errors,
        bit_errors=bit_errors,
        fer=frame_errors / trials if trials else 0.0,
        ber=bit_errors / (trials * plan.code.K) if trials else 0.0,
        wall_time=time.perf_counter() - t0,
    )


def run_sweep(plan: SimPlan, workers: int = 1):
    """Simulate every SNR point of the plan in order."""
    if workers <= 1:
        return [run_point(plan, s) for s in range(len(plan.snr_points))]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [
            run_point(plan, s, workers=workers, executor=pool)
            for s in range(len(plan.snr_points))
        ]


def confidence_interval(point: FerPoint, level: float = 0.95):
    """Clopper-Pearson binomial interval on the FER."""
    if not 0 <= level < 1:
        raise ValueError(f"confidence level must lie in [0, 1), got {level}")
    k, n = point.frame_errors, point.trials
    if level == 0:
        return point.fer, point.fer
    from scipy.stats import beta

    alpha = 1.0 - level
    low = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, n - k + 1))
    high = 1.0 if k == n else float(beta.ppf(1 - alpha / 2, k + 1, n - k))
    return low, high


# --- result serialization ------------------------------------------------------------


def _row(plan: SimPlan, point: FerPoint) -> dict:
    return {
        "ebno_db": repr(float(point.ebno_db)),
        "trials": str(point.trials),
        "frame_errors": str(point.frame_errors),
        "bit_errors": str(point.bit_errors),
        "fer": repr(point.fer),
        "ber": repr(point.ber),
        "seed": str(plan.master_seed),
        "decoder": plan.decoder.name,
        "sort": plan.decoder.sorting,
        "list": str(plan.decoder.list_size),
        "m": str(plan.code.m),
        "gen_octal": plan.code.gen_octal,
    }


def csv_text(plan: SimPlan, points) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for p in points:
        row = _row(plan, p)
        lines.append(",".join(row[c] for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(path, plan: SimPlan, points) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(plan, points))


def json_text(plan: SimPlan, points) -> str:
    doc = {
        "plan": {
            "n": plan.code.n,
            "k": plan.code.K,
            "gen_octal": plan.code.gen_octal,
            "info_set": list(plan.code.A),
            "decoder": plan.decoder.name,
            "sort": plan.decoder.sorting,
            "list": plan.decoder.list_size,
            "metric_mode": plan.decoder.metric_mode,
            "combining_rule": plan.decoder.combining_rule,
            "snr_points": list(plan.snr_points),
            "min_frame_errors": plan.min_frame_errors,
            "max_trials": plan.max_trials,
            "seed": plan.master_seed,
        },
        "results": [
            {
                "ebno_db": p.ebno_db,
                "trials": p.trials,
                "frame_errors": p.frame_errors,
                "bit_errors": p.bit_errors,
                "fer": p.fer,
                "ber": p.ber,
            }
            for p in points
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_json(path, plan: SimPlan, points) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(plan, points))
