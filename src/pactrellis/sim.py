"""Monte-Carlo FER/BER harness with deterministic seeding and worker-invariant stopping.

Every trial is reproducible in isolation: trial (s, i) of a plan draws all of
its randomness from a Philox generator keyed by the master seed with counter
block [0, i, s, 0].  Inside a trial the draw order is pinned: first the K
message bits via ``rng.integers(0, 2, size=K, dtype=int8)``, then the N noise
samples via ``sqrt(sigma2) * rng.standard_normal(N)``.

A point stops at the smallest trial prefix containing ``min_frame_errors``
frame errors (or at ``max_trials``).  One loop runs every point: it submits
fixed-size chunks of the trial grid in order and collects them in order, one
at a time and inline when serial, up to ``workers + 1`` ahead on a process
pool otherwise.  Each chunk stops at the error that would meet the target
given the errors collected when it was submitted; that is never before the
true stopping trial, so the reported prefix is the same whatever the worker
count and results are byte-identical for any ``workers`` value.  A serial
run decodes exactly that prefix.

Inside a chunk, trials run in lockstep batches (``batch_size``): a batch's
paths hold at most ``BANK_BYTES`` in SC bank rows and backpointers
(``decoder.frame_bytes``), and a batch at most ``LOCKSTEP_FRAMES`` frames,
never more than the errors still missing.  SCL-32 on PAC(1024,512) runs 6
frames a batch; on PAC(128,64) LVA with 32 paths runs 52, LVA with 128
paths 13, VA 26 and SCL-8 64.  Each trial draws its message, then
its noise, from its own generator as above (``trial_rng`` resets one
reused generator per trial); the batch is encoded, modulated, turned into
LLRs and decoded as one array, one ``decode`` call.  A chunk returns each
trial's bit-error count, a frame error where nonzero.  Each trial adds at
most one frame error, so a batch that meets the target ends on the stopping
trial.  ``run_trial`` is the batch of one.

``workers=1`` (the default) runs every chunk in the calling process and loads
no process-pool modules; ``workers`` > 1 imports ``concurrent.futures`` and
``multiprocessing`` on first use.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .channel import ChannelParams, bpsk_modulate, channel_llr
from .decoder import DecoderConfig, decode, frame_bytes
from .pac_core import PacCode, pac_encode

__all__ = [
    "SimPlan",
    "FerPoint",
    "trial_rng",
    "run_trial",
    "batch_size",
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
# a lockstep batch's paths hold at most this many bytes of bank rows and backpointers:
# a bank of 128 rows of 1,023 LLRs and 1,023 partial sums at N = 1024, 9 bytes a slot
BANK_BYTES = 128 * 1023 * 9
# and at most this many frames, so that small codes do not batch a whole chunk
LOCKSTEP_FRAMES = 64

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
        if not np.isfinite(self.snr_points).all():
            raise ValueError(f"SNR points must be finite, got {self.snr_points}")
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


_reused = threading.local()  # each thread's (master seed, generator, Philox key)


def trial_rng(master_seed: int, snr_index: int, trial_index: int) -> np.random.Generator:
    """The pinned per-trial generator: Philox keyed by the seed, counter [0, trial, snr, 0].

    Each thread reuses one generator per master seed: a call sets its counter
    and empties its buffered output, so it draws what a new
    ``Philox(key=master_seed, counter=[0, trial, snr, 0])`` would, and it is
    valid until the thread's next call.  Building a new one cost about 13 us.
    """
    cached = getattr(_reused, "philox", None)
    if cached is None or cached[0] != master_seed:
        bits = np.random.Philox(key=master_seed)
        cached = (master_seed, np.random.Generator(bits), bits.state["state"]["key"])
        _reused.philox = cached
    _, rng, key = cached
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, trial_index, snr_index, 0], dtype=np.uint64),
                  "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # nothing buffered
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def run_trial(plan: SimPlan, snr_index: int, trial_index: int):
    """One frame, run as the one-trial batch. Returns (frame_error, bit_errors)."""
    errs = int(_run_chunk(plan, snr_index, trial_index, 1, 1)[0])
    return errs > 0, errs


def batch_size(plan: SimPlan) -> int:
    """Frames per lockstep batch: as many as fit ``BANK_BYTES``, at most ``LOCKSTEP_FRAMES``.

    A frame takes ``decoder.frame_bytes``; a batch holds at least one.
    """
    return max(1, min(LOCKSTEP_FRAMES, BANK_BYTES // frame_bytes(plan.code, plan.decoder)))


def _run_chunk(plan: SimPlan, snr_index: int, start: int, count: int, stop_at: int):
    """Bit errors of ``count`` trials from ``start``, or up to the ``stop_at``-th frame error.

    Trials are decoded in lockstep batches of at most ``batch_size(plan)``
    frames and at most the errors still missing, so the batch that makes the
    ``stop_at``-th error ends on it.  Each trial draws its message and its noise
    before the next trial's generator is set; the noise is added as
    ``channel.awgn`` adds it.
    """
    code = plan.code
    sigma2 = ChannelParams(plan.snr_points[snr_index], code.K / code.N).sigma2
    errs = np.zeros(count, dtype=np.int64)
    size = batch_size(plan)
    done = found = 0
    while done < count and found < stop_at:
        b = min(size, stop_at - found, count - done)
        d = np.empty((b, code.K), dtype=np.int8)
        z = np.empty((b, code.N))
        for i in range(b):
            rng = trial_rng(plan.master_seed, snr_index, start + done + i)
            d[i] = rng.integers(0, 2, size=code.K, dtype=np.int8)
            rng.standard_normal(out=z[i])
        y = bpsk_modulate(pac_encode(d, code)) + np.sqrt(sigma2) * z
        d_hat = decode(channel_llr(y, sigma2), code, plan.decoder).d_hat
        errs[done : done + b] = np.count_nonzero(d_hat != d, axis=1)
        found += int(np.count_nonzero(errs[done : done + b]))
        done += b
    return errs[:done]


class _RunInline:
    """Call fn now, in this process; the chunk loop reads it back like a finished future."""

    def __init__(self, fn, *args):
        self._value = fn(*args)

    def result(self):
        return self._value


def run_point(plan: SimPlan, snr_index: int, workers: int = 1, executor=None) -> FerPoint:
    """Simulate one SNR point, stopping at the exact trial where the error target is met.

    Chunks of the trial grid are submitted and collected in order: on
    ``executor`` (a process pool of ``workers`` made here when none is given
    and ``workers`` > 1) with up to ``workers + 1`` in flight, or one at a
    time, run inline, when serial.  A chunk is told to stop at the
    (target - errors collected so far)-th error it finds.  The errors collected
    at submit time never exceed those before the chunk, so a chunk never stops
    before the true stopping trial, and one that stops early brings the total
    to the target.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    t0 = time.perf_counter()
    own = executor is None and workers > 1
    pool = executor
    if own:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    submit = _RunInline if pool is None else pool.submit
    window = 1 if pool is None else workers + 1
    target = plan.min_frame_errors
    chunks = ((s, min(TRIALS_PER_CHUNK, plan.max_trials - s))
              for s in range(0, plan.max_trials, TRIALS_PER_CHUNK))
    pending = deque()
    parts = []
    collected_errors = 0
    try:
        while collected_errors < target:
            for start, count in islice(chunks, window - len(pending)):
                pending.append(submit(_run_chunk, plan, snr_index, start, count,
                                      target - collected_errors))
            if not pending:
                break
            parts.append(pending.popleft().result())
            collected_errors += int(np.count_nonzero(parts[-1]))
    finally:
        for fut in pending:
            fut.cancel()
        if own:
            pool.shutdown(wait=False, cancel_futures=True)

    errs = np.concatenate(parts)
    cum = np.cumsum(errs > 0)
    # every chunk runs at least one trial; stop at the one that meets the target, if any
    trials = int(np.argmax(cum >= target)) + 1 if cum[-1] >= target else errs.size
    frame_errors = int(cum[trials - 1])
    bit_errors = int(errs[:trials].sum())
    return FerPoint(
        ebno_db=plan.snr_points[snr_index],
        trials=trials,
        frame_errors=frame_errors,
        bit_errors=bit_errors,
        fer=frame_errors / trials,
        ber=bit_errors / (trials * plan.code.K),
        wall_time=time.perf_counter() - t0,
    )


def run_sweep(plan: SimPlan, workers: int = 1):
    """Simulate every SNR point of the plan in order, sharing one pool when parallel."""
    points = range(len(plan.snr_points))
    if workers <= 1:
        return [run_point(plan, s, workers) for s in points]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [run_point(plan, s, workers, pool) for s in points]


def confidence_interval(point: FerPoint, level: float = 0.95):
    """Clopper-Pearson binomial interval on the FER."""
    if not 0 <= level < 1:
        raise ValueError(f"confidence level must lie in [0, 1), got {level}")
    k, n = point.frame_errors, point.trials
    if level == 0:
        return point.fer, point.fer
    # the beta quantiles, from scipy.special: scipy.stats would cost a second and 70 MiB to import
    from scipy.special import betaincinv

    alpha = 1.0 - level
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
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
    import json

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
                **dict(zip(("fer_low", "fer_high"), confidence_interval(p))),
                "wall_time_s": p.wall_time,
                "frames_per_s": p.trials / p.wall_time if p.wall_time > 0 else None,
            }
            for p in points
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_json(path, plan: SimPlan, points) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(plan, points))
