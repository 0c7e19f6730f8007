"""The benchmark's workloads: code, decoder, operating points and round sizes.

This module imports nothing heavy, so the set-up probe can read a workload
before it starts the clock on ``import pactrellis``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A sweep workload runs ``pactrellis simulate`` in-process once per round,
    with a master seed derived from the run's seed.  A decode workload
    generates ``frames_per_round`` frames per round and decodes each with its
    own ``decoder.decode`` call.

    A run plays ``rounds(seconds)`` rounds, each standing for ``round_s`` of
    ``--seconds`` (near a round's wall time, checks included, on the machine
    the benchmark was tuned on).  The round count depends on
    ``--seconds`` only, never on the clock, so every run of a seed decodes
    the same frames, on a fast machine or a slow one.
    """

    name: str
    kind: str  # "sweep" or "decode"
    n: int
    K: int
    gen: int
    decoder: str  # the CLI's shorthand: sc, scl, va or lva
    list_size: int
    snr: tuple  # Eb/N0 points in dB
    min_errors: int = 0
    max_trials: int = 0
    samples_per_point: int = 0  # sweep trials recomputed and decoded apart, per point
    frames_per_round: int = 0
    round_s: float = 1.0

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    @property
    def N(self) -> int:
        return 1 << self.n

    def cli_args(self, master_seed: int) -> list:
        args = ["simulate", "--n", str(self.n), "--k", str(self.K), "--gen", oct(self.gen),
                "--decoder", self.decoder]
        if self.decoder in ("scl", "lva"):
            args += ["--list", str(self.list_size)]
        return args + [
            "--snr", ",".join(repr(ebno) for ebno in self.snr),
            "--min-errors", str(self.min_errors),
            "--max-trials", str(self.max_trials),
            "--seed", str(master_seed),
            "--workers", "1",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Cheapest decode: trial set-up, per-bit engine overhead and the
        # 200-trial chunk rounding in sim carry the largest share.  Not in
        # BENCHMARK.json: its times move with the host's speed by more than
        # the bounds allow (see README); kept for traced runs.
        Workload(
            name="sweep-sc128", kind="sweep", n=7, K=64, gen=0o133, decoder="sc",
            list_size=1, snr=(1.0, 1.5, 2.0, 2.5, 3.0),
            min_errors=100, max_trials=100_000, samples_per_point=10, round_s=13.0,
        ),
        # min_errors == max_trials fixes the trial count; path split, copy
        # and gather dominate.
        Workload(
            name="sweep-scl32-n1024", kind="sweep", n=10, K=512, gen=0o133, decoder="scl",
            list_size=32, snr=(2.0,),
            min_errors=12, max_trials=12, samples_per_point=6, round_s=4.0,
        ),
        # One frame per decode() call: per-state pruning at B = 1.
        Workload(
            name="decode-lva128", kind="decode", n=7, K=64, gen=0o133, decoder="lva",
            list_size=2, snr=(2.5,), frames_per_round=50, round_s=0.7,
        ),
    )
}
