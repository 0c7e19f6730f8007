"""Time one set-up of a workload in a fresh process.

    python3 pacbench/setup_probe.py WORKLOAD

Set-up is the import of pactrellis, code construction (``PacCode.rm``) and
one warm-up frame: a ``sim.run_trial`` for sweep workloads, a ``decode`` of
a noiseless frame for decode workloads.  Prints the seconds it took.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from allocator import pin_malloc_thresholds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (light: no numpy before the clock starts)


def setup_seconds(name: str) -> float:
    w = WORKLOADS[name]
    t0 = time.perf_counter()
    import numpy as np
    from pactrellis import DecoderConfig, PacCode, decode, sim

    code = PacCode.rm(w.n, w.K, w.gen)
    config = DecoderConfig.from_name(w.decoder, w.list_size)
    if w.kind == "sweep":
        sim.run_trial(sim.SimPlan(code, config, w.snr, w.min_errors, w.max_trials, 0), 0, 0)
    else:
        decode(np.full(code.N, 4.0), code, config)
    return time.perf_counter() - t0


if __name__ == "__main__":
    pin_malloc_thresholds()
    print(repr(setup_seconds(sys.argv[1])))
