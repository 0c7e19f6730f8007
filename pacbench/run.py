"""pactrellis benchmark: sweep throughput, single-frame LVA latency and a traced per-layer split.

    python3 pacbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pacbench/run.py --seed N --seconds S    # every workload, each in its own process

Run it from anywhere inside a source checkout: the program is imported from
the checkout's ``src`` directory.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones, and the spans are written to ``.pacbench-out/``.
See pacbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".pacbench-out"
SETUP_PROBES = 5
CSV_HEADER = "ebno_db,trials,frame_errors,bit_errors,fer,ber,seed,decoder,sort,list,m,gen_octal"
NOISELESS_FRAMES = 2

sys.path.insert(0, str(HERE))
from allocator import pin_malloc_thresholds  # noqa: E402
from reference import Reference, channel_llrs, clopper_pearson, draw, sigma2  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "decode_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "sim.trials_decoded": "count",
    "sim.trial_yield": "ratio",
    "sim.trial_rng.us_per_trial": "us",
    "sim.run_trial.self_us_per_trial": "us",
    "pac_core.pac_encode.us_per_frame": "us",
    "channel.us_per_frame": "us",
    "decoder.decode.ms_per_frame": "ms",
    "decoder.extend_frozen.self_ms_per_frame": "ms",
    "decoder.extend_info.self_ms_per_frame": "ms",
    "decoder.prune.self_ms_per_frame": "ms",
    "decoder.prune.kept_ratio": "ratio",
    "sc_engine.update_llrs.self_ms_per_frame": "ms",
    "sc_engine.update_partial_sums.self_ms_per_frame": "ms",
    "sc_engine.duplicate.self_ms_per_frame": "ms",
    "sc_engine.take.self_ms_per_frame": "ms",
    "sc_engine.bytes_copied_per_frame": "bytes",
    "process.minor_faults_per_frame": "count",
    "trace.overhead_ratio": "ratio",
}


class Run:
    """One workload run: the program under test, the reference model and the tallies."""

    def __init__(self, workload, seed: int):
        sys.path.insert(0, str(ROOT / "src"))
        import pactrellis
        from pactrellis import cli, decoder, pac_core, sim

        if Path(pactrellis.__file__).resolve().parent != ROOT / "src" / "pactrellis":
            raise RuntimeError(f"pactrellis was imported from {pactrellis.__file__}, not {ROOT / 'src'}")
        self.cli, self.decoder, self.pac_core, self.sim = cli, decoder, pac_core, sim
        self.w, self.seed = workload, seed
        self.code = pac_core.PacCode.rm(workload.n, workload.K, workload.gen)
        self.config = decoder.DecoderConfig.from_name(workload.decoder, workload.list_size)
        self.ref = Reference(workload.n, workload.K, workload.gen)
        self.attempted = 0
        self.failed = 0
        self.faults = []
        self.frames = 0  # frames in the reported results of timed rounds
        self.timed_s = 0.0
        self.latencies = []  # seconds per decode() call the benchmark makes itself
        self.minor_faults = 0  # page faults taken in the timed phases
        self.setup_times = []
        self.paired_s = [0.0, 0.0]  # untraced, traced wall time of the same rounds
        self.sweep_points = []  # per sweep round: [(ebno, trials, frame_errors)]

    def fault(self, text: str) -> None:
        self.faults.append(text)

    # --- checks shared by both kinds of workload -------------------------------------

    def check_code(self) -> None:
        if not np.array_equal(np.asarray(self.code.A), self.ref.info_set):
            self.fault("PacCode.rm information set differs from the reference weight profile")

    def encode_faults(self, d: np.ndarray, x: np.ndarray) -> list:
        got = np.stack([self.pac_core.pac_encode(row, self.code) for row in d])
        return [] if np.array_equal(got, x) else ["pac_encode differs from d G_A mod 2"]

    def decode_batch(self, llrs, latencies=None):
        """decode() each row of llrs; returns the results, timing each call into latencies."""
        results = []
        for llr in llrs:
            t0 = time.perf_counter()
            results.append(self.decoder.decode(llr, self.code, self.config))
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)
        return results

    def decode_faults(self, llrs, results) -> list:
        return self.ref.decode_faults(
            np.asarray(llrs),
            np.stack([r.d_hat for r in results]),
            np.stack([r.v_hat for r in results]),
            np.stack([r.u_hat for r in results]),
            np.array([r.metric for r in results]),
        )

    def check_noiseless(self) -> None:
        """Noiseless frames must decode to the sent message."""
        rng = np.random.default_rng([self.seed, 0x5E7])
        d = rng.integers(0, 2, size=(NOISELESS_FRAMES, self.w.K), dtype=np.int8)
        x = self.ref.encode(d)
        var = sigma2(self.w.snr[0], self.w.K, self.w.N)
        llrs = channel_llrs(x, np.zeros(x.shape), var)
        results = self.decode_batch(llrs)
        faults = self.decode_faults(llrs, results)
        for row, res in enumerate(results):
            if not np.array_equal(res.d_hat, d[row]):
                faults[row].append("a noiseless frame did not decode to the sent message")
        self.tally(1, faults)

    def tally(self, size: int, faults_per_op: list) -> None:
        """Count operations of the given size each; an operation with faults fails."""
        self.attempted += size * len(faults_per_op)
        for faults in faults_per_op:
            if faults:
                self.failed += size
                self.faults.extend(faults)

    # --- sweep workloads -------------------------------------------------------------

    def sweep_round(self, index: int, tracer=None) -> str:
        """One in-process `pactrellis simulate`; returns its CSV (empty if it failed)."""
        master_seed = self.seed * 1000 + index
        out = io.StringIO()
        faults0 = minor_faults()
        try:
            with redirect_stdout(out), (tracer or nullcontext()):
                t0 = time.perf_counter()
                rc = self.cli.main(self.w.cli_args(master_seed))
                dt = time.perf_counter() - t0
        except Exception:  # the run goes on and reports the sweep as failed
            rc, dt = None, 0.0
            self.fault(traceback.format_exc(limit=3))
        if rc != 0:
            self.fault(f"simulate with seed {master_seed} returned {rc}")
            self.tally(1, [["sweep failed"]])
            return ""
        text = out.getvalue()
        if tracer is not None:
            self.paired_s[1] += dt
            return text
        self.paired_s[0] += dt
        self.minor_faults += minor_faults() - faults0
        try:
            points = self.check_sweep(text, master_seed)
        except (KeyError, ValueError) as exc:
            self.tally(1, [[f"unreadable CSV from simulate ({exc}): {text[:200]!r}"]])
            return text
        self.sweep_points.append(points)
        self.timed_s += dt
        self.frames += sum(p[1] for p in points)
        return text

    def check_sweep(self, text: str, master_seed: int) -> list:
        """Check a sweep's CSV and recompute sampled trials; returns [(ebno, trials, errors)]."""
        w = self.w
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER or len(lines) != 1 + len(w.snr):
            self.tally(1, [[f"unexpected CSV from simulate: {text[:200]!r}"]])
            return []
        plan = self.sim.SimPlan(self.code, self.config, w.snr, w.min_errors, w.max_trials, master_seed)
        expect = {"seed": str(master_seed), "decoder": w.decoder,
                  "sort": "global" if w.decoder in ("sc", "scl") else "local",
                  "list": str(w.list_size), "m": str(len(self.ref.g) - 1), "gen_octal": oct(w.gen)}
        points = []
        for s, line in enumerate(lines[1:]):
            row = dict(zip(CSV_HEADER.split(","), line.split(",")))
            trials, fe, be = int(row["trials"]), int(row["frame_errors"]), int(row["bit_errors"])
            faults = [f"column {k} is {row[k]!r}, expected {v!r}" for k, v in expect.items() if row[k] != v]
            if float(row["ebno_db"]) != w.snr[s]:
                faults.append(f"point {s} is at {row['ebno_db']} dB, expected {w.snr[s]}")
            if not (1 <= trials <= w.max_trials and 0 <= fe <= min(trials, w.min_errors)
                    and fe <= be <= trials * w.K):
                faults.append(f"counts out of range: {line}")
            if float(row["fer"]) != fe / trials or float(row["ber"]) != be / (trials * w.K):
                faults.append(f"fer/ber do not match the counts: {line}")
            faults += self.check_trials(plan, s, trials, fe)
            points.append((w.snr[s], trials, fe))
            self.tally(trials, [faults])
        return points

    def check_trials(self, plan, s: int, trials: int, frame_errors: int) -> list:
        """Recompute sampled trials of point s apart from sim; the last reported one always."""
        w = self.w
        pick = np.random.default_rng([plan.master_seed, s])
        others = pick.choice(trials - 1, size=min(w.samples_per_point - 1, trials - 1), replace=False)
        indices = [trials - 1, *sorted(int(i) for i in others)]
        var = sigma2(w.snr[s], w.K, w.N)
        drawn = [draw(plan.master_seed, s, i, w.K, w.N, var) for i in indices]
        d = np.stack([m for m, _ in drawn])
        x = self.ref.encode(d)
        faults = self.encode_faults(d, x)
        llrs = np.stack([channel_llrs(x[j], drawn[j][1], var) for j in range(len(indices))])
        results = self.decode_batch(llrs, self.latencies)
        for j, i in enumerate(indices):
            errs = int(np.count_nonzero(results[j].d_hat != d[j]))
            flag, sim_errs = self.sim.run_trial(plan, s, i)
            if bool(flag) != (errs > 0) or int(sim_errs) != errs:
                faults.append(f"trial {i} at point {s}: run_trial gave ({flag}, {sim_errs}), "
                              f"recomputed {errs} bit errors")
            if i == trials - 1 and trials != w.max_trials and not (frame_errors == w.min_errors and errs):
                faults.append(f"point {s} stopped at trial {i} without meeting the stopping rule")
        for frame_faults in self.decode_faults(llrs, results):
            faults += frame_faults
        return faults

    def check_intervals(self) -> None:
        """No higher-SNR point's Clopper-Pearson interval lies wholly above its predecessor's."""
        for points in self.sweep_points:
            intervals = [clopper_pearson(fe, n) for _, n, fe in points]
            for (lo_prev, hi_prev), (lo, _), p in zip(intervals, intervals[1:], points[1:]):
                if lo > hi_prev:
                    self.failed += p[1]
                    self.fault(f"FER interval at {p[0]} dB lies wholly above the one before it")

    # --- decode workloads ------------------------------------------------------------

    def frames_of_round(self, index: int):
        """The round's frames: message rows and channel LLR rows, made by the reference code."""
        w = self.w
        var = sigma2(w.snr[0], w.K, w.N)
        first = index * w.frames_per_round
        drawn = [draw(self.seed, 0, i, w.K, w.N, var) for i in range(first, first + w.frames_per_round)]
        d = np.stack([m for m, _ in drawn])
        x = self.ref.encode(d)
        return d, x, channel_llrs(x, np.stack([noise for _, noise in drawn]), var)

    def decode_round(self, index: int, tracer=None):
        """decode() every frame of the round, one call each; returns (d_hat, metric) rows."""
        d, x, llrs = self.frames_of_round(index)
        timed = tracer is None
        faults0 = minor_faults()
        t0 = time.perf_counter()
        with tracer or nullcontext():
            results = self.decode_batch(llrs, self.latencies if timed else None)
        dt = time.perf_counter() - t0
        self.paired_s[0 if timed else 1] += dt
        out = (np.stack([r.d_hat for r in results]), np.array([r.metric for r in results]))
        if timed:
            self.minor_faults += minor_faults() - faults0
            self.timed_s += sum(self.latencies[-len(results):])
            self.frames += len(results)
            shared = self.encode_faults(d, x)
            self.tally(1, [shared + f for f in self.decode_faults(llrs, results)])
        return out

    # --- the run ---------------------------------------------------------------------

    def play(self, rounds: int, tracer=None, probes: int = 0) -> None:
        """Play rounds 0 .. rounds-1.

        The set-up probes are spread over the run, so that they meet the same
        spells of machine speed as the rounds do.
        """
        round_fn = self.sweep_round if self.w.kind == "sweep" else self.decode_round
        for index in range(rounds):
            if tracer is None:
                round_fn(index)
            else:
                # alternate which of the pair runs first, so warm-up favours neither
                if index % 2:
                    traced, plain = round_fn(index, tracer), round_fn(index)
                else:
                    plain, traced = round_fn(index), round_fn(index, tracer)
                same = (plain == traced if isinstance(plain, str)
                        else all(np.array_equal(a, b) for a, b in zip(plain, traced)))
                if not same:
                    self.tally(1, [[f"round {index} gave different outputs when traced"]])
            while len(self.setup_times) < probes * (index + 1) // rounds:
                self.setup_times.append(probe_setup(self.w))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def probe_setup(workload) -> float:
    """Set-up time of the workload in a fresh process (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def end_to_end(run: Run) -> dict:
    lat_ms = np.array(run.latencies) * 1e3
    values = {
        "setup_s": statistics.median(run.setup_times),
        "frames_per_s": run.frames / run.timed_s if run.timed_s else 0.0,
        "decode_ms_p90": float(np.percentile(lat_ms, 90)),
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the median is printed, not reported: it flips between the host's fast and
    # slow spells from run to run (see README, Steadiness)
    print(f"decode() latency samples: {lat_ms.size}, median {np.median(lat_ms):.4g} ms; "
          f"set-up probes: {len(run.setup_times)}")
    return values


def per_layer(run: Run, tracer: Tracer) -> dict:
    calls, wall, own, counts = tracer.calls, tracer.wall_ns, tracer.self_ns, tracer.counts
    frames = calls["decoder.decode"]
    trials = calls["sim.run_trial"]
    sweeps = calls["cli.main"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    values = {
        "cli.self_ms": ratio(own["cli.main"], sweeps, 1e-6),
        "sim.trials_decoded": ratio(trials, sweeps),
        "sim.trial_yield": ratio(run.frames, trials),  # traced rounds repeat the untraced ones
        "sim.trial_rng.us_per_trial": ratio(wall["sim.trial_rng"], trials, 1e-3),
        "sim.run_trial.self_us_per_trial": ratio(own["sim.run_trial"], trials, 1e-3),
        "pac_core.pac_encode.us_per_frame": ratio(wall["pac_core.pac_encode"], frames, 1e-3),
        "channel.us_per_frame": ratio(
            wall["channel.bpsk_modulate"] + wall["channel.awgn"] + wall["channel.channel_llr"],
            frames, 1e-3),
        "decoder.decode.ms_per_frame": ratio(wall["decoder.decode"], frames, 1e-6),
        "decoder.prune.kept_ratio": ratio(counts["decoder.prune.kept"],
                                          counts["decoder.prune.candidates"]),
        "sc_engine.bytes_copied_per_frame": ratio(counts["sc_engine.bytes_copied"], frames),
        # the plain rounds make as many decode() calls as the traced ones
        "process.minor_faults_per_frame": ratio(run.minor_faults, frames),
        "trace.overhead_ratio": ratio(run.paired_s[1], run.paired_s[0]),
    }
    for name in ("decoder.extend_frozen", "decoder.extend_info", "decoder.prune",
                 "sc_engine.update_llrs", "sc_engine.update_partial_sums",
                 "sc_engine.duplicate", "sc_engine.take"):
        values[name + ".self_ms_per_frame"] = ratio(own[name], frames, 1e-6)
    return values


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    run.check_code()
    run.check_noiseless()
    tracer = Tracer() if trace else None
    rounds = workload.rounds(seconds)
    if trace:  # each round is played twice, plain and traced
        rounds = (rounds + 1) // 2
    t0 = time.perf_counter()
    run.play(rounds, tracer, probes=0 if trace else SETUP_PROBES)
    print(f"{rounds} rounds in {time.perf_counter() - t0:.1f} s")
    if trace:
        metrics = per_layer(run, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        total = max(run.paired_s[1], 1e-12)
        shares = {name: tracer.self_ns[name] / 1e9 / total
                  for name, calls in sorted(tracer.calls.items()) if calls}
        tracer.write(path, {"workload": workload.name, "seed": seed, "metrics": metrics,
                            "traced_s": run.paired_s[1], "untraced_s": run.paired_s[0],
                            "self_share": shares})
        print(f"spans written to {path}")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"self-time share {name}: {share:.3f}")
        idle = sorted(n for n, v in metrics.items() if v == 0.0)
        if tracer.absent:
            print("absent layers: " + ", ".join(sorted(tracer.absent)))
        if idle:
            print("not exercised on this workload: " + ", ".join(idle))
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(run)
        units = END_TO_END_UNITS
    if workload.name == "sweep-sc128":
        run.check_intervals()
    for text in run.faults[:20]:
        print(f"FAULT: {text}")
    print(f"{workload.name} seed {seed}: attempted {run.attempted}, failed {run.failed}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": not run.faults,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pactrellis" / "__init__.py").is_file():
        print(f"error: no pactrellis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if not args.trace:
        pin_malloc_thresholds()  # a traced run keeps the allocator as users have it
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
