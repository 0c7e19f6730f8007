import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from reference_oracle import generator_matrix

from pactrellis import schedule, sim
from pactrellis.decoder import DecoderConfig, decode
from pactrellis.pac_core import PacCode
from pactrellis.sim import (
    CSV_COLUMNS,
    FerPoint,
    SimPlan,
    confidence_interval,
    csv_text,
    json_text,
    run_point,
    run_sweep,
    run_trial,
)


def small_plan(**kwargs):
    defaults = dict(
        code=PacCode.rm(4, 8, 0o3),
        decoder=DecoderConfig("global", 2),
        snr_points=(2.0,),
        min_frame_errors=15,
        max_trials=600,
        master_seed=11,
    )
    defaults.update(kwargs)
    return SimPlan(**defaults)


def same_point(a: FerPoint, b: FerPoint) -> bool:
    return (
        a.ebno_db == b.ebno_db
        and a.trials == b.trials
        and a.frame_errors == b.frame_errors
        and a.bit_errors == b.bit_errors
        and a.fer == b.fer
        and a.ber == b.ber
    )


class TestPlanValidation:
    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            small_plan(min_frame_errors=0)
        with pytest.raises(ValueError):
            small_plan(min_frame_errors=100, max_trials=50)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_snr(self, bad):
        with pytest.raises(ValueError, match="finite"):
            small_plan(snr_points=(2.0, bad))


class TestRunPoint:
    def test_high_snr_no_errors(self):
        plan = small_plan(snr_points=(30.0,), min_frame_errors=1, max_trials=100)
        point = run_point(plan, 0)
        assert point.trials == 100
        assert point.frame_errors == 0 and point.bit_errors == 0
        assert point.fer == 0.0 and point.ber == 0.0

    def test_repeat_is_identical(self):
        plan = small_plan()
        assert same_point(run_point(plan, 0), run_point(plan, 0))

    def test_stops_at_exact_error_threshold(self):
        plan = small_plan(snr_points=(0.0,), min_frame_errors=5, max_trials=5000)
        point = run_point(plan, 0)
        assert point.frame_errors == 5
        # the stopping trial itself is an error
        err, _ = run_trial(plan, 0, point.trials - 1)
        assert err

    def test_point_builds_no_chunk_list(self):
        # chunk bounds are made as the loop consumes them: a point met in its first chunk
        # allocates nothing in proportion to max_trials (500,000 bounds here)
        plan = small_plan(code=PacCode.rm(3, 4, 0o3), snr_points=(0.0,), min_frame_errors=5,
                          max_trials=10**8)
        tracemalloc.start()
        try:
            point = run_point(plan, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert point.frame_errors == 5 and point.trials <= sim.TRIALS_PER_CHUNK
        assert peak < 4 << 20

    @pytest.mark.parametrize("snr, min_errors", [(2.0, 15), (0.0, 5), (30.0, 1)])
    def test_serial_decodes_only_reported_trials(self, monkeypatch, snr, min_errors):
        # a serial run stops decoding at the stopping trial, mid-chunk and mid-batch
        # included: every trial drawn is decoded, in one lockstep batch or another
        calls, decoded = [], []
        draw = sim.trial_rng

        def counting_draw(master_seed, snr_index, trial_index):
            calls.append(trial_index)
            return draw(master_seed, snr_index, trial_index)

        def counting_decode(llrs, code, config):
            decoded.append(len(llrs))
            return decode(llrs, code, config)

        plan = small_plan(snr_points=(snr,), min_frame_errors=min_errors)
        expected = run_point(plan, 0)
        monkeypatch.setattr(sim, "trial_rng", counting_draw)
        monkeypatch.setattr(sim, "decode", counting_decode)
        point = run_point(plan, 0, workers=1)
        assert same_point(point, expected)
        assert calls == list(range(point.trials))
        assert sum(decoded) == point.trials

    def test_pool_chunks_stop_at_their_own_target(self, monkeypatch):
        # chunk 0 decodes exactly the reported trials; a speculative chunk stops
        # at the stop_at-th error it was submitted with instead of running whole
        calls = []
        draw = sim.trial_rng

        def counting_draw(master_seed, snr_index, trial_index):
            calls.append(trial_index)
            return draw(master_seed, snr_index, trial_index)

        plan = small_plan(snr_points=(0.0,), min_frame_errors=5, max_trials=5000)
        expected = run_point(plan, 0)
        assert expected.trials <= sim.TRIALS_PER_CHUNK
        monkeypatch.setattr(sim, "trial_rng", counting_draw)
        with ThreadPoolExecutor(2) as pool:
            point = run_point(plan, 0, workers=2, executor=pool)
        monkeypatch.undo()
        assert same_point(point, expected)
        by_chunk = {}
        for i in sorted(calls):
            by_chunk.setdefault(i // sim.TRIALS_PER_CHUNK, []).append(i)
        assert by_chunk[0] == list(range(point.trials))
        for chunk, trials in by_chunk.items():
            start = chunk * sim.TRIALS_PER_CHUNK
            assert trials == list(range(start, start + len(trials)))
            flags = [run_trial(plan, 0, i)[0] for i in trials]
            # a chunk submitted before any error was collected stops at its 5th error
            assert sum(flags) <= plan.min_frame_errors
            if len(trials) < sim.TRIALS_PER_CHUNK:
                assert sum(flags) == plan.min_frame_errors and flags[-1]

    @pytest.mark.parametrize("snr, min_errors", [(2.0, 15), (0.0, 5), (30.0, 1)])
    def test_batches_stay_within_the_missing_errors(self, monkeypatch, snr, min_errors):
        # no lockstep batch holds more than batch_size frames or more than the errors still
        # missing, none crosses a chunk, and the point is the one trial-by-trial decoding gives
        sizes = []

        def counting_decode(llrs, code, config):
            sizes.append(len(llrs))
            return decode(llrs, code, config)

        plan = small_plan(snr_points=(snr,), min_frame_errors=min_errors)
        assert sim.batch_size(plan) == 64  # the frame cap: frames of 560 bytes fit 2,851 times
        monkeypatch.setattr(sim, "decode", counting_decode)
        point = run_point(plan, 0)
        monkeypatch.undo()
        trials = [run_trial(plan, 0, i) for i in range(plan.max_trials)]
        done = found = 0
        for size in sizes:
            chunk_left = sim.TRIALS_PER_CHUNK - done % sim.TRIALS_PER_CHUNK
            assert 1 <= size <= min(sim.batch_size(plan), min_errors - found, chunk_left)
            found += sum(flag for flag, _ in trials[done : done + size])
            done += size
        assert done == point.trials and found == point.frame_errors
        cum = np.cumsum([flag for flag, _ in trials])
        stop = int(np.argmax(cum >= min_errors)) + 1 if cum[-1] >= min_errors else plan.max_trials
        assert point.trials == stop and point.frame_errors == cum[stop - 1]
        assert point.bit_errors == sum(errs for _, errs in trials[:stop])

    def test_batch_size_fills_the_bank_bytes(self):
        # a batch holds at most 12 x 133,056 bytes, and 64 frames.  A frame holds, per path,
        # a bank row of N/4 - 1 LLRs and N - 1 partial sums (those of stages 3 and up as
        # bits) and a column of K one-byte backpointers; 1.75 N floats for the bank's
        # channel copy and the stage n - 1 and n - 2 blocks made from it; and 4 floats per
        # parent and bit of its widest step.  SCL-32 on PAC(1024,512) takes 133,056 bytes a
        # frame
        for (n, K, gen), name, list_size, frames in (
                ((10, 512, 0o133), "scl", 32, 12), ((10, 512, 0o133), "scl", 8, 36),
                ((10, 512, 0o133), "sc", None, 64), ((10, 512, 0o133), "lva", 2, 3),
                ((10, 512, 0o133), "va", None, 6), ((7, 64, 0o73), "lva", 1, 64),
                ((7, 64, 0o133), "lva", 2, 20), ((7, 64, 0o133), "va", None, 40),
                ((7, 64, 0o133), "scl", 8, 64)):
            plan = small_plan(code=PacCode.rm(n, K, gen),
                              decoder=DecoderConfig.from_name(name, list_size))
            assert sim.batch_size(plan) == frames
        # a code with few messages keeps fewer paths than the budget: 4, not 256
        plan = small_plan(code=PacCode.rm(10, 2, 0o133), decoder=DecoderConfig("local", 4))
        assert sim.batch_size(plan) == 40

    def test_trial_reproducible_in_isolation(self):
        plan = small_plan(snr_points=(1.0,))
        for idx in (0, 3, 17):
            assert run_trial(plan, 0, idx) == run_trial(plan, 0, idx)

    def test_batch_rows_follow_the_readme_rng_contract(self, monkeypatch):
        # every row of a lockstep batch is the README's trial, written out here apart
        # from sim: Philox(key=seed, counter=[0, i, s, 0]) draws K message bits, then N
        # normals; x = d G mod 2; LLR = 2((1 - 2x) + sqrt(sigma2) z) / sigma2
        code = PacCode.rm(5, 16, 0o133)
        plan = small_plan(code=code, decoder=DecoderConfig("global", 4), snr_points=(1.0, 2.5),
                          min_frame_errors=40, max_trials=40)
        batches = []

        def capturing_decode(llrs, code, config):
            batches.append(np.array(llrs))
            return decode(llrs, code, config)

        monkeypatch.setattr(sim, "decode", capturing_decode)
        point = run_point(plan, 1)
        # 64 frames fit, so the 40 trials, all 40 errors still missing, are one batch
        assert sim.batch_size(plan) == 64 and [len(b) for b in batches] == [40]
        rows = np.concatenate(batches)
        assert len(rows) == point.trials == 40
        G = generator_matrix(code)
        sigma2 = 1 / (2 * (16 / 32) * 10 ** (2.5 / 10))
        for i, row in enumerate(rows):
            rng = np.random.Generator(np.random.Philox(key=11, counter=[0, i, 1, 0]))
            d = rng.integers(0, 2, size=16, dtype=np.int8)
            z = rng.standard_normal(32)
            x = d.astype(int) @ G % 2
            np.testing.assert_allclose(row, 2 * ((1 - 2 * x) + np.sqrt(sigma2) * z) / sigma2,
                                       rtol=1e-12, atol=0)

    def test_trial_rng_draws_as_a_new_philox(self):
        # the reused generator, set per trial, draws what a new Philox would, whatever the
        # trial before it left buffered; each thread has its own
        def draws(rng):
            return (rng.integers(0, 2, size=13, dtype=np.int8).tobytes()
                    + rng.standard_normal(5).tobytes() + rng.integers(0, 9, 3, np.int32).tobytes())

        for seed, snr, trial in ((11, 0, 0), (11, 0, 1), (11, 2, 1), (5, 0, 1), (2**70, 1, 3)):
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=[0, trial, snr, 0]))
            assert draws(sim.trial_rng(seed, snr, trial)) == draws(fresh)
        with ThreadPoolExecutor(1) as pool:
            other = pool.submit(sim.trial_rng, 11, 0, 0).result()
        assert other is not sim.trial_rng(11, 0, 0)

    @pytest.mark.slow
    def test_worker_invariance(self):
        plan = small_plan(snr_points=(1.5,), min_frame_errors=25, max_trials=1200)
        base = run_point(plan, 0)
        for workers in (4, 16):
            assert same_point(base, run_point(plan, 0, workers=workers))

    def test_fer_bounds(self):
        plan = small_plan(snr_points=(0.0,), min_frame_errors=10, max_trials=300)
        p = run_point(plan, 0)
        assert 0.0 <= p.ber <= p.fer <= 1.0


class TestRunSweep:
    def test_empty(self):
        plan = small_plan(snr_points=())
        assert run_sweep(plan) == []

    def test_monotone_trend_with_confidence(self):
        plan = small_plan(
            code=PacCode.rm(5, 16, 0o3),
            decoder=DecoderConfig("global", 2),
            snr_points=(0.0, 2.0, 4.0),
            min_frame_errors=40,
            max_trials=4000,
            master_seed=3,
        )
        points = run_sweep(plan)
        assert [p.ebno_db for p in points] == [0.0, 2.0, 4.0]
        for lo_snr, hi_snr in zip(points, points[1:]):
            lo_ci = confidence_interval(lo_snr, 0.95)
            hi_ci = confidence_interval(hi_snr, 0.95)
            # FER must not significantly increase with SNR
            assert hi_ci[0] <= lo_ci[1]

    @pytest.mark.slow
    def test_list_size_helps_at_moderate_snr(self):
        # the flagship code: a 32-path list decoder clearly beats single-path SC
        code = PacCode.rm(7, 64, 0o133)
        kwargs = dict(snr_points=(2.5,), min_frame_errors=100, master_seed=5)
        sc = run_point(SimPlan(code=code, decoder=DecoderConfig("global", 1),
                               max_trials=3000, **kwargs), 0, workers=2)
        scl = run_point(SimPlan(code=code, decoder=DecoderConfig("global", 32),
                                max_trials=40_000, **kwargs), 0, workers=2)
        assert sc.frame_errors >= 100
        assert scl.fer < sc.fer


    def test_sweep_builds_one_plan(self):
        # a point's last batches hold fewer frames than batch_size; every batch of every
        # point decodes by the one plan of the code and config
        plan = SimPlan(code=PacCode.rm(7, 64, 0o133), decoder=DecoderConfig.from_name("lva", 2),
                       snr_points=(1.5, 2.0), min_frame_errors=30, max_trials=2000,
                       master_seed=3)
        schedule.plan_steps.cache_clear()
        run_sweep(plan)
        assert schedule.plan_steps.cache_info().misses == 1


class TestConfidenceInterval:
    def test_zero_errors_low_is_zero(self):
        p = FerPoint(1.0, 500, 0, 0, 0.0, 0.0)
        low, high = confidence_interval(p, 0.95)
        assert low == 0.0 and 0 < high < 0.02

    def test_hundred_in_ten_thousand(self):
        p = FerPoint(1.0, 10_000, 100, 400, 0.01, 0.001)
        low, high = confidence_interval(p, 0.95)
        assert low < 0.01 < high
        assert (high - low) == pytest.approx(0.004, abs=5e-4)

    def test_degenerate_level(self):
        p = FerPoint(1.0, 100, 7, 20, 0.07, 0.005)
        assert confidence_interval(p, 0.0) == (0.07, 0.07)

    def test_all_errors_high_is_one(self):
        p = FerPoint(1.0, 50, 50, 100, 1.0, 0.5)
        low, high = confidence_interval(p, 0.95)
        assert high == 1.0 and low > 0.9

    def test_bounds_are_scipy_stats_beta_quantiles(self):
        # the interval reads its quantiles from scipy.special; they are beta.ppf's, bit for bit
        from scipy.stats import beta

        for n in (1, 2, 3, 7, 50, 200, 10_000):
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
                for level in (0.5, 0.9, 0.95, 0.99):
                    alpha = 1.0 - level
                    low, high = confidence_interval(FerPoint(1.0, n, k, 0, k / n, 0.0), level)
                    assert low == (0.0 if k == 0 else beta.ppf(alpha / 2, k, n - k + 1))
                    assert high == (1.0 if k == n else beta.ppf(1 - alpha / 2, k + 1, n - k))


class TestSerialization:
    def test_csv_schema(self):
        plan = small_plan(snr_points=(2.0,), min_frame_errors=2, max_trials=50)
        points = run_sweep(plan)
        text = csv_text(plan, points)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0] == "ebno_db,trials,frame_errors,bit_errors,fer,ber,seed,decoder,sort,list,m,gen_octal"
        row = lines[1].split(",")
        assert row[6] == "11"  # seed
        assert row[7] == "scl" and row[8] == "global" and row[9] == "2"
        assert row[10] == "1" and row[11] == "0o3"

    def test_rerun_reproduces_csv_bytes(self):
        plan = small_plan()
        a = csv_text(plan, run_sweep(plan))
        b = csv_text(plan, run_sweep(plan))
        assert a == b

    def test_json_mirrors_results(self):
        import json

        plan = small_plan(snr_points=(2.0,), min_frame_errors=2, max_trials=50)
        points = run_sweep(plan)
        doc = json.loads(json_text(plan, points))
        assert doc["plan"]["gen_octal"] == "0o3"
        assert doc["plan"]["info_set"] == list(plan.code.A)
        assert len(doc["results"]) == 1
        result, point = doc["results"][0], points[0]
        assert result["trials"] == point.trials
        assert "wall_time" not in result
        assert result["wall_time_s"] == point.wall_time > 0
        assert result["frames_per_s"] == point.trials / point.wall_time
        assert (result["fer_low"], result["fer_high"]) == confidence_interval(point)
        assert result["fer_low"] <= result["fer"] <= result["fer_high"]

    def test_csv_bytes_carry_no_timings(self):
        # the JSON envelope's timings stay out of the CSV: its bytes are fixed by the seed alone
        plan = small_plan(snr_points=(2.0,), min_frame_errors=2, max_trials=50)
        (point,) = run_sweep(plan)
        text = csv_text(plan, [point])
        assert text == (
            "ebno_db,trials,frame_errors,bit_errors,fer,ber,seed,decoder,sort,list,m,gen_octal\n"
            "2.0,25,2,5,0.08,0.025,11,scl,global,2,1,0o3\n"
        )
        assert csv_text(plan, [replace(point, wall_time=point.wall_time * 7 + 1)]) == text


class TestFixedSeedGate:
    """CSV bytes of two fixed-seed sweeps, committed under tests/data.

    Each file is the standard output of
    ``pactrellis simulate --n 7 --k 64 --gen 0o133 --snr 1.5,2.5 --min-errors 20
    --seed 11`` with ``--decoder lva --list 2`` or ``--decoder scl --list 8``.
    A change that claims to keep decoding bit-identical must reproduce them.
    """

    @pytest.mark.parametrize("name,list_size", [("lva", 2), ("scl", 8)])
    def test_csv_bytes_match_committed(self, name, list_size):
        plan = SimPlan(
            code=PacCode.rm(7, 64, 0o133),
            decoder=DecoderConfig.from_name(name, list_size),
            snr_points=(1.5, 2.5),
            min_frame_errors=20,
            max_trials=100_000,
            master_seed=11,
        )
        expected = (Path(__file__).parent / "data" / f"gate_{name}{list_size}.csv").read_bytes()
        assert csv_text(plan, run_sweep(plan)).encode() == expected
