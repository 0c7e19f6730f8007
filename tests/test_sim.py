import pytest

from pactrellis import sim
from pactrellis.decoder import DecoderConfig
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

    @pytest.mark.parametrize("snr, min_errors", [(2.0, 15), (0.0, 5), (30.0, 1)])
    def test_serial_decodes_only_reported_trials(self, monkeypatch, snr, min_errors):
        # a serial run stops decoding at the stopping trial, mid-chunk included
        calls = []

        def counting_trial(plan, snr_index, trial_index):
            calls.append(trial_index)
            return run_trial(plan, snr_index, trial_index)

        plan = small_plan(snr_points=(snr,), min_frame_errors=min_errors)
        expected = run_point(plan, 0)
        monkeypatch.setattr(sim, "run_trial", counting_trial)
        point = run_point(plan, 0, workers=1)
        assert same_point(point, expected)
        assert calls == list(range(point.trials))

    def test_trial_reproducible_in_isolation(self):
        plan = small_plan(snr_points=(1.0,))
        for idx in (0, 3, 17):
            assert run_trial(plan, 0, idx) == run_trial(plan, 0, idx)

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
        assert doc["results"][0]["trials"] == points[0].trials
        assert "wall_time" not in doc["results"][0]
