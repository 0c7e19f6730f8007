"""Acceptance suite: one check per shipped guarantee, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte-Carlo checks
(criteria 6 and 7) take minutes; everything else is fast.  Criterion 7 is a
measured characterization that is expected to FAIL: with one survivor kept
per register state, long frozen stretches drive every path into the all-zero
state and the subsequent merge discards all but two hypotheses, so the
32-state single-survivor decoder cannot match a 16-path globally-sorted list
decoder.  The check asserts the claimed ordering anyway and reports the
measured rates.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import make_trial, subprocess_env
from reference_oracle import (
    ml_decode_exhaustive,
    naive_scl_reference,
    polar_sc_reference,
)

from pactrellis.decoder import DecoderConfig, decode
from pactrellis.pac_core import (
    PacCode,
    conv_inverse,
    conv_transform,
    pac_encode,
    parse_gen,
    polar_transform,
)
from pactrellis.sim import SimPlan, confidence_interval, run_point
from pactrellis.sorter import apply_network, build_reduced_bitonic, latency_report, psi_lva

WORKERS = max(1, min(4, os.cpu_count() or 1))


def _report(num, desc, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}{tail}"
    print(line)
    assert ok, line


def test_criterion_1_latency_model_exact():
    r = latency_report(K=128, L=128, m=4)
    ok = (
        r.ld_stages_total == 4608
        and r.lva_stages_total == 896
        and round(r.reduction_pct, 1) == 80.6
    )
    _report(1, "latency model exact (4608 / 896 / 80.6%)", ok,
            f"got {r.ld_stages_total}/{r.lva_stages_total}/{r.reduction_pct:.1f}%")


def test_criterion_2_sorter_selection_and_stage_counts():
    rng = np.random.default_rng(21)
    ok = True
    for L in (2, 4, 8, 16):
        spec = build_reduced_bitonic(L)
        ok &= spec.stage_count == psi_lva(L, 0)
        vals = rng.normal(0.0, 1.0, (10_000, 2 * L))
        out = apply_network(spec, vals)
        picked = np.sort(out[:, :L], axis=1)
        ok &= bool(np.array_equal(picked, np.sort(vals, axis=1)[:, :L]))
    _report(2, "reduced bitonic selects the L smallest, stage count matches formula", ok)


def test_criterion_3_ml_oracle_equivalence():
    code = PacCode.rm(4, 8, 0o3)
    cfg = DecoderConfig("global", 256, metric_mode="approximate")
    rng = np.random.default_rng(3003)
    agree = 0
    frames = 1000
    for _ in range(frames):
        _, llrs = make_trial(code, 2.0, rng)
        agree += np.array_equal(decode(llrs, code, cfg).d_hat, ml_decode_exhaustive(llrs, code))
    _report(3, "unpruned 256-path decoder matches exhaustive ML on PAC(16,8)",
            agree == frames, f"{agree}/{frames} agree")


def test_criterion_4_degenerate_identities():
    frames = 10_000

    # (a) no pre-transform + single path == plain polar SC
    code_a = PacCode.rm(6, 32, 0o1)
    cfg_a = DecoderConfig("global", 1)
    rng = np.random.default_rng(4001)
    info = list(code_a.A)
    a_ok = all(
        np.array_equal(
            decode(llrs, code_a, cfg_a).d_hat, polar_sc_reference(llrs, code_a.A)[info]
        )
        for llrs in (make_trial(code_a, 2.0, rng)[1] for _ in range(frames))
    )

    # (b) global sorting is bit-identical to the standalone list-decoder reference
    code_b = PacCode.rm(6, 32, 0o133)
    b_ok = True
    for L in (2, 8, 32):
        rng = np.random.default_rng(4100 + L)
        cfg = DecoderConfig("global", L)
        for _ in range(frames):
            _, llrs = make_trial(code_b, 2.0, rng)
            if not np.array_equal(decode(llrs, code_b, cfg).d_hat,
                                  naive_scl_reference(llrs, code_b, L)):
                b_ok = False
                break

    # (c) single survivor per state implements add-compare-select at every merge
    code_c = PacCode.rm(6, 32, 0o7)
    cfg_c = DecoderConfig("local", 1)
    rng = np.random.default_rng(4200)
    acs = {"merges": 0, "ok": True}

    def observer(t, states, metrics, keep):
        kept = np.zeros(states.size, dtype=bool)
        kept[keep] = True
        for s in np.unique(states):
            rows = np.flatnonzero(states == s)
            acs["merges"] += 1
            best = rows[np.argsort(metrics[rows], kind="stable")[0]]
            if not kept[best] or kept[rows].sum() != 1:
                acs["ok"] = False

    for _ in range(frames):
        _, llrs = make_trial(code_c, 2.0, rng)
        decode(llrs, code_c, cfg_c, prune_observer=observer)
    c_ok = acs["ok"] and acs["merges"] > 0

    _report(4, "degenerate-case identities (polar SC / standalone list / ACS merges)",
            a_ok and b_ok and c_ok,
            f"a={a_ok} b={b_ok} c={c_ok} merges={acs['merges']}")


def test_criterion_5_metric_properties():
    rng = np.random.default_rng(55)
    lam = rng.normal(0.0, 3.0, 1_000_000)
    u = rng.integers(0, 2, 1_000_000, dtype=np.int8)
    from pactrellis.decoder import branch_metric

    gap = branch_metric(lam, u, "exact") - branch_metric(lam, u, "approximate")
    gap_ok = bool(np.all(gap > 0) and np.all(gap <= math.log(2) + 1e-12))

    code = PacCode.rm(6, 32, 0o73)
    cfg = DecoderConfig("global", 8, metric_mode="approximate")
    scale_ok = True
    for _ in range(1000):
        _, llrs = make_trial(code, 1.5, rng)
        base = decode(llrs, code, cfg).v_hat
        for c in (0.5, 3.0):
            if not np.array_equal(decode(c * llrs, code, cfg).v_hat, base):
                scale_ok = False
    _report(5, "per-branch metric gap in (0, ln 2]; winner invariant to LLR scaling",
            gap_ok and scale_ok, f"gap_ok={gap_ok} scale_ok={scale_ok}")


# --- Monte-Carlo trend criteria -----------------------------------------------------

FLAGSHIP = dict(n=7, K=64)
TREND_ERRORS = 300
TREND_CAP = 120_000


def _fer(code, config, snr_db, seed, min_errors=TREND_ERRORS, cap=TREND_CAP):
    plan = SimPlan(code=code, decoder=config, snr_points=(snr_db,),
                   min_frame_errors=min_errors, max_trials=cap, master_seed=seed)
    return run_point(plan, 0, workers=WORKERS)


@pytest.fixture(scope="module")
def operating_snr():
    """The Eb/N0 where the 32-path globally sorted decoder runs near FER 1e-2."""
    code = PacCode.rm(FLAGSHIP["n"], FLAGSHIP["K"], 0o1)
    cfg = DecoderConfig("global", 32)
    best, best_dist = None, None
    for snr in (2.0, 2.25, 2.5):
        p = _fer(code, cfg, snr, seed=600, min_errors=60, cap=12_000)
        if p.frame_errors < 10:
            continue
        dist = abs(math.log10(p.fer) + 2.0)
        if best is None or dist < best_dist:
            best, best_dist = snr, dist
    assert best is not None
    print(f"[operating point] {best} dB")
    return best


def test_criterion_6_trend_per_state_list_size(operating_snr):
    # fixed 32 total survivors, per-state list growing 2 -> 8 -> 32
    runs = [
        ("l=2 (m=4)", PacCode.rm(7, 64, 0o33), DecoderConfig("local", 2), 601),
        ("l=8 (m=2)", PacCode.rm(7, 64, 0o7), DecoderConfig("local", 8), 602),
        ("l=32 (global)", PacCode.rm(7, 64, 0o1), DecoderConfig("global", 32), 603),
    ]
    points = [(name, _fer(code, cfg, operating_snr, seed)) for name, code, cfg, seed in runs]
    for name, p in points:
        print(f"  {name:15s} FER={p.fer:.4g} ({p.frame_errors}/{p.trials})")
    enough = all(p.frame_errors >= TREND_ERRORS for _, p in points)
    ok = enough
    for (_, a), (_, b) in zip(points, points[1:]):
        a_lo, a_hi = confidence_interval(a, 0.95)
        b_lo, b_hi = confidence_interval(b, 0.95)
        # larger per-state lists must not be significantly worse
        if b_lo > a_hi:
            ok = False
    detail = " ".join(f"{name}:{p.fer:.3g}" for name, p in points)
    _report(6, "FER non-increasing in per-state list size at fixed 32 survivors", ok, detail)


def test_criterion_7_local_32_between_global_16_and_32(operating_snr):
    """Expected to fail; see module docstring for the measured mechanism."""
    ld_code = PacCode.rm(7, 64, 0o133)
    runs = {
        "LD16": (ld_code, DecoderConfig("global", 16), 701),
        "LD32": (ld_code, DecoderConfig("global", 32), 702),
        "LVA32": (PacCode.rm(7, 64, 0o73), DecoderConfig("local", 1), 703),
    }
    points = {name: _fer(code, cfg, operating_snr, seed) for name, (code, cfg, seed) in runs.items()}
    for name, p in points.items():
        print(f"  {name:6s} FER={p.fer:.4g} ({p.frame_errors}/{p.trials})")
    enough = all(p.frame_errors >= TREND_ERRORS for p in points.values())
    lva_lo, lva_hi = confidence_interval(points["LVA32"], 0.95)
    ld16_lo, ld16_hi = confidence_interval(points["LD16"], 0.95)
    ld32_lo, ld32_hi = confidence_interval(points["LD32"], 0.95)
    between = lva_hi >= ld32_lo and lva_lo <= ld16_hi
    detail = (f"LVA32:{points['LVA32'].fer:.3g} vs LD16:{points['LD16'].fer:.3g}"
              f" / LD32:{points['LD32'].fer:.3g}")
    _report(7, "32-survivor local decoder lands between 16- and 32-path global decoders",
            enough and between, detail)


def test_criterion_8_worker_count_determinism(tmp_path):
    args = [
        "simulate", "--n", "5", "--k", "16", "--gen", "0o3",
        "--decoder", "scl", "--list", "4", "--snr", "1.0,2.0",
        "--min-errors", "20", "--max-trials", "2000", "--seed", "9",
    ]
    outputs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pactrellis", *args,
             "--out", str(out), "--workers", str(workers)],
            capture_output=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(8, "simulate CSV byte-identical across --workers 1/2/4", ok)


def test_criterion_9_encoder_algebra():
    rng = np.random.default_rng(99)
    gens = [0o1, 0o3, 0o7, 0o33, 0o73, 0o133, 0o733]
    ok = True
    for _ in range(4000):  # polar involution
        n = int(rng.integers(1, 9))
        u = rng.integers(0, 2, 1 << n, dtype=np.int8)
        ok &= bool(np.array_equal(polar_transform(polar_transform(u)), u))
    for _ in range(3000):  # convolutional bijection
        g = parse_gen(gens[int(rng.integers(0, len(gens)))])
        v = rng.integers(0, 2, int(rng.integers(1, 257)), dtype=np.int8)
        ok &= bool(np.array_equal(conv_inverse(conv_transform(v, g), g), v))
    for _ in range(3000):  # GF(2) linearity of the full encoder
        n = int(rng.integers(2, 7))
        K = int(rng.integers(1, (1 << n) + 1))
        code = PacCode.rm(n, K, gens[int(rng.integers(0, len(gens)))])
        d1 = rng.integers(0, 2, K, dtype=np.int8)
        d2 = rng.integers(0, 2, K, dtype=np.int8)
        ok &= bool(
            np.array_equal(pac_encode(d1 ^ d2, code), pac_encode(d1, code) ^ pac_encode(d2, code))
        )
    _report(9, "polar involution, convolutional bijection, encoder linearity (10^4 cases)", ok)
