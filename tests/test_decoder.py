import math

import numpy as np
import pytest
from conftest import make_trial

from pactrellis.decoder import (
    DecoderConfig,
    DecodeResult,
    PathSet,
    branch_metric,
    decode,
    extend_frozen,
    extend_info,
    hard_decision,
    prune,
)
from pactrellis.pac_core import (
    PacCode,
    conv_transform,
    pac_encode,
    polar_transform,
    rate_profile_insert,
)
from pactrellis.sc_engine import ContractViolationError, ScBank, ScScratch


def noiseless_llrs(code, d, mag=60.0):
    return (1.0 - 2.0 * pac_encode(d, code)) * mag


def build_pathset(code, metrics, states, ids=None):
    """Hand-built PathSet for prune/select tests; bank rows are placeholders."""
    ps = PathSet(np.ones(code.N), code, DecoderConfig())
    P = len(metrics)
    ps.bank = ScBank(np.ones(code.N), paths=P)
    ps.metrics = np.asarray(metrics, dtype=float)
    ps.states = np.asarray(states, dtype=np.int64)
    ps.ids = np.arange(P, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    ps.next_id = P
    return ps


def final_pathset(llrs, code, cfg):
    """Decode and return the survivor set as it stands after the last bit."""
    seen = []
    decode(llrs, code, cfg, step_hook=lambda t, ps: seen.append(ps) if t == code.N - 1 else None)
    return seen[0]


ALL_CONFIGS = [
    DecoderConfig("global", 1),
    DecoderConfig("global", 4),
    DecoderConfig("local", 1),
    DecoderConfig("local", 2),
]


class TestDecoderConfig:
    def test_name_mapping(self):
        assert DecoderConfig.from_name("sc") == DecoderConfig("global", 1)
        assert DecoderConfig.from_name("scl", 8) == DecoderConfig("global", 8)
        assert DecoderConfig.from_name("va") == DecoderConfig("local", 1)
        assert DecoderConfig.from_name("lva", 4) == DecoderConfig("local", 4)
        assert DecoderConfig("global", 8).name == "scl"
        assert DecoderConfig("local", 1).name == "va"

    def test_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(sorting="sideways")
        with pytest.raises(ValueError):
            DecoderConfig(list_size=0)
        with pytest.raises(ValueError):
            DecoderConfig(metric_mode="guess")
        with pytest.raises(ValueError):
            DecoderConfig.from_name("scl")

    def test_budget(self):
        assert DecoderConfig("global", 8).budget(m=4) == 8
        assert DecoderConfig("local", 8).budget(m=4) == 128


class TestHardDecision:
    def test_examples(self):
        assert hard_decision(2.5) == 0
        assert hard_decision(-0.1) == 1
        assert hard_decision(0.0) == 1

    def test_vectorized(self):
        assert np.array_equal(hard_decision(np.array([1.0, -1.0, 0.0])), [0, 1, 1])


class TestBranchMetric:
    def test_exact_at_zero_is_ln2(self):
        assert branch_metric(0.0, 0, "exact") == pytest.approx(math.log(2))
        assert branch_metric(0.0, 1, "exact") == pytest.approx(math.log(2))

    def test_approximate_examples(self):
        assert branch_metric(-2.0, 1, "approximate") == 0.0
        assert branch_metric(-2.0, 0, "approximate") == 2.0

    def test_gap_between_modes(self, rng):
        lam = rng.normal(0, 3, 10_000)
        u = rng.integers(0, 2, 10_000)
        gap = branch_metric(lam, u, "exact") - branch_metric(lam, u, "approximate")
        assert np.all(gap > 0)
        assert np.all(gap <= math.log(2) + 1e-12)

    def test_nonnegative_and_shape(self, rng):
        lam = rng.normal(0, 3, 100)
        u = rng.integers(0, 2, 100)
        for mode in ("exact", "approximate"):
            pen = branch_metric(lam, u, mode)
            assert pen.shape == lam.shape
            assert np.all(pen >= 0)


class TestExtendFrozen:
    def test_agreeing_llr_is_free(self):
        code = PacCode(n=1, K=1, A=(1,), g=(1, 1))
        ps = PathSet(np.array([3.0, 5.0]), code, DecoderConfig())
        extend_frozen(ps, 0)  # decision LLR f(3,5) = +3, u = 0 matches
        assert ps.metrics[0] == 0.0
        # stage 0 holds the committed u of bit 0; a frozen bit records no backpointer (v = 0)
        assert ps.bank.beta[0, 0] == 0 and ps.bits == []

    def test_disagreeing_llr_charges_magnitude(self):
        code = PacCode(n=1, K=1, A=(1,), g=(1, 1))
        ps = PathSet(np.array([3.0, 5.0]), code, DecoderConfig())
        ps.states[0] = 1  # feedback tap forces u = 1 against lambda = +3
        extend_frozen(ps, 0)
        assert ps.metrics[0] == 3.0
        assert ps.bank.beta[0, 0] == 1

    def test_path_count_unchanged(self, rng):
        code = PacCode.rm(3, 4, 0o3)
        ps = PathSet(rng.normal(0, 1, 8), code, DecoderConfig("global", 8))
        extend_info(ps, 0) if 0 in code.A else extend_frozen(ps, 0)
        # t=0,1,2 frozen for this profile; after an info split, counts stay fixed on frozen
        for t in range(0, 3):
            if t > 0:
                extend_frozen(ps, t)
            assert ps.size == 1


class TestExtendInfo:
    def test_doubles_and_metrics(self):
        code = PacCode(n=1, K=2, A=(0, 1), g=(1, 1))
        lam0 = -1.25  # f(-1.25, 2.0) would differ; use direct channel at N=2
        ps = PathSet(np.array([-1.25, 2.0]), code, DecoderConfig("global", 4))
        extend_info(ps, 0)
        lam = np.sign(-1.25) * np.sign(2.0) * min(1.25, 2.0)
        assert ps.size == 2
        assert ps.metrics[0] == branch_metric(lam, 0, "approximate")
        assert ps.metrics[1] == branch_metric(lam, 1, "approximate")
        assert list(ps.ids) == [0, 1]

    def test_exactly_one_child_penalized(self, rng):
        code = PacCode.rm(4, 8, 0o3)
        d, llrs = make_trial(code, 2.0, rng)
        ps = PathSet(llrs, code, DecoderConfig("global", 64))
        t0 = code.A[0]
        for t in range(t0):
            extend_frozen(ps, t)
        base = ps.metrics.copy()
        extend_info(ps, t0)
        pen = ps.metrics - np.concatenate([base, base])
        P = base.size
        for i in range(P):
            pair = sorted([pen[i], pen[P + i]])
            assert pair[0] == 0.0 and pair[1] >= 0.0

    def test_child_states_and_u(self):
        code = PacCode(n=1, K=2, A=(0, 1), g=(1, 1))
        ps = PathSet(np.array([1.0, 1.0]), code, DecoderConfig("global", 4))
        extend_info(ps, 0)
        assert list(ps.states) == [0, 1]
        assert list(ps.bank.beta[:, 0]) == [0, 1]  # committed u of bit 0, per row
        assert [ps.traceback(i)[0] for i in range(ps.size)] == [0, 1]
        assert list(ps.parents[0]) == [0, 0] and list(ps.bits[0]) == [0, 1]


class TestPrune:
    # prune narrows states, metrics and ids and returns the kept rows; the bank is the caller's
    def test_global_keeps_k_smallest(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [5.0, 1.0, 8.0, 3.0, 2.0, 7.0, 4.0, 6.0], [0] * 8)
        keep = prune(ps, DecoderConfig("global", 4))
        assert list(ps.metrics) == [1.0, 2.0, 3.0, 4.0]
        assert list(keep) == [1, 4, 3, 6]

    def test_local_per_state_minimum(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [2.0, 1.5, 0.5, 3.0], [0, 0, 1, 1])
        prune(ps, DecoderConfig("local", 1))
        assert sorted(ps.metrics) == [0.5, 1.5]
        assert sorted(ps.states) == [0, 1]

    def test_identity_below_budget(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [2.0, 1.0], [0, 1])
        keep = prune(ps, DecoderConfig("local", 1))  # budget 2^1 * 1 = 2, not exceeded
        assert list(ps.metrics) == [2.0, 1.0]
        assert list(keep) == [0, 1]

    def test_tie_breaks_on_id(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [1.0, 1.0, 1.0], [0, 0, 0], ids=[7, 2, 5])
        prune(ps, DecoderConfig("global", 2))
        assert list(ps.ids) == [2, 5]


class TestSelectWinner:
    """The winner rule of ``decode``: the first row of ``PathSet.ranking``."""

    def test_single_and_minimum(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [3.2], [0])
        assert ps.metrics[ps.ranking()[0]] == 3.2
        ps = build_pathset(code, [3.2, 1.1, 7.0], [0, 0, 0])
        assert ps.metrics[ps.ranking()[0]] == 1.1

    def test_tie_goes_to_lower_id(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [1.1, 1.1], [0, 0], ids=[4, 3])
        assert ps.ids[ps.ranking()[0]] == 3

    def test_empty_set_is_contract_violation(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [], [])
        with pytest.raises(ContractViolationError):
            ps.ranking()


class TestDecode:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.sorting}-L{c.list_size}")
    def test_noiseless_recovery(self, cfg, rng):
        code = PacCode.rm(5, 16, 0o7)
        for _ in range(5):
            d = rng.integers(0, 2, code.K, dtype=np.int8)
            res = decode(noiseless_llrs(code, d), code, cfg)
            assert np.array_equal(res.d_hat, d)
            assert res.metric == 0.0

    def test_result_structure(self, rng):
        code = PacCode.rm(4, 8, 0o3)
        d, llrs = make_trial(code, 2.0, rng)
        res = decode(llrs, code, DecoderConfig("global", 4))
        assert isinstance(res, DecodeResult)
        assert res.d_hat.shape == (8,)
        assert res.survivor_metrics.shape == (4,)
        assert np.all(np.diff(res.survivor_metrics) >= 0)
        assert res.metric == res.survivor_metrics[0]
        assert np.array_equal(res.v_hat[list(code.A)], res.d_hat)

    def test_metric_equals_replayed_branch_penalties(self, rng):
        # recompute the winner's metric from scratch along its own history
        code = PacCode.rm(5, 16, 0o33)
        for mode in ("approximate", "exact"):
            cfg = DecoderConfig("local", 2, metric_mode=mode)
            d, llrs = make_trial(code, 1.5, rng)
            res = decode(llrs, code, cfg)
            sc = ScScratch(llrs)
            total = 0.0
            for t in range(code.N):
                lam = sc.update_llrs(t)
                total += branch_metric(lam, int(res.u_hat[t]), mode)
                sc.update_partial_sums(t, int(res.u_hat[t]))
            assert res.metric == pytest.approx(total, abs=1e-9)

    def test_winner_u_is_conv_of_v(self, rng):
        code = PacCode.rm(5, 16, 0o133)
        d, llrs = make_trial(code, 1.0, rng)
        res = decode(llrs, code, DecoderConfig("global", 8))
        assert np.array_equal(res.u_hat, conv_transform(res.v_hat, code.g))
        assert np.array_equal(res.v_hat[list(code.A)], res.d_hat)
        frozen = sorted(set(range(code.N)) - set(code.A))
        assert not res.v_hat[frozen].any()

    def test_budget_bounds_and_trellis_irregularity(self, rng):
        code = PacCode.rm(6, 32, 0o7)  # m = 2
        cfg = DecoderConfig("local", 2)
        cap = cfg.budget(code.m)
        d, llrs = make_trial(code, 2.0, rng)
        frozen = np.ones(code.N, dtype=bool)
        frozen[list(code.A)] = False
        counts, run = [], 0

        def hook(t, ps):
            nonlocal run
            counts.append(ps.size)
            if frozen[t]:
                run += 1
                if len(counts) >= 2:
                    assert counts[-1] == counts[-2], f"path count changed at frozen t={t}"
                if run >= code.m:
                    assert not ps.states.any(), f"nonzero state after {run} frozen bits at t={t}"
            else:
                run = 0
                assert ps.size <= cap

        decode(llrs, code, cfg, step_hook=hook)
        assert counts[0] == 1

    def test_acs_invariant_local_l1(self, rng):
        # every prune event under local L=1 keeps exactly the per-state minimum
        code = PacCode.rm(5, 16, 0o7)
        events = []

        def observer(t, states, metrics, ids, keep):
            events.append(True)
            kept = set(keep)
            for s in np.unique(states):
                rows = np.flatnonzero(states == s)
                best = rows[np.lexsort((ids[rows], metrics[rows]))[0]]
                assert best in kept
                assert sum(1 for r in rows if r in kept) == 1

        for _ in range(20):
            d, llrs = make_trial(code, 1.0, rng)
            decode(llrs, code, DecoderConfig("local", 1), prune_observer=observer)
        assert events

    def test_scaling_invariance_approximate(self, rng):
        code = PacCode.rm(5, 16, 0o33)
        cfg = DecoderConfig("global", 4)
        for _ in range(30):
            d, llrs = make_trial(code, 1.5, rng)
            base = decode(llrs, code, cfg)
            for c in (0.5, 3.0):
                assert np.array_equal(decode(c * llrs, code, cfg).v_hat, base.v_hat)

    def test_path_snapshot_invariants(self, rng):
        # every survivor's traced-back v, register state and committed sums agree
        code = PacCode.rm(4, 8, 0o7)
        d, llrs = make_trial(code, 2.0, rng)
        ps = final_pathset(llrs, code, DecoderConfig("local", 2))
        m = code.m
        for i in range(ps.size):
            v = rate_profile_insert(ps.traceback(i), code.A, code.N)
            u = conv_transform(v, code.g)
            state = 0
            for bit in v:
                state = (state >> 1) | (int(bit) << (m - 1))
            assert ps.states[i] == state
            assert np.array_equal(ps.bank.stage_n_sums()[i], polar_transform(u))

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.sorting}-L{c.list_size}")
    def test_bank_never_exceeds_budget(self, cfg, rng):
        # survivors are chosen before the bank is gathered: even while a prune
        # cuts 2P candidates down, the bank holds no more than the budget
        code = PacCode.rm(6, 32, 0o7)
        cap = cfg.budget(code.m)
        live, rows, cuts = [], [], []

        def hook(t, ps):
            live[:] = [ps]
            assert ps.bank.llr.shape == ps.bank.beta.shape == (ps.size, 2 * code.N - 1)
            rows.append(ps.bank.llr.shape[0])

        def observer(t, states, metrics, ids, keep):
            cuts.append(t)
            assert live[0].bank.llr.shape[0] <= cap < states.size

        d, llrs = make_trial(code, 1.0, rng)
        decode(llrs, code, cfg, step_hook=hook, prune_observer=observer)
        assert len(rows) == code.N and max(rows) == cap
        assert cuts

    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    @pytest.mark.parametrize("rule", ["min-sum", "exact"])
    def test_metric_equals_forced_path_metric(self, mode, rule, rng):
        # the winner's metric is the forced-path metric of its u_hat on a one-row scratch
        code = PacCode.rm(5, 16, 0o33)
        for cfg in (DecoderConfig("global", 4, mode, rule), DecoderConfig("local", 2, mode, rule)):
            d, llrs = make_trial(code, 1.0, rng)
            res = decode(llrs, code, cfg)
            sc = ScScratch(llrs, combining=rule)
            total = 0.0
            for t in range(code.N):
                total += branch_metric(sc.update_llrs(t), int(res.u_hat[t]), mode)
                sc.update_partial_sums(t, int(res.u_hat[t]))
            assert res.metric == pytest.approx(total, rel=1e-12, abs=1e-9)

    def test_rejects_wrong_llr_length(self):
        code = PacCode.rm(4, 8, 0o3)
        with pytest.raises(ValueError):
            decode(np.ones(8), code, DecoderConfig())
