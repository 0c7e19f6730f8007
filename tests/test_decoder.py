import math

import numpy as np
import pytest
from conftest import make_trial, stage_n_sums
from reference_oracle import naive_scl_reference

from pactrellis.decoder import (
    DecoderConfig,
    DecodeResult,
    PathSet,
    branch_metric,
    decode,
    extend_frozen,
    extend_info,
    hard_decision,
    node_schedule,
    node_tables,
    prune,
)
from pactrellis.pac_core import (
    PacCode,
    conv_transform,
    pac_encode,
    polar_transform,
    rate_profile_insert,
)
from pactrellis.sc_engine import ScBank


def noiseless_llrs(code, d, mag=60.0):
    return (1.0 - 2.0 * pac_encode(d, code)) * mag


def build_pathset(code, metrics, states, config=DecoderConfig()):
    """Hand-built PathSet for prune tests; bank rows are placeholders."""
    ps = PathSet(np.ones(code.N), code, config)
    P = len(metrics)
    ps.bank.take(np.zeros(P, dtype=np.intp))
    ps.metrics = np.asarray(metrics, dtype=float)
    ps.states = np.asarray(states, dtype=np.int64)
    return ps


def final_pathset(llrs, code, cfg):
    """Decode and return the survivor set as it stands after the last step."""
    seen = []
    decode(llrs, code, cfg, step_hook=lambda t, ps: seen.append((t, ps)))
    last, ps = seen[-1]
    assert last == code.N - 1  # a step reports the last bit of its node
    return ps


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
        # sc and va keep one survivor: a list size that contradicts the name is an error
        for name, list_size in (("sc", 4), ("va", 2)):
            with pytest.raises(ValueError, match="scl and lva take a list size"):
                DecoderConfig.from_name(name, list_size)
        assert DecoderConfig.from_name("sc", 1) == DecoderConfig("global", 1)

    def test_budget(self):
        assert DecoderConfig("global", 8).budget(m=4) == 8
        assert DecoderConfig("local", 8).budget(m=4) == 128

    def test_paths_per_frame(self):
        # the budget, or every message when the code has fewer
        code = PacCode.rm(3, 4, 0o133)  # m = 6, 16 messages
        assert DecoderConfig("global", 8).paths_per_frame(code) == 8
        assert DecoderConfig("local", 1).paths_per_frame(code) == 16
        assert PathSet(np.ones((3, 8)), code, DecoderConfig("local", 1)).per_frame == 16


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

    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    def test_matches_written_out_definition(self, mode, rng):
        # the single rule phi(0, (2u - 1) llr) equals each mode's own textbook form
        lam = np.concatenate([
            rng.normal(0, 3, 1000),
            rng.uniform(-1e3, 1e3, 200),
            [1e3, -1e3, 0.0, -0.0],
        ])
        for u in (np.zeros(lam.size, dtype=np.int8), np.ones(lam.size, dtype=np.int8),
                  rng.integers(0, 2, lam.size)):
            if mode == "approximate":
                expect = np.where(u == (lam <= 0), 0.0, np.abs(lam))
            else:
                expect = np.logaddexp(0.0, -(1.0 - 2.0 * u) * lam)
            assert np.array_equal(branch_metric(lam, u, mode), expect)
            for x, bit, e in zip(lam[-4:], u[-4:], expect[-4:]):
                assert branch_metric(float(x), int(bit), mode) == e

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
        extend_frozen(ps)  # decision LLR f(3,5) = +3, u = 0 matches
        assert ps.metrics[0] == 0.0
        # stage 0 holds the committed u of bit 0; a frozen bit records no backpointer (v = 0)
        assert ps.bank.beta[0, 0] == 0 and ps.decided == 0

    def test_disagreeing_llr_charges_magnitude(self):
        code = PacCode(n=1, K=1, A=(1,), g=(1, 1))
        ps = PathSet(np.array([3.0, 5.0]), code, DecoderConfig())
        ps.states[0] = 1  # feedback tap forces u = 1 against lambda = +3
        extend_frozen(ps)
        assert ps.metrics[0] == 3.0
        assert ps.bank.beta[0, 0] == 1

    def test_path_count_unchanged(self, rng):
        code = PacCode.rm(3, 4, 0o3)
        ps = PathSet(rng.normal(0, 1, 8), code, DecoderConfig("global", 8))
        extend_info(ps) if 0 in code.A else extend_frozen(ps)
        # t=0,1,2 frozen for this profile; after an info split, counts stay fixed on frozen
        for t in range(0, 3):
            if t > 0:
                extend_frozen(ps)
            assert ps.size == 1


class TestExtendInfo:
    def test_doubles_and_metrics(self):
        code = PacCode(n=1, K=2, A=(0, 1), g=(1, 1))
        lam0 = -1.25  # f(-1.25, 2.0) would differ; use direct channel at N=2
        ps = PathSet(np.array([-1.25, 2.0]), code, DecoderConfig("global", 4))
        extend_info(ps)
        lam = np.sign(-1.25) * np.sign(2.0) * min(1.25, 2.0)
        assert ps.size == 2
        assert ps.metrics[0] == branch_metric(lam, 0, "approximate")
        assert ps.metrics[1] == branch_metric(lam, 1, "approximate")
        # the v = 0 child keeps its parent's row and the v = 1 child comes after it
        assert [ps.traceback(i)[0] for i in range(ps.size)] == [0, 1]

    def test_exactly_one_child_penalized(self, rng):
        code = PacCode.rm(4, 8, 0o3)
        d, llrs = make_trial(code, 2.0, rng)
        ps = PathSet(llrs, code, DecoderConfig("global", 64))
        t0 = code.A[0]
        for t in range(t0):
            extend_frozen(ps)
        base = ps.metrics.copy()
        extend_info(ps)
        pen = ps.metrics - np.concatenate([base, base])
        P = base.size
        for i in range(P):
            pair = sorted([pen[i], pen[P + i]])
            assert pair[0] == 0.0 and pair[1] >= 0.0

    def test_child_states_and_u(self):
        code = PacCode(n=1, K=2, A=(0, 1), g=(1, 1))
        ps = PathSet(np.array([1.0, 1.0]), code, DecoderConfig("global", 4))
        extend_info(ps)
        assert list(ps.states) == [0, 1]
        assert list(ps.bank.beta[:, 0]) == [0, 1]  # committed u of bit 0, per row
        assert [ps.traceback(i)[0] for i in range(ps.size)] == [0, 1]
        assert list(ps.parents[0, :2]) == [0, 0] and list(ps.bits[0, :2]) == [0, 1]


class TestPrune:
    # prune narrows states and metrics and returns the kept rows; the bank is the caller's
    def test_global_keeps_k_smallest(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [5.0, 1.0, 8.0, 3.0, 2.0, 7.0, 4.0, 6.0], [0] * 8,
                           config=DecoderConfig("global", 4))
        keep = prune(ps)
        # the four smallest metrics, kept in the order their rows had
        assert list(ps.metrics) == [1.0, 3.0, 2.0, 4.0]
        assert list(keep) == [1, 3, 4, 6]

    def test_local_per_state_minimum(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [2.0, 1.5, 0.5, 3.0], [0, 0, 1, 1],
                           config=DecoderConfig("local", 1))
        prune(ps)
        assert sorted(ps.metrics) == [0.5, 1.5]
        assert sorted(ps.states) == [0, 1]

    def test_identity_below_budget(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [2.0, 1.0], [0, 1], config=DecoderConfig("local", 1))
        keep = prune(ps)  # budget 2^1 * 1 = 2, not exceeded
        assert list(ps.metrics) == [2.0, 1.0]
        assert list(keep) == [0, 1]

    def test_tie_breaks_on_id(self):
        # a tie goes to the earlier row, the older path
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        ps = build_pathset(code, [2.0, 1.0, 1.0, 1.0], [0, 0, 0, 0],
                           config=DecoderConfig("global", 2))
        assert list(prune(ps)) == [1, 2]
        assert list(ps.metrics) == [1.0, 1.0]


class TestSelectWinner:
    """The winner rule of ``decode``: each frame's first smallest final metric."""

    def test_single_and_minimum(self, rng):
        # SC keeps a single path; the lists pick their smallest metric, frame by frame
        code = PacCode.rm(5, 16, 0o133)
        for cfg in (DecoderConfig("global", 1), DecoderConfig("global", 8), DecoderConfig("local", 2)):
            llrs = np.stack([make_trial(code, 1.0, rng)[1] for _ in range(3)])
            res = decode(llrs, code, cfg)
            assert np.array_equal(res.metric, res.survivor_metrics.min(axis=1))
            assert np.array_equal(res.survivor_metrics, np.sort(res.survivor_metrics, axis=1))
            for f in range(3):
                alone = decode(llrs[f], code, cfg)
                assert alone.metric == res.metric[f]
                assert np.array_equal(alone.d_hat, res.d_hat[f])

    def test_tie_goes_to_lower_id(self):
        # with all-zero LLRs every path ties: the winner is the oldest row, all v = 0 choices
        code = PacCode.rm(5, 16, 0o133)
        configs = [DecoderConfig("global", 1), DecoderConfig("global", 32), DecoderConfig("local", 1),
                   DecoderConfig("local", 2), DecoderConfig("global", 8, "exact", "exact"),
                   DecoderConfig("local", 2, "exact", "min-sum")]
        for cfg in configs:
            for llrs in (np.zeros(code.N), np.zeros((3, code.N))):
                res = decode(llrs, code, cfg)
                assert not res.d_hat.any()
                survivors = res.survivor_metrics.reshape(-1, res.survivor_metrics.shape[-1])
                assert (survivors == survivors[:, :1]).all()
                assert np.array_equal(np.ravel(res.metric), survivors[:, 0])


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
            sc = ScBank(llrs)
            total = 0.0
            for t in range(code.N):
                lam = sc.update_llrs()[0]
                total += branch_metric(lam, int(res.u_hat[t]), mode)
                sc.update_partial_sums(int(res.u_hat[t]))
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
        # the hook sees each step's last bit: a Rate-0 step keeps the path count, and
        # once m frozen bits have passed, every path is in state 0, or, right after a
        # REP node, in state 0 or high, its v = 0 and v = 1 children's.  Every frozen
        # bit of the RM profile lies in a REP node; a random one has Rate-0 nodes too.
        rm = PacCode.rm(6, 32, 0o7)  # m = 2
        for code, kinds in ((rm, {"rep"}),
                            (PacCode(6, 32, rng.choice(64, 32, replace=False), rm.g),
                             {"rate-0", "rep"})):
            cfg = DecoderConfig("local", 2)
            cap = cfg.budget(code.m)
            high = 1 << (code.m - 1)
            d, llrs = make_trial(code, 2.0, rng)
            frozen = np.ones(code.N, dtype=bool)
            frozen[list(code.A)] = False
            counts, lasts, run, checked = [], [-1], 0, set()

            def hook(t, ps):
                nonlocal run
                node = frozen[lasts[-1] + 1 : t + 1]
                lasts.append(t)
                counts.append(ps.size)
                if frozen[t]:
                    run += node.size
                    if len(counts) >= 2:
                        assert counts[-1] == counts[-2], f"path count changed at t={t}"
                    if run >= code.m:
                        assert not ps.states.any(), f"nonzero state after {run} frozen at t={t}"
                        checked.add("rate-0")
                else:
                    run += node.size - 1  # the frozen bits before the node's information bit
                    if run >= code.m:
                        assert set(ps.states) == {0, high}, f"states after {run} frozen at t={t}"
                        checked.add("rep")
                    run = 0
                    assert ps.size <= cap

            decode(llrs, code, cfg, step_hook=hook)
            # one starting path, split if the first node is a REP node
            assert counts[0] == (1 if frozen[lasts[1]] else 2)
            assert checked == kinds

    def test_acs_invariant_local_l1(self, rng):
        # every prune event under local L=1 keeps exactly the per-state minimum
        code = PacCode.rm(5, 16, 0o7)
        events = []

        def observer(t, states, metrics, keep):
            events.append(True)
            kept = set(keep)
            for s in np.unique(states):
                rows = np.flatnonzero(states == s)
                best = rows[np.argsort(metrics[rows], kind="stable")[0]]
                assert best in kept
                assert sum(1 for r in rows if r in kept) == 1

        for _ in range(20):
            d, llrs = make_trial(code, 1.0, rng)
            decode(llrs, code, DecoderConfig("local", 1), prune_observer=observer)
        assert events

    @pytest.mark.parametrize("ell", [1, 2, 8])
    @pytest.mark.parametrize("gen", [0o3, 0o7, 0o73, 0o133], ids=lambda g: f"gen{g:o}")
    def test_local_rows_stay_state_major(self, gen, ell, rng):
        # rows stay sorted by register state, and every occupied state holds the same
        # number of paths: in the children at every prune event, in the survivors and
        # after every step.  RM PAC(128,64) puts 7 frozen bits before bits 23, 39 and
        # 71, which gather every path in state 0 for m <= 7.
        code = PacCode.rm(7, 64, gen)
        events = []

        def check(states):
            assert np.all(np.diff(states) >= 0)
            occupied, counts = np.unique(states, return_counts=True)
            assert np.all(counts == counts[0])
            # the last row's state has every free register bit set
            assert occupied.size == 1 << int(states[-1]).bit_count()

        def hook(t, ps):
            check(ps.states)
            if t in (23, 39, 71):
                assert set(ps.states) == {0, 1 << (code.m - 1)}

        def observer(t, states, metrics, keep):
            events.append(t)
            check(states)
            check(states[keep])

        for _ in range(3):
            _, llrs = make_trial(code, 1.5, rng)
            decode(llrs, code, DecoderConfig("local", ell), step_hook=hook, prune_observer=observer)
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
            assert np.array_equal(stage_n_sums(ps.bank.beta[i], u[-1]), polar_transform(u))

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.sorting}-L{c.list_size}")
    def test_bank_never_exceeds_budget(self, cfg, rng):
        # survivors are chosen before the bank is gathered: even while a prune
        # cuts 2P candidates down, the bank holds no more than the budget
        code = PacCode.rm(6, 32, 0o7)
        cap = cfg.budget(code.m)
        live, rows, cuts = [], [], []

        def hook(t, ps):
            live[:] = [ps]
            assert ps.bank.llr.shape == (ps.size, code.N - 1)
            assert ps.bank.beta.shape == (ps.size, code.N - 1)
            rows.append(ps.bank.llr.shape[0])

        def observer(t, states, metrics, keep):
            cuts.append(t)
            # before the first step's hook the bank holds its one starting row
            assert (live[0].bank.llr.shape[0] if live else 1) <= cap < states.size

        d, llrs = make_trial(code, 1.0, rng)
        decode(llrs, code, cfg, step_hook=hook, prune_observer=observer)
        assert len(rows) == len(node_schedule(code)) and max(rows) == cap
        assert cuts

    @pytest.mark.parametrize("gen, cfg, count", [
        (0o73, DecoderConfig("local", 1), 34),  # LVA32: 32 states, one survivor each
        (0o133, DecoderConfig("local", 2), 27),  # LVA-128: 64 states, two survivors each
        (0o133, DecoderConfig("global", 32), 59),  # LD32
    ], ids=["lva32", "lva128", "ld32"])
    def test_cuts_depend_only_on_code_and_config(self, gen, cfg, count, rng):
        # the path count after each step is fixed by the schedule and the budget, so every
        # frame is cut at the same bits, far fewer than its K = 64 information bits
        code = PacCode.rm(7, 64, gen)
        frames = []
        for _ in range(3):
            cuts = []
            decode(make_trial(code, 2.0, rng)[1], code, cfg,
                   prune_observer=lambda t, states, metrics, keep: cuts.append(t))
            frames.append(cuts)
        assert len(frames[0]) == count
        assert frames[1] == frames[0] == frames[2]

    @pytest.mark.parametrize("mode", ["approximate", "exact"])
    @pytest.mark.parametrize("rule", ["min-sum", "exact"])
    def test_metric_equals_forced_path_metric(self, mode, rule, rng):
        # the winner's metric is the forced-path metric of its u_hat on a one-row scratch
        code = PacCode.rm(5, 16, 0o33)
        for cfg in (DecoderConfig("global", 4, mode, rule), DecoderConfig("local", 2, mode, rule)):
            d, llrs = make_trial(code, 1.0, rng)
            res = decode(llrs, code, cfg)
            sc = ScBank(llrs, combining=rule)
            total = 0.0
            for t in range(code.N):
                total += branch_metric(sc.update_llrs()[0], int(res.u_hat[t]), mode)
                sc.update_partial_sums(int(res.u_hat[t]))
            assert res.metric == pytest.approx(total, rel=1e-12, abs=1e-9)

    def test_rejects_wrong_llr_length(self):
        code = PacCode.rm(4, 8, 0o3)
        with pytest.raises(ValueError):
            decode(np.ones(8), code, DecoderConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_llrs(self, bad):
        # all-NaN or all-inf input used to decode to the all-zero message at metric 0
        code = PacCode.rm(4, 8, 0o3)
        for cfg in ALL_CONFIGS:
            with pytest.raises(ValueError, match="finite"):
                decode(np.full(code.N, bad), code, cfg)

    # the channel LLR bound on PAC(128,64), float max / N^2, and the power of two below it
    BOUND = np.finfo(float).max / 128**2
    SCALE = 2.0 ** (np.frexp(BOUND)[1] - 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    def test_llrs_at_the_bound_decode_as_small_ones(self, rng):
        # min-sum with the approximate metric is scale-invariant: frames scaled by a power
        # of two up to the bound decode to the same messages, with metrics scaled exactly
        # (a sign product a*b inside f_minsum may overflow; only its sign is read)
        code = PacCode.rm(7, 64, 0o133)
        llrs = np.stack([make_trial(code, 2.0, rng)[1] for _ in range(40)])
        llrs /= np.abs(llrs).max(axis=1, keepdims=True)
        for cfg in (DecoderConfig("global", 8), DecoderConfig("local", 2)):
            small, large = decode(llrs, code, cfg), decode(llrs * self.SCALE, code, cfg)
            assert np.array_equal(large.d_hat, small.d_hat)
            assert np.array_equal(large.metric, small.metric * self.SCALE)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    @pytest.mark.parametrize("metric", ["approximate", "exact"])
    @pytest.mark.parametrize("combining", ["min-sum", "exact"])
    def test_noiseless_frames_at_the_bound(self, metric, combining, rng):
        code = PacCode.rm(7, 64, 0o133)
        d = rng.integers(0, 2, (4, code.K), dtype=np.int8)
        llrs = (1.0 - 2.0 * pac_encode(d, code)) * self.SCALE
        res = decode(llrs, code, DecoderConfig("global", 8, metric, combining))
        assert np.array_equal(res.d_hat, d) and np.isfinite(res.metric).all()

    def test_rejects_llrs_past_the_bound(self):
        # past float max / N^2 the SC sums and path metrics could overflow
        code = PacCode.rm(7, 64, 0o133)
        llrs = np.ones((2, code.N))
        llrs[1, 5] = -2 * self.BOUND
        for cfg in ALL_CONFIGS:
            with pytest.raises(ValueError, match="finite"):
                decode(llrs, code, cfg)


def node_codes():
    """Codes whose schedules hold every kind of node, all with m = 6."""
    rng = np.random.default_rng(0x5EED)
    g = 0o133
    return [
        *(PacCode(5, 16, rng.choice(32, 16, replace=False), g) for _ in range(3)),
        PacCode(5, 12, rng.choice(24, 12, replace=False), g),  # trailing Rate-0 nodes
        PacCode(4, 16, range(16), g),  # K = N: every node one bit wide
        PacCode(6, 1, (63,), g),  # one REP node of the whole code
        PacCode(6, 1, (0,), g),  # then Rate-0 nodes only
        # a REP node of 128 bits, [128, 256), entered in the state that bits 120..127 left
        PacCode(8, 9, (*range(120, 128), 255), g),
    ]


def node_code_id(code):
    return f"N{code.N}-K{code.K}-A{code.A[0]}.{code.A[-1]}"


class TestNodeSchedule:
    @pytest.mark.parametrize("nodes", [True, False])
    @pytest.mark.parametrize("code", [*node_codes(), PacCode.rm(7, 64, 0o133)], ids=node_code_id)
    def test_steps_tile_the_code(self, code, nodes):
        info = np.zeros(code.N, dtype=bool)
        info[list(code.A)] = True
        t = 0
        for stage, is_info in node_schedule(code, nodes):
            w = 1 << stage
            assert t % w == 0 and (nodes or stage == 0)
            # Rate-0: no information bit; REP: the last bit only
            assert is_info == info[t + w - 1] and not info[t : t + w - 1].any()
            t += w
        assert t == code.N
        assert sum(info for _, info in node_schedule(code, nodes)) == code.K

    def test_step_counts(self):
        # with every frozen bit of an RM profile inside a REP node, matched rules take K
        # steps; mixed rule pairs charge bit by bit, N steps
        for n, K in ((7, 64), (10, 512)):
            code = PacCode.rm(n, K, 0o133)
            llrs = np.ones(code.N)
            for metric, rule, steps in (("approximate", "min-sum", K), ("exact", "exact", K),
                                        ("exact", "min-sum", code.N),
                                        ("approximate", "exact", code.N)):
                for sorting in ("global", "local"):
                    cfg = DecoderConfig(sorting, 2, metric, rule)
                    assert len(PathSet(llrs, code, cfg).steps) == steps

    @pytest.mark.parametrize("code", node_codes(), ids=node_code_id)
    def test_bit_identical_with_naive_list_reference(self, code, rng):
        # the reference decodes bit by bit; integer LLRs make the node sums exact
        for L in (2, 8):
            cfg = DecoderConfig("global", L)
            for _ in range(6):
                _, llrs = make_trial(code, 1.5, rng)
                for x in (llrs, np.round(llrs)):
                    got = decode(x, code, cfg).d_hat
                    assert np.array_equal(got, naive_scl_reference(x, code, L))

    def test_wide_rep_node_is_entered_in_nonzero_states(self, rng):
        code = node_codes()[-1]
        assert node_schedule(code)[-1] == (7, True)  # bits 128..255
        entry = []

        def hook(t, ps):
            if t == 127:
                entry.append(ps.states.copy())

        for _ in range(6):
            _, llrs = make_trial(code, 1.5, rng)
            decode(llrs, code, DecoderConfig("global", 8), step_hook=hook)
        assert all(states.any() for states in entry)

    @pytest.mark.parametrize("cfg", [*ALL_CONFIGS, DecoderConfig("local", 2, "exact", "exact")],
                             ids=lambda c: f"{c.sorting}-L{c.list_size}-{c.metric_mode}")
    def test_node_steps_match_one_bit_steps(self, cfg, rng, monkeypatch):
        frames = []
        for code in (*node_codes(), PacCode.rm(6, 32, 0o133)):
            for _ in range(4):
                _, llrs = make_trial(code, 1.5, rng)
                frames += [(code, llrs), (code, np.round(llrs))]
        by_node = [decode(x, code, cfg) for code, x in frames]
        monkeypatch.setattr(DecoderConfig, "node_steps", property(lambda self: False))
        for (code, x), res in zip(frames, by_node):
            assert len(PathSet(x, code, cfg).steps) == code.N
            one = decode(x, code, cfg)
            assert np.array_equal(res.d_hat, one.d_hat)
            if cfg.metric_mode == "approximate" and np.array_equal(x, np.round(x)):
                assert res.metric == one.metric  # integer sums: exact either way
            else:
                assert res.metric == pytest.approx(one.metric, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("A", [(4095,), (0,)])
    def test_wide_code_keeps_small_tables(self, A, rng):
        # node widths reach 2^11 and 2^12, but no table has more than 2^m x m entries
        code = PacCode(12, 1, A, 0o133)
        assert len(node_schedule(code)) == (1 if A == (4095,) else 13)
        assert all(x.size <= (1 << code.m) * code.m and sign.shape == x.shape
                   for x, sign, _ in node_tables(code.g, code.n))
        for d in ([0], [1]):
            d = np.array(d, dtype=np.int8)
            for cfg in (DecoderConfig("global", 1), DecoderConfig("local", 2)):
                res = decode(noiseless_llrs(code, d, mag=2.0), code, cfg)
                assert np.array_equal(res.d_hat, d) and res.metric == 0.0


BATCH_CONFIGS = [
    DecoderConfig(sorting, L, metric, rule)
    for sorting in ("global", "local")
    for L in (1, 2, 8, 32)
    for metric, rule in (("approximate", "min-sum"), ("exact", "exact"), ("exact", "min-sum"))
]


class TestBatch:
    """A (frames, N) batch decodes every row as its own one-frame call would."""

    @staticmethod
    def codes():
        rng = np.random.default_rng(0xBA7C)
        return [
            PacCode.rm(5, 16, 0o133),
            PacCode.rm(6, 32, 0o7),
            PacCode(5, 16, rng.choice(32, 16, replace=False), 0o133),  # a random profile
            PacCode(4, 16, range(16), 0o7),  # K = N
            PacCode(6, 1, (63,), 0o133),  # K = 1: one REP node of the whole code
            PacCode(6, 1, (0,), 0o133),  # K = 1, then Rate-0 nodes
        ]

    @pytest.mark.parametrize(
        "cfg", BATCH_CONFIGS,
        ids=lambda c: f"{c.sorting}-L{c.list_size}-{c.metric_mode}-{c.combining_rule}")
    def test_rows_decode_as_their_own_calls(self, cfg, rng):
        for code in self.codes():
            llrs = np.stack([make_trial(code, 1.0, rng)[1] for _ in range(4)])
            # integer-rounded LLRs force metric ties at cuts and in the winner
            for x in (llrs, np.round(llrs)):
                batch = decode(x, code, cfg)
                assert batch.d_hat.shape == (4, code.K) and batch.metric.shape == (4,)
                for row, frame in enumerate(x):
                    one = decode(frame, code, cfg)
                    for name in ("d_hat", "v_hat", "u_hat", "survivor_metrics"):
                        got, expect = getattr(batch, name)[row], getattr(one, name)
                        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), name
                    assert isinstance(one.metric, float)
                    assert batch.metric[row].tobytes() == np.float64(one.metric).tobytes()

    def test_frames_hold_equal_rows_and_states(self, rng):
        # every frame holds the same number of rows after every step, and under local
        # sorting the same register states, whatever its LLRs
        code = PacCode.rm(6, 32, 0o133)
        for cfg in (DecoderConfig("global", 8), DecoderConfig("local", 2)):
            x = np.stack([make_trial(code, 1.0, rng)[1] for _ in range(3)])
            seen = []

            def hook(t, ps):
                assert ps.frames == 3 and ps.size % 3 == 0
                assert ps.bank.llr.shape == (ps.size, code.N - 1)
                states = ps.states.reshape(3, -1)
                if cfg.sorting == "local":
                    assert (states == states[0]).all()
                seen.append(ps.size // 3)

            decode(x, code, cfg, step_hook=hook)
            assert max(seen) == min(cfg.budget(code.m), 1 << code.K)

    def test_backpointers_fill_one_table(self, rng):
        # one (K, rows) table each for parent rows and bits, narrow where rows allow
        code = PacCode.rm(5, 16, 0o133)
        x = np.stack([make_trial(code, 1.0, rng)[1] for _ in range(2)])
        ps = final_pathset(x, code, DecoderConfig("global", 4))
        assert ps.decided == code.K
        assert ps.parents.shape == ps.bits.shape == (code.K, 8)
        assert ps.parents.dtype == np.int16 and ps.bits.dtype == bool
        # 2^15 rows need wide parent rows
        code = PacCode(4, 16, range(16), 0o3)
        wide = PathSet(np.ones(16), code, DecoderConfig("global", 1 << 15))
        assert wide.parents.shape == (16, 1 << 15) and wide.parents.dtype == np.intp

    def test_one_frame_batch_equals_one_frame(self, rng):
        code = PacCode.rm(5, 16, 0o133)
        _, llrs = make_trial(code, 1.0, rng)
        batch, one = decode(llrs[None, :], code, DecoderConfig("local", 2)), decode(
            llrs, code, DecoderConfig("local", 2))
        assert np.array_equal(batch.d_hat[0], one.d_hat) and batch.metric[0] == one.metric

    @pytest.mark.parametrize("shape", [(0, 16), (2, 8), (2, 2, 16)])
    def test_rejects_bad_batch_shapes(self, shape):
        with pytest.raises(ValueError):
            decode(np.ones(shape), PacCode.rm(4, 8, 0o3), DecoderConfig())
