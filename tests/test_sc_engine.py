import math

import numpy as np
import pytest
from conftest import exact_combine_reference, log_uniform_pairs, stage_n_sums
from hypothesis import given, settings
from hypothesis import strategies as st

from pactrellis import sc_engine
from pactrellis.pac_core import polar_transform
from pactrellis.sc_engine import (
    ContractViolationError,
    ScBank,
    f_exact,
    f_minsum,
)


class TestCombiners:
    def test_minsum_hand_values(self):
        assert f_minsum(3.0, -2.0) == -2.0
        assert f_minsum(-1.5, -4.0) == 1.5
        assert f_minsum(0.0, 5.0) == 0.0

    def test_exact_matches_formula(self, rng):
        a = rng.normal(0, 2, 500)
        b = rng.normal(0, 2, 500)
        expect = 2 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
        assert np.allclose(f_exact(a, b), expect, atol=1e-12)

    def test_exact_saturates_without_overflow(self):
        out = f_exact(np.array([1e3, -1e3]), np.array([1e3, 1e3]))
        assert np.all(np.isfinite(out))
        # f(x, x) = x - ln 2 + log1p(e^-2x) at every magnitude: no saturation, no overflow
        assert np.array_equal(out, [1e3 - math.log(2), -(1e3 - math.log(2))])
        for x in (29.0, 40.0, 700.0):
            assert f_exact(x, x) == pytest.approx(x - math.log(2), rel=1e-15)
        # the tanh form gave 35.23 here: tanh(20) and tanh(25) round to 1
        assert f_exact(40.0, 50.0) == pytest.approx(40.0 - math.log1p(math.exp(-10.0)), rel=1e-15)

    def test_exact_keeps_sign_and_precision_at_small_llrs(self, rng):
        # the log1p form alone gave f(1e-11, 1e-11) = -8.3e-19 and the wrong sign on
        # about one pair in eight of these
        assert f_exact(1e-11, 1e-11) == pytest.approx(5e-23, rel=1e-15)
        a, b = log_uniform_pairs(rng)
        expect = np.array([exact_combine_reference(x, y) for x, y in zip(a, b)])
        got = f_exact(a, b)
        assert np.array_equal(np.sign(got), np.sign(expect))
        assert np.all(np.abs(got - expect) <= 1e-15 * np.abs(expect))

    def test_exact_bounded_by_minsum(self, rng):
        a = rng.normal(0, 3, 2000)
        b = rng.normal(0, 3, 2000)
        assert np.all(np.abs(f_exact(a, b)) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)
        assert np.array_equal(np.abs(f_minsum(a, b)), np.minimum(np.abs(a), np.abs(b)))

    @pytest.mark.parametrize("f", [f_minsum, f_exact])
    def test_out_matches_allocating_form(self, f, rng):
        a = np.concatenate([rng.normal(0, 3, 500), [0.0, -0.0, 0.0, 2.0, -0.0, 1e3, 1e-200]])
        b = np.concatenate([rng.normal(0, 3, 500), [0.0, 0.0, -3.0, -0.0, 5.0, -1e3, -1e-200]])
        expect = f(a, b)
        buf = np.full(a.size, np.nan)
        assert f(a, b, out=buf) is buf
        assert np.array_equal(buf, expect)
        assert np.array_equal(np.signbit(buf), np.signbit(expect))
        # one shared pair of blocks broadcast into per-row slots, as the channel stage is read
        rows = np.full((3, a.size), np.nan)
        f(a, b, out=rows)
        assert all(np.array_equal(row, expect) for row in rows)

    def test_minsum_matches_sign_product_form(self, rng):
        a = np.concatenate([rng.normal(0, 3, 500), [0.0, -0.0, 4.0, 1e-200, -1e3]])
        b = np.concatenate([rng.normal(0, 3, 500), [-2.0, 3.0, -0.0, -1e-200, 1e3]])
        expect = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
        assert np.array_equal(f_minsum(a, b), expect)

    def test_minsum_equals_product_form_at_every_magnitude(self, rng):
        # max(min(a, b), -max(a, b)) against copysign(min(|a|, |b|), a*b), whose product
        # overflows past float max: equal values, and equal signs but for a zero out of
        # two zeros; the max/min form itself warns at no magnitude
        edge = np.array([0.0, 1e-200, 1.0, 1e300, 1.7e308])
        edge = np.concatenate((edge, -edge))
        wide = rng.normal(0, 3, (2, 10_000)) * 10.0 ** rng.integers(-300, 300, (2, 10_000))
        a = np.concatenate((np.repeat(edge, edge.size), wide[0]))
        b = np.concatenate((np.tile(edge, edge.size), wide[1]))
        got = f_minsum(a, b)
        with np.errstate(over="ignore"):
            expect = np.copysign(np.minimum(np.abs(a), np.abs(b)), a * b)
        assert np.array_equal(got, expect)
        same = np.signbit(got) == np.signbit(expect)
        assert (same | ((a == 0) & (b == 0))).all()

    def test_g_combine(self):
        # the g-update of bit 1 at N = 2: b + (1 - 2u) a for channel LLRs (a, b)
        for u, expect in ((0, 5.0), (1, 1.0)):
            sc = ScBank([2.0, 3.0])
            sc.update_llrs()
            sc.update_partial_sums(u)
            assert sc.update_llrs()[0] == expect


class TestScratchSmall:
    # a fresh bank has one row; decisions are committed as scalars
    def test_n2_first_bit_is_f(self):
        sc = ScBank([1.8, -0.7])
        lam = sc.update_llrs()
        assert lam.shape == (1,)
        assert lam[0] == f_minsum(1.8, -0.7)

    def test_n2_second_bit_is_g(self):
        sc = ScBank([1.8, -0.7])
        sc.update_llrs()
        sc.update_partial_sums(0)
        assert sc.update_llrs()[0] == pytest.approx(1.8 + (-0.7))
        sc2 = ScBank([1.8, -0.7])
        sc2.update_llrs()
        sc2.update_partial_sums(1)
        assert sc2.update_llrs()[0] == pytest.approx(-0.7 - 1.8)

    def test_n1_degenerate(self):
        sc = ScBank([2.25])
        assert sc.update_llrs()[0] == 2.25

    def test_exact_combining_selectable(self):
        sc = ScBank([1.0, 2.0], combining="exact")
        assert sc.update_llrs()[0] == pytest.approx(
            2 * math.atanh(math.tanh(0.5) * math.tanh(1.0))
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_llrs(self, bad):
        for llrs in ([bad] * 4, [1.0, bad, -2.0, 0.5]):
            with pytest.raises(ValueError, match="finite"):
                ScBank(llrs)

    def test_rejects_llrs_past_the_bound(self):
        bound = np.finfo(float).max / 8**2
        assert ScBank(np.full(8, -bound)).channel[0] == -bound
        with pytest.raises(ValueError, match="finite"):
            ScBank([1.0, 2 * bound, -2.0, 0.5, 1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_an_empty_reserve(self, capacity):
        # a bank with no row for its one starting path would return no decision LLR
        with pytest.raises(ValueError, match="capacity"):
            ScBank(np.ones(4), capacity=capacity)


class TestPartialSumDuality:
    @pytest.mark.parametrize("N", [2, 4, 8, 64])
    def test_stage_n_equals_polar_transform(self, N, rng):
        # no stage n is stored: after the last commit each stage s < n holds the
        # left block u[N - 2^{s+1} : N - 2^s], and with u[N-1] they fold to polar(u)
        u = rng.integers(0, 2, N, dtype=np.int8)
        sc = ScBank(rng.normal(0, 1, N))
        for t in range(N):
            sc.update_llrs()
            sc.update_partial_sums(int(u[t]))
        for s in range(sc.n):
            w = 1 << s
            assert np.array_equal(sc.beta[0, w - 1 : 2 * w - 1], polar_transform(u[N - 2 * w : N - w]))
        assert np.array_equal(stage_n_sums(sc.beta[0], u[-1]), polar_transform(u))

    @pytest.mark.parametrize("N", [2, 8, 64])
    def test_g_update_reads_left_block_sums(self, N, rng):
        # before bit t, the compact slots of stage top (t's lowest set bit) hold
        # the partial sums of the left block u[t - 2^top : t] at that stage
        u = rng.integers(0, 2, N, dtype=np.int8)
        sc = ScBank(rng.normal(0, 1, N))
        assert sc.beta.shape == (1, N - 1)
        for t in range(N):
            if t:
                w = t & -t
                assert np.array_equal(sc.beta[0, w - 1 : 2 * w - 1], polar_transform(u[t - w : t]))
            sc.update_llrs()
            sc.update_partial_sums(int(u[t]))

    def test_all_zero_commits(self):
        sc = ScBank(np.ones(8))
        for t in range(8):
            sc.update_llrs()
            sc.update_partial_sums(0)
        assert not sc.beta.any()

    def test_n4_unit_vector(self, rng):
        sc = ScBank(rng.normal(0, 1, 4))
        for t, u in enumerate([1, 0, 0, 0]):
            sc.update_llrs()
            sc.update_partial_sums(u)
        # stage 0 holds u2, stage 1 polar(u0, u1) = (1, 0)
        assert np.array_equal(sc.beta[0], [0, 1, 0])
        assert np.array_equal(stage_n_sums(sc.beta[0], 0), [1, 0, 0, 0])


class TestCallOrderContract:
    def test_skip_commit(self):
        sc = ScBank(np.ones(4))
        sc.update_llrs()
        with pytest.raises(ContractViolationError, match="awaits its commit"):
            sc.update_llrs()

    def test_double_commit(self):
        sc = ScBank(np.ones(4))
        sc.update_llrs()
        sc.update_partial_sums(0)
        with pytest.raises(ContractViolationError):
            sc.update_partial_sums(0)

    def test_commit_before_llrs(self):
        sc = ScBank(np.ones(4))
        with pytest.raises(ContractViolationError):
            sc.update_partial_sums(0)

    @pytest.mark.parametrize("N", [1, 4])
    def test_no_bit_past_the_last(self, N):
        sc = ScBank(np.arange(1.0, N + 1.0))
        for t in range(N):
            sc.update_llrs()
            sc.update_partial_sums(0)
        with pytest.raises(ContractViolationError, match="committed"):
            sc.update_llrs()


class TestNodeUpdates:
    @staticmethod
    def tiling(N, rng):
        """Aligned nodes (t, stage) that tile [0, N), of random widths."""
        nodes, t = [], 0
        while t < N:
            s = int(rng.integers(0, (t & -t).bit_length() if t else N.bit_length()))
            nodes.append((t, s))
            t += 1 << s
        return nodes

    @pytest.mark.parametrize("N", [2, 16, 64])
    @pytest.mark.parametrize("combining", ["min-sum", "exact"])
    def test_node_block_equals_bitwise_stage(self, N, combining, rng):
        # a node's LLR block is the stage-s block that bit-by-bit updates pass through,
        # and committing polar(u) over the node leaves later blocks as bit commits do
        for _ in range(5):
            u = rng.integers(0, 2, N, dtype=np.int8)
            llrs = rng.normal(0, 2, N)
            node, bits = ScBank(llrs, combining), ScBank(llrs, combining)
            for t, s in self.tiling(N, rng):
                w = 1 << s
                alpha = node.update_llrs(s)
                lam = bits.update_llrs()
                if s:
                    expect = llrs if w == N else bits.llr[0, w - 1 : 2 * w - 1]
                    if 2 * w == N:  # stage n - 1, in no row: f or g of the channel halves
                        f = f_minsum if combining == "min-sum" else f_exact
                        lo, hi = llrs[:w], llrs[w:]
                        expect = hi + (1 - 2 * polar_transform(u[:w])) * lo if t else f(lo, hi)
                    assert alpha.shape == (1, w) and np.array_equal(alpha[0], expect)
                else:
                    assert np.array_equal(alpha, lam)
                node.update_partial_sums(polar_transform(u[t : t + w])[None, :] if s else u[t])
                bits.update_partial_sums(u[t])
                for b in range(t + 1, t + w):
                    bits.update_llrs()
                    bits.update_partial_sums(u[b])

    def test_node_contract(self):
        sc = ScBank(np.ones(16))
        with pytest.raises(ContractViolationError, match="cannot start"):
            sc.update_llrs(5)  # wider than the code
        sc.update_llrs(1)
        sc.update_partial_sums(np.zeros((1, 2), dtype=np.int8))
        with pytest.raises(ContractViolationError, match="cannot start"):
            sc.update_llrs(2)  # a 4-bit node starts at a multiple of 4, not at bit 2
        sc.update_llrs(1)
        sc.update_partial_sums(np.zeros((1, 2), dtype=np.int8))
        sc.update_llrs(2)
        sc.update_partial_sums(np.zeros((1, 4), dtype=np.int8))
        sc.update_llrs(3)
        sc.update_partial_sums(np.zeros((1, 8), dtype=np.int8))
        with pytest.raises(ContractViolationError, match="committed"):
            sc.update_llrs()

    @pytest.mark.parametrize("N", [1, 16, 64])
    def test_position_advances_by_node_width(self, N, rng):
        # t is the next undecided bit: an LLR update leaves it, the commit moves it past the node
        sc = ScBank(rng.normal(0, 1, N))
        assert sc.t == 0
        for t, s in self.tiling(N, rng):
            sc.update_llrs(s)
            assert sc.t == t
            sc.update_partial_sums(np.zeros((1, 1 << s), dtype=np.int8) if s else 0)
            assert sc.t == t + (1 << s)
        assert sc.t == N
        with pytest.raises(AttributeError):
            sc.t = 0


class TestBankBatching:
    def test_rows_evolve_independently(self, rng):
        llrs = rng.normal(0, 1, 8)
        bank = ScBank(llrs, capacity=2)
        bank.update_llrs()
        bank.take(np.array([0, 0]))
        bank.update_partial_sums(np.array([0, 1], dtype=np.int8))
        lam = bank.update_llrs()
        # row decisions diverge exactly as two independent scratches would
        for row, u0 in enumerate([0, 1]):
            sc = ScBank(llrs)
            sc.update_llrs()
            sc.update_partial_sums(u0)
            assert lam[row] == sc.update_llrs()[0]

    def test_take_reorders_rows(self, rng):
        bank = ScBank(rng.normal(0, 1, 4), capacity=2)
        bank.update_llrs()
        bank.take(np.array([0, 0]))
        bank.update_partial_sums(np.array([0, 1], dtype=np.int8))
        before = bank.paths()[1]
        bank.take(np.array([1, 0]))
        assert np.array_equal(bank.paths()[1], before[[1, 0]])

    def test_take_within_capacity(self, rng):
        # growths, gathers and cuts that keep the count, up to the reserved rows, keep the
        # paths in the given order
        bank = ScBank(rng.normal(0, 1, 8), capacity=4)
        bank.update_llrs()
        for rows in ([0, 0], [1, 0, 1, 0], [3, 2, 1], [2, 0, 0, 1], [3, 2], [0, 1, 0, 1],
                     [3, 3, 0, 1]):
            # tag each row so that the gathered order shows
            bank.llr[:, 0] = np.arange(bank.n_paths)
            bank.beta[:, 0] = np.arange(bank.n_paths) % 2
            llr, beta = bank.paths()
            bank.take(np.array(rows))
            assert np.array_equal(bank.paths()[0], llr[rows])
            assert np.array_equal(bank.paths()[1], beta[rows])

    @pytest.mark.parametrize("frames", [1, 3])
    def test_grow_takes_every_path_twice(self, frames, rng):
        # whatever the slot map, grow() leaves each frame its paths, then its paths again,
        # and takes no more than the reserve
        bank = ScBank(rng.normal(0, 1, (frames, 8)), capacity=4 * frames)
        first = np.arange(frames)[:, None] * 2
        bank.update_llrs()
        bank.take(np.repeat(np.arange(frames), 2))
        bank.update_partial_sums(rng.integers(0, 2, 2 * frames, dtype=np.int8))
        bank.update_llrs()
        bank.take((first + [1, 0]).ravel())  # a slot map that swaps each frame's two rows
        llr, beta = bank.paths()
        bank.grow()
        assert bank.n_paths == 4 * frames
        rows = (first + [0, 1, 0, 1]).ravel()
        assert np.array_equal(bank.paths()[0], llr[rows])
        assert np.array_equal(bank.paths()[1], beta[rows])
        with pytest.raises(IndexError):
            bank.grow()

    def test_cut_without_repeats_moves_no_row(self, rng):
        # a cut that keeps the count and takes no path twice leaves every row in place:
        # each survivor stays in its parent's row, and only the path order changes
        bank = ScBank(rng.normal(0, 1, (2, 16)), capacity=8)
        bank.update_llrs()
        bank.take([0, 0, 0, 0, 1, 1, 1, 1])
        bank.llr[..., 0] = np.arange(8).reshape(2, 4)
        rows_before, paths_before = bank.llr.copy(), bank.paths()[0]
        perm = np.array([2, 0, 3, 1, 7, 4, 5, 6])
        bank.take(perm)
        assert np.array_equal(bank.llr, rows_before)
        assert np.array_equal(bank.paths()[0], paths_before[perm])
        # taking a path twice overwrites only the row of a path not taken
        twice = np.array([1, 1, 3, 2, 4, 5, 6, 7])
        paths_before = bank.paths()[0]
        bank.take(twice)
        changed = (bank.llr != rows_before).any(axis=-1)
        assert changed.sum() == 1 and changed[0].sum() == 1
        assert np.array_equal(bank.paths()[0], paths_before[twice])

    def test_take_rejects_out_of_range_rows(self, rng):
        # rows past the live paths, negative rows, and more paths than the bank reserves
        bank = ScBank(rng.normal(0, 1, 4), capacity=2)
        bank.take([0, 0])
        for rows in ([2], [0, -1], [0, 1, 0]):
            with pytest.raises(IndexError):
                bank.take(np.array(rows))

    def test_take_keeps_paths_in_their_frames(self, rng):
        # a frame's paths live in its own rows, read against its own channel row
        bank = ScBank(rng.normal(0, 1, (2, 8)), capacity=8)
        bank.take([0, 0, 1, 1])
        for rows in ([0, 2, 2, 3], [0, 1, 2], [2, 3, 0, 1]):
            with pytest.raises(IndexError):
                bank.take(np.array(rows))
        bank.take([1, 2])
        assert bank.llr.shape == (2, 1, 3)

    def test_channel_stage_is_shared(self, rng):
        # rows hold only the N/2 - 1 intermediate slots; the channel LLRs are one read-only vector
        llrs = rng.normal(0, 1, 16)
        bank = ScBank(llrs, capacity=4)
        assert not np.shares_memory(bank.channel, llrs)
        for rows in ([0, 0], [1, 0, 1], [2, 1, 0, 0], [3, 2], [0, 1, 1]):
            bank.update_llrs()
            bank.take(np.array(rows))
            bank.update_partial_sums(rng.integers(0, 2, len(rows)).astype(np.int8))
            assert bank.llr.shape == (len(rows), 7)
        assert np.array_equal(bank.channel, llrs)
        assert bank.channel.shape == (16,) and not bank.channel.flags.writeable
        assert not np.shares_memory(bank.channel, bank._llr_buf)

    def test_noiseless_bank_recovers_bits(self, rng):
        # decoding with huge-magnitude true-codeword LLRs recovers u exactly
        u = rng.integers(0, 2, 16, dtype=np.int8)
        x = polar_transform(u)
        bank = ScBank((1.0 - 2.0 * x) * 80.0)
        out = []
        for _ in range(16):
            lam = bank.update_llrs()
            bit = int(lam[0] <= 0)
            out.append(bit)
            bank.update_partial_sums(np.array([bit], dtype=np.int8))
        assert np.array_equal(out, u)

    @pytest.mark.parametrize("combining", ["min-sum", "exact"])
    def test_frames_equal_one_bank_each(self, combining, rng):
        # frames with different channels, gathered and committed alike, give each frame's
        # rows what a bank of that frame alone gives; a stage-n node reads the channel whole
        N, frames = 16, 3
        for tiling in (TestNodeUpdates.tiling(N, rng), TestNodeUpdates.tiling(N, rng), [(0, 4)]):
            llrs = rng.normal(0, 2, (frames, N))
            batch = ScBank(llrs, combining, capacity=frames * 4)
            alone = [ScBank(row, combining, capacity=4) for row in llrs]
            assert batch.channel.shape == (frames, N) and batch.n_paths == frames
            for _, s in tiling:
                w = 1 << s
                block = batch.update_llrs(s)
                per = batch.n_paths // frames
                for f, bank in enumerate(alone):
                    assert np.array_equal(block[f * per : (f + 1) * per], bank.update_llrs(s))
                # every frame keeps the same number of rows, each picking its own
                keep = [rng.integers(0, per, size=int(rng.integers(1, 5))) for _ in alone]
                keep = [k[: min(map(len, keep))] for k in keep]
                batch.take(np.concatenate([f * per + k for f, k in enumerate(keep)]))
                x = rng.integers(0, 2, (batch.n_paths, w), dtype=np.int8)
                batch.update_partial_sums(x if s else x[:, 0])
                rows = len(keep[0])
                llr, beta = batch.paths()
                for f, (bank, k) in enumerate(zip(alone, keep)):
                    bank.take(k)
                    xf = x[f * rows : (f + 1) * rows]
                    bank.update_partial_sums(xf if s else xf[:, 0])
                    assert np.array_equal(llr[f * rows : (f + 1) * rows], bank.paths()[0])
                    assert np.array_equal(beta[f * rows : (f + 1) * rows], bank.paths()[1])

    @pytest.mark.parametrize("combining", ["min-sum", "exact"])
    def test_top_nodes_read_every_path_of_a_frame(self, combining, rng):
        # a node of the whole code, or of N/2 bits before bit N/2, gives every path its
        # frame's block, however many paths a frame holds
        llrs = rng.normal(0, 2, (2, 8))
        f = f_minsum if combining == "min-sum" else f_exact
        for stage, expect in ((3, llrs), (2, f(llrs[:, :4], llrs[:, 4:]))):
            bank = ScBank(llrs, combining, capacity=6)
            bank.take([0, 0, 0, 1, 1, 1])
            assert np.array_equal(bank.update_llrs(stage), np.repeat(expect, 3, axis=0))

    @pytest.mark.parametrize("shape", [(0, 8), (2, 2, 8), (2, 6)])
    def test_rejects_bad_frame_shapes(self, shape):
        with pytest.raises(ValueError):
            ScBank(np.ones(shape))


def _take_rows(data, frames, live, cap):
    """Rows for a take: growth, a cut that keeps the count (with repeats), or any other count."""
    kind = data.draw(st.sampled_from(["grow", "same", "other"]))
    if kind == "grow" and 2 * live <= cap:
        per = [list(range(live)) * 2] * frames
    else:
        keep = live if kind == "same" else data.draw(st.integers(1, cap))
        per = [data.draw(st.lists(st.integers(0, live - 1), min_size=keep, max_size=keep))
               for _ in range(frames)]
    return np.array([f * live + r for f, rows in enumerate(per) for r in rows], dtype=np.intp)


def _replay(channel, combining, history, stage=None):
    """A fresh one-row bank that has committed ``history``, (stage, x) per node; and the
    LLRs of a further node of ``stage``, if given."""
    bank = ScBank(channel, combining)
    for s, x in history:
        bank.update_llrs(s)
        bank.update_partial_sums(x)
    return bank, None if stage is None else bank.update_llrs(stage)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), frames=st.integers(1, 3), n=st.integers(1, 4),
       combining=st.sampled_from(["min-sum", "exact"]), split=st.sampled_from([0, 16, 1 << 14]))
def test_bank_equals_one_row_bank_per_path(data, frames, n, combining, split):
    # a naive model: each path is its frame and the node sums committed along it, replayed
    # on a fresh one-row bank.  Random growths, cuts with repeated parents and other takes,
    # over 1-3 frames and random node widths, leave every path's node LLRs, LLRs and sums
    # equal to its replay's, with the bank's large blocks done whole, frame by frame, or,
    # at a split of 16 elements, in runs of two frames where a frame's block holds 6 to 8
    saved, sc_engine._SPLIT = sc_engine._SPLIT, split
    try:
        _check_against_replays(data, frames, n, combining)
    finally:
        sc_engine._SPLIT = saved


def _check_against_replays(data, frames, n, combining):
    N, cap = 1 << n, 4
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    llrs = rng.normal(0, 2, (frames, N))
    bank = ScBank(llrs, combining, capacity=frames * cap)
    model = [(f, []) for f in range(frames)]
    for t, s in TestNodeUpdates.tiling(N, rng):
        block = bank.update_llrs(s)
        expect = [_replay(llrs[f], combining, history, s)[1] for f, history in model]
        assert np.array_equal(block, np.concatenate(expect))
        rows = _take_rows(data, frames, bank.n_paths // frames, cap)
        bank.take(rows)
        x = rng.integers(0, 2, (rows.size, 1 << s), dtype=np.int8)
        bank.update_partial_sums(x if s else x[:, 0])
        model = [(model[r][0], model[r][1] + [(s, xi[None, :] if s else xi[0])])
                 for r, xi in zip(rows, x)]
        llr, beta = bank.paths()
        for i, (f, history) in enumerate(model):
            alone = _replay(llrs[f], combining, history)[0]
            assert np.array_equal(llr[i], alone.llr[0]) and np.array_equal(beta[i], alone.beta[0])
