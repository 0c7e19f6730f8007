import math

import numpy as np
import pytest

from pactrellis.pac_core import polar_transform
from pactrellis.sc_engine import (
    ContractViolationError,
    ScBank,
    ScScratch,
    f_exact,
    f_minsum,
    g_combine,
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
        # no-op below the documented |llr| = 30 threshold
        assert f_exact(29.0, 29.0) == 2 * math.atanh(math.tanh(14.5) ** 2)

    def test_exact_bounded_by_minsum(self, rng):
        a = rng.normal(0, 3, 2000)
        b = rng.normal(0, 3, 2000)
        assert np.all(np.abs(f_exact(a, b)) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)
        assert np.array_equal(np.abs(f_minsum(a, b)), np.minimum(np.abs(a), np.abs(b)))

    def test_g_combine(self):
        assert g_combine(2.0, 3.0, 0) == 5.0
        assert g_combine(2.0, 3.0, 1) == 1.0


class TestScratchSmall:
    def test_n2_first_bit_is_f(self):
        sc = ScScratch([1.8, -0.7])
        lam = sc.update_llrs(0)
        assert lam == f_minsum(1.8, -0.7)

    def test_n2_second_bit_is_g(self):
        sc = ScScratch([1.8, -0.7])
        sc.update_llrs(0)
        sc.update_partial_sums(0, 0)
        assert sc.update_llrs(1) == pytest.approx(1.8 + (-0.7))
        sc2 = ScScratch([1.8, -0.7])
        sc2.update_llrs(0)
        sc2.update_partial_sums(0, 1)
        assert sc2.update_llrs(1) == pytest.approx(-0.7 - 1.8)

    def test_n1_degenerate(self):
        sc = ScScratch([2.25])
        assert sc.update_llrs(0) == 2.25

    def test_exact_combining_selectable(self):
        sc = ScScratch([1.0, 2.0], combining="exact")
        assert sc.update_llrs(0) == pytest.approx(2 * math.atanh(math.tanh(0.5) * math.tanh(1.0)))


class TestPartialSumDuality:
    @pytest.mark.parametrize("N", [2, 4, 8, 64])
    def test_stage_n_equals_polar_transform(self, N, rng):
        u = rng.integers(0, 2, N, dtype=np.int8)
        sc = ScScratch(rng.normal(0, 1, N))
        for t in range(N):
            sc.update_llrs(t)
            sc.update_partial_sums(t, int(u[t]))
        assert np.array_equal(sc.stage_n_sums(), polar_transform(u))

    @pytest.mark.parametrize("N", [2, 8, 64])
    def test_g_update_reads_left_block_sums(self, N, rng):
        # before bit t, the compact slots of stage top (t's lowest set bit) hold
        # the partial sums of the left block u[t - 2^top : t] at that stage
        u = rng.integers(0, 2, N, dtype=np.int8)
        sc = ScScratch(rng.normal(0, 1, N))
        assert sc.beta.shape == (2 * N - 1,)
        for t in range(N):
            if t:
                w = t & -t
                assert np.array_equal(sc.beta[w - 1 : 2 * w - 1], polar_transform(u[t - w : t]))
            sc.update_llrs(t)
            sc.update_partial_sums(t, int(u[t]))

    def test_all_zero_commits(self):
        sc = ScScratch(np.ones(8))
        for t in range(8):
            sc.update_llrs(t)
            sc.update_partial_sums(t, 0)
        assert not sc.beta.any()

    def test_n4_unit_vector(self, rng):
        sc = ScScratch(rng.normal(0, 1, 4))
        for t, u in enumerate([1, 0, 0, 0]):
            sc.update_llrs(t)
            sc.update_partial_sums(t, u)
        assert np.array_equal(sc.stage_n_sums(), [1, 0, 0, 0])


class TestCallOrderContract:
    def test_out_of_order_llr_update(self):
        sc = ScScratch(np.ones(4))
        with pytest.raises(ContractViolationError):
            sc.update_llrs(1)

    def test_skip_commit(self):
        sc = ScScratch(np.ones(4))
        sc.update_llrs(0)
        sc.update_partial_sums(0, 0)
        with pytest.raises(ContractViolationError):
            sc.update_llrs(2)

    def test_double_commit(self):
        sc = ScScratch(np.ones(4))
        sc.update_llrs(0)
        sc.update_partial_sums(0, 0)
        with pytest.raises(ContractViolationError):
            sc.update_partial_sums(0, 0)

    def test_commit_before_llrs(self):
        sc = ScScratch(np.ones(4))
        with pytest.raises(ContractViolationError):
            sc.update_partial_sums(0, 0)


class TestBankBatching:
    def test_rows_evolve_independently(self, rng):
        llrs = rng.normal(0, 1, 8)
        bank = ScBank(llrs, paths=1)
        bank.update_llrs(0)
        bank.take(np.array([0, 0]))
        bank.update_partial_sums(0, np.array([0, 1], dtype=np.int8))
        lam = bank.update_llrs(1)
        # row decisions diverge exactly as two independent scratches would
        for row, u0 in enumerate([0, 1]):
            sc = ScScratch(llrs)
            sc.update_llrs(0)
            sc.update_partial_sums(0, u0)
            assert lam[row] == sc.update_llrs(1)

    def test_take_reorders_rows(self, rng):
        bank = ScBank(rng.normal(0, 1, 4), paths=1)
        bank.update_llrs(0)
        bank.take(np.array([0, 0]))
        bank.update_partial_sums(0, np.array([0, 1], dtype=np.int8))
        before = bank.beta.copy()
        bank.take(np.array([1, 0]))
        assert np.array_equal(bank.beta, before[[1, 0]])

    def test_take_within_and_beyond_capacity(self, rng):
        # gathers alternate between two reserved buffers and grow past the capacity
        bank = ScBank(rng.normal(0, 1, 8), paths=1, capacity=4)
        bank.update_llrs(0)
        for rows in ([0, 0], [1, 0, 1, 0], [3, 2, 1, 0, 0, 1], [5, 4]):
            # tag each row so that the gathered order shows
            bank.llr[:, 0] = np.arange(bank.n_paths)
            bank.beta[:, 0] = np.arange(bank.n_paths) % 2
            llr, beta = bank.llr.copy(), bank.beta.copy()
            bank.take(np.array(rows))
            assert np.array_equal(bank.llr, llr[rows])
            assert np.array_equal(bank.beta, beta[rows])

    def test_take_rejects_out_of_range_rows(self, rng):
        bank = ScBank(rng.normal(0, 1, 4), paths=2)
        for rows in ([2], [0, -1]):
            with pytest.raises(IndexError):
                bank.take(np.array(rows))

    def test_noiseless_bank_recovers_bits(self, rng):
        # decoding with huge-magnitude true-codeword LLRs recovers u exactly
        u = rng.integers(0, 2, 16, dtype=np.int8)
        x = polar_transform(u)
        bank = ScBank((1.0 - 2.0 * x) * 80.0, paths=1)
        out = []
        for t in range(16):
            lam = bank.update_llrs(t)
            bit = int(lam[0] <= 0)
            out.append(bit)
            bank.update_partial_sums(t, np.array([bit], dtype=np.int8))
        assert np.array_equal(out, u)
