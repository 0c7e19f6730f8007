import numpy as np
import pytest
from conftest import make_trial
from reference_oracle import (
    chain_rule_neglogp,
    forced_path_metrics,
    forced_transcript,
    generator_matrix,
    ml_decode_exhaustive,
    naive_scl_reference,
    polar_sc_reference,
    transform_matrix,
)

from pactrellis.decoder import DecoderConfig, decode
from pactrellis.pac_core import PacCode, pac_encode


def noiseless_llrs(code, d, mag=60.0):
    return (1.0 - 2.0 * pac_encode(d, code)) * mag


class TestGeneratorMatrix:
    def test_trivial_gen_gives_polar_rows(self):
        code = PacCode.rm(4, 8, 0o1)
        P = np.array([[1, 0], [1, 1]], dtype=np.int64)
        M = np.array([[1]], dtype=np.int64)
        for _ in range(4):
            M = np.kron(M, P)
        assert np.array_equal(generator_matrix(code), M[list(code.A), :] % 2)

    def test_exhaustive_linearity_16_8(self):
        code = PacCode.rm(4, 8, 0o3)
        G = generator_matrix(code).astype(np.int64)
        for value in range(256):
            d = np.array([(value >> (7 - j)) & 1 for j in range(8)], dtype=np.int8)
            assert np.array_equal(pac_encode(d, code), (d.astype(np.int64) @ G) % 2)

    def test_k0_empty_matrix(self):
        G = generator_matrix(n=3, A=(), g=(1, 1))
        assert G.shape == (0, 8)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            transform_matrix(7, (1, 1))


class TestMlOracle:
    def test_noiseless(self, rng):
        code = PacCode.rm(3, 4, 0o3)
        for _ in range(10):
            d = rng.integers(0, 2, code.K, dtype=np.int8)
            assert np.array_equal(ml_decode_exhaustive(noiseless_llrs(code, d), code), d)

    def test_all_zero_llrs_tie_to_smallest_message(self):
        code = PacCode.rm(3, 4, 0o3)
        assert np.array_equal(ml_decode_exhaustive(np.zeros(8), code), np.zeros(4))

    def test_agrees_with_unpruned_list_decoder(self, rng):
        code = PacCode.rm(4, 8, 0o3)
        cfg = DecoderConfig("global", 256)
        for _ in range(200):
            d, llrs = make_trial(code, 2.0, rng)
            assert np.array_equal(decode(llrs, code, cfg).d_hat, ml_decode_exhaustive(llrs, code))

    def test_va_fer_bounded_by_ml_fer(self, rng):
        # exact ML is optimal: over many trials it cannot lose to the trellis decoder
        code = PacCode.rm(3, 4, 0o7)
        cfg = DecoderConfig("local", 1)
        trials = 10_000
        va_err = ml_err = 0
        for _ in range(trials):
            d, llrs = make_trial(code, 3.0, rng)
            va_err += not np.array_equal(decode(llrs, code, cfg).d_hat, d)
            ml_err += not np.array_equal(ml_decode_exhaustive(llrs, code), d)
        assert ml_err <= va_err
        assert va_err > 0  # operating point chosen so the bound is non-vacuous

    def test_size_guard(self):
        code = PacCode.rm(6, 32, 0o3)
        with pytest.raises(ValueError):
            ml_decode_exhaustive(np.zeros(64), code)


class TestProbabilityDomain:
    def test_chain_rule_matches_exact_branch_penalties(self, rng):
        # brute-force suffix marginalization reproduces log(1 + exp(-(1-2u) lam))
        for _ in range(25):
            llrs = rng.normal(0, 2, 8)
            u = rng.integers(0, 2, 8, dtype=np.int8)
            neglogp = chain_rule_neglogp(llrs, u)
            lam = forced_transcript(llrs, u, rule="exact")
            mu = np.logaddexp(0.0, -(1.0 - 2.0 * u) * lam)
            assert np.allclose(neglogp, mu, atol=1e-9)
            total = forced_path_metrics(llrs, u, mode="exact", rule="exact")[0]
            assert neglogp.sum() == pytest.approx(total, abs=1e-9)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            chain_rule_neglogp(np.zeros(16), np.zeros(16, dtype=np.int8))


class TestPolarScReference:
    def test_noiseless(self, rng):
        code = PacCode.rm(4, 8, 0o1)
        d = rng.integers(0, 2, code.K, dtype=np.int8)
        u_hat = polar_sc_reference(noiseless_llrs(code, d), code.A)
        assert np.array_equal(u_hat[list(code.A)], d)

    def test_matches_unified_decoder_with_trivial_gen(self, rng):
        code = PacCode.rm(5, 16, 0o1)
        cfg = DecoderConfig("global", 1)
        for _ in range(500):
            d, llrs = make_trial(code, 1.5, rng)
            ref = polar_sc_reference(llrs, code.A)
            assert np.array_equal(decode(llrs, code, cfg).d_hat, ref[list(code.A)])


class TestNaiveSclReference:
    def test_l1_equals_sc_with_conv_tracking(self, rng):
        code = PacCode.rm(4, 8, 0o7)
        cfg = DecoderConfig("global", 1)
        for _ in range(300):
            d, llrs = make_trial(code, 1.5, rng)
            assert np.array_equal(naive_scl_reference(llrs, code, 1), decode(llrs, code, cfg).d_hat)

    def test_trivial_gen_list_equals_ml_at_full_list(self, rng):
        # with g = [1] and L = 2^K no pruning occurs: a plain polar list decode is ML
        code = PacCode.rm(3, 4, 0o1)
        for _ in range(200):
            d, llrs = make_trial(code, 1.0, rng)
            assert np.array_equal(
                naive_scl_reference(llrs, code, 16), ml_decode_exhaustive(llrs, code)
            )

    def test_bit_identical_with_unified_global(self, rng):
        code = PacCode.rm(5, 16, 0o133)
        for L in (2, 8):
            cfg = DecoderConfig("global", L)
            for _ in range(500):
                d, llrs = make_trial(code, 1.5, rng)
                assert np.array_equal(
                    naive_scl_reference(llrs, code, L), decode(llrs, code, cfg).d_hat
                )
