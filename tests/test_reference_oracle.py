import numpy as np
import pytest
from conftest import exact_combine_reference, log_uniform_pairs, make_trial
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_oracle import (
    _f,
    chain_rule_neglogp,
    forced_path_metrics,
    forced_transcript,
    generator_matrix,
    ml_decode_exhaustive,
    naive_scl_reference,
    polar_sc_reference,
    transform_matrix,
)

from pactrellis.decoder import DecoderConfig, branch_metric, decode
from pactrellis.pac_core import PacCode, pac_encode
from pactrellis.sc_engine import ScBank


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

    def test_large_llrs_match_chain_rule(self, rng):
        # g-node outputs beyond 35 are routine at N >= 128; the tanh form of the
        # exact rule saturated there and was off by tens of nats
        for scale in (20.0, 60.0, 300.0):
            for _ in range(20):
                llrs = rng.choice([-1.0, 1.0], 8) * rng.uniform(0.5, 1.5, 8) * scale
                u = rng.integers(0, 2, 8, dtype=np.int8)
                neglogp = chain_rule_neglogp(llrs, u)
                sc = ScBank(llrs, combining="exact")
                mu = np.empty(8)
                for t in range(8):
                    mu[t] = branch_metric(sc.update_llrs()[0], int(u[t]), "exact")
                    sc.update_partial_sums(int(u[t]))
                assert np.allclose(mu, neglogp, rtol=1e-12, atol=1e-9)
                lam = forced_transcript(llrs, u, rule="exact")
                assert np.allclose(np.logaddexp(0.0, -(1.0 - 2.0 * u) * lam), neglogp,
                                   rtol=1e-12, atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-300, 300), b=st.floats(-300, 300),
           u0=st.integers(0, 1), u1=st.integers(0, 1))
    def test_f_and_g_match_chain_rule(self, a, b, u0, u1):
        # at N = 2 bit 0 reads f(a, b) and bit 1 reads g(a, b, u0): each charges -log P(u_t | past, y)
        sc = ScBank([a, b], combining="exact")
        lam0 = sc.update_llrs()[0]
        sc.update_partial_sums(u0)
        lam1 = sc.update_llrs()[0]
        mu = [branch_metric(lam0, u0, "exact"), branch_metric(lam1, u1, "exact")]
        assert np.allclose(mu, chain_rule_neglogp([a, b], [u0, u1]), rtol=1e-12, atol=1e-12)
        ref = forced_transcript([a, b], [u0, u1], rule="exact")
        assert np.allclose([lam0, lam1], ref, rtol=1e-12, atol=1e-12)

    def test_exact_combine_keeps_sign_and_precision_at_small_llrs(self, rng):
        # the oracle states the exact rule on its own, so it gets its own check
        a, b = log_uniform_pairs(rng)
        expect = np.array([exact_combine_reference(x, y) for x, y in zip(a, b)])
        got = _f(a, b, "exact")
        assert np.array_equal(np.sign(got), np.sign(expect))
        assert np.all(np.abs(got - expect) <= 1e-15 * np.abs(expect))

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

    @pytest.mark.parametrize("L", [2, 4, 8, 16])
    def test_bit_identical_on_tie_heavy_llrs(self, L, rng):
        # coarse LLRs make exact metric ties cross cuts, so both tie rules are exercised:
        # the reference breaks ties on creation id, the decoder on row position
        code = PacCode.rm(5, 16, 0o133)
        cfg = DecoderConfig("global", L)
        tied_cuts = 0

        def observer(t, states, metrics, keep):
            nonlocal tied_cuts
            dropped = np.ones(metrics.size, dtype=bool)
            dropped[keep] = False
            tied_cuts += metrics[keep].max() == metrics[dropped].min()

        coarse = (np.round, lambda x: np.round(x / 2), np.sign)
        for _ in range(100):
            _, llrs = make_trial(code, 1.5, rng)
            for f in coarse:
                x = f(llrs) + 0.0
                got = decode(x, code, cfg, prune_observer=observer).d_hat
                assert np.array_equal(naive_scl_reference(x, code, L), got)
        assert tied_cuts > 0
