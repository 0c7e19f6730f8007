import numpy as np
import pytest

from pactrellis.channel import ChannelParams, awgn, bpsk_modulate, channel_llr
from pactrellis.sim import trial_rng


class TestChannelParams:
    def test_sigma2_formula(self):
        p = ChannelParams(ebno_db=0.0, rate=0.5)
        assert p.sigma2 == pytest.approx(1.0)
        p = ChannelParams(ebno_db=3.0, rate=0.5)
        assert p.sigma2 == pytest.approx(1.0 / 10 ** 0.3)
        p = ChannelParams(ebno_db=2.0, rate=0.25)
        assert p.sigma2 == pytest.approx(1.0 / (0.5 * 10 ** 0.2))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ChannelParams(1.0, 0.0)
        with pytest.raises(ValueError):
            ChannelParams(1.0, 1.5)

    def test_sigma2_is_not_an_argument(self):
        # sigma2 is derived; a passed value used to be silently overwritten
        with pytest.raises(TypeError):
            ChannelParams(1.0, 0.5, sigma2=7.0)


class TestBpsk:
    def test_mapping(self):
        assert np.array_equal(bpsk_modulate([0, 1, 0]), [1.0, -1.0, 1.0])
        assert np.array_equal(bpsk_modulate(np.zeros(5, dtype=np.int8)), np.ones(5))

    def test_hard_threshold_round_trip(self, rng):
        x = rng.integers(0, 2, 64, dtype=np.int8)
        assert np.array_equal(bpsk_modulate(x) < 0, x.astype(bool))


class TestAwgn:
    def test_zero_variance_passthrough(self, rng):
        s = bpsk_modulate(rng.integers(0, 2, 16))
        assert np.array_equal(awgn(s, 0.0, rng), s)

    def test_seeded_determinism(self):
        s = np.ones(32)
        y1 = awgn(s, 0.7, np.random.default_rng(99))
        y2 = awgn(s, 0.7, np.random.default_rng(99))
        assert np.array_equal(y1, y2)

    def test_sample_variance(self):
        rng = np.random.default_rng(5)
        y = awgn(np.zeros(1_000_000), 0.37, rng)
        assert abs(y.var() - 0.37) / 0.37 < 0.01
        assert abs(y.mean()) < 0.01


class TestChannelLlr:
    def test_formula_and_signs(self, rng):
        assert channel_llr(1.0, 1.0) == 2.0
        assert channel_llr(0.0, 0.5) == 0.0
        y = rng.normal(0, 1, 100)
        lam = channel_llr(y, 0.8)
        assert np.allclose(lam, 2 * y / 0.8)
        assert np.all(np.sign(lam) == np.sign(y))

    def test_scaling_linearity(self, rng):
        y = rng.normal(0, 1, 50)
        assert np.allclose(channel_llr(y, 1.0), 2.0 * channel_llr(y, 2.0))

    def test_rejects_bad_sigma2(self):
        with pytest.raises(ValueError):
            channel_llr([1.0], 0.0)

    def test_genie_at_high_snr(self, rng):
        # at Eb/N0 = 20 dB the hard decisions on the LLRs are error-free in practice
        params = ChannelParams(20.0, 0.5)
        x = rng.integers(0, 2, 200_000, dtype=np.int8)
        y = awgn(bpsk_modulate(x), params.sigma2, rng)
        hard = (channel_llr(y, params.sigma2) < 0).astype(np.int8)
        assert np.mean(hard != x) < 1e-5


class TestGoldenNoise:
    """Pinned draws from the documented per-trial generator, frozen for regression.

    Construction: Philox keyed by the master seed, counter [0, trial, snr, 0];
    first K message bits via integers(0, 2, dtype=int8), then noise via
    sqrt(sigma2) * standard_normal(N).
    """

    def test_frozen_stream(self):
        rng = trial_rng(123456789, snr_index=2, trial_index=7)
        bits = rng.integers(0, 2, size=8, dtype=np.int8)
        noise = np.sqrt(0.5) * rng.standard_normal(4)
        assert list(bits) == [1, 1, 0, 0, 0, 1, 1, 0]
        expected = [
            -0.3343589007139991,
            1.2338136848060695,
            -0.43543579720589415,
            -0.2236106123322357,
        ]
        assert np.array_equal(noise, np.array(expected))

    def test_distinct_trials_distinct_streams(self):
        a = trial_rng(1, 0, 0).standard_normal(8)
        b = trial_rng(1, 0, 1).standard_normal(8)
        c = trial_rng(1, 1, 0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(b, c)
