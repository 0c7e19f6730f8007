import numpy as np
import pytest
from reference_oracle import conv_1bit_encode, generator_matrix

from pactrellis.pac_core import (
    PacCode,
    conv_inverse,
    conv_transform,
    gen_octal,
    pac_encode,
    parse_code_spec,
    parse_gen,
    polar_transform,
    rate_profile_insert,
    rm_rate_profile,
)


class TestGenParsing:
    def test_octal_expansion(self):
        assert parse_gen(0o133) == (1, 0, 1, 1, 0, 1, 1)
        assert parse_gen("0o133") == (1, 0, 1, 1, 0, 1, 1)
        assert parse_gen("133") == (1, 0, 1, 1, 0, 1, 1)
        assert parse_gen(0o733) == (1, 1, 1, 0, 1, 1, 0, 1, 1)
        assert parse_gen(0o1) == (1,)

    def test_memory_orders_match_state_counts(self):
        # 0o3 .. 0o133 give m = 1..6 (2..64 states), 0o733 gives m = 8 (256 states)
        for gen, m in [(0o3, 1), (0o7, 2), (0o17, 3), (0o33, 4), (0o73, 5), (0o133, 6), (0o733, 8)]:
            assert len(parse_gen(gen)) - 1 == m

    def test_octal_round_trip(self):
        for gen in (0o3, 0o7, 0o17, 0o33, 0o73, 0o133, 0o733):
            assert gen_octal(parse_gen(gen)) == oct(gen)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            parse_gen((0, 1, 1))
        with pytest.raises(ValueError):
            parse_gen((1, 1, 0))
        with pytest.raises(ValueError):
            parse_gen(())


class TestPacCode:
    def test_basic_fields(self):
        code = PacCode.rm(7, 64, 0o133)
        assert code.N == 128 and code.K == 64
        assert code.m == 6 and code.constraint_length == 7
        assert code.gen_octal == "0o133"

    def test_validation(self):
        with pytest.raises(ValueError):
            PacCode(n=3, K=0, A=(), g=(1,))
        with pytest.raises(ValueError):
            PacCode(n=3, K=9, A=tuple(range(9)), g=(1,))
        with pytest.raises(ValueError):
            PacCode(n=3, K=2, A=(3, 3), g=(1,))
        with pytest.raises(ValueError):
            PacCode(n=3, K=2, A=(3, 8), g=(1,))


class TestRmRateProfile:
    def test_small_cases(self):
        assert rm_rate_profile(3, 4) == (3, 5, 6, 7)
        assert rm_rate_profile(2, 4) == (0, 1, 2, 3)

    def test_128_64_is_weight_threshold(self):
        # exhaustively: exactly the 64 indices of weight >= 4 in [0, 128)
        expected = tuple(i for i in range(128) if bin(i).count("1") >= 4)
        assert len(expected) == 64
        assert rm_rate_profile(7, 64) == expected

    def test_weight_dominance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            K = int(rng.integers(1, (1 << n) + 1))
            A = set(rm_rate_profile(n, K))
            wmin = min(bin(i).count("1") for i in A)
            for i in range(1 << n):
                if i not in A:
                    assert bin(i).count("1") <= wmin

    def test_deterministic_and_nested(self):
        n = 6
        prev = set()
        for K in range(1, 65):
            A = set(rm_rate_profile(n, K))
            assert rm_rate_profile(n, K) == rm_rate_profile(n, K)
            assert prev < A
            prev = A

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rm_rate_profile(3, 0)
        with pytest.raises(ValueError):
            rm_rate_profile(3, 9)
        # n < 0 used to fail with "negative shift count"
        with pytest.raises(ValueError, match="n must be nonnegative"):
            rm_rate_profile(-1, 1)


class TestRateProfileInsert:
    def test_direct_placement(self):
        assert np.array_equal(rate_profile_insert([1, 1], (2, 3), 4), [0, 0, 1, 1])

    def test_all_frozen(self):
        assert np.array_equal(rate_profile_insert([], (), 4), [0, 0, 0, 0])

    def test_hand_placed(self):
        v = rate_profile_insert([1, 0, 1, 1], (3, 5, 6, 7), 8)
        assert np.array_equal(v, [0, 0, 0, 1, 0, 0, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rate_profile_insert([1, 1, 1], (2, 3), 4)


class TestConv:
    def test_single_bit_examples(self):
        u, nxt = conv_1bit_encode(1, (0,) * 6, parse_gen(0o133))
        assert u == 1 and nxt == (1, 0, 0, 0, 0, 0)
        u, nxt = conv_1bit_encode(0, (0,) * 6, parse_gen(0o133))
        assert u == 0 and nxt == (0,) * 6
        u, nxt = conv_1bit_encode(1, (1,), parse_gen(0o3))
        assert u == 0 and nxt == (1,)

    def test_transform_examples(self):
        assert np.array_equal(conv_transform(np.zeros(8, dtype=np.int8), (1, 1)), np.zeros(8))
        assert np.array_equal(conv_transform([1, 0, 0, 0], (1, 1)), [1, 1, 0, 0])

    def test_transform_matches_bitwise_encoder(self, rng):
        for gen in (0o3, 0o33, 0o133):
            g = parse_gen(gen)
            v = rng.integers(0, 2, 32, dtype=np.int8)
            state = (0,) * (len(g) - 1)
            out = []
            for bit in v:
                u, state = conv_1bit_encode(int(bit), state, g)
                out.append(u)
            assert np.array_equal(conv_transform(v, g), out)

    def test_inverse_round_trip(self, rng):
        for _ in range(1000):
            gen = [0o3, 0o7, 0o33, 0o133][int(rng.integers(0, 4))]
            v = rng.integers(0, 2, int(rng.integers(1, 65)), dtype=np.int8)
            assert np.array_equal(conv_inverse(conv_transform(v, parse_gen(gen)), parse_gen(gen)), v)


class TestPolarTransform:
    def test_zero_and_unit(self):
        assert np.array_equal(polar_transform(np.zeros(8, dtype=np.int8)), np.zeros(8))
        assert np.array_equal(polar_transform([1, 0, 0, 0]), [1, 0, 0, 0])

    def test_matches_kronecker_matrix(self, rng):
        P = np.array([[1, 0], [1, 1]], dtype=np.int64)
        for n in range(0, 5):
            M = np.array([[1]], dtype=np.int64)
            for _ in range(n):
                M = np.kron(M, P)
            u = rng.integers(0, 2, 1 << n, dtype=np.int8)
            assert np.array_equal(polar_transform(u), (u.astype(np.int64) @ M) % 2)

    def test_involution(self, rng):
        for n in range(1, 9):
            u = rng.integers(0, 2, 1 << n, dtype=np.int8)
            assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            polar_transform([1, 0, 1])
        with pytest.raises(ValueError):
            polar_transform([])


class TestPacEncode:
    def test_zero_fixpoint(self):
        code = PacCode.rm(4, 8, 0o133)
        assert np.array_equal(pac_encode(np.zeros(8, dtype=np.int8), code), np.zeros(16))

    def test_trivial_gen_is_plain_polar(self, rng):
        code = PacCode.rm(4, 8, 0o1)
        d = rng.integers(0, 2, 8, dtype=np.int8)
        v = rate_profile_insert(d, code.A, code.N)
        assert np.array_equal(pac_encode(d, code), polar_transform(v))

    def test_pac_8_4_frozen_vector(self):
        code = PacCode(n=3, K=4, A=(3, 5, 6, 7), g=(1, 1))
        d = np.array([1, 0, 1, 1], dtype=np.int8)
        x = pac_encode(d, code)
        assert np.array_equal(x, [1, 1, 0, 1, 0, 0, 1, 0])
        G = generator_matrix(code)
        assert np.array_equal(x, (d.astype(np.int64) @ G.astype(np.int64)) % 2)

    def test_linearity(self, rng):
        code = PacCode.rm(5, 12, 0o33)
        for _ in range(200):
            d1 = rng.integers(0, 2, code.K, dtype=np.int8)
            d2 = rng.integers(0, 2, code.K, dtype=np.int8)
            assert np.array_equal(
                pac_encode(d1 ^ d2, code), pac_encode(d1, code) ^ pac_encode(d2, code)
            )


class TestCodeSpecFormat:
    def test_inline_rm(self):
        code = parse_code_spec("n=3\nk=4\ngen=0o3\nprofile=rm\n")
        assert code.N == 8 and code.A == (3, 5, 6, 7) and code.g == (1, 1)

    def test_space_separated_and_comments(self):
        code = parse_code_spec("# comment\nn 3\nk 4\ngen 3\n")
        assert code.A == (3, 5, 6, 7)

    def test_file_profile(self, tmp_path):
        (tmp_path / "prof.txt").write_text("1\n3\n5\n7\n")
        code = parse_code_spec("n=3\nk=4\ngen=0o3\nprofile=file:prof.txt", base_dir=str(tmp_path))
        assert code.A == (1, 3, 5, 7)

    def test_missing_key(self):
        with pytest.raises(ValueError):
            parse_code_spec("n=3\nk=4\n")
        with pytest.raises(ValueError):
            parse_code_spec("n=3\nk=4\ngen=0o3\nbogus=1")
