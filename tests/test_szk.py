"""Distributions, Qsamples, Hadamard tests, and the promise-problem deciders."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiagen import szk
from adiagen.qcore import StateVector, state_overlap


def random_circuit(n, m, rng):
    table = [int(rng.integers(0, 1 << m)) for _ in range(1 << n)]
    return szk.circuit_from_table(n, m, table)


class TestDistributionOf:
    def test_identity_one_bit(self):
        C = szk.circuit_from_table(1, 1, [0, 1])
        assert np.allclose(szk.distribution_of(C).probabilities, [0.5, 0.5])

    def test_constant_circuit(self):
        C = szk.circuit_from_table(2, 2, [3, 3, 3, 3])
        p = szk.distribution_of(C).probabilities
        assert p[3] == 1.0

    def test_squaring_mod_15(self):
        # Oracle: hand enumeration of r^2 mod 15 over r in Z_16.
        C = szk.ClassicalCircuit(n=4, m=4, eval=lambda r: r * r % 15)
        counts = np.zeros(16, dtype=int)
        for r in range(16):
            counts[r * r % 15] += 1
        assert np.array_equal(szk.distribution_of(C).counts, counts)


class TestQsample:
    def test_identity_one_bit(self):
        C = szk.circuit_from_table(1, 1, [0, 1])
        v = szk.qsample_exact(C)
        assert np.allclose(v.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        C = random_circuit(4, 3, rng)
        assert np.linalg.norm(szk.qsample_exact(C).amplitudes) == pytest.approx(1.0)

    def test_overlap_equals_fidelity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            C0 = random_circuit(4, 3, rng)
            C1 = random_circuit(4, 3, rng)
            ov = state_overlap(szk.qsample_exact(C0), szk.qsample_exact(C1)).real
            F = szk.fidelity(szk.distribution_of(C0), szk.distribution_of(C1))
            assert ov == pytest.approx(F, abs=1e-12)


class TestFidelityVariation:
    def test_equal_distributions(self):
        C = szk.circuit_from_table(2, 2, [0, 1, 2, 3])
        d = szk.distribution_of(C)
        assert szk.fidelity(d, d) == pytest.approx(1.0)
        assert szk.variation(d, d) == 0.0

    def test_disjoint_supports(self):
        p = szk.distribution_of(szk.circuit_from_table(1, 2, [0, 1]))
        q = szk.distribution_of(szk.circuit_from_table(1, 2, [2, 3]))
        assert szk.fidelity(p, q) == 0.0
        assert szk.variation(p, q) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=8, max_size=8),
           st.lists(st.integers(0, 3), min_size=8, max_size=8))
    def test_fact_bounds(self, t0, t1):
        p = szk.distribution_of(szk.circuit_from_table(3, 2, t0))
        q = szk.distribution_of(szk.circuit_from_table(3, 2, t1))
        F = szk.fidelity(p, q)
        d = szk.variation(p, q)
        assert 1 - F <= d + 1e-12
        assert d <= math.sqrt(max(0.0, 1 - F * F)) + 1e-12


class TestHadamardTest:
    def test_equal_states_always_zero(self):
        v = StateVector.basis(4, 2)
        rng = np.random.default_rng(0)
        assert szk.hadamard_test(v, v, 1000, rng) == 1.0

    def test_orthogonal_states_half(self):
        rng = np.random.default_rng(1)
        freq = szk.hadamard_test(StateVector.basis(2, 0), StateVector.basis(2, 1),
                                 100_000, rng)
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_overlap_06_statistics(self):
        v = StateVector.from_amplitudes([1.0, 0.0])
        w = StateVector.from_amplitudes([0.6, 0.8])
        shots = 10_000
        rng = np.random.default_rng(2)
        freq = szk.hadamard_test(v, w, shots, rng)
        sigma = math.sqrt(0.8 * 0.2 / shots)
        assert abs(freq - 0.8) <= 3 * sigma


class TestSDDecider:
    def test_thresholds(self):
        assert szk.SD_LOW_THRESHOLD == pytest.approx((1 + math.sqrt(1 - 0.75**2)) / 2)
        assert szk.SD_HIGH_THRESHOLD == 0.875
        assert szk.SD_LOW_THRESHOLD < szk.SD_MIDPOINT < szk.SD_HIGH_THRESHOLD

    def test_identical_circuits_close(self):
        C = szk.circuit_from_table(3, 2, [x % 4 for x in range(8)])
        rng = np.random.default_rng(3)
        assert szk.sd_decider(C, C, 0.01, rng) == "no"

    def test_disjoint_circuits_far(self):
        C0 = szk.circuit_from_table(3, 2, [x % 2 for x in range(8)])
        C1 = szk.circuit_from_table(3, 2, [2 + x % 2 for x in range(8)])
        rng = np.random.default_rng(4)
        assert szk.sd_decider(C0, C1, 0.01, rng) == "yes"

    def test_engineered_far_pair(self):
        # p = (13/16, 3/16, 0, 0), q = (0, 3/16, 13/16, 0): variation 13/16.
        C0 = szk.circuit_from_table(4, 2, [0] * 13 + [1] * 3)
        C1 = szk.circuit_from_table(4, 2, [2] * 13 + [1] * 3)
        d = szk.variation(szk.distribution_of(C0), szk.distribution_of(C1))
        assert d == pytest.approx(13 / 16)
        rng = np.random.default_rng(5)
        wins = sum(szk.sd_decider(C0, C1, 0.01, rng) == "yes" for _ in range(100))
        assert wins >= 99

    def test_promise_referee(self):
        C0 = szk.circuit_from_table(3, 1, [0] * 7 + [1])
        C1 = szk.circuit_from_table(3, 1, [1] * 7 + [0])
        assert szk.sd_promise_holds(szk.SDInstance(C0, C1))
        mid0 = szk.circuit_from_table(1, 1, [0, 0])
        mid1 = szk.circuit_from_table(1, 1, [0, 1])
        assert not szk.sd_promise_holds(szk.SDInstance(mid0, mid1))

    def test_shot_budget(self):
        assert szk.sd_shots(0.01) == math.ceil(
            math.log(200.0) / (2 * ((szk.SD_HIGH_THRESHOLD - szk.SD_LOW_THRESHOLD) / 2) ** 2))


class TestNumberTheoryReferees:
    def test_is_prime(self):
        assert [p for p in range(2, 30) if szk.is_prime(p)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_generator_of_251(self):
        assert szk.is_generator(6, 251)
        assert not szk.is_generator(2, 251)  # 2^50 = 1 mod 251

    def test_discrete_log_round_trip(self):
        p, g = 251, 6
        for x in (1, 7, 100, 200):
            assert szk.discrete_log(g, pow(g, x, p), p) == x

    def test_residue_referee(self):
        squares = {y * y % 15 for y in szk.units(15)}
        for x in szk.units(15):
            assert szk.is_residue(x, 15) == (x in squares)

    def test_semiprime_factors(self):
        assert szk.semiprime_factors(15) == (3, 5)
        assert szk.semiprime_factors(33) == (3, 11)
        with pytest.raises(ValueError):
            szk.semiprime_factors(16)


class TestDLP:
    def test_window_sizes(self):
        # 251: floor(log2) = 7 -> windows 2^6 and 2^4.
        assert szk.dlp_window_sizes(251) == (64, 16)

    def test_low_window_disjoint(self):
        p, g = 251, 6
        y = pow(g, 3, p)
        v, w = szk.dlp_states(p, g, y)
        assert abs(state_overlap(v, w)) == pytest.approx(0.0, abs=1e-12)

    def test_high_window_positive_overlap(self):
        p, g = 251, 6
        x = p // 2 + 2
        v, w = szk.dlp_states(p, g, pow(g, x, p))
        ov = abs(state_overlap(v, w))
        # Oracle: count the exponent-window intersection directly.
        t, tp = szk.dlp_window_sizes(p)
        lo = p // 2 + 2
        inter = len(set(range(x, x + tp)) & set(range(lo, lo + t)))
        assert ov == pytest.approx(inter / math.sqrt(t * tp), abs=1e-10)
        assert ov >= szk.dlp_min_high_overlap(p, g) - 1e-12

    def test_decider_high_instance(self):
        p, g = 251, 6
        x = p // 2 + 2
        rng = np.random.default_rng(7)
        wins = sum(szk.dlp_decider(p, g, pow(g, x, p), 4000, rng) == "high"
                   for _ in range(100))
        assert wins >= 99

    def test_decider_low_instance(self):
        p, g = 251, 6
        rng = np.random.default_rng(8)
        assert szk.dlp_decider(p, g, pow(g, 3, p), 4000, rng) == "low"

    def test_repeated_seed_deterministic(self):
        p, g = 251, 6
        y = pow(g, 3, p)
        a = szk.dlp_decider(p, g, y, 4000, np.random.default_rng(9))
        b = szk.dlp_decider(p, g, y, 4000, np.random.default_rng(9))
        assert a == b

    def test_promise_referee(self):
        p, g = 251, 6
        assert szk.dlp_promise_holds(p, g, pow(g, 3, p)) == "low"
        assert szk.dlp_promise_holds(p, g, pow(g, p // 2 + 2, p)) == "high"
        assert szk.dlp_promise_holds(p, g, pow(g, p // 3, p)) is None


class TestQR:
    def test_x_equals_one(self):
        c1, cx = szk.qr_states(15, 1)
        assert abs(state_overlap(c1, cx)) == pytest.approx(1.0)

    def test_residue_gives_unit_overlap(self):
        c1, c4 = szk.qr_states(15, 4)
        assert abs(state_overlap(c1, c4)) == pytest.approx(1.0, abs=1e-12)

    def test_nonresidue_overlap_small(self):
        assert not szk.is_residue(2, 15)
        c1, c2 = szk.qr_states(15, 2)
        ov = abs(state_overlap(c1, c2))
        assert ov < 1.0
        assert ov <= szk.qr_nonresidue_max_overlap(15) + 1e-12
        # Residue mass bound: sum of D_{C_x} over residues <= (p+q)/(pq).
        d = szk.qr_distribution(15, 2)
        res_mass = sum(d[z] for z in range(15)
                       if math.gcd(z, 15) == 1 and szk.is_residue(z, 15))
        assert res_mass <= (3 + 5) / 15 + 1e-12

    def test_decider_matches_referee_mod_15(self):
        rng = np.random.default_rng(10)
        for x in szk.units(15):
            want = "residue" if szk.is_residue(x, 15) else "nonresidue"
            assert szk.qr_decider(15, x, 4000, rng) == want

    def test_nonunit_rejected(self):
        with pytest.raises(ValueError):
            szk.qr_states(15, 5)


BENCHMARK_MODULI = [15, 21, 33, 35, 39, 51, 55, 57, 65, 69, 77, 85, 87, 91, 93, 95]
SMALL_PRIMES = [p for p in range(2, 600) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def loop_qr_distribution(nn, a):
    counts = np.zeros(nn, dtype=np.int64)
    for r in range(nn):
        counts[r * r * a % nn] += 1
    return counts / nn


def orbit_is_generator(g, p):
    seen = set()
    x = 1
    for _ in range(p - 1):
        x = x * g % p
        seen.add(x)
    return len(seen) == p - 1


def set_dlp_supports(p, g, y):
    t_size, tp_size = szk.dlp_window_sizes(p)
    mid, acc = set(), pow(g, p // 2 + 2, p)
    for _ in range(t_size):
        mid.add(acc)
        acc = acc * g % p
    low, acc = set(), y % p
    for _ in range(tp_size):
        low.add(acc)
        acc = acc * g % p
    return mid, low


class TestArrayConstructionsMatchLoops:
    """The array-based Qsamples and thresholds against the per-element loops they replace."""

    @pytest.mark.parametrize("nn", BENCHMARK_MODULI)
    def test_qr_distribution(self, nn):
        for a in range(nn):
            assert np.array_equal(szk.qr_distribution(nn, a), loop_qr_distribution(nn, a))

    def test_is_generator(self):
        assert len(SMALL_PRIMES) == 109
        for p in SMALL_PRIMES:
            got = [szk.is_generator(g, p) for g in range(2 * p)]
            assert got == [orbit_is_generator(g, p) for g in range(2 * p)], p

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(11, 2), (13, 6), (17, 3), (251, 6), (257, 3), (4099, 2)]),
           st.integers(-10**6, 10**6))
    def test_dlp_supports(self, pg, y):
        p, g = pg
        v, w = szk.dlp_states(p, g, y)
        mid, low = set_dlp_supports(p, g, y)
        assert set(np.flatnonzero(v.amplitudes)) == mid
        assert set(np.flatnonzero(w.amplitudes)) == low
        assert np.allclose(v.amplitudes[list(mid)], 1 / math.sqrt(len(mid)), rtol=0, atol=1e-15)
        assert np.allclose(w.amplitudes[list(low)], 1 / math.sqrt(len(low)), rtol=0, atol=1e-15)

    def test_dlp_min_high_overlap(self):
        for p in SMALL_PRIMES[4:]:  # p >= 11, so floor(log2 p) >= 3
            t, tp = szk.dlp_window_sizes(p)
            lo = p // 2 + 2
            want = min(len(set(range(x, x + tp)) & set(range(lo, lo + t))) / math.sqrt(t * tp)
                       for x in (p // 2 + 1, p // 2 + int(p / 6)))
            assert szk.dlp_min_high_overlap(p, 2) == want

    @pytest.mark.parametrize("nn", BENCHMARK_MODULI)
    def test_qr_nonresidue_max_overlap(self, nn):
        c1, _ = szk.qr_states(nn, 1)
        want = 0.0
        for x in szk.units(nn):
            if not szk.is_residue(x, nn):
                _, cx = szk.qr_states(nn, x)
                want = max(want, abs(state_overlap(c1, cx)))
        assert szk.qr_nonresidue_max_overlap(nn) == pytest.approx(want, rel=0, abs=1e-12)

    def test_qr_overlap_checks_the_modulus(self):
        for nn in (16, 45, 1 << 17):
            with pytest.raises(ValueError):
                szk.qr_nonresidue_max_overlap(nn)


class TestParsing:
    def test_truth_table_round_trip(self):
        text = "# header\n00 01\n01 10\n10 11\n11 00\n"
        C = szk.parse_truth_table(text)
        assert (C.n, C.m) == (2, 2)
        assert [C.eval(x) for x in range(4)] == [1, 2, 3, 0]

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            szk.parse_truth_table("00 01\n01 10\n")

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError):
            szk.parse_truth_table("00 01\n011 10\n10 11\n11 00\n")
