"""Chain-to-Hamiltonian correspondence and the matchings Qsampling pipeline."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiagen import cli, markov
from adiagen.qcore import DenseHermitian, StateVector, ground_state, spectral_gap, state_overlap
from dense_references import direct_seed_amplitudes, padded_chain_hamiltonian

TWO_STATE = markov.MarkovChain(np.array([[0.9, 0.1], [0.2, 0.8]]))
THREE_STATE = markov.MarkovChain(
    np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]))


def power_iteration_stationary(M, iters=20_000):
    """Independent oracle: iterate a distribution until it stops moving."""
    rng = np.random.default_rng(0)
    p = rng.random(M.shape[0])
    p /= p.sum()
    for _ in range(iters):
        p = p @ M
    return p


class TestStationary:
    def test_symmetric_is_uniform(self):
        M = markov.MarkovChain(np.array([[0.5, 0.25, 0.25],
                                         [0.25, 0.5, 0.25],
                                         [0.25, 0.25, 0.5]]))
        assert np.allclose(markov.stationary(M).pi, 1 / 3)

    def test_two_state_chain(self):
        assert np.allclose(markov.stationary(TWO_STATE).pi, [2 / 3, 1 / 3], atol=1e-12)

    def test_matches_power_iteration(self):
        pi = markov.stationary(THREE_STATE).pi
        assert np.allclose(pi, power_iteration_stationary(THREE_STATE.transition), atol=1e-8)

    def test_reducible_chain_rejected(self):
        M = markov.MarkovChain(np.eye(2))
        with pytest.raises(markov.NotErgodicError):
            markov.stationary(M)


class TestChainHamiltonian:
    def test_symmetric_chain(self):
        M = markov.MarkovChain(np.array([[0.7, 0.3], [0.3, 0.7]]))
        H = markov.chain_hamiltonian(M)
        assert np.allclose(H.entries, np.eye(2) - M.transition, atol=1e-12)

    def test_two_state_groundstate(self):
        H = markov.chain_hamiltonian(TWO_STATE)
        val, vec = ground_state(H)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(np.abs(vec.amplitudes),
                           [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-10)

    def test_spectrum_correspondence(self):
        hvals = np.sort(np.linalg.eigvalsh(markov.chain_hamiltonian(THREE_STATE).entries))
        mvals = np.sort(1 - np.linalg.eigvals(THREE_STATE.transition).real)
        assert np.allclose(hvals, mvals, atol=1e-9)

    def test_irreversible_chain_rejected(self):
        M = markov.MarkovChain(np.array([[0.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0],
                                         [1.0, 0.0, 0.0]]))
        with pytest.raises(markov.NotReversibleError):
            markov.chain_hamiltonian(M)


@st.composite
def reversible_chains(draw):
    """(chain, pi, H, ascending spectrum of H) for markov-spectrum's random chains, N in 2..32."""
    chain = cli._random_reversible_chain(draw(st.integers(2, 32)),
                                         np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    pi = markov.stationary(chain)
    H = markov.chain_hamiltonian(chain, pi)
    return chain, pi, H, np.linalg.eigvalsh(H.entries)


class TestSqrtPiDeviation:
    @settings(max_examples=150, deadline=None)
    @given(reversible_chains())
    def test_bounds_the_dense_groundstate_deviation(self, instance):
        _, pi, H, spectrum = instance
        _, g = ground_state(H)
        dense = float(np.max(np.abs(np.abs(g.amplitudes) - np.sqrt(pi.pi))))
        assert dense - 1e-12 <= markov.sqrt_pi_deviation(H, pi, spectrum) <= 1e-8

    @settings(max_examples=50, deadline=None)
    @given(reversible_chains())
    def test_excited_eigenvector_gives_no_certificate(self, instance):
        _, pi, H, _ = instance
        flipped = DenseHermitian(-H.entries)  # |sqrt(pi)> is its top eigenvector
        assert markov.sqrt_pi_deviation(flipped, pi, np.linalg.eigvalsh(flipped.entries)) == math.inf

    @settings(max_examples=50, deadline=None)
    @given(reversible_chains(), st.integers(0, 2**32 - 1))
    def test_perturbed_sqrt_pi_is_flagged(self, instance, seed):
        _, pi, H, spectrum = instance
        v = np.sqrt(pi.pi)
        w = np.random.default_rng(seed).normal(size=v.size)
        w -= np.dot(w, v) / np.dot(v, v) * v
        u = v + 1e-6 * w / np.linalg.norm(w)
        perturbed = markov.StationaryDistribution(u**2 / np.sum(u**2))
        bound = markov.sqrt_pi_deviation(H, perturbed, spectrum)
        _, g = ground_state(H)
        ov = np.vdot(g.amplitudes, np.sqrt(perturbed.pi))
        assert bound >= np.linalg.norm(ov / abs(ov) * g.amplitudes - np.sqrt(perturbed.pi)) - 1e-12
        assert bound > 1e-8

    def test_one_state_chain(self):
        chain = markov.MarkovChain(np.ones((1, 1)))
        pi = markov.stationary(chain)
        H = markov.chain_hamiltonian(chain, pi)
        assert markov.sqrt_pi_deviation(H, pi, np.linalg.eigvalsh(H.entries)) == 0.0


class TestSecondGap:
    def test_uniform_walk(self):
        M = markov.MarkovChain(np.full((4, 4), 0.25))
        assert spectral_gap(markov.chain_hamiltonian(M)) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_value(self):
        # Eigenvalues {1, 0.7} by trace: 0.9 + 0.8 = 1 + lambda_2.
        assert spectral_gap(markov.chain_hamiltonian(TWO_STATE)) == pytest.approx(0.3, abs=1e-12)


class TestPiState:
    def test_point_mass(self):
        s = markov.pi_state(markov.StationaryDistribution(np.array([0.0, 1.0])))
        assert np.allclose(s.amplitudes, [0, 1])

    def test_uniform(self):
        s = markov.pi_state(markov.StationaryDistribution(np.full(4, 0.25)))
        assert np.allclose(s.amplitudes, 0.5)

    def test_pads_to_power_of_two(self):
        s = markov.pi_state(markov.StationaryDistribution(np.full(3, 1 / 3)))
        assert s.dim == 4
        assert s.amplitudes[3] == 0

    def test_matches_padded_groundstate(self):
        pi = markov.stationary(THREE_STATE)
        _, g = ground_state(padded_chain_hamiltonian(THREE_STATE, pi))
        assert np.allclose(np.abs(g.amplitudes),
                           np.abs(markov.pi_state(pi).amplitudes), atol=1e-8)


class TestMetropolis:
    def test_uniform_weights_symmetric(self):
        nb = [[1], [0, 2], [1]]
        M = markov.metropolis_chain([1.0, 1.0, 1.0], nb)
        assert np.allclose(M.transition, M.transition.T, atol=1e-12)
        assert np.allclose(markov.stationary(M).pi, 1 / 3, atol=1e-10)

    def test_detailed_balance(self):
        nb = [[1, 2], [0, 2], [0, 1]]
        M = markov.metropolis_chain([1.0, 2.0, 5.0], nb)
        pi = markov.stationary(M)
        assert markov.reversibility_residual(M, pi) < 1e-12

    def test_path_graph_weights(self):
        w = [1.0, 2.0, 3.0, 2.0, 1.0]
        nb = [[1], [0, 2], [1, 3], [2, 4], [3]]
        M = markov.metropolis_chain(w, nb)
        assert np.allclose(markov.stationary(M).pi, np.array(w) / sum(w), atol=1e-9)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            markov.metropolis_chain([1.0, 1.0], [[], []])

    def test_one_state_chain(self):
        assert np.array_equal(markov.metropolis_chain([2.0], [[]]).transition, [[1.0]])


def loop_metropolis_chain(w, neighbors):
    """The transition matrix `metropolis_chain` built with a Python loop over each row's neighbours."""
    w = np.asarray(w, dtype=float)
    N = w.size
    deg = max(len(nb) for nb in neighbors)
    P = np.zeros((N, N))
    for i, nb in enumerate(neighbors):
        for j in nb:
            P[i, j] += (1.0 / deg) * min(1.0, w[j] / w[i])
        P[i, i] += 1.0 - P[i].sum()
    return 0.5 * np.eye(N) + 0.5 * P


def loop_random_reversible_chain(N, rng):
    """`cli._random_reversible_chain` with one scalar draw per tree parent and list membership."""
    w = rng.uniform(0.2, 2.0, size=N)
    neighbors = [[] for _ in range(N)]
    for i in range(1, N):
        j = int(rng.integers(0, i))
        neighbors[i].append(j)
        neighbors[j].append(i)
    for _ in range(N):
        i, j = (int(v) for v in rng.integers(0, N, size=2))
        if i != j and j not in neighbors[i]:
            neighbors[i].append(j)
            neighbors[j].append(i)
    return loop_metropolis_chain(w, neighbors)


class TestChainsFromArrays:
    """The array-built chains against the loops they replaced: bit-identical matrices, the same random stream."""

    @pytest.mark.parametrize("N", range(2, 40))
    def test_random_reversible_chain(self, N):
        for seed in range(30):
            rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(cli._random_reversible_chain(N, rng).transition,
                                  loop_random_reversible_chain(N, loop_rng))
            assert rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_anneal_sequence(self, n):
        target = {(u, v) for u in range(n) for v in range(n)} - {(0, 0)}
        seq, space = markov.anneal_weights_sequence(n, target, 20, 0.7)
        neighbors = markov.matching_neighbors(space)
        for k, chain in enumerate(seq.chains):
            w = [markov.matching_weight(space, m, 0.7**k) for m in space.states]
            assert np.array_equal(chain.transition, loop_metropolis_chain(w, neighbors))

    def test_repeated_neighbour_counts_twice(self):
        nb = [[1, 1, 2], [0, 0], [0]]
        w = [1.0, 2.0, 0.5]
        assert np.array_equal(markov.metropolis_chain(w, nb).transition, loop_metropolis_chain(w, nb))


class TestSlowVariation:
    def test_constant_sequence(self):
        seq = markov.ChainSequence(chains=(TWO_STATE, TWO_STATE, TWO_STATE))
        rep = markov.check_slowly_varying(seq)
        assert np.allclose(rep.distances, 0.0)
        assert np.allclose(rep.fidelities, 1.0)
        assert rep.ok

    def test_fidelity_lower_bound(self):
        seq, _ = markov.anneal_weights_sequence(2, {(0, 1), (1, 0), (1, 1)}, 10, 0.7)
        rep = markov.check_slowly_varying(seq)
        assert np.all(rep.fidelities >= 1 - rep.distances - 1e-9)

    def test_threshold_violation_reported(self):
        far = markov.MarkovChain(np.array([[0.5, 0.5], [0.1, 0.9]]))
        seq = markov.ChainSequence(chains=(TWO_STATE, far), variation_threshold=0.01)
        rep = markov.check_slowly_varying(seq)
        assert not rep.ok


class TestQsampleSequence:
    def test_single_chain_returns_seed(self):
        pi = markov.stationary(TWO_STATE)
        seed = markov.pi_state(pi)
        seq = markov.ChainSequence(chains=(TWO_STATE,))
        rep = markov.qsample_sequence(seq, seed)
        assert rep.success_probability == pytest.approx(1.0)
        assert np.array_equal(rep.final_state.amplitudes, seed.amplitudes)

    def test_three_chain_interpolation(self):
        base = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
        nb = [[j for j in range(8) if j != i] for i in range(8)]
        chains = tuple(markov.metropolis_chain(base**(k / 2), nb) for k in range(3))
        seq = markov.ChainSequence(chains=chains, variation_threshold=0.6)
        seed = markov.pi_state(markov.stationary(chains[0]))
        rep = markov.qsample_sequence(seq, seed, mode="zeno", R=500)
        target = markov.pi_state(markov.stationary(chains[-1]))
        assert abs(state_overlap(rep.final_state, target)) >= 0.99

    def test_success_matches_overlap_product(self):
        base = np.array([1.0, 2.0, 1.0, 2.0])
        nb = [[j for j in range(4) if j != i] for i in range(4)]
        chains = tuple(markov.metropolis_chain(base**(k / 2), nb) for k in range(2))
        seq = markov.ChainSequence(chains=chains, variation_threshold=0.6)
        seed = markov.pi_state(markov.stationary(chains[0]))
        rep = markov.qsample_sequence(seq, seed, mode="zeno", R=50)
        assert rep.success_probability == pytest.approx(
            float(np.prod(rep.per_step_overlaps)), rel=1e-12)

    def test_wrong_seed_rejected(self):
        seq = markov.ChainSequence(chains=(TWO_STATE, TWO_STATE))
        with pytest.raises(ValueError):
            markov.qsample_sequence(seq, StateVector.basis(2, 1))

    def test_non_reversible_chain_rejected(self):
        # Doubly stochastic with a drift around the cycle: pi is uniform, flows are not symmetric.
        drift = markov.MarkovChain(np.array([[0.5, 0.4, 0.1], [0.1, 0.5, 0.4], [0.4, 0.1, 0.5]]))
        lazy = markov.MarkovChain(np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]))
        seq = markov.ChainSequence(chains=(lazy, drift))
        seed = markov.pi_state(markov.stationary(lazy))
        with pytest.raises(markov.NotReversibleError):
            markov.qsample_sequence(seq, seed)

    @pytest.mark.parametrize("n, target", [(2, {(0, 1), (1, 0), (1, 1)}),
                                           (3, {(u, v) for u in range(3) for v in range(3)} - {(0, 0)})])
    def test_targets_are_chain_groundstates(self, monkeypatch, n, target):
        seq, _ = markov.anneal_weights_sequence(n, target, 6, 0.7)
        seed, _ = markov.matchings_seed_qsample(n)
        seen = []
        jagged_path = markov.adiabatic.jagged_path
        monkeypatch.setattr(markov.adiabatic, "jagged_path",
                            lambda states: seen.append(states) or jagged_path(states))
        markov.qsample_sequence(seq, seed, mode="zeno", R=5)
        (targets,) = seen
        assert len(targets) == len(seq.chains)
        for c, got in zip(seq.chains, targets):
            _, want = ground_state(padded_chain_hamiltonian(c))
            phase = np.vdot(got.amplitudes, want.amplitudes)
            assert abs(abs(phase) - 1.0) <= 1e-10
            assert np.max(np.abs(want.amplitudes - phase * got.amplitudes)) <= 1e-10

    def test_schrodinger_mode_checks_the_condition_once(self, monkeypatch):
        seq, _ = markov.anneal_weights_sequence(2, {(0, 1), (1, 0), (1, 1)}, 3, 0.7)
        seed, _ = markov.matchings_seed_qsample(2)
        calls = []
        check = markov.adiabatic.check_adiabatic_condition
        monkeypatch.setattr(markov.adiabatic, "check_adiabatic_condition",
                            lambda *args, **kwargs: calls.append(args) or check(*args, **kwargs))
        markov.qsample_sequence(seq, seed, mode="schrodinger", eps=0.1, delta=0.2)
        assert len(calls) == 1

    def test_stationary_once_per_chain(self, monkeypatch):
        seq, _ = markov.anneal_weights_sequence(2, {(0, 1), (1, 0), (1, 1)}, 6, 0.7)
        seed, _ = markov.matchings_seed_qsample(2)
        calls = []
        stationary = markov.stationary
        monkeypatch.setattr(markov, "stationary", lambda c: calls.append(c) or stationary(c))
        markov.check_slowly_varying(seq)
        markov.qsample_sequence(seq, seed, mode="zeno", R=5)
        assert seq.pis[-1] is seq.pis[-1]
        assert len(calls) == len(seq.chains)


class TestMatchingSpace:
    def test_n1_counts(self):
        space = markov.matchings_space(1)
        assert space.N == 2
        assert len(space.perfect_indices()) == 1

    def test_n2_counts(self):
        space = markov.matchings_space(2)
        perfect = space.perfect_indices()
        assert len(perfect) == 2
        assert space.N - len(perfect) == 4

    def test_n3_counts(self):
        space = markov.matchings_space(3)
        perfect = space.perfect_indices()
        assert len(perfect) == 6
        assert space.N - len(perfect) == 18

    def test_counts_match_exhaustive_enumeration(self):
        # Oracle: enumerate subsets of the n*n edges directly.
        import itertools
        for n in (2, 3):
            edges = [(u, v) for u in range(n) for v in range(n)]
            found = set()
            for size in (n - 1, n):
                for sub in itertools.combinations(edges, size):
                    lefts = {u for u, _ in sub}
                    rights = {v for _, v in sub}
                    if len(lefts) == size and len(rights) == size:
                        found.add(frozenset(sub))
            space = markov.matchings_space(n)
            assert set(space.states) == found

    def test_neighbors_symmetric(self):
        space = markov.matchings_space(2)
        nb = markov.matching_neighbors(space)
        for i, js in enumerate(nb):
            for j in js:
                assert i in nb[j]


class TestSeedQsample:
    def test_n1_amplitudes(self):
        state, space = markov.matchings_seed_qsample(1)
        amps = np.abs(state.amplitudes[: space.N]) ** 2
        assert np.allclose(amps, 0.5, atol=1e-12)

    def test_n2_perfect_mass(self):
        state, space = markov.matchings_seed_qsample(2)
        _, p = markov.project_perfect(state, space)
        assert p == pytest.approx(0.2, abs=1e-9)

    def test_matches_direct_amplitude_oracle(self):
        for n in (1, 2, 3):
            state, space = markov.matchings_seed_qsample(n)
            want = direct_seed_amplitudes(space)
            assert np.allclose(state.amplitudes[: space.N].real, want, atol=1e-10)
            assert np.allclose(state.amplitudes[space.N:], 0.0)


class TestAnnealSequence:
    def test_complete_target_is_constant(self):
        seq, _ = markov.anneal_weights_sequence(2, None, 5, 0.7)
        first = seq.chains[0].transition
        for c in seq.chains[1:]:
            assert np.allclose(c.transition, first, atol=1e-12)

    def test_variation_distances_bounded(self):
        target = {(0, 1), (1, 0), (1, 1)}
        seq, _ = markov.anneal_weights_sequence(2, target, 20, 0.7)
        rep = markov.check_slowly_varying(seq)
        assert rep.ok
        assert np.max(rep.distances) <= 0.5

    def test_final_off_target_mass_decays(self):
        target = {(0, 1), (1, 0), (1, 1)}
        masses = []
        for steps in (5, 10, 20):
            seq, space = markov.anneal_weights_sequence(2, target, steps, 0.7)
            pi = markov.stationary(seq.chains[-1]).pi
            off = sum(pi[i] for i, m in enumerate(space.states)
                      if any(e not in space.target_edges for e in m))
            lam = 0.7**steps
            masses.append(off)
            assert off <= 10 * lam / (1 + lam)
        assert masses[0] > masses[1] > masses[2]

    def test_no_perfect_matching_rejected(self):
        with pytest.raises(ValueError):
            markov.anneal_weights_sequence(2, {(0, 0), (0, 1)}, 5, 0.7)


class TestProjectPerfect:
    def test_all_perfect_state(self):
        space = markov.matchings_space(2)
        amps = np.zeros(markov._next_pow2(space.N), dtype=complex)
        for i in space.perfect_indices():
            amps[i] = 1.0
        state = StateVector.from_amplitudes(amps)
        post, p = markov.project_perfect(state, space)
        assert np.allclose(post.amplitudes, state.amplitudes)
        assert p == pytest.approx(1.0)

    def test_post_state_uniform_over_target_perfect(self):
        target = {(0, 1), (1, 0), (1, 1)}
        seq, space = markov.anneal_weights_sequence(2, target, 20, 0.7)
        seed, _ = markov.matchings_seed_qsample(2)
        rep = markov.qsample_sequence(seq, seed, mode="zeno", R=500)
        post, _ = markov.project_perfect(rep.final_state, space)
        tgt = [i for i in space.perfect_indices()
               if all(e in space.target_edges for e in space.states[i])]
        mags = np.abs(post.amplitudes[tgt])
        assert np.max(mags) - np.min(mags) < 1e-8
