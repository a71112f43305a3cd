"""Chain-to-Hamiltonian correspondence and the matchings Qsampling pipeline."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiagen import cli, markov
from adiagen.qcore import DenseHermitian, StateVector, ground_state, spectral_gap, state_overlap
from dense_references import direct_seed_amplitudes, oracle_chain, padded_chain_hamiltonian, stationary

TWO_STATE = oracle_chain([[0.9, 0.1], [0.2, 0.8]])
THREE_STATE = oracle_chain([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])


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
        P = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        assert np.allclose(stationary(P), 1 / 3)

    def test_two_state_chain(self):
        assert np.allclose(stationary(TWO_STATE.transition), [2 / 3, 1 / 3], atol=1e-12)

    def test_matches_power_iteration(self):
        pi = stationary(THREE_STATE.transition)
        assert np.allclose(pi, power_iteration_stationary(THREE_STATE.transition), atol=1e-8)

    def test_reducible_chain_rejected(self):
        with pytest.raises(markov.NotErgodicError):
            stationary(np.eye(2))


class TestChainHamiltonian:
    def test_symmetric_chain(self):
        M = oracle_chain([[0.7, 0.3], [0.3, 0.7]])
        H = markov.chain_hamiltonian(M)
        assert np.allclose(H, np.eye(2) - M.transition, atol=1e-12)

    def test_two_state_groundstate(self):
        val, vec = ground_state(DenseHermitian(markov.chain_hamiltonian(TWO_STATE)))
        assert val == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(np.abs(vec.amplitudes),
                           [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-10)

    def test_spectrum_correspondence(self):
        hvals = np.linalg.eigvalsh(markov.chain_hamiltonian(THREE_STATE))
        mvals = np.sort(1 - np.linalg.eigvals(THREE_STATE.transition).real)
        assert np.allclose(hvals, mvals, atol=1e-9)

    def test_irreversible_chain_rejected(self):
        # The cycle's stationary distribution is uniform, and its flows all run one way.
        with pytest.raises(markov.NotReversibleError):
            oracle_chain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@st.composite
def reversible_chains(draw):
    """(chain, pi, H, ascending spectrum of H) for markov-spectrum's random chains, N in 2..32."""
    chain = cli._random_reversible_chain(draw(st.integers(2, 32)),
                                         np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    H = markov.chain_hamiltonian(chain)
    return chain, chain.pi, H, np.linalg.eigvalsh(H)


class TestSqrtPiDeviation:
    @settings(max_examples=150, deadline=None)
    @given(reversible_chains())
    def test_bounds_the_dense_groundstate_deviation(self, instance):
        _, pi, H, spectrum = instance
        _, g = ground_state(DenseHermitian(H))
        dense = float(np.max(np.abs(np.abs(g.amplitudes) - np.sqrt(pi))))
        assert dense - 1e-12 <= markov.sqrt_pi_deviation(H, pi, spectrum) <= 1e-8

    @settings(max_examples=50, deadline=None)
    @given(reversible_chains())
    def test_excited_eigenvector_gives_no_certificate(self, instance):
        _, pi, H, _ = instance
        flipped = -H  # |sqrt(pi)> is its top eigenvector
        assert markov.sqrt_pi_deviation(flipped, pi, np.linalg.eigvalsh(flipped)) == math.inf

    @settings(max_examples=50, deadline=None)
    @given(reversible_chains(), st.integers(0, 2**32 - 1))
    def test_perturbed_sqrt_pi_is_flagged(self, instance, seed):
        _, pi, H, spectrum = instance
        v = np.sqrt(pi)
        w = np.random.default_rng(seed).normal(size=v.size)
        w -= np.dot(w, v) / np.dot(v, v) * v
        u = v + 1e-6 * w / np.linalg.norm(w)
        perturbed = u**2 / np.sum(u**2)
        bound = markov.sqrt_pi_deviation(H, perturbed, spectrum)
        _, g = ground_state(DenseHermitian(H))
        ov = np.vdot(g.amplitudes, np.sqrt(perturbed))
        assert bound >= np.linalg.norm(ov / abs(ov) * g.amplitudes - np.sqrt(perturbed)) - 1e-12
        assert bound > 1e-8

    def test_one_state_chain(self):
        chain = oracle_chain(np.ones((1, 1)))
        H = markov.chain_hamiltonian(chain)
        assert markov.sqrt_pi_deviation(H, chain.pi, np.linalg.eigvalsh(H)) == 0.0


class TestClosedFormPi:
    """pi = w / sum(w), carried by each Metropolis chain, against the SVD oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 32), st.integers(0, 2**32 - 1))
    def test_random_chain_matches_the_oracle(self, N, seed):
        chain = cli._random_reversible_chain(N, np.random.default_rng(seed))
        assert np.max(np.abs(chain.pi - stationary(chain.transition))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 20))
    def test_anneal_chain_matches_the_oracle(self, n, k):
        target = {(u, v) for u in range(n) for v in range(n)} - {(0, 0)}
        chain = markov.anneal_weights_sequence(markov.matchings_space(n), target, 20, 0.7)[k]
        assert np.max(np.abs(chain.pi - stationary(chain.transition))) <= 1e-12


class TestCertificate:
    def test_wrong_pi_raises_not_ergodic(self):
        # Two states joined by eps: pi off by 1e-3 leaves a flow residual of 2e-9, under the
        # detailed-balance tolerance, so the chain is built; the certificate then refuses it.
        eps = 1e-6
        P = np.array([[1 - eps, eps], [eps, 1 - eps]])
        chain = markov.MarkovChain(P, [0.501, 0.499])
        with pytest.raises(markov.NotErgodicError, match="not H_M's groundstate"):
            chain.gap
        assert oracle_chain(P).gap == pytest.approx(2 * eps, rel=1e-6)

    def test_reducible_chain_raises_not_ergodic(self):
        lazy = np.array([[0.5, 0.5], [0.5, 0.5]])
        P = np.block([[lazy, np.zeros((2, 2))], [np.zeros((2, 2)), lazy]])
        chain = markov.MarkovChain(P, np.full(4, 0.25))
        with pytest.raises(markov.NotErgodicError, match="not simple"):
            chain.gap
        with pytest.raises(markov.NotErgodicError):
            markov.qsample_sequence((chain, chain), markov.pi_state(chain.pi), 5)

    def test_zero_stationary_mass_raises_not_ergodic(self):
        chain = markov.MarkovChain(np.array([[1.0, 0.0], [0.5, 0.5]]), [1.0, 0.0])
        with pytest.raises(markov.NotErgodicError, match="zero stationary mass"):
            chain.gap

    def test_one_state_chain_has_infinite_gap(self):
        assert markov.metropolis_chain([2.0], [[]]).gap == math.inf

    @pytest.mark.parametrize("n, want", [(2, 0.2500), (3, 0.1520), (4, 0.1180)])
    def test_min_chain_gap_matches_dense_eigvalsh(self, n, want):
        report = cli.run({"command": "matchings-qsample", "seed": 1, "n": n})
        chains = markov.anneal_weights_sequence(
            markov.matchings_space(n), {(u, v) for u in range(n) for v in range(n)} - {(0, 0)}, 20, 0.7)
        dense = min(float(spectral_gap(DenseHermitian(markov.chain_hamiltonian(oracle_chain(c.transition)))))
                    for c in chains)
        assert report.scalars["min_chain_gap"] == pytest.approx(dense, abs=1e-12)
        assert report.scalars["min_chain_gap"] == pytest.approx(want, abs=5e-5)


class TestNonFiniteInputs:
    def test_nan_transition_rejected(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            markov.MarkovChain(np.array([[np.nan, 0.5], [0.5, 0.5]]), [0.5, 0.5])

    def test_nan_distribution_rejected(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            markov.MarkovChain(np.full((2, 2), 0.5), [np.nan, 0.5])

    @pytest.mark.parametrize("pi, named", [([1.5, -0.5], "negative probability"), ([0.5, 0.6], "must sum to 1"),
                                           ([1.0], "one entry per state"), ([[0.5, 0.5]], "one entry per state")],
                             ids=["negative", "sum", "length", "2-d"])
    def test_bad_distribution_rejected(self, pi, named):
        with pytest.raises(ValueError, match=named):
            markov.MarkovChain(np.full((2, 2), 0.5), pi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            markov.metropolis_chain([1.0, bad], [[1], [0]])


class TestSecondGap:
    def test_uniform_walk(self):
        M = oracle_chain(np.full((4, 4), 0.25))
        assert spectral_gap(markov.chain_hamiltonian(M)) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_value(self):
        # Eigenvalues {1, 0.7} by trace: 0.9 + 0.8 = 1 + lambda_2.
        assert spectral_gap(markov.chain_hamiltonian(TWO_STATE)) == pytest.approx(0.3, abs=1e-12)


class TestPiState:
    def test_point_mass(self):
        s = markov.pi_state(np.array([0.0, 1.0]))
        assert np.allclose(s.amplitudes, [0, 1])

    def test_uniform(self):
        s = markov.pi_state(np.full(4, 0.25))
        assert np.allclose(s.amplitudes, 0.5)

    def test_pads_to_power_of_two(self):
        s = markov.pi_state(np.full(3, 1 / 3))
        assert s.dim == 4
        assert s.amplitudes[3] == 0

    def test_matches_padded_groundstate(self):
        _, g = ground_state(padded_chain_hamiltonian(THREE_STATE))
        assert np.allclose(np.abs(g.amplitudes),
                           np.abs(markov.pi_state(THREE_STATE.pi).amplitudes), atol=1e-8)


class TestMetropolis:
    def test_uniform_weights_symmetric(self):
        nb = [[1], [0, 2], [1]]
        M = markov.metropolis_chain([1.0, 1.0, 1.0], nb)
        assert np.allclose(M.transition, M.transition.T, atol=1e-12)
        assert np.allclose(stationary(M.transition), 1 / 3, atol=1e-10)
        assert np.allclose(M.pi, 1 / 3, atol=1e-15)

    def test_detailed_balance(self):
        nb = [[1, 2], [0, 2], [0, 1]]
        M = markov.metropolis_chain([1.0, 2.0, 5.0], nb)
        assert markov.reversibility_residual(M) < 1e-12
        assert markov.reversibility_residual(markov.MarkovChain(M.transition, stationary(M.transition))) < 1e-12

    def test_path_graph_weights(self):
        w = [1.0, 2.0, 3.0, 2.0, 1.0]
        nb = [[1], [0, 2], [1, 3], [2, 4], [3]]
        M = markov.metropolis_chain(w, nb)
        assert np.allclose(stationary(M.transition), np.array(w) / sum(w), atol=1e-9)
        assert np.allclose(M.pi, np.array(w) / sum(w), atol=1e-15)

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


def matching_weight(space, target, m, activity):
    """n^{[near-perfect]} * activity^{#edges outside the target graph}, one matching at a time."""
    off = sum(1 for e in m if e not in target)
    base = float(space.n) if not space.is_perfect(m) else 1.0
    return base * activity**off


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
        space = markov.matchings_space(n)
        neighbors = markov.matching_neighbors(space)
        for k, chain in enumerate(markov.anneal_weights_sequence(space, target, 20, 0.7)):
            w = [matching_weight(space, target, m, 0.7**k) for m in space.states]
            assert np.array_equal(chain.transition, loop_metropolis_chain(w, neighbors))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("target", ["one edge removed", "a cycle and the diagonal"])
    def test_anneal_weights_match_the_per_state_formula(self, n, target, monkeypatch):
        """Bit for bit, also where a matching has several edges outside the target graph."""
        if target == "one edge removed":
            target = {(u, v) for u in range(n) for v in range(n)} - {(0, 0)}
        else:
            target = {(u, u) for u in range(n)} | {(u, (u + 1) % n) for u in range(n)}
        space = markov.matchings_space(n)
        seen = []
        monkeypatch.setattr(markov, "metropolis_chain", lambda w, neighbors: seen.append(w))
        markov.anneal_weights_sequence(space, target, 400, 0.7)
        assert len(seen) == 401
        for k, w in enumerate(seen):
            assert np.array_equal(w, [matching_weight(space, target, m, 0.7**k) for m in space.states])

    def test_repeated_neighbour_counts_twice(self):
        nb = [[1, 1, 2], [0, 0], [0]]
        w = [1.0, 2.0, 0.5]
        assert np.array_equal(markov.metropolis_chain(w, nb).transition, loop_metropolis_chain(w, nb))


class TestSlowVariation:
    def test_constant_sequence(self):
        assert markov.check_slowly_varying((TWO_STATE, TWO_STATE, TWO_STATE)) == ()

    def test_fidelity_lower_bound(self, monkeypatch):
        chains = markov.anneal_weights_sequence(markov.matchings_space(2), {(0, 1), (1, 0), (1, 1)}, 10, 0.7)
        assert markov.check_slowly_varying(chains) == ()
        # A distance of 0 hides each step's change, so every fidelity falls below 1 - distance.
        monkeypatch.setattr(markov, "variation_distance", lambda p, q: 0.0)
        with pytest.raises(AssertionError, match="fidelity bound violated at step 0"):
            markov.check_slowly_varying(chains)

    def test_threshold_violation_reported(self):
        far = oracle_chain([[0.1, 0.9], [0.01, 0.99]])  # pi = (1, 90) / 91, at distance 0.66 from TWO_STATE's
        assert markov.variation_distance(TWO_STATE.pi, far.pi) > markov.VARIATION_THRESHOLD
        assert markov.check_slowly_varying((TWO_STATE, far, far, TWO_STATE)) == (0, 2)


class TestQsampleSequence:
    def test_single_chain_returns_seed(self):
        seed = markov.pi_state(TWO_STATE.pi)
        rep = markov.qsample_sequence((TWO_STATE,), seed, 500)
        assert rep.success_probability == pytest.approx(1.0)
        assert np.array_equal(rep.final_state.amplitudes, seed.amplitudes)

    def test_three_chain_interpolation(self):
        base = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
        nb = [[j for j in range(8) if j != i] for i in range(8)]
        chains = tuple(markov.metropolis_chain(base**(k / 2), nb) for k in range(3))
        seed = markov.pi_state(chains[0].pi)
        rep = markov.qsample_sequence(chains, seed, 500)
        target = markov.pi_state(stationary(chains[-1].transition))
        assert abs(state_overlap(rep.final_state, target)) >= 0.99

    def test_success_matches_overlap_product(self):
        base = np.array([1.0, 2.0, 1.0, 2.0])
        nb = [[j for j in range(4) if j != i] for i in range(4)]
        chains = tuple(markov.metropolis_chain(base**(k / 2), nb) for k in range(2))
        seed = markov.pi_state(chains[0].pi)
        rep = markov.qsample_sequence(chains, seed, 50)
        assert rep.success_probability == pytest.approx(
            float(np.prod(rep.per_step_overlaps)), rel=1e-12)

    def test_wrong_seed_rejected(self):
        with pytest.raises(ValueError, match="seed state does not match"):
            markov.qsample_sequence((TWO_STATE, TWO_STATE), StateVector.basis(2, 1), 500)

    def test_chains_on_different_state_spaces_rejected(self):
        with pytest.raises(ValueError, match="share a state space"):
            markov.qsample_sequence((TWO_STATE, THREE_STATE), markov.pi_state(TWO_STATE.pi), 500)

    def test_non_reversible_chain_rejected(self):
        # Doubly stochastic with a drift around the cycle: pi is uniform, flows are not symmetric,
        # so the chain is refused when it is built, before any sequence can hold it.
        with pytest.raises(markov.NotReversibleError):
            oracle_chain([[0.5, 0.4, 0.1], [0.1, 0.5, 0.4], [0.4, 0.1, 0.5]])

    @pytest.mark.parametrize("n, target", [(2, {(0, 1), (1, 0), (1, 1)}),
                                           (3, {(u, v) for u in range(3) for v in range(3)} - {(0, 0)})])
    def test_targets_are_chain_groundstates(self, monkeypatch, n, target):
        seed, space = markov.matchings_seed_qsample(n)
        chains = markov.anneal_weights_sequence(space, target, 6, 0.7)
        seen = []
        jagged_path = markov.adiabatic.jagged_path
        monkeypatch.setattr(markov.adiabatic, "jagged_path",
                            lambda states: seen.append(states) or jagged_path(states))
        markov.qsample_sequence(chains, seed, 5)
        (targets,) = seen
        assert len(targets) == len(chains)
        for c, got in zip(chains, targets):
            _, want = ground_state(padded_chain_hamiltonian(c))
            phase = np.vdot(got.amplitudes, want.amplitudes)
            assert abs(abs(phase) - 1.0) <= 1e-10
            assert np.max(np.abs(want.amplitudes - phase * got.amplitudes)) <= 1e-10

    def test_certificate_once_per_chain(self, monkeypatch):
        seed, space = markov.matchings_seed_qsample(2)
        chains = markov.anneal_weights_sequence(space, {(0, 1), (1, 0), (1, 1)}, 6, 0.7)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        markov.check_slowly_varying(chains)
        markov.qsample_sequence(chains, seed, 5)
        assert min(c.gap for c in chains) > 0  # the minimum matchings-qsample reports
        assert calls == [(6, 6)] * len(chains)


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
        chains = markov.anneal_weights_sequence(markov.matchings_space(2), {(0, 0), (0, 1), (1, 0), (1, 1)}, 5, 0.7)
        first = chains[0].transition
        for c in chains[1:]:
            assert np.allclose(c.transition, first, atol=1e-12)

    def test_variation_distances_bounded(self):
        target = {(0, 1), (1, 0), (1, 1)}
        chains = markov.anneal_weights_sequence(markov.matchings_space(2), target, 20, 0.7)
        assert markov.check_slowly_varying(chains) == ()
        pis = [c.pi for c in chains]
        assert max(markov.variation_distance(p, q) for p, q in zip(pis, pis[1:])) <= 0.5

    def test_final_off_target_mass_decays(self):
        target = {(0, 1), (1, 0), (1, 1)}
        masses = []
        for steps in (5, 10, 20):
            space = markov.matchings_space(2)
            pi = markov.anneal_weights_sequence(space, target, steps, 0.7)[-1].pi
            off = sum(pi[i] for i, m in enumerate(space.states) if not m <= target)
            lam = 0.7**steps
            masses.append(off)
            assert off <= 10 * lam / (1 + lam)
        assert masses[0] > masses[1] > masses[2]

    def test_no_perfect_matching_rejected(self):
        with pytest.raises(ValueError):
            markov.anneal_weights_sequence(markov.matchings_space(2), {(0, 0), (0, 1)}, 5, 0.7)


class TestProjectPerfect:
    def test_all_perfect_state(self):
        space = markov.matchings_space(2)
        amps = np.zeros(8, dtype=complex)
        for i in space.perfect_indices():
            amps[i] = 1.0
        state = StateVector.from_amplitudes(amps)
        post, p = markov.project_perfect(state, space)
        assert np.allclose(post.amplitudes, state.amplitudes)
        assert p == pytest.approx(1.0)

    def test_no_perfect_mass_rejected_by_name(self):
        space = markov.matchings_space(2)
        near = next(i for i, m in enumerate(space.states) if not space.is_perfect(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="perfect-matching outcome has probability 0"):
                markov.project_perfect(StateVector.basis(8, near), space)

    def test_post_state_uniform_over_target_perfect(self):
        target = {(0, 1), (1, 0), (1, 1)}
        seed, space = markov.matchings_seed_qsample(2)
        rep = markov.qsample_sequence(markov.anneal_weights_sequence(space, target, 20, 0.7), seed, 500)
        post, _ = markov.project_perfect(rep.final_state, space)
        tgt = [i for i in space.perfect_indices() if space.states[i] <= target]
        mags = np.abs(post.amplitudes[tgt])
        assert np.max(mags) - np.min(mags) < 1e-8
