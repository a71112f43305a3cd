"""Paths, the adiabatic condition, Zeno evolution, QPE, and the compiler."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiagen import adiabatic
from adiagen.qcore import (
    DegenerateGroundstateError,
    DenseHermitian,
    DimensionMismatchError,
    StateVector,
    ground_state,
    matrix_exponential,
    spectral_gap,
    spectral_norm,
    state_overlap,
)
from dense_references import condition_reference, path_hamiltonian, perturbation_bound_pair

INV_SQRT2 = 1 / math.sqrt(2)


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.from_amplitudes(v)


def state_pair_with_overlap(overlap, dim=2):
    a = np.zeros(dim, dtype=complex)
    a[0] = 1.0
    b = np.zeros(dim, dtype=complex)
    b[0] = overlap
    b[1] = math.sqrt(1 - overlap**2)
    return StateVector(a), StateVector(b)


class TestGapFormula:
    def test_identical_states(self):
        assert adiabatic.two_projector_gap_formula(1.0, 0.5) == pytest.approx(1.0)

    def test_orthogonal_at_midpoint(self):
        assert adiabatic.two_projector_gap_formula(0.0, 0.5) == pytest.approx(0.0)

    def test_explicit_value(self):
        # |<a|b>| = 0.8, eta = 0.3: sqrt(1 - 4*0.3*0.7*0.36).
        got = adiabatic.two_projector_gap_formula(0.8, 0.3)
        assert got == pytest.approx(math.sqrt(1 - 4 * 0.3 * 0.7 * 0.36), abs=1e-12)
        assert got >= 0.8

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_state(5, rng)
            b = random_state(5, rng)
            eta = float(rng.uniform(0.05, 0.95))
            H = DenseHermitian(
                (1 - eta) * adiabatic.projector_hamiltonian(a).entries
                + eta * adiabatic.projector_hamiltonian(b).entries)
            want = adiabatic.two_projector_gap_formula(abs(state_overlap(a, b)), eta)
            assert spectral_gap(H) == pytest.approx(want, abs=1e-10)

    def test_segment_min_gap_is_overlap(self):
        etas = np.linspace(0.01, 0.99, 99)
        gaps = [adiabatic.two_projector_gap_formula(0.63, e) for e in etas]
        assert min(gaps) == pytest.approx(0.63, abs=1e-12)


class TestJaggedPath:
    def test_single_state_constant(self):
        psi = StateVector.basis(4, 1)
        path = adiabatic.jagged_path([psi])
        assert np.allclose(path_hamiltonian(path, 0.3).entries,
                           adiabatic.projector_hamiltonian(psi).entries)

    def test_two_state_min_gap(self):
        a, b = state_pair_with_overlap(0.71)
        path = adiabatic.jagged_path([a, b])
        gaps = [spectral_gap(path_hamiltonian(path, s)) for s in np.linspace(0, 1, 101)]
        assert min(gaps) == pytest.approx(0.71, abs=1e-9)

    def test_three_state_gap_floor(self):
        rng = np.random.default_rng(9)
        states = [random_state(4, rng) for _ in range(3)]
        floor = min(abs(state_overlap(x, y)) for x, y in zip(states, states[1:]))
        path = adiabatic.jagged_path(states)
        gaps = [spectral_gap(path_hamiltonian(path, s)) for s in np.linspace(0, 1, 101)]
        assert min(gaps) >= floor - 1e-9

    def test_orthogonal_states_rejected(self):
        with pytest.raises(adiabatic.DisconnectedPathError):
            adiabatic.jagged_path([StateVector.basis(2, 0), StateVector.basis(2, 1)])


def jagged_states(draw, N, L):
    """L random states in dim N, some a phase times the one before."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [random_state(N, rng)]
    for coincident in draw(st.lists(st.booleans(), min_size=L - 1, max_size=L - 1)):
        if coincident:
            phase = np.exp(1j * draw(st.floats(-math.pi, math.pi)))
            states.append(StateVector.from_amplitudes(phase * states[-1].amplitudes))
        else:
            states.append(random_state(N, rng))
    return states, rng


@st.composite
def jagged_instances(draw):
    """(states, s): N in 2..16, L in 1..5, some states a phase times the one before."""
    L = draw(st.integers(1, 5))
    states, _ = jagged_states(draw, draw(st.integers(2, 16)), L)
    s = draw(st.one_of(st.sampled_from([j / max(L - 1, 1) for j in range(L)] + [0.0, 1.0]),
                       st.floats(0.0, 1.0)))
    return states, s


class TestPathClosedForms:
    """Every closed-form path method against the dense H(s) = path_hamiltonian(path, s)."""

    @settings(max_examples=400, deadline=None)
    @given(jagged_instances())
    def test_matches_dense_oracle(self, instance):
        states, s = instance
        path = adiabatic.jagged_path(states)
        H = path_hamiltonian(path, s)
        assert abs(state_overlap(path.ground_state(s), ground_state(H)[1])) >= 1 - 1e-10
        assert abs(path.gap(s) - spectral_gap(H)) <= 1e-10
        L = len(states)
        if L == 1:
            want = 0.0
        else:
            j = min(int(s * (L - 1)), L - 2)
            want = (L - 1) * spectral_norm(adiabatic.projector_hamiltonian(states[j + 1]).entries
                                           - adiabatic.projector_hamiltonian(states[j]).entries)
        assert abs(path.derivative_norm(s) - want) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(jagged_instances(), st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=20))
    def test_array_argument_gives_each_points_value(self, instance, grid):
        path = adiabatic.jagged_path(instance[0])
        grid = np.array(grid)
        assert path.gap(grid).tolist() == [path.gap(s) for s in grid.tolist()]
        assert path.derivative_norm(grid).tolist() == [path.derivative_norm(s) for s in grid.tolist()]


@st.composite
def frame_instances(draw):
    """(path, psi0): L in 2..8, N in 2..64, some states a phase times the one before (a frame of
    zero width), psi0 the first state or that plus 1e-4 times a unit vector off the path's span."""
    N, L = draw(st.integers(2, 64)), draw(st.integers(2, 8))
    states, rng = jagged_states(draw, N, L)
    psi0 = states[0].amplitudes
    if draw(st.booleans()):
        # off every state when L < N; else off the first, where the frames still cover part of it
        span = np.linalg.qr(np.array([a.amplitudes for a in states[:N - 1]]).T)[0]
        w = random_state(N, rng).amplitudes
        w = w - span @ (span.conj().T @ w)
        psi0 = psi0 + 1e-4 * w / np.linalg.norm(w)
    return adiabatic.jagged_path(states), StateVector.from_amplitudes(psi0)


def dense_ground(path, s: float) -> np.ndarray:
    return ground_state(path_hamiltonian(path, s))[1].amplitudes


class TestFrameEngine:
    """The per-segment 2x2 routes against dense H(s) from path_hamiltonian."""

    @settings(max_examples=60, deadline=None)
    @given(frame_instances(), st.floats(0.5, 8.0), st.integers(1, 40))
    def test_evolve_discretized_matches_dense_steps(self, instance, T, steps):
        path, psi0 = instance
        rep = adiabatic.evolve_discretized(path, T, T / steps, psi0)
        assert len(rep.per_step_overlaps) == steps
        psi = psi0.amplitudes
        for k in range(steps):
            s = (k + 0.5) / steps
            psi = matrix_exponential(path_hamiltonian(path, s), T / steps).entries @ psi
            assert abs(rep.per_step_overlaps[k] - abs(np.vdot(dense_ground(path, s), psi)) ** 2) <= 1e-10
        assert np.max(np.abs(rep.final_state.amplitudes - psi)) <= 1e-10
        assert abs(rep.success_probability - abs(np.vdot(dense_ground(path, 1.0), psi)) ** 2) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(frame_instances(), st.integers(1, 24))
    def test_zeno_matches_dense_groundstates(self, instance, R):
        path = instance[0]
        rep = adiabatic.zeno_evolve(path, R)
        grounds = [dense_ground(path, j / R) for j in range(R + 1)]
        want = [abs(np.vdot(g, h)) ** 2 for g, h in zip(grounds, grounds[1:])]
        assert np.max(np.abs(rep.per_step_overlaps - want)) <= 1e-10
        assert abs(rep.success_probability - np.prod(want)) <= 1e-10
        assert abs(np.vdot(rep.final_state.amplitudes, grounds[-1])) >= 1 - 1e-10

    @settings(max_examples=100, deadline=None)
    @given(frame_instances())
    def test_condition_equals_pointwise_reference(self, instance):
        path = instance[0]
        assert adiabatic.check_adiabatic_condition(path) == condition_reference(path)


class TestAdiabaticCondition:
    def test_constant_path(self):
        path = adiabatic.jagged_path([StateVector.basis(2, 0)])
        rep = adiabatic.check_adiabatic_condition(path)
        assert rep.max_derivative_norm == pytest.approx(0.0, abs=1e-9)
        assert 0.1 * 0.01 >= rep.max_ratio

    def test_linear_segment_derivative(self):
        a, b = state_pair_with_overlap(0.9)
        H0 = adiabatic.projector_hamiltonian(a)
        H1 = adiabatic.projector_hamiltonian(b)
        path = adiabatic.jagged_path([a, b])
        rep = adiabatic.check_adiabatic_condition(path)
        assert rep.max_derivative_norm == pytest.approx(
            spectral_norm(H1.entries - H0.entries), abs=1e-6)

    def test_compiled_path_derivative_bound(self):
        gates = adiabatic.GateSequence(n=2, gates=(("H", (0,)), ("X", (1,))))
        path = adiabatic.compile_circuit(gates, "00")
        rep = adiabatic.check_adiabatic_condition(path)
        m_prime = 2 * len(gates.gates)
        assert rep.max_derivative_norm <= 2 * m_prime + 1e-6


class TestEvolveDiscretized:
    def test_constant_path_preserves_state(self):
        psi = StateVector.basis(2, 0)
        path = adiabatic.jagged_path([psi])
        rep = adiabatic.evolve_discretized(path, 5.0, 0.1, psi)
        assert rep.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_overlap_09_path_reaches_target(self):
        a, b = state_pair_with_overlap(0.9)
        path = adiabatic.jagged_path([a, b])
        cond = adiabatic.check_adiabatic_condition(path)
        T = cond.max_ratio / 0.01
        rep = adiabatic.evolve_discretized(path, T, 0.02, a)
        assert rep.success_probability >= 0.99

    def test_fidelity_improves_with_T(self):
        a, b = state_pair_with_overlap(0.8)
        path = adiabatic.jagged_path([a, b])
        fids = []
        for T in (2.0, 8.0, 32.0, 128.0):
            rep = adiabatic.evolve_discretized(path, T, 0.02, a)
            fids.append(rep.success_probability)
        assert fids[-1] > fids[0]
        assert fids[-1] >= 0.99

    def test_wrong_initial_state_rejected(self):
        a, b = state_pair_with_overlap(0.9, dim=4)
        path = adiabatic.jagged_path([a, b])
        with pytest.raises(ValueError):
            adiabatic.evolve_discretized(path, 1.0, 0.1, StateVector.basis(4, 3))

    @pytest.mark.parametrize("T, delta, named", [(0.0, 0.1, "T"), (-1.0, 0.1, "T"), (math.nan, 0.1, "T"),
                                                 (1.0, 0.0, "delta"), (1.0, -0.1, "delta")])
    def test_non_positive_time_or_step_rejected_by_name(self, T, delta, named):
        a, b = state_pair_with_overlap(0.9)
        path = adiabatic.jagged_path([a, b])
        with pytest.raises(ValueError, match=f"^{named} must be positive"):
            adiabatic.evolve_discretized(path, T, delta, a)


class TestPhaseEstimation:
    def make_h(self, rng, dim=4):
        """Random eigenbasis over a fixed well-gapped spectrum."""
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        Q, _ = np.linalg.qr(A)
        vals = np.linspace(0.0, 2.0, dim)
        vals[1] = 0.5  # keep the gap away from both 0 and the rest
        return DenseHermitian((Q * vals) @ Q.conj().T)

    def test_groundstate_input_reads_ground(self):
        rng = np.random.default_rng(51)
        H = self.make_h(rng)
        _, alpha = ground_state(H)
        hits = sum(adiabatic.phase_estimation_project(H, alpha, 8, rng)[0] == 0
                   for _ in range(200))
        assert hits >= 198

    def test_orthogonal_input_reads_excited(self):
        rng = np.random.default_rng(52)
        H = self.make_h(rng)
        dec = np.linalg.eigh(H.entries)
        psi = StateVector.from_amplitudes(dec.eigenvectors[:, -1])
        hits = sum(adiabatic.phase_estimation_project(H, psi, 10, rng)[0] == 1
                   for _ in range(200))
        assert hits >= 198

    def test_outcome_statistics_match_projector_oracle(self):
        rng = np.random.default_rng(53)
        H = self.make_h(rng)
        _, alpha = ground_state(H)
        rest = np.linalg.eigh(H.entries)[1][:, 1]
        psi = StateVector.from_amplitudes(
            0.8 * alpha.amplitudes + 0.6 * rest)
        shots = 10_000
        hits = sum(adiabatic.phase_estimation_project(H, psi, 10, rng)[0] == 0
                   for _ in range(shots))
        p = 0.64  # exact projector oracle: |<alpha|psi>|^2
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(hits / shots - p) <= 3 * sigma + 0.01

    def test_insufficient_precision_raises(self):
        H = DenseHermitian(np.diag([0.0, 1e-3, 1.0]))
        with pytest.raises(adiabatic.InsufficientPrecisionError):
            adiabatic.phase_estimation_project(
                H, StateVector.basis(3, 0), 2, np.random.default_rng(0))

    def test_default_bits_resolve_gap(self):
        for gap in (0.9, 0.5, 0.1, 0.01):
            b = adiabatic.default_ancilla_bits(gap)
            assert 2.0 ** (-b) < gap / 4 + 1e-15


class TestProjectorSim:
    def test_time_zero_identity(self):
        H = DenseHermitian(np.diag([0.0, 1.0, 2.0]))
        U = adiabatic.projector_hamiltonian_sim(H, 0.0)
        assert np.allclose(U, np.eye(3), atol=1e-9)

    def test_groundstate_unchanged(self):
        rng = np.random.default_rng(61)
        A = rng.normal(size=(4, 4))
        H = DenseHermitian((A + A.T) / 2)
        _, alpha = ground_state(H)
        U = adiabatic.projector_hamiltonian_sim(H, 1.3)
        out = U @ alpha.amplitudes
        assert np.linalg.norm(out - alpha.amplitudes) < 1e-6

    def test_matches_exact_projector_exponential(self):
        rng = np.random.default_rng(62)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        H = DenseHermitian((Q * np.array([0.0, 0.5, 1.3, 2.0])) @ Q.T)
        U = adiabatic.projector_hamiltonian_sim(H, 0.8, b=8)
        exact = adiabatic.exact_projector_exponential(H, 0.8).entries
        assert spectral_norm(U - exact) < 0.02


class TestZeno:
    def test_constant_path_success_one(self):
        psi = StateVector.basis(2, 0)
        path = adiabatic.jagged_path([psi])
        rep = adiabatic.zeno_evolve(path, 10)
        assert rep.success_probability == pytest.approx(1.0)

    def test_success_equals_overlap_product(self):
        rng = np.random.default_rng(71)
        states = [random_state(4, rng) for _ in range(3)]
        path = adiabatic.jagged_path(states)
        R = 30
        rep = adiabatic.zeno_evolve(path, R)
        prod = 1.0
        for j in range(R):
            _, g1 = ground_state(path_hamiltonian(path, j / R))
            _, g2 = ground_state(path_hamiltonian(path, (j + 1) / R))
            prod *= abs(state_overlap(g1, g2)) ** 2
        assert rep.success_probability == pytest.approx(prod, rel=1e-12)

    def test_failure_halves_when_r_doubles(self):
        a, b = state_pair_with_overlap(0.75)
        path = adiabatic.jagged_path([a, b])
        fails = {}
        for R in (200, 400):
            rep = adiabatic.zeno_evolve(path, R)
            fails[R] = 1.0 - rep.success_probability
        ratio = fails[200] / fails[400]
        assert abs(ratio - 2.0) <= 0.4

    def test_monte_carlo_matches_exact(self):
        a, b = state_pair_with_overlap(0.8)
        path = adiabatic.jagged_path([a, b])
        rep = adiabatic.zeno_evolve(path, 100)
        shots = 10_000
        rng = np.random.default_rng(72)
        wins = adiabatic.zeno_success_samples(rep.per_step_overlaps, shots, rng)
        p = rep.success_probability
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(wins / shots - p) <= 3 * sigma


class TestPerturbationBound:
    def test_equal_operators(self):
        H = DenseHermitian(np.diag([0.0, 1.0, 3.0]))
        lhs, rhs = adiabatic.groundstate_perturbation_bound(H, H)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_tiny_perturbation(self):
        rng = np.random.default_rng(81)
        A = rng.normal(size=(5, 5))
        H = DenseHermitian((A + A.T) / 2)
        P = rng.normal(size=(5, 5))
        J = DenseHermitian(H.entries + 1e-6 * (P + P.T) / 2)
        lhs, _ = adiabatic.groundstate_perturbation_bound(H, J)
        assert lhs >= 1 - 1e-8

    def test_one_eigh_per_operator(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        H = DenseHermitian(np.diag([0.0, 1.0, 3.0]))
        J = DenseHermitian(np.diag([0.1, 1.0, 3.0]))
        assert adiabatic.groundstate_perturbation_bound(H, J) == pytest.approx((1.0, 1.0 - 4 * 0.1**2 / 0.9**2))
        assert len(calls) == 2

    def test_degenerate_and_one_dimensional_rejected(self):
        H = DenseHermitian(np.diag([0.0, 0.0, 1.0]))
        lhs, rhs = adiabatic.groundstate_perturbation_bound(H, H)
        assert np.isnan(lhs) and np.isnan(rhs)
        one = DenseHermitian(np.array([[1.0]]))
        with pytest.raises(ValueError, match="dim"):
            adiabatic.groundstate_perturbation_bound(one, one)

    def test_holds_on_random_pairs(self):
        rng = np.random.default_rng(82)
        for _ in range(50):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            H = DenseHermitian((A + A.conj().T) / 2)
            P = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            P = (P + P.conj().T) / 2
            J = DenseHermitian(H.entries + 0.05 * P / max(spectral_norm(P), 1e-12))
            lhs, rhs = adiabatic.groundstate_perturbation_bound(H, J)
            if np.isnan(lhs):
                continue
            assert lhs >= rhs - 1e-12


@st.composite
def stacked_pairs(draw):
    """(H, J, d): 1-7 pairs of N x N Hermitian matrices, N in 2..8, J a perturbation of H
    as zen-bound draws it, and pair d with a degenerate groundstate in H or in J."""
    k, N = draw(st.integers(1, 7)), draw(st.integers(2, 8))
    d = draw(st.integers(0, k - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(k, N, N)) + 1j * rng.normal(size=(k, N, N))
    P = rng.normal(size=(k, N, N)) + 1j * rng.normal(size=(k, N, N))
    H = (A + A.conj().swapaxes(1, 2)) / 2
    P = (P + P.conj().swapaxes(1, 2)) / 2
    J = H + rng.uniform(1e-4, 0.2, size=(k, 1, 1)) * P / np.linalg.norm(P, 2, axis=(1, 2), keepdims=True)
    U = np.linalg.qr(A[d])[0]
    (H if draw(st.booleans()) else J)[d] = (U * np.r_[0.0, 0.0, 1.0 + np.arange(N - 2)]) @ U.conj().T
    return H, J, d


class TestStackedOperands:
    """`spectral_gap` and `groundstate_perturbation_bound` on (k, N, N) stacks against pair-by-pair
    calls and the pair-by-pair reference."""

    @settings(max_examples=150, deadline=None)
    @given(stacked_pairs())
    def test_stack_matches_each_pair(self, instance):
        H, J, d = instance
        lhs, rhs = adiabatic.groundstate_perturbation_bound(H, J)
        gaps = spectral_gap(H)
        assert np.flatnonzero(np.isnan(lhs)).tolist() == [d]
        assert np.flatnonzero(np.isnan(rhs)).tolist() == [d]
        for i in range(len(H)):
            Hi, Ji = DenseHermitian(H[i]), DenseHermitian(J[i])
            assert abs(gaps[i] - spectral_gap(Hi)) <= 1e-12
            if i == d:
                with pytest.raises(DegenerateGroundstateError):
                    perturbation_bound_pair(Hi, Ji)
                continue
            want_lhs, want_rhs = perturbation_bound_pair(Hi, Ji)
            assert abs(lhs[i] - want_lhs) <= 1e-12
            assert abs(rhs[i] - want_rhs) <= 1e-12 * max(1.0, abs(want_rhs))  # 1 - 4 eta^2/gap^2 can be large

    @pytest.mark.parametrize("stack, error, match", [
        (np.zeros((3, 2, 3)), ValueError, "square"),
        (np.zeros(4), ValueError, "square"),
        (np.zeros((3, 1, 1)), ValueError, "dim"),
        (np.array([[[0.0, 1.0], [0.0, 0.0]]]), ValueError, "Hermitian"),
    ])
    def test_bad_stack_rejected(self, stack, error, match):
        with pytest.raises(error, match=match):
            spectral_gap(stack)
        with pytest.raises(error, match=match):
            adiabatic.groundstate_perturbation_bound(stack, stack)

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(DimensionMismatchError):
            adiabatic.groundstate_perturbation_bound(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))

    def test_gap_formula_on_arrays(self):
        ov, eta = np.array([0.0, 0.3, 1.0]), np.array([0.5, 0.2, 0.9])
        gaps = adiabatic.two_projector_gap_formula(ov, eta)
        assert gaps.tolist() == [adiabatic.two_projector_gap_formula(float(o), float(e)) for o, e in zip(ov, eta)]


def gate_matrix(name):
    """The matrix of gate `name` on its own qubits, read off `apply_gate` on the basis states."""
    k = adiabatic.GATES[name][1]
    return adiabatic.apply_gate(np.eye(1 << k, dtype=complex), k, name, tuple(range(k)))


class TestGates:
    def test_sqrt_squares_back(self):
        for kind in ("H", "X", "CCX"):
            S = gate_matrix("S" + kind)
            if kind == "CCX":
                G = np.eye(8, dtype=complex)
                G[6:8, 6:8] = np.array([[0, 1], [1, 0]])
            elif kind == "X":
                G = np.array([[0, 1], [1, 0]], dtype=complex)
            else:
                G = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
            assert np.allclose(S @ S, G, atol=1e-12)

    def test_sqrt_not_matrix(self):
        want = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        assert np.allclose(gate_matrix("SX"), want, atol=1e-12)

    def test_sqrt_diagonal_overlap_floor(self):
        rng = np.random.default_rng(91)
        for kind in ("H", "X", "CCX"):
            S = gate_matrix("S" + kind)
            for _ in range(100):
                beta = random_state(S.shape[0], rng)
                assert abs(np.vdot(beta.amplitudes, S @ beta.amplitudes)) >= INV_SQRT2 - 1e-12

    def test_parse_gate_lines(self):
        gates = adiabatic.parse_gate_lines(3, "# circuit\nH 0\nCCX 0 1 2\nX 1\n")
        assert gates.gates == (("H", (0,)), ("CCX", (0, 1, 2)), ("X", (1,)))

    def test_bad_gate_rejected(self):
        with pytest.raises(ValueError):
            adiabatic.GateSequence(n=2, gates=(("CZ", (0, 1)),))

    def test_ccx_truth_table(self):
        n = 3
        for x in range(8):
            psi = np.zeros(8, dtype=complex)
            psi[x] = 1.0
            out = adiabatic.apply_gate(psi, n, "CCX", (0, 1, 2))
            want = x ^ 1 if x >= 6 else x
            assert out[want] == pytest.approx(1.0)


class TestCompiler:
    def test_empty_circuit_constant_path(self):
        gates = adiabatic.GateSequence(n=2, gates=())
        path = adiabatic.compile_circuit(gates, "10")
        want = adiabatic.projector_hamiltonian(adiabatic.input_state(2, "10"))
        assert np.allclose(path_hamiltonian(path, 0.5).entries, want.entries)
        assert path.overlaps == [1.0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.lists(st.tuples(st.sampled_from(["H", "X", "CCX"]), st.randoms()), max_size=12))
    def test_overlaps_are_the_consecutive_state_overlaps(self, n, picks):
        gates = [(kind, tuple(r.sample(range(n), adiabatic.GATES[kind][1])))
                 for kind, r in picks if adiabatic.GATES[kind][1] <= n]
        sequence = adiabatic.GateSequence(n=n, gates=tuple(gates))
        states = adiabatic.circuit_states(adiabatic.expand_sqrt(sequence), "1")
        want = [abs(state_overlap(a, b)) for a, b in zip(states, states[1:])] or [1.0]
        assert adiabatic.compile_circuit(sequence, "1").overlaps == want

    def test_single_hadamard(self):
        gates = adiabatic.GateSequence(n=1, gates=(("H", (0,)),))
        path = adiabatic.compile_circuit(gates, "0")
        _, final = ground_state(path_hamiltonian(path, 1.0))
        plus = np.array([1, 1]) / math.sqrt(2)
        assert abs(np.vdot(plus, final.amplitudes)) == pytest.approx(1.0, abs=1e-10)
        states = adiabatic.circuit_states(adiabatic.expand_sqrt(gates), "0")
        for x, y in zip(states, states[1:]):
            assert abs(state_overlap(x, y)) >= INV_SQRT2 - 1e-12

    def test_five_gate_circuit_zeno_matches_simulation(self):
        gates = adiabatic.GateSequence(n=3, gates=(
            ("H", (0,)), ("X", (2,)), ("CCX", (0, 2, 1)), ("H", (2,)), ("X", (0,))))
        path = adiabatic.compile_circuit(gates, "000")
        rep = adiabatic.zeno_evolve(path, 2000)
        target = adiabatic.simulate_circuit(gates, "000")
        assert abs(state_overlap(rep.final_state, target)) >= 0.99


class TestSimulatableHandle:
    def test_delta_zero_identity(self):
        gates = adiabatic.GateSequence(n=2, gates=(("H", (0,)),))
        U = adiabatic.simulatable_handle_for_step(gates, "00", 1, 0.0)
        assert np.allclose(U, np.eye(4), atol=1e-12)

    def test_prefix_zero_phases_complement(self):
        gates = adiabatic.GateSequence(n=2, gates=(("H", (0,)),))
        U = adiabatic.simulatable_handle_for_step(gates, "10", 0, 0.5)
        want = np.diag(np.exp(-0.5j) * np.ones(4, dtype=complex))
        want[2, 2] = 1.0  # |10> untouched
        assert np.allclose(U, want, atol=1e-12)

    def test_matches_exact_projector_exponential(self):
        gates = adiabatic.GateSequence(n=2, gates=(("H", (0,)), ("X", (1,))))
        doubled = adiabatic.expand_sqrt(gates)
        states = adiabatic.circuit_states(doubled, "00")
        for j in (0, 1, 3, 4):
            U = adiabatic.simulatable_handle_for_step(gates, "00", j, 0.3)
            exact = matrix_exponential(
                adiabatic.projector_hamiltonian(states[j]), 0.3).entries
            assert np.max(np.abs(U - exact)) < 1e-10
