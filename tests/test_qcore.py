"""Core linear algebra: norms, exponentials, gaps, groundstates."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiagen.qcore import (
    DegenerateGroundstateError,
    DenseHermitian,
    DimensionMismatchError,
    StateVector,
    UnitaryMatrix,
    ground_state,
    matrix_exponential,
    random_sparse_hermitian,
    spectral_gap,
    spectral_norm,
    state_overlap,
)


def random_hermitian(dim, rng):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DenseHermitian((A + A.conj().T) / 2)


def power_iteration_norm(A, iters=500):
    """Independent oracle: largest singular value via power iteration on A^dag A."""
    A = np.asarray(A, dtype=complex)
    rng = np.random.default_rng(0)
    v = rng.normal(size=A.shape[1]) + 1j * rng.normal(size=A.shape[1])
    v /= np.linalg.norm(v)
    B = A.conj().T @ A
    for _ in range(iters):
        v = B @ v
        v /= np.linalg.norm(v)
    return math.sqrt(abs(np.vdot(v, B @ v)))


def taylor_exponential(H, t, terms=20):
    """Independent oracle: truncated power series for e^{-iHt}."""
    M = -1j * t * H.entries
    out = np.eye(H.dim, dtype=complex)
    term = np.eye(H.dim, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(8, rng)
        assert spectral_norm(H) == pytest.approx(power_iteration_norm(H.entries), abs=1e-8)

    def test_submultiplicative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            B = rng.normal(size=(6, 6))
            assert spectral_norm(A @ B) <= spectral_norm(A) * spectral_norm(B) + 1e-9

    def test_bounded_by_entry_count(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            H = random_hermitian(5, rng)
            D = H.dim
            assert spectral_norm(H) <= D * D * np.max(np.abs(H.entries)) + 1e-9


class TestMatrixExponential:
    def test_zero_hamiltonian(self):
        U = matrix_exponential(DenseHermitian(np.zeros((3, 3))), t=2.5)
        assert np.allclose(U.entries, np.eye(3))

    def test_diagonal_at_pi(self):
        U = matrix_exponential(DenseHermitian(np.diag([1.0, -1.0])), t=math.pi)
        assert np.allclose(U.entries, -np.eye(2), atol=1e-12)

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(21)
        H = random_hermitian(4, rng)
        U = matrix_exponential(H, t=0.7)
        assert np.max(np.abs(U.entries - taylor_exponential(H, 0.7))) < 1e-8

    def test_output_is_unitary(self):
        rng = np.random.default_rng(22)
        H = random_hermitian(6, rng)
        U = matrix_exponential(H, t=1.3)
        assert isinstance(U, UnitaryMatrix)

    def test_additive_in_time(self):
        rng = np.random.default_rng(23)
        H = random_hermitian(4, rng)
        U1 = matrix_exponential(H, 0.4).entries
        U2 = matrix_exponential(H, 0.9).entries
        U3 = matrix_exponential(H, 1.3).entries
        assert np.allclose(U2 @ U1, U3, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DenseHermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralGap:
    def test_projector(self):
        H = DenseHermitian(np.eye(3) - np.outer([1, 0, 0], [1, 0, 0]))
        assert spectral_gap(H) == pytest.approx(1.0)

    def test_two_projector_midpoint(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            H = DenseHermitian(np.eye(4) - 0.5 * np.outer(a, a.conj()) - 0.5 * np.outer(b, b.conj()))
            assert spectral_gap(H) == pytest.approx(abs(np.vdot(a, b)), abs=1e-10)

    def test_three_state_chain_vs_char_poly(self):
        # Independent oracle: roots of the characteristic polynomial.
        M = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        pi = np.array([0.25, 0.5, 0.25])
        sq = np.sqrt(pi)
        H = np.eye(3) - (sq[:, None] * M) / sq[None, :]
        H = (H + H.T) / 2
        coeffs = np.poly(H)
        roots = np.sort(np.real(np.roots(coeffs)))
        assert spectral_gap(DenseHermitian(H)) == pytest.approx(roots[1] - roots[0], abs=1e-8)


class TestGroundState:
    def test_diagonal(self):
        val, vec = ground_state(DenseHermitian(np.diag([0.0, 5.0, 7.0])))
        assert val == pytest.approx(0.0)
        assert np.allclose(vec.amplitudes, [1, 0, 0])

    def test_projector_groundstate(self):
        rng = np.random.default_rng(41)
        p = rng.random(4)
        p /= p.sum()
        target = np.sqrt(p)
        H = DenseHermitian(np.eye(4) - np.outer(target, target))
        val, vec = ground_state(H)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(np.abs(vec.amplitudes), target, atol=1e-10)

    def test_chain_hamiltonian_matches_linear_solve(self):
        M = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        # Oracle: pi solves pi (M - I) = 0 with sum 1, via lstsq.
        A = np.vstack([M.T - np.eye(3), np.ones(3)])
        pi, *_ = np.linalg.lstsq(A, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)
        sq = np.sqrt(pi)
        H = np.eye(3) - (sq[:, None] * M) / sq[None, :]
        _, vec = ground_state(DenseHermitian((H + H.T) / 2))
        assert np.allclose(np.abs(vec.amplitudes), sq, atol=1e-8)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGroundstateError):
            ground_state(DenseHermitian(np.eye(3)))

    def test_phase_fixed_deterministic(self):
        rng = np.random.default_rng(42)
        H = random_hermitian(5, rng)
        _, v1 = ground_state(H)
        _, v2 = ground_state(H)
        assert np.array_equal(v1.amplitudes, v2.amplitudes)
        pivot = v1.amplitudes[np.argmax(np.abs(v1.amplitudes) > 1e-12)]
        assert pivot.imag == pytest.approx(0.0, abs=1e-12)
        assert pivot.real > 0

    def test_eigen_residual(self):
        rng = np.random.default_rng(43)
        H = random_hermitian(6, rng)
        val, vec = ground_state(H)
        assert np.linalg.norm(H.entries @ vec.amplitudes - val * vec.amplitudes) < 1e-10


class TestStateOverlap:
    def test_self_overlap(self):
        psi = StateVector.basis(4, 2)
        assert state_overlap(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert state_overlap(StateVector.basis(4, 0), StateVector.basis(4, 1)) == 0

    def test_plus_state(self):
        plus = StateVector.from_amplitudes([1, 1])
        assert state_overlap(plus, StateVector.basis(2, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            state_overlap(StateVector.basis(2, 0), StateVector.basis(4, 0))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_qubit_count(self):
        assert StateVector.basis(8, 0).n == 3
        assert StateVector.basis(3, 0).n is None

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([np.nan, 1.0]))

    def test_from_amplitudes_normalizes(self):
        assert np.allclose(StateVector.from_amplitudes([3.0, 4.0j]).amplitudes, [0.6, 0.8j], rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error")  # rejected before dividing: no RuntimeWarning, no NaN state
    @pytest.mark.parametrize("amps", [np.zeros(4), [1.0, np.nan], [np.inf, 0.0]], ids=["zero", "nan", "inf"])
    def test_from_amplitudes_rejects_zero_or_non_finite_norm(self, amps):
        with pytest.raises(ValueError, match="zero or non-finite norm"):
            StateVector.from_amplitudes(amps)


class TestRandomSparseHermitian:
    def test_deterministic(self):
        a = random_sparse_hermitian(1, 2, 1.0, seed=7)
        b = random_sparse_hermitian(1, 2, 1.0, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_row_budget_and_norm(self):
        for seed in range(10):
            H = random_sparse_hermitian(4, 3, 2.0, seed=seed)
            counts = np.count_nonzero(H.entries, axis=1)
            assert np.max(counts) <= 3
            assert spectral_norm(H) <= 2.0 + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 128), st.floats(0.1, 4.0), st.integers(0, 2**32 - 1))
    def test_contract(self, n, D, lam, seed):
        """<= D nonzeros per row, exactly Hermitian, norm lam (unless empty), the same H for the same seed."""
        D = min(D, 1 << n)
        H = random_sparse_hermitian(n, D, lam, seed).entries
        assert np.max(np.count_nonzero(H, axis=1)) <= D
        assert np.array_equal(H, H.conj().T)
        assert not H.any() or abs(spectral_norm(H) - lam) <= 1e-12 * lam
        assert np.array_equal(H, random_sparse_hermitian(n, D, lam, seed).entries)

    @pytest.mark.parametrize("D", [1, 2])
    def test_one_qubit(self, D):
        draws = [random_sparse_hermitian(1, D, 1.0, seed).entries for seed in range(50)]
        for H in draws:
            assert H.shape == (2, 2) and np.max(np.count_nonzero(H, axis=1)) <= D
            assert np.array_equal(H, H.conj().T)
            assert not H.any() or abs(spectral_norm(H) - 1.0) <= 1e-12
        assert sum(H.any() for H in draws) >= 40  # empty only when no diagonal and no pair is drawn

    @pytest.mark.parametrize("n, D, lam", [(1, 3, 1.0), (3, 9, 1.0), (2, 0, 1.0), (2, 2, 0.0), (2, 2, -1.0)])
    def test_infeasible_rejected(self, n, D, lam):
        with pytest.raises(ValueError):
            random_sparse_hermitian(n, D, lam, seed=1)

    def test_oversized_rejected_before_any_allocation(self, monkeypatch):
        monkeypatch.setattr(np, "zeros", None)  # an 8192 x 8192 draw would allocate 1 GiB first
        with pytest.raises(ValueError, match="2\\^13 exceeds desk-scale limit 4096"):
            random_sparse_hermitian(13, 4, 1.0, seed=1)
