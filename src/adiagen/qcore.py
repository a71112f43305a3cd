"""Exact complex linear algebra: states, Hermitian operators, spectra, exponentials.

Everything here is computed by full eigendecomposition (desk scale, dim <= 4096)
and serves as the ground-truth oracle for the rest of the package.  hbar = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
DEGENERACY_TOL = 1e-10
MAX_DIM = 4096


class NumericalError(Exception):
    """A computation failed on its numbers (degenerate spectrum, exhausted budget), not on its input's form."""


class DegenerateGroundstateError(NumericalError, ValueError):
    """Raised when a unique groundstate is required but the gap is below tolerance."""


class DimensionMismatchError(ValueError):
    pass


def _as_complex_array(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector.

    The natural habitat is dimension 2^n (n qubits); non-power-of-two state
    spaces (e.g. Markov chains before padding) are allowed, in which case
    ``n`` is None.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a nonempty vector")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:  # a NaN norm fails too
            raise ValueError(f"state not normalized: |psi| = {norm}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def n(self) -> int | None:
        d = self.dim
        return d.bit_length() - 1 if d & (d - 1) == 0 else None

    @staticmethod
    def from_amplitudes(amps) -> "StateVector":
        """The state along `amps`, scaled to unit norm; a zero or non-finite norm is rejected."""
        amps = _as_complex_array(amps)
        norm = np.linalg.norm(amps)
        if not 0 < norm < np.inf:
            raise ValueError(f"amplitudes have a zero or non-finite norm ({norm}); cannot normalize")
        return StateVector(amps / norm)

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return StateVector(amps)


@dataclass(frozen=True)
class DenseHermitian:
    """Hermitian matrix (energy units, hbar = 1)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_array(self.entries)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be square")
        if m.shape[0] > MAX_DIM:
            raise ValueError(f"dimension {m.shape[0]} exceeds desk-scale limit {MAX_DIM}")
        resid = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if resid > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: residual {resid}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class UnitaryMatrix:
    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_array(self.entries)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be square")
        resid = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if resid > 1e-9:
            raise ValueError(f"matrix not unitary: residual {resid}")


def spectral_norm(A) -> float:
    """Largest singular value; for Hermitian input the largest |eigenvalue|."""
    m = A.entries if isinstance(A, DenseHermitian) else _as_complex_array(A)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def matrix_exponential(H: DenseHermitian, t: float) -> UnitaryMatrix:
    """e^{-iHt} via full eigendecomposition."""
    vals, V = np.linalg.eigh(H.entries)
    phases = np.exp(-1j * vals * t)
    return UnitaryMatrix((V * phases) @ V.conj().T)


def hermitian_entries(H) -> np.ndarray:
    """The entries of a DenseHermitian, or a (..., N, N) stack checked in one pass.

    Either must have N >= 2; a stack must be square and Hermitian within
    HERMITICITY_TOL.
    """
    if isinstance(H, DenseHermitian):
        m = H.entries  # checked when H was built
    else:
        m = _as_complex_array(H)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"need a stack of square matrices, got shape {m.shape}")
        resid = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0)
        if resid > HERMITICITY_TOL:
            raise ValueError(f"stack not Hermitian: residual {resid}")
    if m.shape[-1] < 2:
        raise ValueError(f"spectral gap needs dim >= 2, got dim {m.shape[-1]}")
    return m


def hermitian_norm(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a Hermitian (..., N, N) stack: its largest |eigenvalue|."""
    return np.max(np.abs(np.linalg.eigvalsh(stack)), axis=-1)


def spectral_gap(H):
    """Difference between the two smallest eigenvalues.

    A DenseHermitian gives a float; a (..., N, N) stack gives the array of
    its matrices' gaps, from one eigvalsh call.
    """
    vals = np.linalg.eigvalsh(hermitian_entries(H))
    gaps = vals[..., 1] - vals[..., 0]
    return float(gaps) if isinstance(H, DenseHermitian) else gaps


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the first component of nonnegligible magnitude real positive."""
    idx = np.argmax(np.abs(v) > 1e-12)
    pivot = v[idx]
    if abs(pivot) == 0:
        return v
    return v * (abs(pivot) / pivot)


def ground_state(H: DenseHermitian) -> tuple[float, StateVector]:
    """Groundvalue and groundstate, phase-fixed; errors out on a gap below DEGENERACY_TOL."""
    vals, vecs = np.linalg.eigh(H.entries)
    if vals.size >= 2 and vals[1] - vals[0] < DEGENERACY_TOL:
        raise DegenerateGroundstateError(
            f"groundstate degenerate: gap {vals[1] - vals[0]:.3e} < tol {DEGENERACY_TOL:.3e}")
    v = _fix_phase(vecs[:, 0])
    return float(vals[0]), StateVector.from_amplitudes(v)


def state_overlap(psi: StateVector, phi: StateVector) -> complex:
    if psi.dim != phi.dim:
        raise DimensionMismatchError(f"dims {psi.dim} != {phi.dim}")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def _pair_stubs(stubs: np.ndarray, kept: np.ndarray, N: int, rng: np.random.Generator):
    """Shuffle the row stubs and join them two by two into off-diagonal pairs (i, j), i < j.

    A pair is kept when it joins two different rows that neither `kept` (keys
    i*N + j) nor an earlier pair joins already.  Returns the keys kept, `kept`
    first, and the stubs of the pairs dropped.
    """
    stubs = rng.permutation(stubs)
    m = stubs.size // 2
    a, b = stubs[0:2 * m:2], stubs[1:2 * m:2]
    key = np.concatenate((kept, np.minimum(a, b) * N + np.maximum(a, b)))
    first = np.zeros(key.size, dtype=bool)
    first[np.unique(key, return_index=True)[1]] = True
    new = first[kept.size:] & (a != b)
    return (np.concatenate((kept, key[kept.size:][new])),
            np.concatenate((a[~new], b[~new], stubs[2 * m:])))


def random_sparse_hermitian(n: int, D: int, lam: float, seed: int) -> DenseHermitian:
    """Random Hermitian test instance: <= D nonzeros per row, norm lam.

    Deterministic per seed.  Each diagonal entry is N(0, 1) with probability
    1/2.  Each row's remaining slots are stubs, paired at random into
    off-diagonal entries v ~ N(0, 1) + i N(0, 1) with the mirror v*; the stubs
    lost to self-pairs and repeats are paired once more.  H is then rescaled
    to spectral norm lam.  O(N D log(N D)) to draw, plus the norm's SVD.
    """
    if D < 1 or lam <= 0:
        raise ValueError("need D >= 1 and lam > 0")
    N = 1 << n
    if N > MAX_DIM:
        raise ValueError(f"dimension 2^{n} exceeds desk-scale limit {MAX_DIM}")
    if D > N:
        raise ValueError(f"row sparsity D={D} infeasible for dim {N}")
    rng = np.random.default_rng(seed)
    H = np.zeros((N, N), dtype=complex)
    has_diag = rng.random(N) < 0.5
    d = np.flatnonzero(has_diag)
    H[d, d] = rng.normal(size=d.size)

    stubs = np.repeat(np.arange(N), D - has_diag)  # one per free slot of each row
    keys, lost = _pair_stubs(stubs, np.empty(0, dtype=stubs.dtype), N, rng)
    keys, _ = _pair_stubs(lost, keys, N, rng)
    i, j = np.divmod(keys, N)
    v = rng.normal(size=keys.size) + 1j * rng.normal(size=keys.size)
    H[i, j] = v
    H[j, i] = v.conj()

    norm = spectral_norm(H)
    if norm > 0:
        H *= lam / norm
    return DenseHermitian(H)
