"""Coloring-based decomposition of row-sparse Hamiltonians into 2x2 blocks.

A row-sparse Hermitian operator is split into combinatorially block-diagonal
pieces (each piece a disjoint union of 1x1 and 2x2 blocks), each piece is
exponentiated exactly, and the pieces are recombined with a symmetric
forward-backward product to approximate the full evolution.  A decomposition
is H's upper-triangle entries sorted by color and cut into pieces; the product
runs over layers, entry ranges of consecutive pieces whose blocks are disjoint,
each applied to the state in place as one map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qcore import DenseHermitian, NumericalError, hermitian_norm, matrix_exponential, spectral_norm


class InconsistentOracleError(ValueError):
    """Oracle triples that are not a row-sparse Hermitian operator."""


class ColoringError(NumericalError, RuntimeError):
    """No separating modulus found for an off-diagonal entry (should be impossible)."""


class StepBudgetError(NumericalError, RuntimeError):
    """trotter_within ran out of Trotter steps before reaching the requested accuracy."""


MAX_TROTTER_STEPS = 1 << 20  # trotter_within's budget


def _mirrors(i: np.ndarray, j: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """For row-major triples: where entry (j, i) of each entry (i, j) sits, and whether it is there."""
    key, mirror_key = i * N + j, j * N + i
    m = np.minimum(np.searchsorted(key, mirror_key), max(key.size - 1, 0))
    return m, key[m] == mirror_key


@dataclass(frozen=True, eq=False)
class SparseHamiltonian:
    """Hermitian operator on n qubits given by its entries H[i[e], j[e]] = v[e].

    The triples may come in any order and may include explicit zeros.  They are
    checked once, here, and stored row-major (each row's columns ascending) with
    the zeros dropped: int64 `i` and `j`, complex `v`.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray
    D: int
    lam: float  # spectral norm bound

    def __post_init__(self):
        N = self.dim
        i, j, v = np.asarray(self.i), np.asarray(self.j), np.asarray(self.v, dtype=complex)
        if not (i.dtype.kind in "iu" and j.dtype.kind in "iu" and i.ndim == j.ndim == v.ndim == 1
                and i.size == j.size == v.size):
            raise InconsistentOracleError("i and j must be 1-D integer arrays as long as the 1-D v")
        if np.any((i < 0) | (i >= N) | (j < 0) | (j >= N)):
            raise InconsistentOracleError(f"row or column index outside [0, {N})")
        i, j = i.astype(np.int64), j.astype(np.int64)
        key = i * N + j
        order = np.argsort(key, kind="stable")
        if np.any(np.diff(key[order]) == 0):
            raise InconsistentOracleError("a row lists the same column twice")
        order = order[v[order] != 0]  # explicit zeros change neither the operator nor its pieces
        i, j, v = i[order], j[order], v[order]
        counts = np.bincount(i, minlength=N)
        if np.any(counts > self.D):
            r = int(np.argmax(counts > self.D))
            raise InconsistentOracleError(f"row {r} has {counts[r]} > D={self.D} nonzeros")
        m, has_mirror = _mirrors(i, j, N)
        if np.any(np.abs(v - np.conjugate(np.where(has_mirror, v[m], 0))) > 1e-12):
            raise InconsistentOracleError("oracle rows are not Hermitian-consistent")
        for name, a in (("i", i), ("j", j), ("v", v)):
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def materialize(self) -> DenseHermitian:
        H = np.zeros((self.dim, self.dim), dtype=complex)
        H[self.i, self.j] = self.v
        return DenseHermitian(H)


def sparse_from_dense(H: DenseHermitian, D: int | None = None, lam: float | None = None) -> SparseHamiltonian:
    N = H.dim
    n = N.bit_length() - 1
    if 1 << n != N:
        raise ValueError("dimension must be a power of two")
    i, j = np.nonzero(H.entries)
    return SparseHamiltonian(
        n=n, i=i, j=j, v=H.entries[i, j],
        D=D if D is not None else max(int(np.bincount(i, minlength=N).max()), 1),
        lam=lam if lam is not None else float(hermitian_norm(H.entries)),
    )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """H's upper-triangle entries H[i[e], j[e]] = v[e] in sorted color order, cut into pieces.

    Piece p is the entries cuts[p]:cuts[p + 1], a disjoint union of blocks.  The first `diagonal`
    entries (color k = 1) are 1x1 blocks H[i, i] = v; every later entry is the 2x2 block
    [[0, v], [v*, 0]] on rows/columns {i, j}, i < j.  The Trotter layers are built on first use and kept.
    """

    i: np.ndarray
    j: np.ndarray
    v: np.ndarray
    cuts: np.ndarray
    diagonal: int

    def __len__(self) -> int:
        return self.cuts.size - 1

    @cached_property
    def layers(self) -> np.ndarray:
        return build_layers(self)


def _separating_moduli(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Smallest k in [2, max(2, n^2)] with i != j mod k, for every pair (i, j) at once; 1 where i == j."""
    k = np.ones_like(i)
    left = np.flatnonzero(i != j)
    for m in range(2, max(2, n * n) + 1):
        if not left.size:
            break
        hit = (j[left] - i[left]) % m != 0
        k[left[hit]] = m
        left = left[~hit]
    if left.size:
        raise ColoringError(f"no separating modulus in [2..{max(2, n * n)}] for ({i[left[0]]}, {j[left[0]]})")
    return k


def decompose(H: SparseHamiltonian) -> Decomposition:
    """Exact split of H into 2x2 combinatorially block-diagonal pieces, in O(nnz).

    H's triples are row-major, so entry e finds its mirror (j, i) by binary
    search on the key i*N + j.  The pieces equal grouping the upper-triangle
    entries by their color (k, i mod k, j mod k, row position, column
    position), in sorted color order.
    """
    N, i, j, v = H.dim, H.i, H.j, H.v
    key = i * N + j
    counts = np.bincount(i, minlength=N)
    position = np.arange(key.size) - (np.cumsum(counts) - counts)[i] + 1  # 1-based, within the row
    m, has_mirror = _mirrors(i, j, N)

    upper = j >= i  # upper triangle including diagonal; mirror comes for free
    rindex, cindex = position[upper], np.where(has_mirror, position[m], 0)[upper]
    iu, ju, vu = i[upper], j[upper], v[upper]
    k = _separating_moduli(iu, ju, H.n)
    colors = np.stack([k, iu % k, ju % k, rindex, cindex])
    order = np.lexsort(colors[::-1])  # stable: row-major within a color
    colors, iu, ju, vu = colors[:, order], iu[order], ju[order], vu[order]
    new_color = np.ones(iu.size, dtype=bool)
    new_color[1:] = np.any(colors[:, 1:] != colors[:, :-1], axis=0)
    bounds = np.append(np.flatnonzero(new_color), iu.size)
    group = np.cumsum(new_color) - 1
    off = colors[0] != 1

    touched = np.sort(np.concatenate((group * N + iu, (group * N + ju)[off])))
    shared = touched[1:][touched[1:] == touched[:-1]]
    if shared.size:
        color = tuple(colors[:, bounds[shared.min() // N]].tolist())
        raise ColoringError(f"blocks of color {color} share indices")
    # The pieces' triples and their 2x2 mirrors must be exactly the oracle's.
    rec_key = np.concatenate((iu * N + ju, (ju * N + iu)[off]))
    rec_v = np.concatenate((np.where(off, vu, vu.real), np.conjugate(vu[off])))
    by_key = np.argsort(rec_key)
    if not (np.array_equal(rec_key[by_key], key) and np.array_equal(rec_v[by_key], v)):
        raise ColoringError("piece sum does not reconstruct H exactly")
    return Decomposition(i=iu, j=ju, v=vu, cuts=bounds, diagonal=int(np.count_nonzero(~off)))


def build_layers(pieces: Decomposition) -> np.ndarray:
    """Entry offsets of the maximal runs of consecutive pieces whose indices are pairwise disjoint.

    Pieces are contiguous in entry order, so each run is an entry range.  The diagonal entries sort
    first and sit on distinct indices, so they all lie at the start of the first run.
    """
    P, d = len(pieces), pieces.diagonal
    group = np.repeat(np.arange(P), np.diff(pieces.cuts))
    index, piece = np.concatenate((pieces.i, pieces.j[d:])), np.concatenate((group, group[d:]))
    order = np.lexsort((piece, index))
    index, piece = index[order], piece[order]
    same = index[1:] == index[:-1]
    last = np.full(P, -1)  # per piece, the last earlier piece on one of its indices
    np.maximum.at(last, piece[1:][same], piece[:-1][same])
    starts = []
    for p, q in enumerate(last.tolist()):
        if not starts or q >= starts[-1]:  # p shares an index with the run that starts at starts[-1]
            starts.append(p)
    return pieces.cuts[starts + [P]]


def trotter_step(pieces: Decomposition, delta: float, state: np.ndarray) -> np.ndarray:
    """Symmetric product, forward over the pieces and then backward, on a vector or on a matrix's columns.

    The state is copied once.  A 1x1 block (d, v) multiplies |d> by e^{-i delta v}; a 2x2 block (i, j, v)
    rotates within span{|i>, |j>}.  A layer's blocks are disjoint, so each layer is applied in place at
    once, and the 1x1 blocks, which open the first layer, first and last.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    out = np.array(state, dtype=complex)
    column = (1,) * (out.ndim - 1)  # broadcast a block's coefficients over a matrix's columns
    d = pieces.diagonal
    dd, diag = pieces.i[:d], np.exp(-1j * delta * pieces.v[:d].real.reshape((d,) + column))
    i, j, v = pieces.i[d:], pieces.j[d:], pieces.v[d:].reshape((pieces.v.size - d,) + column)
    a = np.abs(v)
    c, s = np.cos(a * delta), np.sin(a * delta)
    phase = v / a
    b_ij, b_ji = 1j * phase * s, -1j * np.conjugate(phase) * s
    bounds = np.maximum(pieces.layers - d, 0).tolist()  # the layers' ranges among the 2x2 blocks
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    out[dd] = out[dd] * diag  # not *=: numpy rounds an in-place product of length 1 differently
    for span in spans + spans[::-1]:
        xi, xj = out[i[span]], out[j[span]]  # copies, so xi outlives the write to out[i]
        out[i[span]] = c[span] * xi - b_ij[span] * xj
        out[j[span]] = b_ji[span] * xi + c[span] * xj
    out[dd] = out[dd] * diag
    return out


def trotter_unitary(pieces: Decomposition, delta: float, steps: int, N: int) -> np.ndarray:
    """Dense matrix of (U_delta)^steps: one Trotter step on the identity columns, raised by repeated squaring."""
    return np.linalg.matrix_power(trotter_step(pieces, delta, np.eye(N, dtype=complex)), steps)


def trotter_within(pieces: Decomposition, exact: np.ndarray, t: float, alpha: float,
                   lam: float) -> tuple[np.ndarray, float]:
    """The first (U_delta)^steps within alpha of `exact` = e^{-itH} in operator norm, t > 0, and its error.

    The step count is seeded from the second-order error term M * lam^3 * t^2 / steps
    (M pieces, ||H|| <= lam), then doubled (delta halved, keeping t/2delta an
    integer so the symmetric product telescopes cleanly) until the check
    passes; the error contracts quadratically in delta.
    """
    M = max(len(pieces), 1)
    lam = max(lam, 1e-12)
    # In logs first, where lam^3 cannot overflow; within e times the budget the float form is kept where it computes
    log_seed = (math.log(M) + 3 * math.log(lam) + 2 * math.log(t) - math.log(alpha)) / 2
    over = log_seed > math.log(MAX_TROTTER_STEPS) + 1
    try:
        steps = MAX_TROTTER_STEPS + 1 if over else max(1, math.ceil(math.sqrt(M * lam**3 * t**2 / alpha)))
    except OverflowError:  # lam^3 alone past the float range, the seed within e times the budget
        steps = max(1, math.ceil(math.exp(log_seed)))
    while steps <= MAX_TROTTER_STEPS:
        delta = t / (2 * steps)
        U = trotter_unitary(pieces, delta, steps, exact.shape[0])
        error = spectral_norm(U - exact)
        if error <= alpha:
            return U, error
        steps *= 2
    raise StepBudgetError(f"step budget {MAX_TROTTER_STEPS} exhausted before reaching accuracy {alpha}")


def simulate_sparse(H: SparseHamiltonian, t: float, alpha: float) -> np.ndarray:
    """Dense approximation of e^{-itH} with operator-norm error <= alpha, checked against the exact exponential."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if t == 0:
        return np.eye(H.dim, dtype=complex)
    if t < 0:  # e^{+i|t|H} is the adjoint of e^{-i|t|H}, and so is its approximation
        return simulate_sparse(H, -t, alpha).conj().T
    pieces = decompose(H)
    return trotter_within(pieces, matrix_exponential(H.materialize(), t).entries, t, alpha, H.lam)[0]
